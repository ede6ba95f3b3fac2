"""Benchmark of the smartlong analysis pipeline, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload large-clusters --seed 1 --seconds 15 --trace 0

The run draws its workload's trials from ``--seed`` and then repeats the full
user analysis on them for about ``--seconds`` seconds: parse the long-table
text (where the workload has one), ``fit``, build every regime-pair contrast
and Wald-test it.  One pass analyses each of the seed's trials once; a timing
is the pass's wall time divided by its number of analyses, and the reported
value is the median over passes.  Every analysis is checked (see
``checks.py``); a failed check or an exception counts as a failed analysis.

``--trace 0`` reports the end-to-end metrics: ``analysis_s``, ``setup_s``
(``import smartlong`` in a fresh interpreter, median of several) and
``peak_mem_mb`` (tracemalloc peak of one analysis, in an untimed first pass).
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics listed in ``PER_LAYER``; it writes its spans to ``.bench_out/``.

BLAS is pinned to one thread before NumPy is imported.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
MAX_REPORTED_PROBLEMS = 20

# per-layer metric -> (key of a per-analysis trace row, unit); "<span>.self_s"
# is the span's duration minus its children's, "<span>.total_s" includes them.
# Values are per analysis.  Where each layer should move analysis_s:
#   data.*, design.*, meanmodel.*, gee.fit_self_s,
#   gee.estimate_weight_model_s               many-small-clusters
#   workingcov.build_V_*, gee.cho_*,
#   gee.finite_sample_adjust_s                large-clusters (and peak_mem_mb there)
#   workingcov.estimate_alpha_*, gee.wald_test_*  sim-replicates, many-small-clusters
#   gee.fit_iterations                        all: it multiplies every per-iteration stage
PER_LAYER = {
    "data.parse_long_table_s": ("data.parse_long_table.self_s", "s"),
    "data.validate_s": ("data.validate.self_s", "s"),
    "data.validate_calls": ("data.validate.calls", "count"),
    "design.consistency_indicator_calls": ("design.consistency_indicator.calls", "count"),
    "meanmodel.contrast_s": ("meanmodel.contrast.self_s", "s"),
    "meanmodel.contrast_calls": ("meanmodel.contrast.calls", "count"),
    "workingcov.build_V_s": ("workingcov.build_V.self_s", "s"),
    "workingcov.build_V_calls": ("workingcov.build_V.calls", "count"),
    "workingcov.build_V_mbytes": ("workingcov.build_V.mbytes", "MB"),
    "workingcov.estimate_alpha_s": ("workingcov.estimate_alpha.self_s", "s"),
    "workingcov.estimate_alpha_calls": ("workingcov.estimate_alpha.calls", "count"),
    "gee.cho_factor_s": ("gee.cho_factor.self_s", "s"),
    "gee.cho_factor_calls": ("gee.cho_factor.calls", "count"),
    "gee.cho_factor_gflop": ("gee.cho_factor.gflop", "GFLOP"),
    "gee.cho_solve_s": ("gee.cho_solve.self_s", "s"),
    "gee.cho_solve_calls": ("gee.cho_solve.calls", "count"),
    "gee.finite_sample_adjust_s": ("gee.finite_sample_adjust.self_s", "s"),
    "gee.sandwich_covariance_s": ("gee.sandwich_covariance.self_s", "s"),
    "gee.fit_s": ("gee.fit.total_s", "s"),
    "gee.fit_self_s": ("gee.fit.self_s", "s"),
    "gee.estimate_weight_model_s": ("gee.estimate_weight_model.self_s", "s"),
    "gee.wald_test_s": ("gee.wald_test.self_s", "s"),
    "gee.wald_test_calls": ("gee.wald_test.calls", "count"),
    "gee.fit_iterations": ("gee.fit.iterations", "count"),
    "trace.analysis_s": ("analysis.total_s", "s"),
}


def prepare() -> None:
    """Pin BLAS threads and import smartlong from this checkout's sources."""
    if not (SRC / "smartlong" / "__init__.py").is_file():
        raise SystemExit(f"error: no smartlong sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import smartlong

    if Path(smartlong.__file__).resolve().parent != SRC / "smartlong":
        raise SystemExit(f"error: imported smartlong from {smartlong.__file__}, not {SRC}")


def analyse(trial, workload):
    """The user's analysis of one trial, calling the library through its package."""
    import smartlong as sl
    from checks import Outcome
    from workloads import CONTRAST_BUILDERS, mean_spec_for, regime_pairs

    if trial.text is not None:
        ds = sl.parse_long_table(trial.text, trial.schema)
    else:
        ds = trial.dataset
    spec = mean_spec_for(ds)
    result = sl.fit(ds, spec, workload.cov_spec, workload.options)
    contrasts = [
        getattr(sl, builder)(spec, d, d_prime)
        for builder in CONTRAST_BUILDERS
        for d, d_prime in regime_pairs(ds.design)
    ]
    walds = [sl.wald_test(result, c) for c in contrasts]
    return Outcome(ds, spec, result, contrasts, walds)


class Ledger:
    """Counts analyses and failures; checks each trial's first outcome once.

    Later analyses of a trial must reproduce its first outcome; the first
    outcome gets the independent check and, where recorded, the reference
    comparison when ``finish`` runs, outside every timing.
    """

    def __init__(self, workload, trials, reference: Optional[List[dict]]) -> None:
        self.workload = workload
        self.trials = trials
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.first: Dict[int, object] = {}
        self.matching: Dict[int, int] = defaultdict(int)  # analyses equal to the first
        self.iterations: Dict[int, int] = {}

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(message)

    def attempt(self, idx: int, run: Callable[[], object]) -> Optional[float]:
        """Run one analysis of trial ``idx``; its wall seconds, or None if it raised."""
        from checks import REPEAT_TOLERANCE, compare

        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = run()
        except Exception as exc:  # a failed analysis is counted, the run goes on
            self.fail(f"trial {idx}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        if idx not in self.first:
            self.first[idx] = outcome
            self.iterations[idx] = outcome.result.iterations
            self.matching[idx] += 1
        else:
            problems = compare(outcome.summary(), self.first[idx].summary(), REPEAT_TOLERANCE)
            if problems:
                self.fail(f"trial {idx} repeated differently: {'; '.join(problems)}")
            else:
                self.matching[idx] += 1
        return seconds

    def finish(self) -> None:
        from checks import TOLERANCE, compare, independent_check

        for idx, outcome in sorted(self.first.items()):
            try:
                problems = independent_check(
                    outcome, self.trials[idx].dataset, self.workload.cov_spec, self.workload.options
                )
                if self.reference is not None:
                    problems += compare(outcome.summary(), self.reference[idx], TOLERANCE)
            except Exception as exc:  # the check itself could not be completed
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.fail(f"trial {idx}: {'; '.join(problems)}", count=self.matching[idx])


def passes(seconds: float, run_pass: Callable[[], Optional[float]]) -> List[float]:
    """Repeat ``run_pass`` while another pass is expected to fit in ``seconds``.

    Always runs at least one pass; returns the per-pass values that completed.
    """
    values: List[float] = []
    durations: List[float] = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        gc.collect()  # every pass starts from the same heap state
        t0 = time.perf_counter()
        value = run_pass()
        durations.append(time.perf_counter() - t0)
        if value is not None:
            values.append(value)
    return values


def pass_seconds(ledger: Ledger, n_trials: int, analyse_one: Callable[[int], object]) -> Optional[float]:
    """Analyse every trial once; wall seconds per analysis, or None on any failure."""
    total = 0.0
    for idx in range(n_trials):
        seconds = ledger.attempt(idx, lambda: analyse_one(idx))
        if seconds is None:
            return None
        total += seconds
    return total / n_trials


def import_seconds() -> float:
    """Wall seconds of ``import smartlong`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import smartlong; "
        "print(time.perf_counter() - t); print(smartlong.__file__)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = out.stdout.split()
    if Path(path).resolve().parent != SRC / "smartlong":
        raise RuntimeError(f"fresh interpreter imported smartlong from {path}")
    return float(seconds)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def install_spans(tracer) -> None:
    """Wrap the public callables each layer calls through."""
    import numpy as np

    import smartlong
    from smartlong import data, gee
    from workloads import CONTRAST_BUILDERS

    def matrix_rows(args) -> int:
        return np.shape(args[0])[0] if args else 0

    tracer.span(smartlong, "parse_long_table", "data.parse_long_table")
    tracer.span(data, "validate", "data.validate")
    tracer.span(gee, "validate", "data.validate")
    tracer.count(data, "consistency_indicator", "design.consistency_indicator")
    tracer.count(gee, "consistency_indicator", "design.consistency_indicator")
    for builder in CONTRAST_BUILDERS:
        tracer.span(smartlong, builder, "meanmodel.contrast")
    tracer.span(smartlong, "fit", "gee.fit")
    tracer.span(smartlong, "wald_test", "gee.wald_test")
    tracer.span(gee, "build_V", "workingcov.build_V",
                sizes={"workingcov.build_V.mbytes": lambda args, V: np.asarray(V).nbytes / 1e6})
    tracer.span(gee, "estimate_alpha", "workingcov.estimate_alpha")
    tracer.span(gee, "cho_factor", "gee.cho_factor",
                sizes={"gee.cho_factor.gflop": lambda args, _: matrix_rows(args) ** 3 / 3e9})
    tracer.span(gee, "cho_solve", "gee.cho_solve")
    tracer.span(gee, "estimate_weight_model", "gee.estimate_weight_model")
    tracer.span(gee, "finite_sample_adjust", "gee.finite_sample_adjust")
    tracer.span(gee, "sandwich_covariance", "gee.sandwich_covariance")


def run_end_to_end(ledger: Ledger, workload, trials, seconds: float, setup_repeats: int) -> Dict[str, dict]:
    phases = {"setup": time.perf_counter()}
    setup = [import_seconds() for _ in range(setup_repeats)]

    # the untimed first analysis measures memory and warms every lazy path
    phases["memory pass"] = time.perf_counter()
    tracemalloc.start()
    try:
        ledger.attempt(0, lambda: analyse(trials[0], workload))
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    phases["timed passes"] = time.perf_counter()
    per_pass = passes(seconds, lambda: pass_seconds(
        ledger, len(trials), lambda idx: analyse(trials[idx], workload)))
    phases["checks"] = time.perf_counter()
    ledger.finish()
    phases["end"] = time.perf_counter()
    marks = list(phases.items())
    print("phase seconds: " + ", ".join(
        f"{name} {end - start:.1f}" for (name, start), (_, end) in zip(marks, marks[1:])))

    print(f"analysis_s {statistics.median(per_pass):.4f} s: median of {len(per_pass)} passes "
          f"over {len(trials)} trials; per pass {', '.join(f'{v:.4f}' for v in per_pass)}"
          if per_pass else "analysis_s: no pass completed")
    print(f"setup_s {statistics.median(setup):.4f} s: median of {len(setup)} fresh-interpreter imports; "
          f"{', '.join(f'{v:.4f}' for v in setup)}")
    print(f"peak_mem_mb {peak_bytes / 1e6:.2f} MB: tracemalloc peak of one analysis of trial 0")
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_mem_mb": {"value": peak_bytes / 1e6, "unit": "MB"},
    }
    if per_pass:
        metrics["analysis_s"] = {"value": statistics.median(per_pass), "unit": "s"}
    return metrics


def run_traced(ledger: Ledger, workload, trials, seconds: float, spans_path: Path) -> Dict[str, dict]:
    from spans import Tracer

    ledger.attempt(0, lambda: analyse(trials[0], workload))  # warm-up, untraced
    tracer = Tracer()
    install_spans(tracer)

    def traced_one(idx: int):
        tracer.begin_analysis()
        with tracer:
            outcome = tracer.root("analysis", lambda: analyse(trials[idx], workload))
        tracer.counts[tracer.analysis]["gee.fit.iterations"] = outcome.result.iterations
        return outcome

    overheads: List[float] = []
    traced_passes: List[List[int]] = []

    def run_pair() -> Optional[float]:
        plain = pass_seconds(ledger, len(trials), lambda idx: analyse(trials[idx], workload))
        first = tracer.analysis + 1
        traced = pass_seconds(ledger, len(trials), traced_one)
        traced_passes.append(list(range(first, tracer.analysis + 1)))
        if plain is None or traced is None:
            return None
        overheads.append(traced - plain)
        return traced

    passes(seconds, run_pair)
    ledger.finish()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    rows = tracer.per_analysis()
    complete = [p for p in traced_passes if len(p) == len(trials)]
    metrics = {}
    for name, (key, unit) in PER_LAYER.items():
        per_pass = [statistics.fmean(rows[a].get(key, 0.0) for a in p) for p in complete]
        if per_pass:
            metrics[name] = {"value": statistics.median(per_pass), "unit": unit}
    if overheads:
        metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    print(f"traced {len(complete)} passes over {len(trials)} trials; spans written to {spans_path}")
    if "trace.analysis_s" in metrics:
        total = metrics["trace.analysis_s"]["value"]
        for group in (("workingcov.build_V_s", "gee.cho_factor_s"),
                      ("data.parse_long_table_s", "gee.fit_self_s")):
            share = sum(metrics[m]["value"] for m in group) / total
            print(f"{' + '.join(group)} = {share:.1%} of traced analysis time")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, one setup import, no reference values")
    args = parser.parse_args(argv)

    prepare()
    from workloads import WORKLOADS, make_trials

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    trials = make_trials(workload, args.seed, tiny=tiny)

    reference = None
    ref_path = BENCH_DIR / "reference.json"
    if not tiny and ref_path.is_file():
        recorded = json.loads(ref_path.read_text())["workloads"].get(workload.name, {})
        reference = recorded.get(str(args.seed))

    print(f"workload {workload.name}, seed {args.seed}, scale {args.scale}, "
          f"{len(trials)} trials, trace {args.trace}")
    print("environment " + json.dumps(environment()))
    ledger = Ledger(workload, trials, reference)
    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        metrics = run_traced(ledger, workload, trials, args.seconds, spans_path)
    else:
        metrics = run_end_to_end(ledger, workload, trials, args.seconds, 1 if tiny else SETUP_REPEATS)

    print("fit iterations per trial: " + ", ".join(str(ledger.iterations.get(i)) for i in range(len(trials))))
    print(f"error_rate {ledger.failed / max(ledger.attempted, 1):.4f} ratio: "
          f"{ledger.failed} of {ledger.attempted} analyses failed")
    print("reference values: " + ("compared" if reference is not None else "none recorded for this seed"))
    for problem in ledger.problems:
        print(f"problem: {problem}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
