"""Record the benchmark's reference outputs at its default seeds.

Run from the repository root:

    python3 bench/record_reference.py

For every workload and each seed in ``DEFAULT_SEEDS`` it analyses every
trial once, requires the independent check to pass, and writes theta, Sigma
and the Wald z values to ``bench/reference.json``.  Later runs at these seeds
compare against the file with ``checks.TOLERANCE``.  Record only from a
commit whose results are trusted: re-recording after a change hides the very
differences the comparison exists to catch.
"""
from __future__ import annotations

import json
import sys

import run

DEFAULT_SEEDS = range(5)


def _number_list(values) -> str:
    return "[" + ", ".join(f"{v:.15g}" for v in values) + "]"


def main() -> int:
    run.prepare()
    from checks import TOLERANCE, independent_check
    from workloads import WORKLOADS, make_trials

    lines = ["{", f' "tolerance": {TOLERANCE},', f' "seeds": {list(DEFAULT_SEEDS)},', ' "workloads": {']
    for w_pos, workload in enumerate(WORKLOADS.values()):
        lines.append(f'  "{workload.name}": {{')
        for s_pos, seed in enumerate(DEFAULT_SEEDS):
            entries = []
            for idx, trial in enumerate(make_trials(workload, seed)):
                outcome = run.analyse(trial, workload)
                problems = independent_check(outcome, trial.dataset, workload.cov_spec, workload.options)
                if problems:
                    print(f"{workload.name} seed {seed} trial {idx}: {problems}", file=sys.stderr)
                    return 1
                summary = outcome.summary()
                entries.append("    {" + ", ".join(
                    f'"{key}": {_number_list(summary[key])}' for key in ("theta", "sigma", "z")
                ) + "}")
            comma = "," if s_pos < len(DEFAULT_SEEDS) - 1 else ""
            lines.append(f'   "{seed}": [\n' + ",\n".join(entries) + f"\n   ]{comma}")
            print(f"{workload.name} seed {seed}: {len(entries)} trials recorded", file=sys.stderr)
        lines.append("  }" + ("," if w_pos < len(WORKLOADS) - 1 else ""))
    lines += [" }", "}"]
    text = "\n".join(lines) + "\n"
    json.loads(text)  # refuse to write a file the benchmark could not read
    (run.BENCH_DIR / "reference.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
