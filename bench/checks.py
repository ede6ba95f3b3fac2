"""Correctness checks on the outputs of one analysis.

``independent_check`` recomputes the estimating-equation residual, the
sandwich covariance and every Wald statistic from the returned estimates,
through the public per-cluster building blocks (``build_V``,
``stack_design_matrix``, ``design_weight``, ``consistency_indicator``)
rather than the engine's batched workspace.  The bias-corrected meat uses the
Woodbury form of the inverse leverage, (I - H)^-1 = I + D (A/w - D'V^-1 D)^-1
D'V^-1, where the engine solves the dense hat block.  ``compare`` checks an
outcome against recorded reference values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm, t as student_t

import smartlong as sl

# relative tolerance against recorded or recomputed values: loose enough for
# the 1e-8 stopping rule on theta, tight enough to catch a wrong sandwich
TOLERANCE = 1e-6
# the estimating equation holds to round-off at the returned theta and alpha
EE_TOLERANCE = 1e-8
# repeated analyses of one trial must agree to round-off
REPEAT_TOLERANCE = 1e-10


@dataclass
class Outcome:
    """What one analysis returned."""

    dataset: sl.TrialDataset
    spec: sl.MeanModelSpec
    result: sl.FitResult
    contrasts: List[sl.ContrastVector]
    walds: List[sl.WaldResult]

    def summary(self) -> Dict[str, list]:
        return {
            "theta": self.result.theta.full.tolist(),
            "sigma": self.result.sigma_theta.ravel().tolist(),
            "z": [w.statistic for w in self.walds],
        }


def _rel_error(got: Sequence[float], want: Sequence[float]) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def compare(summary: Dict[str, list], want: Dict[str, list], tolerance: float) -> List[str]:
    """Problems found comparing theta, Sigma (relative) and Wald z (per value)."""
    problems = []
    for key in ("theta", "sigma"):
        err = _rel_error(summary[key], want[key])
        if not err <= tolerance:
            problems.append(f"{key} differs from the reference by {err:.2e} relative")
    z, z_want = np.asarray(summary["z"]), np.asarray(want["z"])
    if z.shape != z_want.shape:
        problems.append(f"{z.size} Wald statistics, reference has {z_want.size}")
    else:
        err = float((np.abs(z - z_want) / np.maximum(1.0, np.abs(z_want))).max(initial=0.0))
        if not err <= tolerance:
            problems.append(f"Wald z differs from the reference by {err:.2e}")
    return problems


def independent_check(
    outcome: Outcome,
    generated: sl.TrialDataset,
    cov_spec: sl.WorkingCovSpec,
    options: sl.FitOptions,
) -> List[str]:
    """Problems found recomputing the analysis' outputs; empty if it is right."""
    ds, spec, res = outcome.dataset, outcome.spec, outcome.result
    problems = []
    if ds != generated:
        problems.append("parsed dataset differs from the generated trial")
    if not res.converged:
        problems.append(f"fit did not converge in {res.iterations} iterations")

    clusters = sorted(ds.clusters, key=lambda cl: cl.cluster_id)
    N, p = len(clusters), spec.n_params
    estimated = options.weight_mode is sl.WeightMode.ESTIMATED
    if estimated:
        weights = res.weight_model.fitted_weights
    else:
        weights = np.array([sl.design_weight(cl, ds.design) for cl in clusters])
    theta = res.theta.full

    A = np.zeros((p, p))
    b = np.zeros(p)
    blocks = []  # (cluster position, weight, D'V^-1 D, D'V^-1 (y - D theta))
    factors = {}
    for pos, cl in enumerate(clusters):
        y = np.array([v for ind in cl.individuals for v in ind.y])
        for d in sl.enumerate_cais(ds.design):
            if not sl.consistency_indicator(cl, d, ds.design):
                continue
            if (d, cl.n) not in factors:
                V = sl.build_V(cov_spec, res.alpha, d, cl.n, ds.grid)
                factors[(d, cl.n)] = cho_factor(V, lower=True)
            D = sl.stack_design_matrix(spec, d, cl, ds)
            vd = cho_solve(factors[(d, cl.n)], D)
            M = D.T @ vd
            w = float(weights[pos])
            A += w * M
            b += w * (vd.T @ y)
            blocks.append((pos, w, M, vd.T @ (y - D @ theta)))

    ee = b - A @ theta
    ee_rel = float(np.abs(ee).max() / np.abs(b).max())
    if not ee_rel <= EE_TOLERANCE:
        problems.append(f"estimating-equation residual is {ee_rel:.2e} of its terms")
    if not _rel_error(res.j_hat, A / N) <= TOLERANCE:
        problems.append("bread matrix J disagrees with the recomputed one")

    bias_correct = "bias_correct" in res.adjustments_applied
    if bias_correct != options.adjustments.bias_correct:
        problems.append("bias correction applied contrary to the options")
    U = np.zeros((N, p))
    for pos, w, M, r in blocks:
        if bias_correct:
            r = r + M @ np.linalg.solve(A / w - M, r)
        U[pos] += w * r
    Q = U.T @ U / N
    if estimated:
        S = res.weight_model.scores
        B = U.T @ S / N
        if np.any(B):
            Q = Q - B @ np.linalg.solve(S.T @ S / N, B.T)
    J_inv = np.linalg.inv(A / N)
    sigma = J_inv @ Q @ J_inv / N
    err = _rel_error(res.sigma_theta, sigma)
    if not err <= TOLERANCE:
        problems.append(f"sandwich covariance differs from the recomputed one by {err:.2e} relative")

    df = N - p if options.adjustments.t_reference else None
    if res.df != df:
        problems.append(f"degrees of freedom {res.df}, expected {df}")
    for c, wald in zip(outcome.contrasts, outcome.walds):
        est = float(c.c @ theta)
        z = est / math.sqrt(float(c.c @ sigma @ c.c))
        p_value = 2.0 * float(norm.sf(abs(z)) if df is None else student_t.sf(abs(z), df))
        if not (
            abs(wald.estimate - est) <= TOLERANCE * max(1.0, abs(est))
            and abs(wald.statistic - z) <= TOLERANCE * max(1.0, abs(z))
            and abs(wald.p_value - p_value) <= TOLERANCE
        ):
            problems.append(f"Wald test {wald.label!r} disagrees with the recomputed one")
    return problems
