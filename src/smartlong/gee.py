"""Weighted estimating-equation engine with plug-in sandwich inference.

The estimator solves, for linear-in-theta mean models,

    0 = sum_i sum_d I_i(d) W_i D_i(d)' V_d^{-1} (Y_i - D_i(d) theta),

alternating between theta solves and moment estimation of the working
covariance parameters until the theta iterates stabilize.  Variance
estimates are of sandwich form J^{-1} Q J^{-1} / N and remain valid under
working covariance misspecification.

Every cluster's working covariance is block exchangeable,
V = I_n (x) A' + J_n (x) B' with (T+1) x (T+1) blocks, so its inverse is
I_n (x) A'^{-1} + J_n (x) C with C = (A_n'^{-1} - A'^{-1}) / n and
A_n' = A' + n B'.  The engine never forms V: it factorizes the regime blocks
once per regime and only A_n' per distinct cluster size, and applies V^{-1} D
as A'^{-1} D_j + C sum_k D_k over each cluster's individuals j; the
bias-corrected meat uses the Woodbury form of the inverse leverage, one p x p
solve per cluster.  Work is cubic in T+1 and p and linear in the number of
observations.  Only C depends on the cluster size, so each regime keeps one
stack of its consistent clusters, one row per individual, in the dataset's
canonical sorted-id order; results are reproducible and independent of input
row order.  The stacks are filled array-at-once from the dataset's columns,
regime membership and design weights decided once per distinct observed
pathway.

:func:`fit` is the only entry point: it solves, applies the finite-sample
adjustments and the estimated-weight correction, and assembles the sandwich
once (the end-of-study comparator runs it on the final time alone).  A
:class:`FitResult` holds values only, nothing to re-enter the engine with.
:func:`wald_test` is the only source of p-values and confidence intervals.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit
from scipy.stats import norm, t as student_t

from .data import TrialDataset, validate
from .design import DesignKind, EmbeddedCai, consistency_indicator, design_weight, enumerate_cais
from .errors import (
    InconsistentCluster,
    InsufficientData,
    RankDeficient,
    Separation,
    ZeroVariance,
)
from .meanmodel import ContrastVector, MeanModelSpec, ThetaEstimate, make_saturated_basis
from .workingcov import (
    AlphaEstimate,
    BetweenCorr,
    CorrCai,
    ResidualGroup,
    VarianceCai,
    VarianceTime,
    WithinCorr,
    WorkingCovSpec,
    cluster_blocks,
    estimate_alpha,
)

__all__ = [
    "WeightMode",
    "AdjustmentOptions",
    "FitOptions",
    "FitResult",
    "WaldResult",
    "WeightModel",
    "fit",
    "sandwich_covariance",
    "estimate_weight_model",
    "wald_test",
    "fit_end_of_study",
]

_MAX_COND = 1e12
# a contrast SE within this many units of float resolution of the estimate's
# own rounding error cannot be told apart from zero
_ZERO_SE_ULPS = 1e3


class WeightMode(Enum):
    DESIGN_KNOWN = "design_known"
    ESTIMATED = "estimated"


@dataclass(frozen=True)
class AdjustmentOptions:
    enforce_nonneg_corr: bool = False
    t_reference: bool = False
    bias_correct: bool = False

    @classmethod
    def all(cls) -> "AdjustmentOptions":
        return cls(enforce_nonneg_corr=True, t_reference=True, bias_correct=True)


@dataclass(frozen=True)
class FitOptions:
    tolerance: float = 1e-8
    max_iter: int = 50
    weight_mode: WeightMode = WeightMode.DESIGN_KNOWN
    adjustments: AdjustmentOptions = AdjustmentOptions()
    stage1_covariates: Tuple[str, ...] = ()
    stage2_covariates: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # NaN fails both comparisons; math.inf accepts the identity-covariance fit
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class WaldResult:
    label: str
    estimate: float
    se: float
    statistic: float
    df: Optional[int]
    p_value: float
    ci: Tuple[float, float]
    level: float


@dataclass(frozen=True)
class WeightModel:
    """Fitted randomization-probability models and their score contributions."""

    stage1_coef: np.ndarray
    stage2_coef: Dict[Tuple[int, int], np.ndarray]
    scores: np.ndarray            # (N, q), canonical cluster order
    fitted_weights: np.ndarray    # (N,)
    fallback_cells: Tuple[Tuple[int, int], ...] = ()

    @property
    def score_sum_norm(self) -> float:
        return float(np.abs(self.scores.sum(axis=0)).max()) if self.scores.size else 0.0


@dataclass(frozen=True)
class _Regime:
    """The clusters consistent with one regime, stacked in canonical order:
    cluster ``i`` owns rows ``starts[i] : starts[i] + sizes[i]``, one per
    individual."""

    cai: EmbeddedCai
    cluster_pos: np.ndarray  # (m,) indices into canonical cluster order
    sizes: np.ndarray        # (m,)
    starts: np.ndarray       # (m,)
    design: np.ndarray       # (rows, T+1, p)
    y: np.ndarray            # (rows, T+1)
    design_sum: np.ndarray   # (m, T+1, p), each cluster's design summed over its rows


class _Workspace:
    """Preassembled design/outcome stacks for one dataset and mean model."""

    def __init__(self, ds: TrialDataset, mean_spec: MeanModelSpec, weights: np.ndarray) -> None:
        self.ds = ds
        self.mean_spec = mean_spec
        self.weights = np.asarray(weights, dtype=float)
        self.N = ds.n_clusters
        if self.weights.shape != (self.N,) or not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise ValueError("weights must be finite and positive, one per cluster")
        self.p = mean_spec.n_params
        self.cais = enumerate_cais(ds.design)
        self.regimes = self._build_regimes()

    # -- assembly -----------------------------------------------------------

    def _build_regimes(self) -> List[_Regime]:
        spec, ds = self.mean_spec, self.ds
        sizes = ds.sizes
        first = np.cumsum(sizes) - sizes
        x = np.empty((len(ds.y), len(spec.covariate_terms)))
        for c_idx, name in enumerate(spec.covariate_terms):
            if name in ds.cluster_covariates:
                x[:, c_idx] = np.repeat(ds.x_cluster[:, ds.cluster_covariates.index(name)], sizes)
            elif name in ds.individual_covariates:
                x[:, c_idx] = ds.x_individual[:, ds.individual_covariates.index(name)]
            else:
                raise ValueError(f"covariate {name!r} not present in the dataset schema")
        # consistency depends only on the pathway: decide it once per pathway
        by_pathway = np.array(
            [[consistency_indicator(p, d, ds.design) for p in ds.pathways] for d in self.cais], dtype=bool
        ).reshape(len(self.cais), len(ds.pathways))
        consistent = by_pathway[:, ds.pathway_index]
        regimes = []
        for k, d in enumerate(self.cais):
            pos = np.flatnonzero(consistent[k])
            if pos.size == 0:
                continue
            gamma = np.stack([spec.basis.gamma_row(t, d) for t in spec.grid.times])
            n = sizes[pos]
            starts = np.cumsum(n) - n
            person = np.repeat(first[pos] - starts, n) + np.arange(n.sum())
            xs = x[person]
            design = np.empty((person.size, len(gamma), self.p))
            design[..., : spec.n_gamma] = gamma
            design[..., spec.n_gamma :] = xs[:, None]
            design_sum = np.empty((pos.size, len(gamma), self.p))
            design_sum[..., : spec.n_gamma] = n[:, None, None] * gamma
            design_sum[..., spec.n_gamma :] = np.add.reduceat(xs, starts)[:, None]
            regimes.append(_Regime(d, pos, n, starts, design, ds.y[person], design_sum))
        return regimes

    # -- linear algebra over the regime stacks --------------------------------

    def _vinv_design(self, factors: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]]) -> List[np.ndarray]:
        """Per regime, V^{-1} D = A'^{-1} D_j + C_i sum_k D_k for each
        individual j of cluster i: one product over every row, plus each
        cluster's C times its fixed design sum, repeated over its rows."""
        if factors is None:
            return [r.design for r in self.regimes]
        out = []
        for r, (a_inv, c) in zip(self.regimes, factors):
            vd = a_inv @ r.design
            vd += np.repeat(c @ r.design_sum, r.sizes, axis=0)
            out.append(vd)
        return out

    def normal_equations(self, vinv_design: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """A = sum w D'V^{-1} D and b = sum w D'V^{-1} y over every regime."""
        A = np.zeros((self.p, self.p))
        b = np.zeros(self.p)
        for r, vd in zip(self.regimes, vinv_design):
            w = np.repeat(self.weights[r.cluster_pos], r.sizes)
            vd_rows = vd.reshape(-1, self.p)
            A += (w[:, None, None] * r.design).reshape(-1, self.p).T @ vd_rows
            b += (w[:, None] * r.y).ravel() @ vd_rows
        return A, b

    def solve(self, factors=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
        """theta under ``factors`` (the identity when None), with the A, b and
        V^{-1} D it was solved from."""
        vd = self._vinv_design(factors)
        A, b = self.normal_equations(vd)
        if not np.all(np.isfinite(A)) or np.linalg.cond(A) > _MAX_COND:
            raise RankDeficient(
                "weighted normal system is singular; the mean model is not "
                "identified on this dataset"
            )
        theta = np.linalg.solve(A, b)
        return theta, A, b, vd

    def _residuals(self, r: _Regime, theta: np.ndarray) -> np.ndarray:
        return r.y - (r.design.reshape(-1, self.p) @ theta).reshape(r.y.shape)

    def residual_groups(self, theta: np.ndarray) -> List[ResidualGroup]:
        return [
            ResidualGroup(r.cai, self.weights[r.cluster_pos], r.sizes, self._residuals(r, theta))
            for r in self.regimes
        ]

    def u_rows(
        self,
        theta: np.ndarray,
        vinv_design: Sequence[np.ndarray],
        leverage_inverse_from: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-cluster estimating-function contributions U_i, shape (N, p).

        With ``leverage_inverse_from`` set to the unnormalized bread matrix A,
        each residual block is premultiplied by (I - H_id)^{-1} where H_id
        is that cluster-regime's hat block w D A^{-1} D'V^{-1}.  By Woodbury
        that makes u = D'V^{-1} eps into u + M (A/w - M)^{-1} u with
        M = D'V^{-1} D: one p x p solve per cluster.
        """
        U = np.zeros((self.N, self.p))
        for r, vd in zip(self.regimes, vinv_design):
            w = self.weights[r.cluster_pos]
            eps = self._residuals(r, theta)
            u = np.add.reduceat(np.einsum("rtp,rt->rp", vd, eps), r.starts)
            if leverage_inverse_from is not None:
                M = np.add.reduceat(np.einsum("rtp,rtq->rpq", vd, r.design), r.starts)
                K = leverage_inverse_from[None] / w[:, None, None] - M
                u = u + (M @ np.linalg.solve(K, u[..., None]))[..., 0]
            U[r.cluster_pos] += w[:, None] * u
        return U

    def factorize(self, cov_spec: WorkingCovSpec, alpha: AlphaEstimate) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per regime: A'^{-1} and each cluster's C = (A_n'^{-1} - A'^{-1}) / n,
        with V^{-1} = I_n (x) A'^{-1} + J_n (x) C (see :func:`cluster_blocks`).

        W', B' and A'^{-1} are built once per regime and A_n'^{-1} once per
        distinct size, in one stacked inverse, then gathered to the clusters.
        A regime of singletons only may have a singular A'; its A'^{-1} is
        taken as 0, so that C = A_1'^{-1} is the whole inverse.
        """
        factors = []
        for r in self.regimes:
            sizes = np.unique(r.sizes)
            W, B = cluster_blocks(cov_spec, alpha, r.cai, sizes, self.mean_spec.grid)
            an_inv = np.linalg.inv(W + (sizes - 1)[:, None, None] * B)
            a_inv = np.linalg.inv(W - B) if sizes[-1] > 1 else np.zeros_like(W)
            c = (an_inv - a_inv) / sizes[:, None, None]
            factors.append((a_inv, c[np.searchsorted(sizes, r.sizes)]))
        return factors


@dataclass(frozen=True)
class FitResult:
    theta: ThetaEstimate
    alpha: AlphaEstimate
    sigma_theta: np.ndarray
    iterations: int
    converged: bool
    max_delta: float
    weight_mode: WeightMode
    adjustments_applied: Tuple[str, ...]
    n_clusters: int
    param_names: Tuple[str, ...]
    df: Optional[int]
    ee_residual_norm: float
    j_hat: np.ndarray
    q_hat: np.ndarray
    weight_model: Optional[WeightModel] = None
    mean_spec: Optional[MeanModelSpec] = field(default=None, repr=False, compare=False)
    cov_spec: Optional[WorkingCovSpec] = field(default=None, repr=False, compare=False)

    @property
    def p(self) -> int:
        return len(self.param_names)


def _split_theta(mean_spec: MeanModelSpec, theta: np.ndarray) -> ThetaEstimate:
    n_gamma = mean_spec.n_gamma
    return ThetaEstimate(
        gamma=theta[:n_gamma], eta=theta[n_gamma:], names=mean_spec.param_names
    )


def sandwich_covariance(j_hat: np.ndarray, q_hat: np.ndarray, n_clusters: int) -> np.ndarray:
    """Plug-in covariance of theta-hat, (1/N) J^{-1} Q J^{-1}."""
    if not np.all(np.isfinite(j_hat)) or np.linalg.cond(j_hat) > _MAX_COND:
        raise RankDeficient("bread matrix J is singular")
    ji = np.linalg.inv(j_hat)
    sigma = ji @ q_hat @ ji / n_clusters
    return (sigma + sigma.T) / 2.0


def _make_workspace(
    ds: TrialDataset, mean_spec: MeanModelSpec, weights: Optional[np.ndarray] = None
) -> _Workspace:
    if weights is None:
        per_pathway = np.array([design_weight(p, ds.design) for p in ds.pathways], dtype=float)
        weights = per_pathway[ds.pathway_index]
    return _Workspace(ds, mean_spec, weights)


def _require_valid(ds: TrialDataset) -> None:
    report = validate(ds)
    if report.violations:
        v = report.violations[0]
        raise InconsistentCluster(f"cluster {v.cluster_id!r}: {v.message}")
    if report.warnings:
        raise InsufficientData(report.warnings[0])


def fit(
    ds: TrialDataset,
    mean_spec: MeanModelSpec,
    cov_spec: WorkingCovSpec,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Alternate theta solves with working-covariance estimation to a root.

    The iteration starts from an identity working covariance, stops when the
    sup-norm change in theta falls below ``options.tolerance``, and returns
    the last iterate with ``converged=False`` after ``max_iter`` sweeps.
    Either way the returned theta is the exact root under the working
    covariance it was solved with; ``tolerance=math.inf`` accepts the
    identity-covariance initializer with no iterations.

    Then ``options.adjustments`` apply: ``enforce_nonneg_corr`` clamps
    negative correlation estimates to zero and solves theta once more under
    the clamped working covariance; ``bias_correct`` inflates each cluster's
    residuals by its inverse leverage inside the meat matrix (Mancl &
    DeRouen, Biometrics 2001); ``t_reference`` sets ``df = N - p`` so that
    :func:`wald_test` refers to ``t`` instead of the normal.  Under estimated
    weights the meat matrix is projected off the weight-model scores.  The
    sandwich is assembled once, from the final theta.
    """
    _require_valid(ds)
    weight_model = weights = None
    if options.weight_mode is WeightMode.ESTIMATED:
        weight_model = estimate_weight_model(
            ds, options.stage1_covariates, options.stage2_covariates
        )
        weights = weight_model.fitted_weights

    ws = _make_workspace(ds, mean_spec, weights)
    # invariant: theta is always the exact root of the normal system (A, b)
    # under V(alpha), or under the identity before the first factorization
    theta, A, b, vd = ws.solve(None)
    alpha = estimate_alpha(ws.residual_groups(theta), cov_spec, ws.cais)
    if options.tolerance == math.inf:
        iterations, converged, max_delta = 0, True, 0.0
    else:
        iterations, converged, max_delta = 0, False, math.inf
        for k in range(1, options.max_iter + 1):
            vd = None  # release the last V^{-1} D before the next is built
            theta_new, A, b, vd = ws.solve(ws.factorize(cov_spec, alpha))
            max_delta = float(np.abs(theta_new - theta).max())
            iterations = k
            theta = theta_new
            if max_delta < options.tolerance:
                converged = True
                break
            if k < options.max_iter:
                alpha = estimate_alpha(ws.residual_groups(theta), cov_spec, ws.cais)
        if not converged:
            warnings.warn(
                f"fit did not converge in {options.max_iter} iterations "
                f"(last delta {max_delta:.3e})",
                RuntimeWarning,
            )

    adjustments = options.adjustments
    if adjustments.enforce_nonneg_corr:
        alpha = _clamp_nonneg(alpha)
        vd = None
        theta, A, b, vd = ws.solve(ws.factorize(cov_spec, alpha))
    applied = tuple(
        name for name in ("enforce_nonneg_corr", "bias_correct", "t_reference")
        if getattr(adjustments, name)
    )
    j_hat, q_hat, sigma, ee_residual = _assemble(
        ws, theta, A, b, vd, adjustments.bias_correct, weight_model
    )
    return FitResult(
        theta=_split_theta(mean_spec, theta),
        alpha=alpha,
        sigma_theta=sigma,
        iterations=iterations,
        converged=converged,
        max_delta=max_delta,
        weight_mode=options.weight_mode,
        adjustments_applied=applied,
        n_clusters=ws.N,
        param_names=mean_spec.param_names,
        df=ws.N - ws.p if adjustments.t_reference else None,
        ee_residual_norm=ee_residual,
        j_hat=j_hat,
        q_hat=q_hat,
        weight_model=weight_model,
        mean_spec=mean_spec,
        cov_spec=cov_spec,
    )


def _assemble(
    ws: _Workspace,
    theta: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    vd: Sequence[np.ndarray],
    bias_correct: bool,
    weight_model: Optional[WeightModel],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The sandwich stage: J, Q, Sigma and the estimating-equation residual,
    from the normal system (A, b) and V^{-1} D that ``theta`` was solved from."""
    ee_residual = float(np.abs(b - A @ theta).max())
    j_hat = A / ws.N
    U = ws.u_rows(theta, vd, leverage_inverse_from=A if bias_correct else None)
    q_hat = U.T @ U / ws.N
    if weight_model is not None:
        q_hat = _score_corrected_q(q_hat, U, weight_model.scores)
    return j_hat, q_hat, sandwich_covariance(j_hat, q_hat, ws.N), ee_residual


def _score_corrected_q(q_hat: np.ndarray, U: np.ndarray, scores: np.ndarray) -> np.ndarray:
    N = U.shape[0]
    B = U.T @ scores / N
    if not np.any(B):
        return q_hat  # projection of zero: plain sandwich
    M = scores.T @ scores / N
    if not np.all(np.isfinite(M)) or np.linalg.cond(M) > _MAX_COND:
        raise RankDeficient("score outer-product matrix is singular")
    corrected = q_hat - B @ np.linalg.solve(M, B.T)
    return (corrected + corrected.T) / 2.0


# -- estimated weights ---------------------------------------------------------


def _logistic_mle(X: np.ndarray, y: np.ndarray, max_iter: int = 50) -> np.ndarray:
    """Newton-Raphson MLE for a canonical-link binary model; raises on separation."""
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        p = expit(X @ beta)
        grad = X.T @ (y - p)
        H = X.T @ (X * (p * (1.0 - p))[:, None])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise Separation("singular information matrix in weight model") from exc
        beta = beta + step
        if np.abs(beta).max() > 15.0:
            raise Separation("weight-model MLE is diverging")
        if np.abs(step).max() < 1e-12:
            break
    if np.abs(X.T @ (y - expit(X @ beta))).max() > 1e-8 * max(1, len(y)):
        raise Separation("weight-model score did not vanish")
    return beta


def _design_columns(ds: TrialDataset, names: Sequence[str]) -> np.ndarray:
    cols = [np.ones(ds.n_clusters)]
    for name in names:
        if name not in ds.cluster_covariates:
            raise ValueError(
                f"weight-model covariate {name!r} must be a cluster-level covariate"
            )
        cols.append(ds.x_cluster[:, ds.cluster_covariates.index(name)])
    return np.column_stack(cols)


def _observed_a2(ds: TrialDataset) -> np.ndarray:
    """Each cluster's second-stage code (0 where it was not re-randomized)."""
    if ds.design.kind is DesignKind.I:
        return np.where(ds.r == 1, ds.a2r, ds.a2nr)
    return ds.a2nr


def estimate_weight_model(
    ds: TrialDataset,
    stage1_covariates: Sequence[str] = (),
    stage2_covariates: Sequence[str] = (),
) -> WeightModel:
    """Per-cell maximum-likelihood randomization models and implied weights.

    Stage-two models are fit separately within each (a1, r) cell where the
    design re-randomizes.  Cells whose MLE separates fall back to the design
    probabilities (flagged) and contribute no score terms.
    """
    N = ds.n_clusters
    design = ds.design

    X1 = _design_columns(ds, stage1_covariates)
    y1 = (ds.a1 == 1).astype(float)
    fallback: List[Tuple[int, int]] = []
    score_blocks: List[np.ndarray] = []

    try:
        beta1 = _logistic_mle(X1, y1)
        p1_plus = expit(X1 @ beta1)
        score_blocks.append(X1 * (y1 - p1_plus)[:, None])
    except Separation:
        beta1 = np.array([math.log(design.p_a1 / (1.0 - design.p_a1))] + [0.0] * (X1.shape[1] - 1))
        p1_plus = np.full(N, design.p_a1)

    prob = np.where(y1 == 1.0, p1_plus, 1.0 - p1_plus)

    X2 = _design_columns(ds, stage2_covariates)
    a2_observed = _observed_a2(ds)
    stage2_coef: Dict[Tuple[int, int], np.ndarray] = {}
    for cell in sorted(design.p_a2_given):
        a1_c, r_c = cell
        members = np.flatnonzero((ds.a1 == a1_c) & (ds.r == r_c))
        if members.size == 0:
            continue
        y2 = (a2_observed[members] == 1).astype(float)
        Xc = X2[members]
        design_p = design.p_a2_given[cell]
        try:
            beta2 = _logistic_mle(Xc, y2)
            p2_plus = expit(Xc @ beta2)
            block = np.zeros((N, Xc.shape[1]))
            block[members] = Xc * (y2 - p2_plus)[:, None]
            score_blocks.append(block)
        except Separation:
            beta2 = np.array([math.log(design_p / (1.0 - design_p))] + [0.0] * (Xc.shape[1] - 1))
            p2_plus = np.full(members.size, design_p)
            fallback.append(cell)
        stage2_coef[cell] = beta2
        prob[members] *= np.where(y2 == 1.0, p2_plus, 1.0 - p2_plus)

    scores = np.hstack(score_blocks) if score_blocks else np.zeros((N, 0))
    return WeightModel(
        stage1_coef=beta1,
        stage2_coef=stage2_coef,
        scores=scores,
        fitted_weights=1.0 / prob,
        fallback_cells=tuple(fallback),
    )


# -- finite-sample adjustments and Wald inference ------------------------------


def _clamp_nonneg(alpha: AlphaEstimate) -> AlphaEstimate:
    rho_w = {k: max(v, 0.0) for k, v in alpha.rho_w.items()}
    rho_b = {k: max(v, 0.0) for k, v in alpha.rho_b.items()}
    return replace(alpha, rho_w=rho_w, rho_b=rho_b)


def wald_test(fit_result: FitResult, contrast: ContrastVector, level: float = 0.95) -> WaldResult:
    """Univariate Wald test of ``c' theta = 0`` with a two-sided p-value."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    c = contrast.c
    if c.size != fit_result.p:
        raise ValueError(f"contrast has {c.size} entries, fit has {fit_result.p} parameters")
    # work with a max-normalized copy so the statistic is scale-stable
    scale = float(np.abs(c).max())
    cn = c / scale
    theta = fit_result.theta.full
    est_n = float(cn @ theta)
    var_n = float(cn @ fit_result.sigma_theta @ cn)
    se_n = math.sqrt(max(var_n, 0.0))
    if not se_n > _ZERO_SE_ULPS * np.finfo(float).eps * float(np.abs(cn * theta).sum()):
        raise ZeroVariance(f"contrast {contrast.label!r} has numerically zero variance")
    statistic = est_n / se_n
    estimate = scale * est_n
    se = scale * se_n
    if fit_result.df is None:
        p_value = 2.0 * float(norm.sf(abs(statistic)))
        quantile = float(norm.ppf(0.5 + level / 2.0))
    else:
        p_value = 2.0 * float(student_t.sf(abs(statistic), fit_result.df))
        quantile = float(student_t.ppf(0.5 + level / 2.0, fit_result.df))
    ci = (estimate - quantile * se, estimate + quantile * se)
    return WaldResult(
        label=contrast.label,
        estimate=estimate,
        se=se,
        statistic=statistic,
        df=fit_result.df,
        p_value=p_value,
        ci=ci,
        level=level,
    )


# -- end-of-study-only comparator ----------------------------------------------


def fit_end_of_study(
    ds: TrialDataset,
    covariate_terms: Sequence[str] = (),
    tolerance: float = 1e-8,
    max_iter: int = 50,
    t_reference: bool = False,
) -> FitResult:
    """The two-level end-of-study comparator (NeCamp, Kilbourne & Almirall,
    SMMR 2017): :func:`fit` on the final time alone with one mean per regime
    (``theta.gamma`` in :func:`enumerate_cais` order), a pooled variance and an
    exchangeable between-person correlation pooled over regimes.  Compare two
    regimes with ``wald_test(res, contrast_end_of_study(res.mean_spec, d, d_prime))``.
    """
    _require_valid(ds)
    final = ds.final_time()
    grid = final.grid
    mean_spec = MeanModelSpec.custom(
        ds.design, grid, make_saturated_basis(ds.design, grid), covariate_terms
    )
    # with singletons only there are no between-person pairs to estimate from,
    # and a one-person V is a scalar under either structure
    singletons = bool(np.all(ds.sizes == 1))
    cov_spec = WorkingCovSpec(
        VarianceTime.HOMOSCEDASTIC, VarianceCai.HOMOGENEOUS, WithinCorr.INDEPENDENT,
        BetweenCorr.INDEPENDENT if singletons else BetweenCorr.EXCHANGEABLE, CorrCai.HOMOGENEOUS,
    )
    options = FitOptions(tolerance, max_iter, adjustments=AdjustmentOptions(t_reference=t_reference))
    return fit(final, mean_spec, cov_spec, options)
