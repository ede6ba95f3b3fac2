"""Block working covariance matrices and moment estimation of their parameters.

A working covariance for one cluster factors as ``S^1/2 P S^1/2`` where ``S``
is diagonal (marginal variances, replicated across individuals) and ``P`` is
a correlation matrix with within-person blocks ``W`` on the diagonal and a
common between-person block ``B`` elsewhere.  Every supported structure is
therefore block exchangeable, V = I_n (x) A' + J_n (x) B' with
A' = S^1/2 (W - B) S^1/2 and B' = S^1/2 B S^1/2: :func:`cluster_blocks`
returns its (T+1) x (T+1) blocks and holds the single positive-definiteness
rule, judged on spec(A') and spec(A' + n B'), which together are V's spectrum.
The estimator inverts V in closed form from those blocks; :func:`build_V`
assembles the dense matrix as a reference.

Parameters are estimated from weighted residuals by the moment formulas
appropriate to each structure, from one :class:`ResidualGroup` per regime
that stacks every consistent cluster whatever its size; correlation
estimators always standardize by the fully disaggregated per-regime, per-time
variances, regardless of how the variance model itself pools.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .data import TimeGrid
from .design import EmbeddedCai
from .errors import DegenerateVariance, InsufficientData, NotPositiveDefinite

__all__ = [
    "VarianceTime",
    "VarianceCai",
    "WithinCorr",
    "BetweenCorr",
    "CorrCai",
    "WorkingCovSpec",
    "POOLED",
    "AlphaEstimate",
    "ResidualGroup",
    "estimate_alpha",
    "build_V",
    "cluster_blocks",
]

POOLED = "pooled"

_CLIP = 1.0 - 1e-8


class VarianceTime(Enum):
    HETEROSCEDASTIC = "heteroscedastic"
    HOMOSCEDASTIC = "homoscedastic"


class VarianceCai(Enum):
    HETEROGENEOUS = "heterogeneous"
    HOMOGENEOUS = "homogeneous"


class WithinCorr(Enum):
    AR1 = "ar1"
    EXCHANGEABLE = "exchangeable"
    UNSTRUCTURED = "unstructured"
    INDEPENDENT = "independent"


class BetweenCorr(Enum):
    EXCHANGEABLE = "exchangeable"
    UNSTRUCTURED = "unstructured"
    INDEPENDENT = "independent"


class CorrCai(Enum):
    HETEROGENEOUS = "heterogeneous"
    HOMOGENEOUS = "homogeneous"


@dataclass(frozen=True)
class WorkingCovSpec:
    variance_time: VarianceTime = VarianceTime.HETEROSCEDASTIC
    variance_cai: VarianceCai = VarianceCai.HETEROGENEOUS
    within_corr: WithinCorr = WithinCorr.EXCHANGEABLE
    between_corr: BetweenCorr = BetweenCorr.EXCHANGEABLE
    corr_cai: CorrCai = CorrCai.HETEROGENEOUS

    @classmethod
    def independent_homoscedastic(cls) -> "WorkingCovSpec":
        return cls(
            variance_time=VarianceTime.HOMOSCEDASTIC,
            variance_cai=VarianceCai.HOMOGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.INDEPENDENT,
            corr_cai=CorrCai.HOMOGENEOUS,
        )


DKey = Union[EmbeddedCai, str]
TKey = Union[int, str]


@dataclass(frozen=True)
class AlphaEstimate:
    """Variance/correlation parameters at the granularity a spec demands.

    ``sigma2`` is keyed ``(regime-or-pooled, time-index-or-pooled)``.
    Scalar correlation structures key by regime; unstructured ones add the
    time-pair indices (within-person pairs are stored with ``l < m``).
    """

    n_times: int
    sigma2: Dict[Tuple[DKey, TKey], float]
    rho_w: Dict[tuple, float] = field(default_factory=dict)
    rho_b: Dict[tuple, float] = field(default_factory=dict)
    clipped: bool = False

    def __post_init__(self) -> None:
        for key, v in self.sigma2.items():
            if v < 0:
                raise ValueError(f"sigma2[{key}] must be nonnegative, got {v}")
        for name in ("rho_w", "rho_b"):
            for key, v in getattr(self, name).items():
                if not -1.0 <= v <= 1.0:
                    raise ValueError(f"{name}[{key}] must lie in [-1, 1], got {v}")

    def sigma2_at(self, spec: WorkingCovSpec, d: EmbeddedCai, k: int) -> float:
        dk = d if spec.variance_cai is VarianceCai.HETEROGENEOUS else POOLED
        tk = k if spec.variance_time is VarianceTime.HETEROSCEDASTIC else POOLED
        try:
            return self.sigma2[(dk, tk)]
        except KeyError:
            raise InsufficientData(f"no variance estimate for cell ({dk}, {tk})") from None

    def _dkey(self, spec: WorkingCovSpec, d: EmbeddedCai) -> DKey:
        return d if spec.corr_cai is CorrCai.HETEROGENEOUS else POOLED

    def rho_w_scalar(self, spec: WorkingCovSpec, d: EmbeddedCai) -> float:
        key = (self._dkey(spec, d),)
        try:
            return self.rho_w[key]
        except KeyError:
            raise InsufficientData(f"no within-person correlation for {key}") from None

    def rho_w_pair(self, spec: WorkingCovSpec, d: EmbeddedCai, l: int, m: int) -> float:
        lo, hi = min(l, m), max(l, m)
        key = (self._dkey(spec, d), lo, hi)
        try:
            return self.rho_w[key]
        except KeyError:
            raise InsufficientData(f"no within-person correlation for {key}") from None

    def rho_b_scalar(self, spec: WorkingCovSpec, d: EmbeddedCai) -> float:
        key = (self._dkey(spec, d),)
        try:
            return self.rho_b[key]
        except KeyError:
            raise InsufficientData(f"no between-person correlation for {key}") from None

    def rho_b_pair(self, spec: WorkingCovSpec, d: EmbeddedCai, l: int, m: int) -> float:
        lo, hi = min(l, m), max(l, m)
        key = (self._dkey(spec, d), lo, hi)
        try:
            return self.rho_b[key]
        except KeyError:
            raise InsufficientData(f"no between-person correlation for {key}") from None


@dataclass(frozen=True)
class ResidualGroup:
    """Residuals of the clusters consistent with one regime, one row per
    individual: cluster ``i`` owns the next ``sizes[i]`` rows of ``eps``."""

    cai: EmbeddedCai
    weights: np.ndarray  # (m,)
    sizes: np.ndarray    # (m,)
    eps: np.ndarray      # (rows, T+1)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        n = np.asarray(self.sizes, dtype=np.intp)
        e = np.asarray(self.eps, dtype=float)
        if (
            e.ndim != 2 or w.ndim != 1 or n.shape != w.shape or w.size == 0
            or n.min() < 1 or n.sum() != e.shape[0]
        ):
            raise ValueError(
                "eps must be (rows, T+1), with weights (m,) and positive sizes (m,) summing to rows"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sizes", n)
        object.__setattr__(self, "eps", e)


def estimate_alpha(
    groups: Sequence[ResidualGroup],
    spec: WorkingCovSpec,
    cais: Sequence[EmbeddedCai],
) -> AlphaEstimate:
    """Weighted moment estimates of all parameters the spec demands.

    Every moment is a weighted sum of per-row statistics (weights repeated
    over each cluster's rows) or of per-cluster sums of rows, accumulated per
    regime, or over all of them when the spec pools.  Singletons contribute
    to no between-person moment: their n (n - 1) weights are zero.
    """
    if not groups:
        raise InsufficientData("no residuals to estimate from")
    n_times = groups[0].eps.shape[1]
    T = n_times - 1
    index = {d: k for k, d in enumerate(cais)}
    s2_num = np.zeros((len(cais), n_times))
    s2_den = np.zeros(len(cais))
    for g in groups:
        if g.cai not in index:
            raise InsufficientData(f"residuals present for unexpected regime {g.cai}")
        s2_num[index[g.cai]] += np.repeat(g.weights, g.sizes) @ g.eps**2
        s2_den[index[g.cai]] += g.weights @ g.sizes
    for d, den in zip(cais, s2_den):
        if den == 0.0:
            raise InsufficientData(f"no residuals inform variance cells for regime {d}")
    # correlation estimators standardize by these, whatever the variance pooling
    s2_std = s2_num / s2_den[:, None]

    # marginal variances at the requested pooling level
    if spec.variance_cai is VarianceCai.HETEROGENEOUS:
        var_keys, per_time = list(cais), s2_std
    else:
        var_keys, per_time = [POOLED], s2_num.sum(axis=0, keepdims=True) / s2_den.sum()
    if spec.variance_time is VarianceTime.HETEROSCEDASTIC:
        sigma2 = {(dk, k): float(v) for dk, row in zip(var_keys, per_time) for k, v in enumerate(row)}
    else:
        sigma2 = {(dk, POOLED): float(row.mean()) for dk, row in zip(var_keys, per_time)}

    within = spec.within_corr if T >= 1 else WithinCorr.INDEPENDENT
    between = spec.between_corr
    if within is WithinCorr.INDEPENDENT and between is BetweenCorr.INDEPENDENT:
        return AlphaEstimate(n_times=n_times, sigma2=sigma2)
    for g in groups:
        if np.any(s2_std[index[g.cai]] == 0.0):
            raise DegenerateVariance(
                f"zero variance for regime {g.cai}; cannot standardize residuals"
            )

    het_corr = spec.corr_cai is CorrCai.HETEROGENEOUS
    corr_keys = list(cais) if het_corr else [POOLED]
    upper_w, upper_b = np.triu_indices(n_times, 1), np.triu_indices(n_times)
    cells_w = _cells(upper_w) if within is WithinCorr.UNSTRUCTURED else [()]
    cells_b = _cells(upper_b) if between is BetweenCorr.UNSTRUCTURED else [()]
    # per correlation key: the moment numerators, one per cell, and the sums
    # of w n and of w n (n - 1) that scale their denominators
    num_w = np.zeros((len(corr_keys), len(cells_w)))
    num_b = np.zeros((len(corr_keys), len(cells_b)))
    people = np.zeros(len(corr_keys))
    pairs = np.zeros(len(corr_keys))
    for g in groups:
        k = index[g.cai] if het_corr else 0
        w_rows = np.repeat(g.weights, g.sizes)
        z = g.eps / np.sqrt(s2_std[index[g.cai]])
        people[k] += g.weights @ g.sizes
        pairs[k] += g.weights @ (g.sizes * (g.sizes - 1.0))
        if within is WithinCorr.AR1:
            num_w[k] += w_rows @ (z[:, :-1] * z[:, 1:]).sum(axis=1)
        elif within is WithinCorr.EXCHANGEABLE:
            num_w[k] += w_rows @ (z.sum(axis=1) ** 2 - (z**2).sum(axis=1))
        elif within is WithinCorr.UNSTRUCTURED:
            num_w[k] += ((w_rows[:, None] * z).T @ z)[upper_w]
        if between is BetweenCorr.EXCHANGEABLE:
            person = z.sum(axis=1)
            total = np.add.reduceat(person, _starts(g.sizes))
            num_b[k] += g.weights @ total**2 - w_rows @ person**2
        elif between is BetweenCorr.UNSTRUCTURED:
            col = np.add.reduceat(z, _starts(g.sizes))
            num_b[k] += ((g.weights[:, None] * col).T @ col - (w_rows[:, None] * z).T @ z)[upper_b]

    clipped = False

    def moments(num: np.ndarray, den: np.ndarray, cells, what: str) -> Dict[tuple, float]:
        # moment ratios can stray outside [-1, 1] in small samples; store the
        # admissible value and let matrix assembly apply the open-interval clip
        nonlocal clipped
        for key, denom in zip(corr_keys, den):
            if denom == 0.0:
                raise InsufficientData(f"no residuals inform {what} cell {(key, *cells[0])}")
        value = num / den[:, None]
        clipped = clipped or bool(np.any(np.abs(value) > _CLIP))
        value = np.clip(value, -1.0, 1.0)
        return {(key, *cell): float(v) for key, row in zip(corr_keys, value) for cell, v in zip(cells, row)}

    rho_w: Dict[tuple, float] = {}
    rho_b: Dict[tuple, float] = {}
    if within is WithinCorr.AR1:
        rho_w = moments(num_w, people * T, cells_w, "AR(1) within-person")
    elif within is WithinCorr.EXCHANGEABLE:
        rho_w = moments(num_w, people * n_times * T, cells_w, "exchangeable within-person")
    elif within is WithinCorr.UNSTRUCTURED:
        rho_w = moments(num_w, people, cells_w, "unstructured within-person")
    if between is BetweenCorr.EXCHANGEABLE:
        rho_b = moments(num_b, pairs * n_times**2, cells_b, "exchangeable between-person")
    elif between is BetweenCorr.UNSTRUCTURED:
        rho_b = moments(num_b, pairs, cells_b, "unstructured between-person")

    return AlphaEstimate(
        n_times=n_times, sigma2=sigma2, rho_w=rho_w, rho_b=rho_b, clipped=clipped
    )


def _starts(sizes: np.ndarray) -> np.ndarray:
    return np.cumsum(sizes) - sizes


def _cells(upper: Tuple[np.ndarray, np.ndarray]) -> List[Tuple[int, int]]:
    return list(zip(upper[0].tolist(), upper[1].tolist()))


def _clip_open(rho: float) -> float:
    return min(max(float(rho), -_CLIP), _CLIP)


def _within_block(spec: WorkingCovSpec, alpha: AlphaEstimate, d: EmbeddedCai, n_times: int) -> np.ndarray:
    W = np.eye(n_times)
    if spec.within_corr is WithinCorr.INDEPENDENT or n_times == 1:
        return W
    if spec.within_corr is WithinCorr.AR1:
        rho = _clip_open(alpha.rho_w_scalar(spec, d))
        lags = np.abs(np.subtract.outer(np.arange(n_times), np.arange(n_times)))
        W = rho ** lags  # integer exponents, so negative rho is fine
        np.fill_diagonal(W, 1.0)
        return W.astype(float)
    if spec.within_corr is WithinCorr.EXCHANGEABLE:
        rho = _clip_open(alpha.rho_w_scalar(spec, d))
        W = np.full((n_times, n_times), rho)
        np.fill_diagonal(W, 1.0)
        return W
    for l in range(n_times):
        for m in range(l + 1, n_times):
            W[l, m] = W[m, l] = _clip_open(alpha.rho_w_pair(spec, d, l, m))
    return W


def _between_block(spec: WorkingCovSpec, alpha: AlphaEstimate, d: EmbeddedCai, n_times: int) -> np.ndarray:
    if spec.between_corr is BetweenCorr.INDEPENDENT:
        return np.zeros((n_times, n_times))
    if spec.between_corr is BetweenCorr.EXCHANGEABLE:
        return np.full((n_times, n_times), _clip_open(alpha.rho_b_scalar(spec, d)))
    B = np.empty((n_times, n_times))
    for l in range(n_times):
        for m in range(l, n_times):
            B[l, m] = B[m, l] = _clip_open(alpha.rho_b_pair(spec, d, l, m))
    return B


def cluster_blocks(
    spec: WorkingCovSpec,
    alpha: AlphaEstimate,
    d: EmbeddedCai,
    sizes: Sequence[int],
    grid: Union[TimeGrid, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Blocks W' = S^1/2 W S^1/2 and B' = S^1/2 B S^1/2 of the V of a cluster
    of each size in ``sizes`` under ``d``.

    V = I_n (x) (W' - B') + J_n (x) B', so its spectrum is spec(W' - B')
    repeated n - 1 times together with spec(W' + (n - 1) B'); the latter are
    computed for every distinct size in one stacked call.  This is the one
    positive-definiteness rule: :class:`NotPositiveDefinite`, naming the
    smallest failing n, when the smallest eigenvalue over those spectra is at
    most 1e-10 of the largest.  ``grid`` may be a :class:`TimeGrid` or a bare
    count of measurement times (single-time analyses have no grid object).
    """
    n = np.unique(np.asarray(sizes, dtype=int))
    if n.size == 0 or n[0] < 1:
        raise ValueError("cluster sizes must be positive")
    n_times = grid if isinstance(grid, int) else grid.n_times
    s = np.sqrt([alpha.sigma2_at(spec, d, k) for k in range(n_times)])
    scale = np.outer(s, s)
    W = scale * _within_block(spec, alpha, d, n_times)
    B = scale * _between_block(spec, alpha, d, n_times)
    eig = np.linalg.eigvalsh(W + (n - 1)[:, None, None] * B)
    lo, hi = eig[:, 0], eig[:, -1]
    if n[-1] > 1:
        shared = np.linalg.eigvalsh(W - B)
        lo = np.where(n > 1, np.minimum(lo, shared[0]), lo)
        hi = np.where(n > 1, np.maximum(hi, shared[-1]), hi)
    failing = np.flatnonzero(lo <= 1e-10 * np.maximum(hi, 0.0))
    if failing.size:
        i = failing[0]
        raise NotPositiveDefinite(
            f"working covariance for regime {d}, cluster size {n[i]} is not positive "
            f"definite (eigenvalue range [{lo[i]:.3e}, {hi[i]:.3e}])"
        )
    return W, B


def build_V(
    spec: WorkingCovSpec,
    alpha: AlphaEstimate,
    d: EmbeddedCai,
    n: int,
    grid: Union[TimeGrid, int],
) -> np.ndarray:
    """Dense working covariance for one cluster of ``n`` individuals under ``d``.

    The estimator never forms it (see :func:`cluster_blocks`); it is the
    reference the closed-form inverse is tested against.
    """
    W, B = cluster_blocks(spec, alpha, d, (n,), grid)
    eye = np.eye(n)
    return np.kron(eye, W) + np.kron(np.ones((n, n)) - eye, B)
