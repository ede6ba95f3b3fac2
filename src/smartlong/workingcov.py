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

An :class:`AlphaEstimate` holds the parameters as arrays with one row per
regime, in :func:`~smartlong.design.enumerate_cais` order: the variances
``sigma2`` (R, T+1) and the correlation matrices ``within`` and ``between``
(R, T+1, T+1), exactly as V uses them.  Whatever a spec pools is repeated
over the rows (or times) it pools, so V is read from a regime's row alone.

Parameters are estimated from weighted residuals by the moment formulas
appropriate to each structure, from one :class:`ResidualGroup` per regime
that stacks every consistent cluster whatever its size; correlation
estimators always standardize by the fully disaggregated per-regime, per-time
variances, regardless of how the variance model itself pools.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple, Union

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
    "AlphaEstimate",
    "ResidualGroup",
    "estimate_alpha",
    "build_V",
    "cluster_blocks",
]

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


@dataclass(frozen=True)
class AlphaEstimate:
    """Working covariance parameters, one row per regime of ``cais``.

    ``sigma2`` (R, T+1) holds each regime's variance at each time;
    ``within`` and ``between`` (R, T+1, T+1) its within-person correlation
    matrix W (unit diagonal) and between-person matrix B.  A level the spec
    pools repeats its value over the regimes or times it pools.  The
    correlations are the values V is built from: moment ratios clipped into
    the open interval (-1, 1) at 1 - 1e-8, with ``clipped`` set when any was.
    The arrays are read-only.
    """

    cais: Tuple[EmbeddedCai, ...]
    sigma2: np.ndarray
    within: np.ndarray
    between: np.ndarray
    clipped: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "cais", tuple(self.cais))
        for name in ("sigma2", "within", "between"):
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.sigma2.ndim != 2 or self.sigma2.shape[0] != len(self.cais) or self.n_times == 0:
            raise ValueError("sigma2 must be (regimes, T+1), one row per regime")
        if not np.all(self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2.min()}")
        for name in ("within", "between"):
            value = getattr(self, name)
            if value.shape != self.sigma2.shape + (self.n_times,):
                raise ValueError(f"{name} must be (regimes, T+1, T+1), one matrix per regime")
            inside = np.abs(value) <= 1.0  # NaN fails it too
            if not np.all(inside):
                raise ValueError(f"{name} entries must lie in [-1, 1], got {value[~inside][0]}")

    @property
    def n_times(self) -> int:
        return self.sigma2.shape[1]


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
    R = len(cais)
    index = {d: k for k, d in enumerate(cais)}
    s2_num = np.zeros((R, n_times))
    s2_den = np.zeros(R)
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
        sigma2 = s2_std
    else:
        sigma2 = np.repeat(s2_num.sum(axis=0, keepdims=True) / s2_den.sum(), R, axis=0)
    if spec.variance_time is VarianceTime.HOMOSCEDASTIC:
        sigma2 = np.repeat(sigma2.mean(axis=1, keepdims=True), n_times, axis=1)

    within = spec.within_corr if T >= 1 else WithinCorr.INDEPENDENT
    between = spec.between_corr
    W = np.tile(np.eye(n_times), (R, 1, 1))
    B = np.zeros((R, n_times, n_times))
    if within is WithinCorr.INDEPENDENT and between is BetweenCorr.INDEPENDENT:
        return AlphaEstimate(tuple(cais), sigma2, W, B)
    for g in groups:
        if np.any(s2_std[index[g.cai]] == 0.0):
            raise DegenerateVariance(
                f"zero variance for regime {g.cai}; cannot standardize residuals"
            )

    het_corr = spec.corr_cai is CorrCai.HETEROGENEOUS
    n_keys = R if het_corr else 1
    upper_w, upper_b = np.triu_indices(n_times, 1), np.triu_indices(n_times)
    # per correlation key (each regime, or one pooled over regimes): the
    # moment numerators, one per estimated entry, and the sums of w n and of
    # w n (n - 1) that scale their denominators
    num_w = np.zeros((n_keys, upper_w[0].size if within is WithinCorr.UNSTRUCTURED else 1))
    num_b = np.zeros((n_keys, upper_b[0].size if between is BetweenCorr.UNSTRUCTURED else 1))
    people = np.zeros(n_keys)
    pairs = np.zeros(n_keys)
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

    # every regime has residuals, so only the between-person moments can lack a denominator
    if between is not BetweenCorr.INDEPENDENT and np.any(pairs == 0.0):
        where = f" of regime {cais[int(np.argmax(pairs == 0.0))]}" if het_corr else ""
        raise InsufficientData(f"no cluster of two or more informs the between-person correlation{where}")
    dens = {
        WithinCorr.AR1: people * T,
        WithinCorr.EXCHANGEABLE: people * n_times * T,
        WithinCorr.UNSTRUCTURED: people,
        BetweenCorr.EXCHANGEABLE: pairs * n_times**2,
        BetweenCorr.UNSTRUCTURED: pairs,
    }
    # the parameters fill the upper triangle of each regime's W (strictly)
    # and B (with the diagonal); moment ratios can stray outside [-1, 1] in
    # small samples, and V is built from them clipped into the open interval
    rows = np.arange(R) if het_corr else np.zeros(R, dtype=int)
    clipped = False
    for structure, num, (l, m), block in ((within, num_w, upper_w, W), (between, num_b, upper_b, B)):
        if structure in dens:
            rho = (num / dens[structure][:, None])[rows]
            clipped = clipped or bool(np.any(np.abs(rho) > _CLIP))
            rho = np.clip(rho, -_CLIP, _CLIP)
            if structure is WithinCorr.AR1:
                rho = rho ** (m - l)  # integer exponents: a negative rho is fine
            block[:, l, m] = block[:, m, l] = rho
    return AlphaEstimate(tuple(cais), sigma2, W, B, clipped)


def _starts(sizes: np.ndarray) -> np.ndarray:
    return np.cumsum(sizes) - sizes


def cluster_blocks(
    alpha: AlphaEstimate,
    d: EmbeddedCai,
    sizes: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Blocks W' = S^1/2 W S^1/2 and B' = S^1/2 B S^1/2 of the V of a cluster
    of each size in ``sizes`` under ``d``.

    V = I_n (x) (W' - B') + J_n (x) B', so its spectrum is spec(W' - B')
    repeated n - 1 times together with spec(W' + (n - 1) B'); the latter are
    computed for every distinct size in one stacked call.  This is the one
    positive-definiteness rule: :class:`NotPositiveDefinite`, naming the
    smallest failing n, when the smallest eigenvalue over those spectra is at
    most 1e-10 of the largest.
    """
    n = np.unique(np.asarray(sizes, dtype=int))
    if n.size == 0 or n[0] < 1:
        raise ValueError("cluster sizes must be positive")
    k = alpha.cais.index(d)
    s = np.sqrt(alpha.sigma2[k])
    scale = np.outer(s, s)
    W = scale * alpha.within[k]
    B = scale * alpha.between[k]
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
    reference the closed-form inverse is tested against.  ``alpha`` already
    holds the structure ``spec`` asked for; ``grid`` (a :class:`TimeGrid`, or
    a bare count of measurement times) must match its number of times.
    """
    n_times = grid if isinstance(grid, int) else grid.n_times
    if n_times != alpha.n_times:
        raise ValueError(f"grid has {n_times} times, the estimate {alpha.n_times}")
    W, B = cluster_blocks(alpha, d, (n,))
    eye = np.eye(n)
    return np.kron(eye, W) + np.kron(np.ones((n, n)) - eye, B)
