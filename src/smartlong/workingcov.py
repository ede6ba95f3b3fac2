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
appropriate to each structure; correlation estimators always standardize by
the fully disaggregated per-regime, per-time variances, regardless of how the
variance model itself pools.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    "ResidualSet",
    "estimate_alpha",
    "pool_alpha",
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
    """Residuals of same-size clusters replicated under one regime."""

    cai: EmbeddedCai
    weights: np.ndarray  # (m,)
    eps: np.ndarray      # (m, n, T+1)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        e = np.asarray(self.eps, dtype=float)
        if e.ndim != 3 or w.ndim != 1 or e.shape[0] != w.shape[0]:
            raise ValueError("eps must be (m, n, T+1) aligned with weights (m,)")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "eps", e)


@dataclass(frozen=True)
class ResidualSet:
    groups: Tuple[ResidualGroup, ...]

    @classmethod
    def from_entries(
        cls, entries: Iterable[Tuple[EmbeddedCai, float, np.ndarray]]
    ) -> "ResidualSet":
        """Build from per-(cluster, regime) triples ``(cai, weight, eps[n, T+1])``."""
        groups = [
            ResidualGroup(cai, np.array([w]), np.asarray(e, dtype=float)[None])
            for cai, w, e in entries
        ]
        return cls(tuple(groups))

    @property
    def n_times(self) -> int:
        if not self.groups:
            raise InsufficientData("residual set is empty")
        return self.groups[0].eps.shape[2]

    def cais(self) -> List[EmbeddedCai]:
        seen: List[EmbeddedCai] = []
        for g in self.groups:
            if g.cai not in seen:
                seen.append(g.cai)
        return seen


def _std_variances(
    res: ResidualSet, cais: Sequence[EmbeddedCai]
) -> Tuple[Dict[EmbeddedCai, np.ndarray], Dict[EmbeddedCai, np.ndarray], Dict[EmbeddedCai, float]]:
    """Per-regime, per-time weighted mean squared residuals (never pooled)."""
    n_times = res.n_times
    num = {d: np.zeros(n_times) for d in cais}
    den = {d: 0.0 for d in cais}
    for g in res.groups:
        if g.cai not in num:
            raise InsufficientData(f"residuals present for unexpected regime {g.cai}")
        num[g.cai] += np.einsum("m,mjt->t", g.weights, g.eps**2)
        den[g.cai] += float(g.weights.sum()) * g.eps.shape[1]
    out = {}
    for d in cais:
        if den[d] == 0.0:
            raise InsufficientData(f"no residuals inform variance cells for regime {d}")
        out[d] = num[d] / den[d]
    return out, num, den


def _standardized(groups: Iterable[ResidualGroup], s2: Dict[EmbeddedCai, np.ndarray]):
    for g in groups:
        sig = np.sqrt(s2[g.cai])
        if np.any(sig == 0.0):
            raise DegenerateVariance(
                f"zero variance for regime {g.cai}; cannot standardize residuals"
            )
        yield g, g.eps / sig


def estimate_alpha(
    res: ResidualSet,
    spec: WorkingCovSpec,
    cais: Optional[Sequence[EmbeddedCai]] = None,
) -> AlphaEstimate:
    """Weighted moment estimates of all parameters the spec demands."""
    if cais is None:
        cais = res.cais()
    n_times = res.n_times
    T = n_times - 1
    s2_std, s2_num, s2_den = _std_variances(res, cais)

    # marginal variances at the requested pooling level
    sigma2: Dict[Tuple[DKey, TKey], float] = {}
    het_cai = spec.variance_cai is VarianceCai.HETEROGENEOUS
    het_time = spec.variance_time is VarianceTime.HETEROSCEDASTIC
    if het_cai:
        per_time = {d: s2_std[d] for d in cais}
    else:
        pooled = sum(s2_num[d] for d in cais) / sum(s2_den[d] for d in cais)
        per_time = {POOLED: pooled}
    for dk, values in per_time.items():
        if het_time:
            for k in range(n_times):
                sigma2[(dk, k)] = float(values[k])
        else:
            sigma2[(dk, POOLED)] = float(values.mean())

    corr_keys = cais if spec.corr_cai is CorrCai.HETEROGENEOUS else [POOLED]

    def dkey(d: EmbeddedCai) -> DKey:
        return d if spec.corr_cai is CorrCai.HETEROGENEOUS else POOLED

    rho_w: Dict[tuple, float] = {}
    rho_b: Dict[tuple, float] = {}
    clipped = False

    def finalize(num: Dict, den: Dict, target: Dict, what: str) -> None:
        # moment ratios can stray outside [-1, 1] in small samples; store the
        # admissible value and let matrix assembly apply the open-interval clip
        nonlocal clipped
        for key, denom in den.items():
            if denom == 0.0:
                raise InsufficientData(f"no residuals inform {what} cell {key}")
            value = num[key] / denom
            clipped = clipped or abs(value) > _CLIP
            target[key] = min(max(float(value), -1.0), 1.0)

    if spec.within_corr is not WithinCorr.INDEPENDENT and T >= 1:
        if spec.within_corr is WithinCorr.AR1:
            num = {(k,): 0.0 for k in corr_keys}
            den = {(k,): 0.0 for k in corr_keys}
            for g, z in _standardized(res.groups, s2_std):
                key = (dkey(g.cai),)
                num[key] += float(np.einsum("m,mjl,mjl->", g.weights, z[:, :, :-1], z[:, :, 1:]))
                den[key] += float(g.weights.sum()) * g.eps.shape[1] * T
            finalize(num, den, rho_w, "AR(1) within-person")
        elif spec.within_corr is WithinCorr.EXCHANGEABLE:
            num = {(k,): 0.0 for k in corr_keys}
            den = {(k,): 0.0 for k in corr_keys}
            for g, z in _standardized(res.groups, s2_std):
                key = (dkey(g.cai),)
                s = z.sum(axis=2)
                q = (z**2).sum(axis=2)
                num[key] += float(g.weights @ (s**2 - q).sum(axis=1))
                den[key] += float(g.weights.sum()) * g.eps.shape[1] * n_times * T
            finalize(num, den, rho_w, "exchangeable within-person")
        else:  # unstructured, one cell per ordered-below time pair
            pairs = [(l, m) for l in range(n_times) for m in range(l + 1, n_times)]
            num = {(k, l, m): 0.0 for k in corr_keys for l, m in pairs}
            den = {(k, l, m): 0.0 for k in corr_keys for l, m in pairs}
            for g, z in _standardized(res.groups, s2_std):
                dk = dkey(g.cai)
                cross = np.einsum("m,mjl,mjk->lk", g.weights, z, z)
                d_tot = float(g.weights.sum()) * g.eps.shape[1]
                for l, m in pairs:
                    num[(dk, l, m)] += float(cross[l, m])
                    den[(dk, l, m)] += d_tot
            finalize(num, den, rho_w, "unstructured within-person")

    if spec.between_corr is not BetweenCorr.INDEPENDENT:
        if spec.between_corr is BetweenCorr.EXCHANGEABLE:
            num = {(k,): 0.0 for k in corr_keys}
            den = {(k,): 0.0 for k in corr_keys}
            for g, z in _standardized(res.groups, s2_std):
                n = g.eps.shape[1]
                if n < 2:
                    continue  # singletons carry no between-person pairs
                key = (dkey(g.cai),)
                total = z.sum(axis=(1, 2))
                person = z.sum(axis=2)
                num[key] += float(g.weights @ (total**2 - (person**2).sum(axis=1)))
                den[key] += float(g.weights.sum()) * n * (n - 1) * n_times**2
            finalize(num, den, rho_b, "exchangeable between-person")
        else:  # unstructured: full time-pair table including same-time cells
            pairs = [(l, m) for l in range(n_times) for m in range(l, n_times)]
            num = {(k, l, m): 0.0 for k in corr_keys for l, m in pairs}
            den = {(k, l, m): 0.0 for k in corr_keys for l, m in pairs}
            for g, z in _standardized(res.groups, s2_std):
                n = g.eps.shape[1]
                if n < 2:
                    continue
                dk = dkey(g.cai)
                col = z.sum(axis=1)
                cross = np.einsum("m,ml,mk->lk", g.weights, col, col) - np.einsum(
                    "m,mjl,mjk->lk", g.weights, z, z
                )
                d_tot = float(g.weights.sum()) * n * (n - 1)
                for l, m in pairs:
                    num[(dk, l, m)] += float(cross[l, m])
                    den[(dk, l, m)] += d_tot
            finalize(num, den, rho_b, "unstructured between-person")

    return AlphaEstimate(
        n_times=n_times, sigma2=sigma2, rho_w=rho_w, rho_b=rho_b, clipped=clipped
    )


def pool_alpha(alpha: AlphaEstimate, spec: WorkingCovSpec) -> AlphaEstimate:
    """Average an existing estimate down to the spec's pooling level.

    Pooling over time takes the arithmetic mean of per-time variances;
    pooling over regimes averages the per-regime estimates.  Idempotent.
    """
    het_cai = spec.variance_cai is VarianceCai.HETEROGENEOUS
    het_time = spec.variance_time is VarianceTime.HETEROSCEDASTIC

    grouped: Dict[Tuple[DKey, TKey], List[float]] = {}
    for (dk, tk), v in alpha.sigma2.items():
        target = (dk if het_cai else POOLED, tk if het_time else POOLED)
        grouped.setdefault(target, []).append(v)
    sigma2 = {k: float(np.mean(vs)) for k, vs in grouped.items()}

    def pool_corr(table: Dict[tuple, float]) -> Dict[tuple, float]:
        if spec.corr_cai is CorrCai.HETEROGENEOUS:
            return dict(table)
        out: Dict[tuple, List[float]] = {}
        for key, v in table.items():
            out.setdefault((POOLED, *key[1:]), []).append(v)
        return {k: float(np.mean(vs)) for k, vs in out.items()}

    return AlphaEstimate(
        n_times=alpha.n_times,
        sigma2=sigma2,
        rho_w=pool_corr(alpha.rho_w),
        rho_b=pool_corr(alpha.rho_b),
        clipped=alpha.clipped,
    )


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
    repeated n - 1 times together with spec(W' + (n - 1) B').  This is the one
    positive-definiteness rule: :class:`NotPositiveDefinite`, naming the
    smallest failing n, when the smallest eigenvalue over those spectra is at
    most 1e-10 of the largest.  ``grid`` may be a :class:`TimeGrid` or a bare
    count of measurement times (single-time analyses have no grid object).
    """
    if not sizes or min(sizes) < 1:
        raise ValueError("cluster sizes must be positive")
    n_times = grid if isinstance(grid, int) else grid.n_times
    s = np.sqrt([alpha.sigma2_at(spec, d, k) for k in range(n_times)])
    scale = np.outer(s, s)
    W = scale * _within_block(spec, alpha, d, n_times)
    B = scale * _between_block(spec, alpha, d, n_times)
    shared = np.linalg.eigvalsh(W - B) if max(sizes) > 1 else None
    for n in sorted(sizes):
        eig = np.linalg.eigvalsh(W + (n - 1) * B)
        lo, hi = eig[0], eig[-1]
        if n > 1:
            lo, hi = min(lo, shared[0]), max(hi, shared[-1])
        if lo <= 1e-10 * max(hi, 0.0):
            raise NotPositiveDefinite(
                f"working covariance for regime {d}, cluster size {n} is not positive "
                f"definite (eigenvalue range [{lo:.3e}, {hi:.3e}])"
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
