"""Block working covariance matrices and moment estimation of their parameters.

A working covariance for one cluster factors as ``S^1/2 P S^1/2`` where ``S``
is diagonal (marginal variances, replicated across individuals) and ``P`` is
a correlation matrix with within-person blocks ``W`` on the diagonal and a
common between-person block ``B`` elsewhere.  Every supported structure is
therefore block exchangeable, V = I_n (x) A' + J_n (x) B' with
A' = S^1/2 (W - B) S^1/2 and B' = S^1/2 B S^1/2.  The estimator inverts V in
closed form from those blocks, which :func:`block_stack` forms for every
regime and cluster size in one call, judging positive definiteness on
spec(A') and spec(A' + n B'), together V's spectrum.  :func:`build_V`, a
reference apart from that path, assembles one cluster's dense V.

An :class:`AlphaEstimate` holds the parameters as arrays with one row per
regime, in :func:`~smartlong.design.enumerate_cais` order: the variances
``sigma2`` (R, T+1) and the correlation matrices ``within`` and ``between``
(R, T+1, T+1), exactly as V uses them.  Whatever a spec pools is repeated
over the rows (or times) it pools, so V is read from a regime's row alone.

Parameters are estimated by the moment formulas appropriate to each
structure, all read from a :class:`ResidualGrams`: per regime, the weighted
(T+1) x (T+1) Grams of the residual rows and of their cluster sums, whatever
the number or size of the clusters.  So an estimate costs O(regimes x
(T+1)^2) and a factorization O(regimes x distinct sizes x (T+1)^3), both
independent of N.  Correlation
estimators always standardize by the fully disaggregated per-regime,
per-time variances, regardless of how the variance model itself pools.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    "ResidualGrams",
    "estimate_alpha",
    "build_V",
    "block_stack",
]

_CLIP = 1.0 - 1e-8
# a residual standard deviation within this many units of float resolution of
# its cell's root mean square outcome is rounding error, not variation
_ROUNDING_ULPS = 1e3


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
        if not (self.sigma2 >= 0).all():
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2.min()}")
        for name in ("within", "between"):
            value = getattr(self, name)
            if value.shape != self.sigma2.shape + (self.n_times,):
                raise ValueError(f"{name} must be (regimes, T+1, T+1), one matrix per regime")
            inside = np.abs(value) <= 1.0  # NaN fails it too
            if not inside.all():
                raise ValueError(f"{name} entries must lie in [-1, 1], got {value[~inside][0]}")

    @property
    def n_times(self) -> int:
        return self.sigma2.shape[1]


@dataclass(frozen=True)
class ResidualGrams:
    """Weighted second moments of residuals, one row per regime of ``cais``.

    ``rows`` (R, T+1, T+1) is sum w eps eps' over every individual's residual
    row and ``clusters`` the same over each cluster's sum of rows, a cluster's
    weight repeated over its rows; ``people`` and ``pairs`` (R,) are the sums
    of w n and of w n (n - 1).  ``scale`` (R, T+1) is the mean square each
    regime-by-time variance is judged against: a variance within rounding
    error of it is numerically zero.  Every moment estimate reads these alone.
    """

    rows: np.ndarray
    clusters: np.ndarray
    people: np.ndarray
    pairs: np.ndarray
    scale: np.ndarray


def estimate_alpha(
    grams: ResidualGrams,
    spec: WorkingCovSpec,
    cais: Sequence[EmbeddedCai],
) -> AlphaEstimate:
    """Weighted moment estimates of all parameters the spec demands.

    Every moment is read from the residuals' weighted Grams ``grams`` (see
    :class:`ResidualGrams`), per regime or summed over the regimes the spec
    pools, so the estimate costs O(regimes x (T+1)^2) however many residuals
    there are.  sigma^2 is the row Gram's diagonal over w n.  With Z_r and
    Z_c the row and cluster-sum Grams standardized by the per-regime,
    per-time variances:
    AR(1) reads the superdiagonal of Z_r, exchangeable within the sum of Z_r
    less its trace, unstructured within the upper triangle of Z_r,
    exchangeable between the sum of Z_c - Z_r and unstructured between the
    upper triangle of Z_c - Z_r with its diagonal.  Singletons contribute to
    no between-person moment: their n (n - 1) weights are zero.

    A regime-by-time variance within rounding error of its ``scale`` is
    raised to that floor; no correlation can be standardized by it, so a
    spec that estimates one raises :class:`DegenerateVariance`.  So does a
    spec without correlations whose V would hold a variance at its floor (one
    the spec does not pool, or pools only from variances at their floor)
    beside one that is not.
    """
    R, n_times = len(cais), grams.rows.shape[-1]
    T = n_times - 1
    if grams.rows.shape[0] != R:
        raise ValueError(f"residual moments of {grams.rows.shape[0]} regimes for {R} regimes")
    for d, den in zip(cais, grams.people):
        if den == 0.0:
            raise InsufficientData(f"no residuals inform variance cells for regime {d}")
    # a variance within rounding error of its cell's mean square is no
    # variance: it cannot standardize a residual, and it is raised to that
    # floor, which also discards the sign of a Gram difference that cancels
    s2_num = np.diagonal(grams.rows, axis1=1, axis2=2)
    floor = (_ROUNDING_ULPS * np.finfo(float).eps) ** 2 * grams.scale * grams.people[:, None]
    degenerate = s2_num <= floor
    s2_num = np.maximum(s2_num, floor)
    # correlation estimators standardize by these, whatever the variance pooling
    s2_std = s2_num / grams.people[:, None]

    # marginal variances at the requested pooling level
    if spec.variance_cai is VarianceCai.HETEROGENEOUS:
        sigma2 = s2_std
    else:
        sigma2 = np.repeat(s2_num.sum(axis=0, keepdims=True) / grams.people.sum(), R, axis=0)
    if spec.variance_time is VarianceTime.HOMOSCEDASTIC:
        sigma2 = np.repeat(sigma2.mean(axis=1, keepdims=True), n_times, axis=1)

    within = spec.within_corr if T >= 1 else WithinCorr.INDEPENDENT
    between = spec.between_corr
    independent = within is WithinCorr.INDEPENDENT and between is BetweenCorr.INDEPENDENT
    if degenerate.any():
        floored, why = degenerate, "cannot standardize residuals"
        if independent:
            # V is diagonal in the variances it is built from, and one pooled
            # from variances all at their floor is at its floor too.  One at
            # its floor beside one that is not makes V singular; a regime whose
            # every variance is at its floor (a mean that fits exactly) has
            # V = floor x I, which is not
            in_v = degenerate
            if spec.variance_cai is VarianceCai.HOMOGENEOUS:
                in_v = in_v.all(axis=0, keepdims=True)
            if spec.variance_time is VarianceTime.HOMOSCEDASTIC:
                in_v = in_v.all(axis=1, keepdims=True)
            floored = np.broadcast_to(in_v & ~in_v.all(axis=1, keepdims=True), degenerate.shape)
            why = "the working covariance would be singular"
        if floored.any():
            k, t = np.argwhere(floored)[0]
            raise DegenerateVariance(f"zero variance for regime {cais[k]} at time index {t}; {why}")
    W = np.eye(n_times) + np.zeros((R, 1, 1))
    B = np.zeros((R, n_times, n_times))
    if independent:
        return AlphaEstimate(tuple(cais), sigma2, W, B)

    s = np.sqrt(s2_std)
    scale = s[:, :, None] * s[:, None, :]
    z_rows = grams.rows / scale
    z_pairs = grams.clusters / scale - z_rows  # products of two different people only
    people, pairs = grams.people, grams.pairs
    het_corr = spec.corr_cai is CorrCai.HETEROGENEOUS
    if not het_corr:
        z_rows, z_pairs = z_rows.sum(axis=0, keepdims=True), z_pairs.sum(axis=0, keepdims=True)
        people, pairs = people.sum(keepdims=True), pairs.sum(keepdims=True)
    # every regime has residuals, so only the between-person moments can lack a denominator
    if between is not BetweenCorr.INDEPENDENT and (pairs == 0.0).any():
        where = f" of regime {cais[int(np.argmax(pairs == 0.0))]}" if het_corr else ""
        raise InsufficientData(f"no cluster of two or more informs the between-person correlation{where}")
    upper_w, upper_b = _upper(n_times, 1), _upper(n_times, 0)

    def ratios(structure) -> np.ndarray:
        """Per correlation key (each regime, or one pooled over regimes), the
        moment ratio of each estimated entry."""
        if structure is WithinCorr.AR1:
            return (np.trace(z_rows, 1, 1, 2) / (people * T))[:, None]
        if structure is WithinCorr.EXCHANGEABLE:
            return ((z_rows.sum(axis=(1, 2)) - np.trace(z_rows, 0, 1, 2)) / (people * n_times * T))[:, None]
        if structure is WithinCorr.UNSTRUCTURED:
            return z_rows[:, upper_w[0], upper_w[1]] / people[:, None]
        if structure is BetweenCorr.EXCHANGEABLE:
            return (z_pairs.sum(axis=(1, 2)) / (pairs * n_times**2))[:, None]
        return z_pairs[:, upper_b[0], upper_b[1]] / pairs[:, None]

    # the parameters fill the upper triangle of each regime's W (strictly)
    # and B (with the diagonal); moment ratios can stray outside [-1, 1] in
    # small samples, and V is built from them clipped into the open interval
    rows = np.arange(R) if het_corr else np.zeros(R, dtype=int)
    clipped = False
    for structure, (l, m), block in ((within, upper_w, W), (between, upper_b, B)):
        if structure in (WithinCorr.INDEPENDENT, BetweenCorr.INDEPENDENT):
            continue
        rho = ratios(structure)[rows]
        clipped = clipped or bool((np.abs(rho) > _CLIP).any())
        rho = np.clip(rho, -_CLIP, _CLIP)
        if structure is WithinCorr.AR1:
            rho = rho ** (m - l)  # integer exponents: a negative rho is fine
        block[:, l, m] = block[:, m, l] = rho
    return AlphaEstimate(tuple(cais), sigma2, W, B, clipped)


@lru_cache(maxsize=16)
def _upper(n: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k), read-only: building it costs more than the
    moments it indexes."""
    upper = np.triu_indices(n, k)
    for index in upper:
        index.flags.writeable = False
    return upper


def block_stack(
    alpha: AlphaEstimate,
    rows: Sequence[int],
    sizes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks W' = S^1/2 W S^1/2 and B' = S^1/2 B S^1/2 (R', T+1, T+1) of
    the regimes ``alpha.cais[rows]``, and the inverse (R', 1 + k, T+1, T+1)
    of the stack of blocks whose spectra make up their V's: W' - B' in slot 0
    and W' + (n - 1) B' for each regime's distinct cluster sizes ``sizes``
    (R', k), ascending and padded with zeros.  A slot with nothing to judge
    (padding, or W' - B' where no cluster has two people) holds the identity,
    so the whole stack is inverted in one ``np.linalg.inv`` call.

    V = I_n (x) (W' - B') + J_n (x) B', so its spectrum is spec(W' - B')
    repeated n - 1 times together with spec(W' + (n - 1) B').  This is the
    one positive-definiteness rule: :class:`NotPositiveDefinite` when the
    smallest eigenvalue of some V is at most 1e-10 of its largest, naming the
    first failing regime in ``rows`` order and its smallest failing n.

    The rule is certified without eigenvalues where it clearly holds: one
    stacked Cholesky factorization proves every block S positive definite,
    and then lambda_max(S) <= tr S and lambda_min(S) >= 1 / tr S^-1, read
    from the stack and its inverse.  Where, for every V, the smallest such
    lower bound over its blocks exceeds 1e-9 of the largest upper bound, the
    rule passes with a tenfold margin for rounding.  Otherwise (a failed
    factorization or inverse, or a bound too loose to decide) one stacked
    eigenvalue call judges the rule exactly.
    """
    n = np.asarray(sizes, dtype=int)
    s = np.sqrt(alpha.sigma2[rows])
    scale = s[:, :, None] * s[:, None, :]
    W = scale * alpha.within[rows]
    B = scale * alpha.between[rows]
    stack = np.empty((len(W), 1 + n.shape[1]) + W.shape[1:])
    stack[:, 0] = W - B
    stack[:, 1:] = W[:, None] + (n - 1)[..., None, None] * B[:, None]
    stack[n.max(axis=1, initial=0) <= 1, 0] = stack[:, 1:][n == 0] = np.eye(alpha.n_times)
    shared = n > 1
    try:
        np.linalg.cholesky(stack)
        # a factorization can pass a block whose inverse still meets an exact zero pivot
        inverse = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        inverse = None
    else:
        # per V, H / L from the traces of its blocks (slot n, and slot 0 where
        # n > 1); the identity in a padding slot always passes
        tr_inv = np.trace(inverse, axis1=2, axis2=3)
        tr = np.trace(stack, axis1=2, axis2=3)
        bound = np.maximum(tr_inv[:, 1:], shared * tr_inv[:, :1]) * np.maximum(tr[:, 1:], shared * tr[:, :1])
        if tr_inv.min() > 0.0 and (bound < 1e9).all():
            return W, B, inverse
    eig = np.linalg.eigvalsh(stack)
    lo, hi = eig[:, 1:, 0], eig[:, 1:, -1]
    lo = np.where(shared, np.minimum(lo, eig[:, :1, 0]), lo)
    hi = np.where(shared, np.maximum(hi, eig[:, :1, -1]), hi)
    failing = (n > 0) & (lo <= 1e-10 * np.maximum(hi, 0.0))
    if failing.any():
        r, i = np.argwhere(failing)[0]
        raise NotPositiveDefinite(
            f"working covariance for regime {alpha.cais[rows[r]]}, cluster size {n[r, i]} is not "
            f"positive definite (eigenvalue range [{lo[r, i]:.3e}, {hi[r, i]:.3e}])"
        )
    return W, B, np.linalg.inv(stack) if inverse is None else inverse


def build_V(
    spec: WorkingCovSpec,
    alpha: AlphaEstimate,
    d: EmbeddedCai,
    n: int,
    grid: Union[TimeGrid, int],
) -> np.ndarray:
    """Dense working covariance for one cluster of ``n`` individuals under ``d``.

    A reference the estimator never forms, sharing no code with it: entry
    (i, l), (j, m) is s_l s_m W_lm for i = j and s_l s_m B_lm otherwise, s the
    square roots of ``d``'s variances, and V's own eigenvalues are judged by
    :func:`block_stack`'s rule.  ``spec`` is not read (``alpha`` holds the
    structure it asked for); ``grid`` (a :class:`TimeGrid`, or a bare count of
    measurement times) must match the estimate's number of times.
    """
    n_times = grid if isinstance(grid, int) else grid.n_times
    if n_times != alpha.n_times:
        raise ValueError(f"grid has {n_times} times, the estimate {alpha.n_times}")
    if n < 1:
        raise ValueError(f"cluster size must be positive, got {n}")
    k = alpha.cais.index(d)
    s = np.sqrt(alpha.sigma2[k])
    scale = s[:, None] * s[None, :]
    # indexed (i, l, j, m): person i at time l against person j at time m
    same_person = np.eye(n, dtype=bool)[:, None, :, None]
    V = np.where(same_person, (scale * alpha.within[k])[:, None, :], (scale * alpha.between[k])[:, None, :])
    V = V.reshape(n * n_times, n * n_times)
    eig = np.linalg.eigvalsh(V)
    if eig[0] <= 1e-10 * max(eig[-1], 0.0):
        raise NotPositiveDefinite(
            f"working covariance for regime {d}, cluster size {n} is not "
            f"positive definite (eigenvalue range [{eig[0]:.3e}, {eig[-1]:.3e}])"
        )
    return V
