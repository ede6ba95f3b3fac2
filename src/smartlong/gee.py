"""Weighted estimating-equation engine with plug-in sandwich inference.

The estimator solves, for linear-in-theta mean models,

    0 = sum_i sum_d I_i(d) W_i D_i(d)' V_d^{-1} (Y_i - D_i(d) theta),

alternating between theta solves and moment estimation of the working
covariance parameters, with Anderson mixing of the theta iterates, until
they stabilize.  Variance estimates are of sandwich form J^{-1} Q J^{-1} / N
and remain valid under working covariance misspecification.

Every cluster's working covariance is block exchangeable,
V = I_n (x) A' + J_n (x) B' with (T+1) x (T+1) blocks, so its inverse is
I_n (x) A'^{-1} + J_n (x) C with C = (A_n'^{-1} - A'^{-1}) / n and
A_n' = A' + n B'.  The engine forms neither V nor the design D nor V^{-1} D.
It factorizes A' per regime and A_n' per distinct cluster size, every
regime's blocks in one stacked Cholesky certificate and one stacked inverse.
Individual j's design is D_j = [Gamma_d | 1 x_j'], so with G = [Gamma_d | 1],
D'V^{-1} D and D'V^{-1} y are sums of G'SG and G'S for S = A'^{-1} and each
C, weighted by moments of the covariates and outcomes built once per
regime, over its rows and over its clusters of each distinct size.  The
working-covariance moments are read from weighted residual Grams, which
are linear in theta's step from the first estimate: the rows are read once
there and every later Gram is closed-form (see
:meth:`_Workspace.residual_grams`).  So every iteration, the alpha estimate
included, costs O(regimes x distinct sizes x (T+1)^2 x p^2), whatever the
number of clusters.  Residuals and scores for the sandwich are read from
the same structure, and the bias-corrected meat uses the Woodbury form of
the inverse leverage, one p x p solve per cluster; they are linear in the
number of observations and run once per fit.  Only C depends on the
cluster size, so each regime indexes one stack of its consistent clusters,
one row per individual, in the dataset's canonical sorted-id order; results
are reproducible and independent of input row order.  A stack's rows are
gathered from the dataset's columns array-at-once where a pass reads them,
never kept per individual or per regime, regime membership and design
weights decided once per distinct observed pathway.  A regime keeps only
its clusters' positions; their sizes, row offsets and covariate sums are
read from arrays every regime shares where a pass needs them.  The
weight-model scores are kept as one block per fitted model and laid out
densely only for the estimated-weight correction, after the scores U.

Each job has one path.  Every regime of :func:`enumerate_cais` has
clusters (validation rejects a dataset where one has none), so each stack
covers them all, in order.  The identity that starts the iteration is an
ordinary factor stack.  Residual rows are formed only by
:meth:`_Workspace._residuals`.  One rule, :func:`_symmetric_cond`, judges
the conditioning of A, J and the score outer product.

:func:`fit` is the only entry point: it validates (``design.py`` alone
judges an observed pathway), solves, applies the finite-sample adjustments
and the estimated-weight correction, and assembles the sandwich once (the
end-of-study comparator runs it on the final time alone).  A
:class:`FitResult` holds values only, nothing to re-enter the engine with.
:func:`wald_test` is the only source of p-values and confidence intervals;
it evaluates the survival function directly and computes each critical
value once per (level, df).  The package exports ``__all__``, not the
stages :func:`estimate_weight_model`, :func:`sandwich_covariance` and
``estimate_alpha``, which keep these names here for the benchmark's tracer.
"""
from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit, ndtr, stdtr
from scipy.stats import norm, t as student_t

from .data import TrialDataset, _name_tuple, _raise_first_violation, validate
from .design import EmbeddedCai, consistency_indicator, design_weight, enumerate_cais
from .errors import (
    InsufficientData,
    RankDeficient,
    Separation,
    SmartlongError,
    ZeroVariance,
)
from .meanmodel import ContrastVector, MeanModelSpec, ThetaEstimate, make_saturated_basis
from .workingcov import (
    AlphaEstimate,
    BetweenCorr,
    CorrCai,
    ResidualGrams,
    VarianceCai,
    VarianceTime,
    WithinCorr,
    WorkingCovSpec,
    _clamp_nonneg,
    block_stack,
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
    "wald_test",
    "fit_end_of_study",
]

_MAX_COND = 1e12
# differences of past iterates that the Anderson mixing of the theta map uses
_ANDERSON_DEPTH = 3
# a contrast SE within this many units of float resolution of the estimate's
# own rounding error cannot be told apart from zero
_ZERO_SE_ULPS = 1e3


def _symmetric_cond(A: np.ndarray) -> float:
    """The 2-norm condition number of a symmetric matrix, whose singular
    values are its eigenvalues' magnitudes: cheaper than an SVD."""
    spectrum = np.abs(np.linalg.eigvalsh(A))
    return spectrum.max() / spectrum.min() if spectrum.min() > 0.0 else math.inf


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
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        for name in ("stage1_covariates", "stage2_covariates"):
            object.__setattr__(self, name, _name_tuple(getattr(self, name), name))
        if (self.stage1_covariates or self.stage2_covariates) and self.weight_mode is not WeightMode.ESTIMATED:
            raise ValueError("weight-model covariates need weight_mode=WeightMode.ESTIMATED")


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
    """Fitted randomization-probability models and their score contributions.

    ``score_blocks`` holds, per fitted model, its clusters (an index array,
    or a slice for every cluster) and their score rows; :attr:`scores`
    lays the blocks out side by side as one dense matrix, on each use.
    """

    stage1_coef: np.ndarray
    stage2_coef: Dict[Tuple[int, int], np.ndarray]
    score_blocks: Tuple[Tuple[slice | np.ndarray, np.ndarray], ...]
    fitted_weights: np.ndarray    # (N,)
    fallback_cells: Tuple[Tuple[int, int], ...] = ()

    @property
    def scores(self) -> np.ndarray:
        """(N, q) score contributions in canonical cluster order: each fitted
        model's block in its own columns, zero outside the model's clusters."""
        scores = np.zeros((len(self.fitted_weights), sum(block.shape[1] for _, block in self.score_blocks)))
        start = 0
        for members, block in self.score_blocks:
            scores[members, start : start + block.shape[1]] = block
            start += block.shape[1]
        return scores

    @property
    def score_sum_norm(self) -> float:
        scores = self.scores
        return float(np.abs(scores.sum(axis=0)).max()) if scores.size else 0.0


@dataclass(frozen=True)
class _Regime:
    """The clusters consistent with one regime, stacked in canonical order:
    cluster ``i`` owns rows ``starts[i] : starts[i] + sizes[i]``, one per
    individual.  The regime holds index structure, not the rows: those are
    the dataset's rows of its clusters, in order, and
    :meth:`_Workspace.regime_rows` gathers them when a pass needs them.
    ``sizes``, ``starts``, ``size_idx`` and ``x_sum`` are likewise derived
    when a pass asks for them, from arrays every regime shares.

    Individual j's design is D_j = [Gamma | 1 x_j'] = G E(z_j), with
    G = [Gamma | 1], z_j = (1, x_j) and E(z) = diag(z_0 I, z_1..q'); a
    cluster's design sum is G E(z_i) with z_i = (n_i, X_i).  So the regime
    keeps G and reads each cluster's X_i, never D; the workspace keeps the
    weighted moments of z the normal equations and the residual Grams need.
    """

    cai: EmbeddedCai
    cluster_pos: np.ndarray    # (m,) indices into canonical cluster order
    basis: np.ndarray          # (T+1, n_gamma + 1), G = [Gamma | 1]
    distinct: np.ndarray       # (k,) distinct cluster sizes, ascending
    cluster_sizes: np.ndarray  # (N,) every cluster's size, shared
    cluster_x_sum: np.ndarray  # (N, q) every cluster's covariates summed over its rows, shared

    @property
    def gamma(self) -> np.ndarray:
        return self.basis[:, :-1]

    # take gathers several times faster than fancy indexing
    @property
    def sizes(self) -> np.ndarray:
        """(m,) each cluster's size."""
        return self.cluster_sizes.take(self.cluster_pos)

    @property
    def starts(self) -> np.ndarray:
        """(m,) each cluster's first row."""
        sizes = self.sizes
        return np.cumsum(sizes) - sizes

    @property
    def size_idx(self) -> np.ndarray:
        """(m,) each cluster's index into ``distinct``."""
        return np.searchsorted(self.distinct, self.sizes)

    @property
    def x_sum(self) -> np.ndarray:
        """(m, q) each cluster's covariates summed over its rows."""
        return self.cluster_x_sum.take(self.cluster_pos, axis=0)


class _Workspace:
    """Per-regime index structure for one dataset and mean model, with the
    weighted moments that every iteration is computed from.

    Precondition: every regime of ``cais`` has a consistent cluster.
    :func:`fit`'s validation raises :class:`InsufficientData` before a
    workspace is built otherwise.  ``weights`` None takes the design weights.

    The workspace keeps no outcome or covariate row, per individual or per
    regime: a regime's rows are gathered from the dataset's columns while
    the moments are built, and again only where residual rows are formed,
    by :meth:`_residuals` for the residual Grams' anchor and for the
    scores.  Per cluster it keeps the covariate sums, one table the regimes
    share.  So the rows a fit holds do not grow with the number of regimes
    a cluster is consistent with.

    The moments are stacked over the R regimes, the size-dependent ones
    padded to the largest number k of distinct sizes: ``wzz`` (R, 1 + k, p,
    p) and ``wzy`` (R, 1 + k, p, T+1) hold sum w z z' and sum w z Y' (Y the
    outcome sum of the same rows) over every row for the A'^{-1} term and
    over the clusters of each distinct size for its C_n term, spread to the
    parameter layout: entry (i, j) pairs with (G' S G)[g_i, g_j] where g maps
    each parameter to its column of G.  ``szz`` (2, R, 1 + q, 1 + q) holds
    sum w z z' over rows and over cluster sums for the residual Grams.  The
    weights are fixed, so all are built once.
    """

    def __init__(self, ds: TrialDataset, mean_spec: MeanModelSpec, weights: Optional[np.ndarray] = None) -> None:
        self.ds = ds
        self.mean_spec = mean_spec
        if weights is None:
            weights = np.array([design_weight(p, ds.design) for p in ds.pathways])[ds.pathway_index]
        self.weights = np.asarray(weights, dtype=float)
        self.N = ds.n_clusters
        if self.weights.shape != (self.N,) or not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise ValueError("weights must be finite and positive, one per cluster")
        self.p = mean_spec.n_params
        n_gamma, q = mean_spec.n_gamma, self.p - mean_spec.n_gamma
        # each parameter's column of G and entry of z
        self._g = np.r_[np.arange(n_gamma), np.full(q, n_gamma)]
        self._z = np.r_[np.zeros(n_gamma, dtype=int), np.arange(1, q + 1)]
        self.cais = enumerate_cais(ds.design)
        self._build_regimes()
        # residual moments at the first theta the Grams are asked for
        self._anchor: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- assembly -----------------------------------------------------------

    def _build_regimes(self) -> None:
        spec, ds = self.mean_spec, self.ds
        sizes = ds.sizes
        q, n_times = len(spec.covariate_terms), spec.grid.n_times
        # each covariate term's column: (whether it is a cluster covariate, its index)
        self._columns: List[Tuple[bool, int]] = []
        for name in spec.covariate_terms:
            if name in ds.cluster_covariates:
                self._columns.append((True, ds.cluster_covariates.index(name)))
            elif name in ds.individual_covariates:
                self._columns.append((False, ds.individual_covariates.index(name)))
            else:
                raise ValueError(f"covariate {name!r} not present in the dataset schema")
        x_sum = np.add.reduceat(self._covariate_rows(np.arange(self.N), np.arange(len(ds.y))), np.cumsum(sizes) - sizes)
        # consistency depends only on the pathway: decide it once per pathway
        by_pathway = np.array(
            [[consistency_indicator(p, d, ds.design) for p in ds.pathways] for d in self.cais], dtype=bool
        ).reshape(len(self.cais), len(ds.pathways))
        consistent = by_pathway[:, ds.pathway_index]
        self.regimes: List[_Regime] = []
        moments, people, pairs, y_square = [], [], [], []
        for d, gamma, member in zip(self.cais, spec._gamma, consistent):
            pos = np.flatnonzero(member)
            n = sizes[pos]
            distinct = np.unique(n)
            r = _Regime(d, pos, np.column_stack((gamma, np.ones(len(gamma)))), distinct, sizes, x_sum)
            xs, ys = self.regime_rows(r)
            w = self.weights[pos]
            w_rows = np.repeat(w, n)
            people.append(w @ n)
            pairs.append(w @ (n * (n - 1.0)))
            y_square.append(w_rows @ ys**2 / people[-1])
            # moments of z against (z, Y): over rows, then per distinct size
            zy_rows = np.column_stack((np.ones(len(xs)), xs, ys))
            del xs, ys  # each array is dropped once read, to keep the peak low
            m = np.empty((1 + distinct.size, 1 + q, 1 + q + n_times))
            m[0] = (w_rows[:, None] * zy_rows[:, : 1 + q]).T @ zy_rows
            y_sums = np.add.reduceat(zy_rows[:, 1 + q :], np.cumsum(n) - n)
            del zy_rows, w_rows
            zy = np.column_stack((n, r.x_sum, y_sums))
            # each cluster's weighted z in its size's slot: one product sums every slot
            wz_slots = np.zeros((len(w), distinct.size, 1 + q))
            wz_slots[np.arange(len(w)), r.size_idx] = w[:, None] * zy[:, : 1 + q]
            m[1:] = (wz_slots.reshape(len(w), -1).T @ zy).reshape(m[1:].shape)
            moments.append(m)
            self.regimes.append(r)
        R = len(self.regimes)
        k_max = max(r.distinct.size for r in self.regimes)
        self._basis = np.array([r.basis for r in self.regimes])
        self._distinct = np.zeros((R, k_max), dtype=int)  # padded with zeros
        stacked = np.zeros((R, 1 + k_max, 1 + q, 1 + q + n_times))
        for i, (r, m) in enumerate(zip(self.regimes, moments)):
            self._distinct[i, : r.distinct.size] = r.distinct
            stacked[i, : len(m)] = m
        self._wzz = stacked[:, :, self._z[:, None], self._z]
        self._wzy = stacked[:, :, self._z, 1 + q :]
        self._szz = np.stack((stacked[:, 0, :, : 1 + q], stacked[:, 1:, :, : 1 + q].sum(axis=1)))
        # per regime: the sums of w n and w n (n - 1), and each time's mean square outcome
        self._people, self._pairs, self._y_square = np.array(people), np.array(pairs), np.array(y_square)

    # -- linear algebra over the regime stacks --------------------------------

    def identity(self) -> np.ndarray:
        """The identity working covariance as factors: A'^{-1} = I, every C_n = 0."""
        R, k = self._distinct.shape
        factors = np.zeros((R, 1 + k) + 2 * (self.mean_spec.grid.n_times,))
        factors[:, 0] = np.eye(self.mean_spec.grid.n_times)
        return factors

    def normal_equations(self, factors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """A = sum w D'V^{-1} D and b = sum w D'V^{-1} y over every regime,
        from G'S and G'SG for each S of the regimes' factors and their
        moments, in one contraction over the stacks."""
        g = self._g
        gs = self._basis.swapaxes(1, 2)[:, None] @ factors
        gsg = gs @ self._basis[:, None]
        A = np.einsum("rkij,rkij->ij", gsg[:, :, g[:, None], g], self._wzz)
        b = np.einsum("rkit,rkit->i", gs[:, :, g], self._wzy)
        return A, b

    def solve(self, factors: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """theta under ``factors``, with the A and b it was solved from."""
        A, b = self.normal_equations(factors)
        if not np.all(np.isfinite(A)) or _symmetric_cond(A) > _MAX_COND:
            raise RankDeficient(
                "weighted normal system is singular; the mean model is not "
                "identified on this dataset"
            )
        theta = np.linalg.solve(A, b)
        return theta, A, b

    def _covariate_rows(self, pos: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The covariate rows (rows, q) of the clusters at ``pos``, whose
        individuals are the dataset's ``rows``: each cluster covariate
        repeated over its cluster's rows, each individual covariate gathered."""
        ds = self.ds
        x = np.empty((len(rows), len(self._columns)))
        sizes = ds.sizes.take(pos)
        for j, (per_cluster, col) in enumerate(self._columns):
            if per_cluster:
                x[:, j] = np.repeat(ds.x_cluster[:, col].take(pos), sizes)
            else:
                x[:, j] = ds.x_individual[:, col].take(rows)
        return x

    def regime_rows(self, r: _Regime) -> Tuple[np.ndarray, np.ndarray]:
        """Regime ``r``'s covariate rows (rows, q) and outcome rows (rows, T+1),
        gathered from the dataset's columns."""
        member = np.zeros(self.N, dtype=bool)
        member[r.cluster_pos] = True
        rows = np.flatnonzero(np.repeat(member, self.ds.sizes))
        # take gathers rows several times faster than fancy indexing
        return self._covariate_rows(r.cluster_pos, rows), self.ds.y.take(rows, axis=0)

    def _residuals(self, r: _Regime, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Regime ``r``'s cluster weights (m,), covariate rows, residual rows
        y - D theta and each cluster's sum of residual rows (m, T+1).  The
        only place a fit reads rows, once per regime at the anchor of the
        residual Grams and once for the scores."""
        n_gamma = self.mean_spec.n_gamma
        x, eps = self.regime_rows(r)
        eps -= r.gamma @ theta[:n_gamma]
        eps -= (x @ theta[n_gamma:])[:, None]
        return self.weights[r.cluster_pos], x, eps, np.add.reduceat(eps, r.starts)

    def _anchor_at(self, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """theta with, stacked over (rows, cluster sums) x regimes, the weighted
        Grams sum w eps eps' (2, R, T+1, T+1) of the residuals at theta and
        their cross moments sum w z eps' (2, R, 1 + q, T+1) with z."""
        n_times, q1 = self.mean_spec.grid.n_times, self._szz.shape[-1]
        grams = np.empty((2, len(self.regimes), n_times, n_times))
        cross = np.empty((2, len(self.regimes), q1, n_times))
        for i, r in enumerate(self.regimes):
            w, x, eps, col = self._residuals(r, theta)
            n = r.sizes
            w_eps = np.repeat(w, n)[:, None] * eps
            grams[0, i] = w_eps.T @ eps
            grams[1, i] = (w[:, None] * col).T @ col
            cross[0, i, 0] = w_eps.sum(axis=0)
            cross[0, i, 1:] = x.T @ w_eps
            cross[1, i] = (w[:, None] * np.column_stack((n, r.x_sum))).T @ col
        return theta.copy(), grams, cross

    def residual_grams(self, theta: np.ndarray) -> ResidualGrams:
        """The weighted residual Grams at ``theta``, for :func:`estimate_alpha`.

        The first call reads every residual row at its theta_0; each later
        call reads no row and costs O(regimes x (T+1)^2 x (1 + q)).  The
        residuals are eps = eps_0 - dM z with dM = [Gamma d_gamma | 1 d_eta']
        linear in d = theta - theta_0, so over rows and over cluster sums
        Q = Q_0 - dM S_ze - (dM S_ze)' + dM S_zz dM' with S_ze = sum w z eps_0'
        and S_zz = sum w z z'.  Anchoring at theta_0 rather than expanding
        about theta = 0 keeps the Grams as accurate as the residuals
        themselves: raw moments of y would lose a factor |y|^2/|eps|^2 in
        relative precision.
        """
        if self._anchor is None:
            self._anchor = self._anchor_at(theta)
        theta_0, grams, cross = self._anchor
        d = theta - theta_0
        n_gamma = self.mean_spec.n_gamma
        dm = np.empty(self._basis.shape[:2] + (self._szz.shape[-1],))
        dm[:, :, 0] = self._basis[:, :, :n_gamma] @ d[:n_gamma]
        dm[:, :, 1:] = d[n_gamma:]
        shift = dm @ cross
        q = grams - shift - shift.swapaxes(2, 3) + dm @ self._szz @ dm.swapaxes(1, 2)
        return ResidualGrams(q[0], q[1], self._people, self._pairs, self._y_square)

    def u_rows(
        self, theta: np.ndarray, factors: np.ndarray, leverage_inverse_from: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-cluster estimating-function contributions U_i, shape (N, p),
        under ``factors``: in the notation of :class:`_Regime`, with E_i the
        sum of cluster i's residual rows and C its size's C,
        U_i = w_i (sum_j E(z_j)'G'A'^{-1} eps_j + E(z_i)'G'C E_i).  With
        z_j = (1, x_j) the sum over j needs no row-by-parameter product: its
        Gamma block is E_i'A'^{-1}Gamma, and its eta block is
        sum_j (eps_j'A'^{-1}g_1) x_j with g_1 = G's last column.  The weights,
        residual rows and cluster sums come from :meth:`_residuals`, one
        regime at a time, and are dropped before the next regime's.

        With ``leverage_inverse_from`` set to the unnormalized bread matrix A,
        each residual block is premultiplied by (I - H_id)^{-1} where H_id
        is that cluster-regime's hat block w D A^{-1} D'V^{-1}.  By Woodbury
        that makes u = D'V^{-1} eps into u + M (A/w - M)^{-1} u with
        M = D'V^{-1} D = sum_j E(z_j)'G'A'^{-1}G E(z_j) + E(z_i)'G'CG E(z_i):
        one p x p solve per cluster.  Only this correction forms sum_j z_j z_j'.
        Where some cluster's A/w - M is singular (a leverage of one, so the
        correction is undefined) it raises :class:`RankDeficient` naming the
        first such cluster and its regime.
        """
        g, z = self._g, self._z
        n_gamma = self.mean_spec.n_gamma
        U = np.zeros((self.N, self.p))
        for r, s in zip(self.regimes, factors):
            w, x, eps, e = self._residuals(r, theta)
            n, size_idx = r.sizes, r.size_idx
            starts = np.cumsum(n) - n
            # Gamma's block from cluster sums alone; eta's weighs each x_j by eps_j'A'^{-1}g_1
            g_1 = r.basis[:, -1]
            eps_g = eps @ (s[0] @ g_1)
            del eps  # each array is dropped once read, to keep the peak low
            ce = (e @ s[1:])[size_idx, np.arange(len(w))]  # row i: (C E_i)'
            u = np.empty((len(w), self.p))
            u[:, :n_gamma] = (e @ s[0] + n[:, None] * ce) @ r.gamma
            del e
            u[:, n_gamma:] = np.add.reduceat(eps_g[:, None] * x, starts) + (ce @ g_1)[:, None] * r.x_sum
            del eps_g
            if leverage_inverse_from is not None:
                gsg = (r.basis.T @ s @ r.basis)[:, g[:, None], g]
                z_rows = np.column_stack((np.ones(len(x)), x))
                zz_rows = np.add.reduceat(z_rows[:, :, None] * z_rows[:, None, :], starts)
                z_cluster = np.column_stack((n, r.x_sum))[:, z]
                M = (
                    gsg[0] * zz_rows[:, z[:, None], z]
                    + gsg[1 + size_idx] * z_cluster[:, :, None] * z_cluster[:, None, :]
                )
                K = leverage_inverse_from[None] / w[:, None, None] - M
                try:
                    u = u + (M @ np.linalg.solve(K, u[..., None]))[..., 0]
                except np.linalg.LinAlgError:
                    # some I - H_id is singular: a hat block with eigenvalue one
                    for i, k in enumerate(K):
                        try:
                            np.linalg.solve(k, u[i])
                        except np.linalg.LinAlgError:
                            raise RankDeficient(
                                f"cluster {self.ds._cluster_id_column[r.cluster_pos[i]]!r} has leverage "
                                f"one under regime {r.cai}; the bias correction is undefined"
                            ) from None
                    raise
            u *= w[:, None]
            U[r.cluster_pos] += u
            del x, ce, u  # before the next regime's rows are gathered
        return U

    def factorize(self, alpha: AlphaEstimate) -> np.ndarray:
        """Every regime's V^{-1} factors under ``alpha``: see :func:`block_stack`."""
        return block_stack(alpha, self._distinct)


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
    if not np.all(np.isfinite(j_hat)) or _symmetric_cond(j_hat) > _MAX_COND:
        raise RankDeficient("bread matrix J is singular")
    ji = np.linalg.inv(j_hat)
    sigma = ji @ q_hat @ ji / n_clusters
    return (sigma + sigma.T) / 2.0


def _require_valid(ds: TrialDataset) -> None:
    report = validate(ds)
    _raise_first_violation(report)
    if report.warnings:
        raise InsufficientData(report.warnings[0])


def fit(
    ds: TrialDataset,
    mean_spec: MeanModelSpec,
    cov_spec: WorkingCovSpec,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Alternate theta solves with working-covariance estimation to a root.

    ``mean_spec`` must be built for ``ds``'s design kind and time grid.  The
    iteration starts from the solve under an identity working covariance and
    iterates the map g(theta) = solve(factorize(estimate_alpha(theta))) with
    Anderson mixing of depth 3: each next theta combines the last images of
    g so as to make the steps g(theta) - theta least squares small.  It stops
    when the sup-norm step max|g(theta) - theta| falls below
    ``options.tolerance`` and returns the image g(theta), or returns the last
    image with ``converged=False`` after ``max_iter`` evaluations of g.
    ``iterations`` counts the evaluations of g (sweeps), a failed one
    included.  Where g fails at a mixed theta (its working covariance is not
    positive definite, say), the iteration restarts from the last image with
    no history; where it fails at an image, the error propagates.  Either
    way the returned theta is the exact root under the working covariance
    it was solved with; ``tolerance=math.inf`` accepts the
    identity-covariance initializer with no iterations.

    Then ``options.adjustments`` apply: ``enforce_nonneg_corr`` clamps
    negative correlation parameters to zero (under AR(1) the parameter is
    rho, so a negative rho leaves an independent within-person block) and
    solves theta once more under the clamped working covariance;
    ``bias_correct`` inflates each cluster's residuals by its inverse
    leverage inside the meat matrix (Mancl & DeRouen, Biometrics 2001);
    ``t_reference`` sets ``df = N - p`` so that :func:`wald_test` refers to
    ``t`` instead of the normal, and needs N > p.  Under estimated weights
    the meat matrix is projected off the weight-model scores.  The sandwich
    is assembled once, from the final theta.
    """
    _require_valid(ds)
    if mean_spec.grid != ds.grid or mean_spec.design.kind is not ds.design.kind:
        raise ValueError(
            f"mean model is built for design {mean_spec.design.kind.value} on {mean_spec.grid}, "
            f"the data are design {ds.design.kind.value} on {ds.grid}"
        )
    if options.adjustments.t_reference and ds.n_clusters <= mean_spec.n_params:
        raise InsufficientData(
            f"t reference needs more clusters than parameters: N = {ds.n_clusters}, p = {mean_spec.n_params}"
        )
    weight_model = weights = None
    if options.weight_mode is WeightMode.ESTIMATED:
        weight_model = estimate_weight_model(
            ds, options.stage1_covariates, options.stage2_covariates
        )
        weights = weight_model.fitted_weights

    ws = _Workspace(ds, mean_spec, weights)
    # invariant: theta is always the exact root of the normal system (A, b)
    # under the working covariance factorized in ``factors``, the identity
    # before the first factorization
    factors = ws.identity()
    theta, A, b = ws.solve(factors)
    if options.tolerance == math.inf:
        alpha = estimate_alpha(ws.residual_grams(theta), cov_spec, ws.cais)
        iterations, converged, max_delta = 0, True, 0.0
    else:
        (theta, A, b, factors, alpha), iterations, converged, max_delta = _root(ws, theta, cov_spec, options)

    adjustments = options.adjustments
    if adjustments.enforce_nonneg_corr:
        alpha = _clamp_nonneg(alpha, cov_spec)
        factors = ws.factorize(alpha)
        theta, A, b = ws.solve(factors)
    applied = tuple(
        name for name in ("enforce_nonneg_corr", "bias_correct", "t_reference")
        if getattr(adjustments, name)
    )
    j_hat, q_hat, sigma, ee_residual = _assemble(
        ws, theta, A, b, factors, adjustments.bias_correct, weight_model
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


def _root(
    ws: _Workspace, x: np.ndarray, cov_spec: WorkingCovSpec, options: FitOptions
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, AlphaEstimate], int, bool, float]:
    """Iterate the theta map g from ``x`` to its fixed point, with Anderson
    mixing (Walker & Ni, SIAM J. Numer. Anal. 2011).

    g(x) = solve(factorize(estimate_alpha(residual_grams(x)))).  After each
    evaluation the next point extrapolates from the last (at most
    ``_ANDERSON_DEPTH + 1``) pairs (x, g(x)): with dF and dG the differences
    of successive residuals f = g(x) - x and images, the weights w minimize
    |f - dF w| in least squares and the next point is g(x) - dG w.  With one
    pair, it is g(x).  It stops when max|f| < ``options.tolerance`` or after
    ``options.max_iter`` evaluations, and returns the last image g(x) with
    the (A, b), factors and alpha it was solved from, the number of
    evaluations, whether it converged, and that last max|f|.  Where g
    raises at an extrapolated point, the iteration restarts, with no history,
    from the last image; where it raises at an image (or at ``x``), the
    error propagates.  The history is local, so it is gone on return.
    """
    image = None  # the last g(x), with what it was solved from
    xs: List[np.ndarray] = []  # the last points x and their images g(x), oldest first
    gxs: List[np.ndarray] = []
    extrapolated, max_delta = False, math.inf
    for k in range(1, options.max_iter + 1):
        try:
            alpha = estimate_alpha(ws.residual_grams(x), cov_spec, ws.cais)
            factors = ws.factorize(alpha)
            gx, A, b = ws.solve(factors)
        except SmartlongError:
            if not extrapolated:
                raise
            x, xs, gxs, extrapolated = image[0], [], [], False
            continue
        image = (gx, A, b, factors, alpha)
        max_delta = float(np.abs(gx - x).max())
        if max_delta < options.tolerance:
            return image, k, True, max_delta
        xs, gxs = xs[-_ANDERSON_DEPTH:] + [x], gxs[-_ANDERSON_DEPTH:] + [gx]
        x, extrapolated = gx, len(xs) > 1
        if extrapolated:
            G = np.array(gxs)
            F = G - np.array(xs)
            weights = np.linalg.lstsq(np.diff(F, axis=0).T, F[-1], rcond=None)[0]
            x = gx - weights @ np.diff(G, axis=0)
    warnings.warn(
        f"fit did not converge in {options.max_iter} iterations (last delta {max_delta:.3e})",
        RuntimeWarning,
    )
    return image, options.max_iter, False, max_delta


def _assemble(
    ws: _Workspace,
    theta: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    factors: np.ndarray,
    bias_correct: bool,
    weight_model: Optional[WeightModel],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The sandwich stage: J, Q, Sigma and the estimating-equation residual,
    from the normal system (A, b) and the factors that ``theta`` was solved
    from."""
    ee_residual = float(np.abs(b - A @ theta).max())
    j_hat = A / ws.N
    U = ws.u_rows(theta, factors, leverage_inverse_from=A if bias_correct else None)
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
    if not np.all(np.isfinite(M)) or _symmetric_cond(M) > _MAX_COND:
        raise RankDeficient("score outer-product matrix is singular")
    corrected = q_hat - B @ np.linalg.solve(M, B.T)
    return (corrected + corrected.T) / 2.0


# -- estimated weights ---------------------------------------------------------


def _logistic_mle(X: np.ndarray, y: np.ndarray, max_iter: int = 50) -> np.ndarray:
    """Newton-Raphson MLE for a canonical-link binary model; raises on
    separation, when some fitted logit leaves [-15, 15]."""
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
        # judged on the linear predictor, which no affine map of the covariates changes
        if np.abs(X @ beta).max() > 15.0:
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


def estimate_weight_model(
    ds: TrialDataset,
    stage1_covariates: Sequence[str] = (),
    stage2_covariates: Sequence[str] = (),
) -> WeightModel:
    """Per-cell maximum-likelihood randomization models and implied weights.

    One model is fit to the first-stage treatment over every cluster, and
    one to the second-stage treatment within each (a1, r) cell where the
    design re-randomizes and some cluster lies.  A model whose MLE separates
    falls back to the design probability and contributes no score columns;
    a stage-two fallback is listed in ``fallback_cells``, a stage-one
    fallback is not.  ``score_blocks`` keeps each fitted model's score rows
    for its own clusters alone; :attr:`WeightModel.scores` spreads them
    into one dense matrix where it is read.
    """
    N = ds.n_clusters
    design = ds.design
    stage1_covariates = _name_tuple(stage1_covariates, "stage1_covariates")
    X2 = _design_columns(ds, _name_tuple(stage2_covariates, "stage2_covariates"))
    # each cluster's second-stage code: a valid dataset fills at most one slot
    a2_observed = ds.a2nr + ds.a2r
    # (cell, members, X, treatment indicator, design probability); stage one has no cell
    models = [(None, slice(None), _design_columns(ds, stage1_covariates), ds.a1 == 1, design.p_a1)]
    for cell in sorted(design.p_a2_given):
        members = np.flatnonzero((ds.a1 == cell[0]) & (ds.r == cell[1]))
        if members.size:
            models.append((cell, members, X2[members], a2_observed[members] == 1, design.p_a2_given[cell]))

    prob = np.ones(N)
    coefs: List[np.ndarray] = []
    fitted = []  # (members, score block) of each model that did not fall back
    fallback: List[Tuple[int, int]] = []
    for cell, members, X, treated, design_p in models:
        y = treated.astype(float)
        try:
            beta = _logistic_mle(X, y)
            p_plus = expit(X @ beta)
            fitted.append((members, X * (y - p_plus)[:, None]))
        except Separation:
            beta = np.array([math.log(design_p / (1.0 - design_p))] + [0.0] * (X.shape[1] - 1))
            p_plus = np.full(len(y), design_p)
            if cell is not None:
                fallback.append(cell)
        coefs.append(beta)
        prob[members] *= np.where(treated, p_plus, 1.0 - p_plus)

    return WeightModel(
        stage1_coef=coefs[0],
        stage2_coef={cell: beta for (cell, *_), beta in zip(models[1:], coefs[1:])},
        score_blocks=tuple(fitted),
        fitted_weights=1.0 / prob,
        fallback_cells=tuple(fallback),
    )


# -- finite-sample adjustments and Wald inference ------------------------------


@functools.lru_cache(maxsize=256)
def _quantile(level: float, df: Optional[int]) -> float:
    """The two-sided ``level`` critical value of the normal (``df`` None) or
    of t on ``df`` degrees of freedom.  Cached: one ``ppf`` costs more than
    the rest of a Wald test, and a study asks for few (level, df) pairs."""
    if df is None:
        return float(norm.ppf(0.5 + level / 2.0))
    return float(student_t.ppf(0.5 + level / 2.0, df))


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
    # the survival functions norm.sf and t.sf evaluate, without their argument handling
    if fit_result.df is None:
        p_value = 2.0 * float(ndtr(-abs(statistic)))
    else:
        p_value = 2.0 * float(stdtr(fit_result.df, -abs(statistic)))
    quantile = _quantile(level, fit_result.df)
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
    final = ds.final_time()  # shares ds's validation report, which fit reads
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
