"""Marginal mean trajectories, their design rows, and estimand contrasts.

Built-in trajectory bases are piecewise in time with a single knot at the
second decision point; the post-knot segment is anchored at the pre-knot
segment's value there, so trajectories are continuous by construction.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .data import ClusterRecord, TimeGrid, TrialDataset, _name_tuple
from .design import _CAIS, DesignKind, EmbeddedCai, SmartDesign, enumerate_cais
from .errors import NonIntegrableBasis, TimeOutOfRange, UnknownCai

__all__ = [
    "TrajectoryBasis",
    "AnchoredKnotBasis",
    "CustomBasis",
    "MeanModelSpec",
    "ThetaEstimate",
    "ContrastVector",
    "mu",
    "stack_design_matrix",
    "contrast_end_of_study",
    "contrast_second_stage_slope",
    "contrast_auc",
    "custom_contrast",
    "make_saturated_basis",
]


def _second_stage_multipliers(kind: DesignKind, d: EmbeddedCai) -> Tuple[float, ...]:
    """Coefficients multiplying the post-knot time increment, per design."""
    a1 = d.a1
    if kind is DesignKind.II:
        return (1.0, a1, d.a2nr, a1 * d.a2nr)
    if kind is DesignKind.I:
        return (1.0, a1, d.a2r, d.a2nr, a1 * d.a2r, a1 * d.a2nr)
    if kind is DesignKind.III:
        # the regime of the arm that is not re-randomized carries no a2nr:
        # its a2 slope coefficient is structurally zero
        return (1.0, a1, 0.0 if d.a2nr is None else d.a2nr)
    return (1.0, a1, d.a2nr, a1 * d.a2nr)  # IV, a2 stored in the a2nr slot


# panels of the composite Simpson rule a custom basis is integrated with (even)
_SIMPSON_PANELS = 1024
# an unidentified basis names the labels whose entry in its null direction
# exceeds this share of that direction's largest entry, in magnitude
_NULL_SHARE = 0.1


class TrajectoryBasis:
    """Interface: the treatment-parameter block of a marginal mean model."""

    n_gamma: int
    labels: Tuple[str, ...]

    def gamma_row(self, t: float, d: EmbeddedCai) -> np.ndarray:
        raise NotImplementedError

    def gamma_rows(self, times: Sequence[float], d: EmbeddedCai) -> np.ndarray:
        """(len(times), n_gamma): :meth:`gamma_row` at each of ``times``."""
        return np.stack([self.gamma_row(t, d) for t in times])

    def gamma_integrals(self, d: EmbeddedCai) -> np.ndarray:
        """Integral of each gamma coefficient over the full grid span."""
        raise NotImplementedError


class AnchoredKnotBasis(TrajectoryBasis):
    """Two-segment basis in a monotone time transform ``s``.

    ``s(t) = t`` gives the piecewise-linear model; ``s(t) = sqrt(t)`` the
    slower-than-linear variant.  The gamma layout is
    ``[intercept, s-slope, a1 x s-slope, second-stage slope terms]``.
    """

    def __init__(self, kind: DesignKind, grid: TimeGrid, transform: str = "linear") -> None:
        if transform not in ("linear", "sqrt"):
            raise ValueError(f"unknown time transform {transform!r}")
        if grid.n_times < 2:
            raise ValueError("a two-segment trajectory needs at least two measurement times")
        if transform == "sqrt" and grid.times[0] < 0:
            raise ValueError("sqrt transform requires nonnegative times")
        self.kind = kind
        self.grid = grid
        self.transform = transform
        self.n_gamma = 3 + len(_second_stage_multipliers(kind, _CAIS[kind][0]))
        self.labels = tuple(f"gamma_{j}" for j in range(self.n_gamma))

    def _s(self, t: float) -> float:
        return math.sqrt(t) if self.transform == "sqrt" else t

    def _s_antideriv(self, t: float) -> float:
        return (2.0 / 3.0) * t ** 1.5 if self.transform == "sqrt" else 0.5 * t * t

    def gamma_row(self, t: float, d: EmbeddedCai) -> np.ndarray:
        knot = self.grid.knot
        b = self._s(min(t, knot))
        u = self._s(t) - self._s(knot) if t > knot else 0.0
        mults = _second_stage_multipliers(self.kind, d)
        return np.array([1.0, b, d.a1 * b, *(m * u for m in mults)])

    def gamma_integrals(self, d: EmbeddedCai) -> np.ndarray:
        t0, t_end = self.grid.times[0], self.grid.t_end
        knot = self.grid.knot
        s_knot = self._s(knot)
        int_b = (self._s_antideriv(knot) - self._s_antideriv(t0)) + s_knot * (t_end - knot)
        int_u = self._s_antideriv(t_end) - self._s_antideriv(knot) - s_knot * (t_end - knot)
        mults = _second_stage_multipliers(self.kind, d)
        return np.array([t_end - t0, int_b, d.a1 * int_b, *(m * int_u for m in mults)])


class CustomBasis(TrajectoryBasis):
    """User-supplied gamma coefficient functions of ``(t, regime)``."""

    def __init__(
        self,
        functions: Sequence[Callable[[float, EmbeddedCai], float]],
        grid: TimeGrid,
        labels: Optional[Sequence[str]] = None,
        quadrature: bool = False,
    ) -> None:
        self.functions = tuple(functions)
        self.grid = grid
        self.n_gamma = len(self.functions)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"gamma_{j}" for j in range(self.n_gamma)
        )
        if len(self.labels) != self.n_gamma:
            raise ValueError("labels must match the number of basis functions")
        self.quadrature = quadrature

    def gamma_row(self, t: float, d: EmbeddedCai) -> np.ndarray:
        return np.array([f(t, d) for f in self.functions], dtype=float)

    def gamma_integrals(self, d: EmbeddedCai) -> np.ndarray:
        if not self.quadrature:
            raise NonIntegrableBasis(
                "custom basis has no closed form; enable quadrature to integrate"
            )
        ts = np.linspace(self.grid.times[0], self.grid.t_end, _SIMPSON_PANELS + 1)
        values = np.stack([self.gamma_row(t, d) for t in ts])
        h = (self.grid.t_end - self.grid.times[0]) / _SIMPSON_PANELS
        coeff = np.ones(_SIMPSON_PANELS + 1)
        coeff[1:-1:2] = 4.0
        coeff[2:-1:2] = 2.0
        return (h / 3.0) * coeff @ values


def _require_identified(gamma: np.ndarray, labels: Sequence[str]) -> None:
    """Raise ValueError unless ``gamma``, the basis rows at every grid time
    under every regime, has full column rank, judged on unit-norm columns.

    Every valid dataset has a consistent cluster in each regime and an
    outcome at each grid time, so no dataset identifies a basis that fails
    this.  A zero column is named as zero; otherwise the labels that carry
    more than :data:`_NULL_SHARE` of the null direction are named.
    """
    norms = np.linalg.norm(gamma, axis=0)
    if not norms.all():
        zero = ", ".join(itertools.compress(labels, norms == 0))
        raise ValueError(f"no dataset identifies the mean model: its basis is zero in {zero} at every time and regime")
    _, s, vh = np.linalg.svd(gamma / norms)
    if s.size == norms.size and s[-1] > s[0] * max(gamma.shape) * np.finfo(float).eps:
        return
    null = np.abs(vh[-1])
    collinear = ", ".join(itertools.compress(labels, null > _NULL_SHARE * null.max()))
    raise ValueError(f"no dataset identifies the mean model: its basis columns {collinear} are collinear")


@dataclass(frozen=True)
class MeanModelSpec:
    """A trajectory basis plus linear baseline-covariate adjustment terms.

    The basis must be built on ``grid`` and, where it names a design kind,
    for ``design``'s kind; at the grid times under the design's regimes it
    must be finite and have full column rank, or no dataset identifies the
    model: :class:`ValueError` otherwise.
    """

    basis: TrajectoryBasis
    design: SmartDesign
    grid: TimeGrid
    covariate_terms: Tuple[str, ...] = ()
    # (regimes, times, n_gamma), read-only: the basis at each grid time under
    # each regime of the design, in enumerate_cais order
    _gamma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # every constructor passes through here, the classmethods included
        object.__setattr__(self, "covariate_terms", _name_tuple(self.covariate_terms, "covariate_terms"))
        grid = getattr(self.basis, "grid", self.grid)
        if grid != self.grid:
            raise ValueError(f"the basis is built on {grid}, the mean model on {self.grid}")
        kind = getattr(self.basis, "kind", self.design.kind)
        if kind is not self.design.kind:
            raise ValueError(
                f"the basis is built for design {kind.value}, the mean model for design {self.design.kind.value}"
            )
        cais = _CAIS[kind]
        gamma = np.stack([self.basis.gamma_rows(self.grid.times, d) for d in cais])
        nonfinite = ~np.isfinite(gamma).all(axis=2)
        if nonfinite.any():
            i, k = np.argwhere(nonfinite)[0]
            raise ValueError(f"the mean model's basis is not finite under regime {cais[i]} at t = {self.grid.times[k]}")
        _require_identified(gamma.reshape(-1, gamma.shape[2]), self.basis.labels)
        gamma.flags.writeable = False
        object.__setattr__(self, "_gamma", gamma)

    @classmethod
    def piecewise_linear(
        cls, design: SmartDesign, grid: TimeGrid, covariate_terms: Sequence[str] = ()
    ) -> "MeanModelSpec":
        basis = AnchoredKnotBasis(design.kind, grid, "linear")
        return cls(basis, design, grid, covariate_terms)

    @classmethod
    def piecewise_sqrt(
        cls, design: SmartDesign, grid: TimeGrid, covariate_terms: Sequence[str] = ()
    ) -> "MeanModelSpec":
        basis = AnchoredKnotBasis(design.kind, grid, "sqrt")
        return cls(basis, design, grid, covariate_terms)

    @classmethod
    def custom(
        cls,
        design: SmartDesign,
        grid: TimeGrid,
        basis: CustomBasis,
        covariate_terms: Sequence[str] = (),
    ) -> "MeanModelSpec":
        return cls(basis, design, grid, covariate_terms)

    @property
    def n_gamma(self) -> int:
        return self.basis.n_gamma

    @property
    def n_params(self) -> int:
        return self.basis.n_gamma + len(self.covariate_terms)

    @property
    def param_names(self) -> Tuple[str, ...]:
        return self.basis.labels + tuple(f"eta_{c}" for c in self.covariate_terms)

    def require_cai(self, d: EmbeddedCai) -> None:
        if d not in _CAIS[self.design.kind]:
            raise UnknownCai(f"{d} is not embedded in design {self.design.kind.value}")

    def require_time(self, t: float) -> None:
        if not self.grid.times[0] <= t <= self.grid.t_end:
            raise TimeOutOfRange(
                f"t={t} outside [{self.grid.times[0]}, {self.grid.t_end}]"
            )


@dataclass(frozen=True)
class ThetaEstimate:
    """Causal parameters ``gamma`` plus covariate nuisance parameters ``eta``."""

    gamma: np.ndarray
    eta: np.ndarray
    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        if len(self.names) != self.gamma.size + self.eta.size:
            raise ValueError("names must cover gamma and eta jointly")

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.gamma, self.eta])


@dataclass(frozen=True)
class ContrastVector:
    """Linear functional of theta with all eta coordinates zero."""

    c: np.ndarray
    label: str

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        if not np.all(np.isfinite(c)):
            raise ValueError("contrast vector entries must be finite")
        if not np.any(c != 0.0):
            raise ValueError("contrast vector must be nonzero")


def _design_row(spec: MeanModelSpec, d: EmbeddedCai, x: Sequence[float], t: float) -> np.ndarray:
    """Gradient of the mean model in ``(gamma, eta)`` at one observation."""
    spec.require_cai(d)
    spec.require_time(t)
    x = np.asarray(x, dtype=float)
    if x.size != len(spec.covariate_terms):
        raise ValueError(
            f"expected {len(spec.covariate_terms)} covariate values, got {x.size}"
        )
    return np.concatenate([spec.basis.gamma_row(t, d), x])


def mu(
    spec: MeanModelSpec,
    d: EmbeddedCai,
    x: Sequence[float],
    t: float,
    theta: ThetaEstimate,
) -> float:
    """Marginal mean value; exactly ``_design_row . theta`` for linear bases."""
    row = _design_row(spec, d, x, t)
    full = theta.full
    if full.size != row.size:
        raise ValueError(f"theta has {full.size} entries, model expects {row.size}")
    return float(row @ full)


def _covariate_values(
    spec: MeanModelSpec, cluster: ClusterRecord, dataset: Optional[TrialDataset]
) -> list[Callable[[int], float]]:
    """Per covariate term, an accessor ``individual index -> value``."""
    accessors = []
    for name in spec.covariate_terms:
        if dataset is None:
            raise ValueError("covariate terms require the dataset for name resolution")
        if name in dataset.cluster_covariates:
            idx = dataset.cluster_covariates.index(name)
            accessors.append(lambda j, _i=idx, _c=cluster: _c.x_cluster[_i])
        elif name in dataset.individual_covariates:
            idx = dataset.individual_covariates.index(name)
            accessors.append(lambda j, _i=idx, _c=cluster: _c.individuals[j].x_individual[_i])
        else:
            raise ValueError(f"covariate {name!r} not present in the dataset schema")
    return accessors


def stack_design_matrix(
    spec: MeanModelSpec,
    d: EmbeddedCai,
    cluster: ClusterRecord,
    dataset: Optional[TrialDataset] = None,
) -> np.ndarray:
    """Design matrix for one cluster, rows individual-major then time-minor."""
    spec.require_cai(d)
    accessors = _covariate_values(spec, cluster, dataset)
    rows = []
    for j in range(cluster.n):
        x = [acc(j) for acc in accessors]
        for t in spec.grid.times:
            rows.append(np.concatenate([spec.basis.gamma_row(t, d), x]))
    return np.stack(rows)


def _pad_eta(spec: MeanModelSpec, c_gamma: np.ndarray, label: str) -> ContrastVector:
    c = np.concatenate([c_gamma, np.zeros(len(spec.covariate_terms))])
    return ContrastVector(c=c, label=label)


def _check_pair(spec: MeanModelSpec, d: EmbeddedCai, d_prime: EmbeddedCai) -> None:
    spec.require_cai(d)
    spec.require_cai(d_prime)
    if d == d_prime:
        raise ValueError("contrast requires two distinct embedded regimes")


def contrast_end_of_study(
    spec: MeanModelSpec, d: EmbeddedCai, d_prime: EmbeddedCai
) -> ContrastVector:
    """Difference of end-of-study means, as a linear functional of theta."""
    _check_pair(spec, d, d_prime)
    t_end = spec.grid.t_end
    c_gamma = spec.basis.gamma_row(t_end, d) - spec.basis.gamma_row(t_end, d_prime)
    return _pad_eta(spec, c_gamma, f"end_of_study {d} vs {d_prime}")


def contrast_second_stage_slope(
    spec: MeanModelSpec, d: EmbeddedCai, d_prime: EmbeddedCai
) -> ContrastVector:
    """Difference of average slopes from the second decision point to the end."""
    _check_pair(spec, d, d_prime)
    if spec.grid.n_times < 2:
        raise ValueError("a slope contrast needs at least two measurement times")
    t_end, knot = spec.grid.t_end, spec.grid.knot
    g = spec.basis.gamma_row
    c_gamma = (g(t_end, d) - g(knot, d) - g(t_end, d_prime) + g(knot, d_prime)) / (t_end - knot)
    return _pad_eta(spec, c_gamma, f"second_stage_slope {d} vs {d_prime}")


def contrast_auc(
    spec: MeanModelSpec, d: EmbeddedCai, d_prime: EmbeddedCai
) -> ContrastVector:
    """Difference of time-averaged areas under the mean trajectories."""
    _check_pair(spec, d, d_prime)
    if spec.grid.n_times < 2:
        raise ValueError("an area contrast needs at least two measurement times")
    span = spec.grid.t_end - spec.grid.times[0]
    c_gamma = (spec.basis.gamma_integrals(d) - spec.basis.gamma_integrals(d_prime)) / span
    return _pad_eta(spec, c_gamma, f"auc {d} vs {d_prime}")


def custom_contrast(spec: MeanModelSpec, c_gamma: Sequence[float], label: str) -> ContrastVector:
    """Wrap a raw gamma-space contrast, zero on all eta coordinates."""
    c_gamma = np.asarray(c_gamma, dtype=float)
    if c_gamma.size != spec.n_gamma:
        raise ValueError(f"expected {spec.n_gamma} gamma coefficients, got {c_gamma.size}")
    return _pad_eta(spec, c_gamma, label)


def make_saturated_basis(design: SmartDesign, grid: TimeGrid) -> CustomBasis:
    """One free mean per (embedded regime, time) cell.

    Useful as a diagnostic: with an identity working covariance the fit
    reduces to weighted per-cell means.  Not integrable (no trajectory
    interpretation between grid times).  The basis names ``design``'s kind,
    so :class:`MeanModelSpec` rejects it for another design.
    """
    cells = [(cai, t) for cai in enumerate_cais(design) for t in grid.times]

    def make_indicator(cell_cai: EmbeddedCai, cell_t: float):
        def f(t: float, d: EmbeddedCai) -> float:
            return 1.0 if (d == cell_cai and t == cell_t) else 0.0

        return f

    basis = CustomBasis(
        functions=[make_indicator(cai, t) for cai, t in cells],
        grid=grid,
        labels=[f"mu[{cai},t={t:g}]" for cai, t in cells],
        quadrature=False,
    )
    basis.kind = design.kind
    return basis
