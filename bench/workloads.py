"""Seeded workloads for the smartlong benchmark.

Each workload draws clustered-SMART datasets from a known generative model:
an anchored-knot mean trajectory plus cluster, cluster-by-time, individual and
residual Gaussian effects.  One workload also randomizes the first stage with
probabilities that depend on cluster covariates, so its weights must be
estimated.  Generation happens before any timing starts; the analysis only
ever sees the generated dataset (or its long-table text).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

import smartlong as sl

# true mean: intercept, pre-knot slope, a1 x pre-knot slope
_GAMMA = (10.0, 0.5, 0.3)
# post-knot slope: base, a1, a2, a1 x a2, responder shift
_POST = (0.4, 0.2, 0.3, 0.15, -0.2)
# effect standard deviations: cluster intercept, cluster x time, individual;
# a larger cluster x time effect makes fit iteration counts, and so the work
# per trial, vary much more from seed to seed
_SD_CLUSTER, _SD_CLUSTER_TIME, _SD_INDIVIDUAL = 0.5, 0.15, 1.0
_RESIDUAL_SD_GROWTH = 0.1  # residual sd is 1 + growth x time index
_P_RESPONSE = {1: 0.35, -1: 0.25}
_COVARIATE_EFFECT = 0.4
_FIRST_STAGE_LOGIT = (0.5, -0.4)  # per cluster covariate, estimated-weights only

# every analysis compares each pair of embedded regimes with these contrasts
CONTRAST_BUILDERS = ("contrast_end_of_study", "contrast_second_stage_slope", "contrast_auc")


@dataclass(frozen=True)
class Shape:
    """Size and structure of the trials a workload draws."""

    kind: sl.DesignKind
    n_clusters: int
    cluster_size: Tuple[int, int]  # inclusive range, each size equally often
    n_times: int
    cluster_covariates: Tuple[str, ...] = ()
    individual_covariates: Tuple[str, ...] = ()
    covariate_randomization: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    tiny: Shape  # same structure at smoke-test size
    cov_spec: sl.WorkingCovSpec
    options: sl.FitOptions
    replicates: int = 1     # trials drawn per seed; one pass analyses each once
    from_text: bool = True  # analysis starts by parsing the long-table text


@dataclass(frozen=True)
class Trial:
    """One generated dataset and what the analysis is given."""

    dataset: sl.TrialDataset
    schema: sl.TableSchema
    text: Optional[str]


def grid_for(n_times: int) -> sl.TimeGrid:
    """Unit-spaced times with the second decision point near the middle."""
    times = tuple(float(k) for k in range(n_times))
    return sl.TimeGrid(times=times, knot=float(max(1, (n_times - 1) // 2)))


def _expit(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def simulate(shape: Shape, rng: np.random.Generator) -> sl.TrialDataset:
    """Draw one trial of the given shape."""
    design = sl.SmartDesign.balanced(shape.kind)
    grid = grid_for(shape.n_times)
    times = np.asarray(grid.times)
    pre = np.minimum(times, grid.knot)
    post = np.maximum(times - grid.knot, 0.0)
    resid_sd = 1.0 + _RESIDUAL_SD_GROWTH * np.arange(shape.n_times)
    n_xc, n_xi = len(shape.cluster_covariates), len(shape.individual_covariates)
    # every size in the range equally often, in random order
    lo, hi = shape.cluster_size
    sizes = rng.permutation(lo + np.arange(shape.n_clusters) * (hi - lo + 1) // shape.n_clusters)

    clusters = []
    for i, n in enumerate(sizes.tolist()):
        xc = rng.normal(size=n_xc)
        p_a1 = design.p_a1
        if shape.covariate_randomization:
            p_a1 = _expit(float(np.dot(_FIRST_STAGE_LOGIT[:n_xc], xc)))
        a1 = 1 if rng.random() < p_a1 else -1
        r = int(rng.random() < _P_RESPONSE[a1])
        a2 = 0
        a2r = a2nr = None
        if design.rerandomizes(a1, r):
            a2 = 1 if rng.random() < design.p_a2_given[(a1, r)] else -1
            if shape.kind is sl.DesignKind.I and r == 1:
                a2r = a2
            else:
                a2nr = a2
        slope = _POST[0] + _POST[1] * a1 + _POST[2] * a2 + _POST[3] * a1 * a2 + _POST[4] * r
        mean = _GAMMA[0] + (_GAMMA[1] + _GAMMA[2] * a1) * pre + slope * post
        mean = mean + _COVARIATE_EFFECT * xc.sum()
        mean = mean + rng.normal(0.0, _SD_CLUSTER) + rng.normal(0.0, _SD_CLUSTER_TIME, shape.n_times)

        xi = rng.normal(size=(n, n_xi))
        y = (
            mean[None, :]
            + _COVARIATE_EFFECT * xi.sum(axis=1)[:, None]
            + rng.normal(0.0, _SD_INDIVIDUAL, (n, 1))
            + rng.normal(size=(n, shape.n_times)) * resid_sd
        )
        cid = f"c{i:05d}"
        individuals = tuple(
            sl.IndividualRecord(f"{cid}-{j:04d}", tuple(map(float, xi[j])), tuple(map(float, y[j])))
            for j in range(n)
        )
        clusters.append(
            sl.ClusterRecord(
                cluster_id=cid, a1=a1, r=r, a2nr=a2nr, a2r=a2r,
                x_cluster=tuple(map(float, xc)), individuals=individuals,
            )
        )
    return sl.TrialDataset(
        design=design,
        grid=grid,
        clusters=tuple(clusters),
        cluster_covariates=shape.cluster_covariates,
        individual_covariates=shape.individual_covariates,
    )


def make_trials(workload: Workload, seed: int, tiny: bool = False) -> List[Trial]:
    """The workload's inputs for ``seed``: same seed, same trials."""
    shape = workload.tiny if tiny else workload.shape
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(workload.replicates):
        ds = simulate(shape, rng)
        schema = sl.TableSchema(
            design=ds.design,
            grid=ds.grid,
            cluster_covariates=ds.cluster_covariates,
            individual_covariates=ds.individual_covariates,
        )
        text = sl.serialize_long_table(ds) if workload.from_text else None
        trials.append(Trial(ds, schema, text))
    return trials


def mean_spec_for(ds: sl.TrialDataset) -> sl.MeanModelSpec:
    """Piecewise-linear mean adjusted for every baseline covariate."""
    terms = ds.cluster_covariates + ds.individual_covariates
    return sl.MeanModelSpec.piecewise_linear(ds.design, ds.grid, terms)


def regime_pairs(design: sl.SmartDesign) -> List[Tuple[sl.EmbeddedCai, sl.EmbeddedCai]]:
    cais = sl.enumerate_cais(design)
    return [(d, e) for i, d in enumerate(cais) for e in cais[i + 1:]]


# correlations pooled over regimes are estimated from every cluster, which keeps
# the fit's iteration count, and so the work per trial, steady across seeds
_POOLED_EXCHANGEABLE = sl.WorkingCovSpec(
    variance_cai=sl.VarianceCai.HOMOGENEOUS, corr_cai=sl.CorrCai.HOMOGENEOUS
)
_POOLED_UNSTRUCTURED = sl.WorkingCovSpec(
    within_corr=sl.WithinCorr.UNSTRUCTURED,
    between_corr=sl.BetweenCorr.UNSTRUCTURED,
    corr_cai=sl.CorrCai.HOMOGENEOUS,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="large-clusters",
            why="4 design II trials of 60 clusters of 40-80 people, bias-corrected: dense V build and Cholesky per cluster size dominate",
            shape=Shape(sl.DesignKind.II, 60, (40, 80), 5),
            tiny=Shape(sl.DesignKind.II, 40, (4, 8), 5),
            cov_spec=_POOLED_EXCHANGEABLE,
            options=sl.FitOptions(adjustments=sl.AdjustmentOptions.all()),
            replicates=4,
        ),
        Workload(
            name="many-small-clusters",
            why="design I, 6000 clusters of 1-4 people, estimated weights: parsing and per-cluster assembly dominate, V is tiny",
            shape=Shape(sl.DesignKind.I, 6000, (1, 4), 3, ("x1", "x2"), ("z",), True),
            tiny=Shape(sl.DesignKind.I, 300, (1, 4), 3, ("x1", "x2"), ("z",), True),
            cov_spec=sl.WorkingCovSpec(),
            options=sl.FitOptions(
                weight_mode=sl.WeightMode.ESTIMATED,
                stage1_covariates=("x1", "x2"),
                stage2_covariates=("x1",),
            ),
        ),
        Workload(
            name="sim-replicates",
            why="12 in-memory design III trials fitted in turn, unstructured correlation, t reference: per-call Python overhead dominates",
            shape=Shape(sl.DesignKind.III, 120, (8, 16), 6),
            tiny=Shape(sl.DesignKind.III, 60, (6, 10), 6),
            cov_spec=_POOLED_UNSTRUCTURED,
            options=sl.FitOptions(adjustments=sl.AdjustmentOptions(t_reference=True)),
            replicates=12,
            from_text=False,
        ),
    )
}
