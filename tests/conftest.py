from dataclasses import replace

import numpy as np
import pytest

from smartlong import (
    ClusterRecord,
    DesignKind,
    IndividualRecord,
    SmartDesign,
    TimeGrid,
    TrialDataset,
)


@pytest.fixture
def design2():
    return SmartDesign.balanced(DesignKind.II)


@pytest.fixture
def grid012():
    return TimeGrid(times=(0.0, 1.0, 2.0), knot=1.0)


def make_cluster(cid, a1, r, a2nr, ys, a2r=None, x_cluster=(), x_indiv=None):
    """ys: list of per-individual outcome tuples."""
    individuals = tuple(
        IndividualRecord(
            individual_id=f"{cid}-{j}",
            x_individual=tuple(float(v) for v in x_indiv[j]) if x_indiv is not None else (),
            y=tuple(float(v) for v in y),
        )
        for j, y in enumerate(ys)
    )
    return ClusterRecord(
        cluster_id=str(cid),
        a1=a1,
        r=r,
        a2nr=a2nr,
        a2r=a2r,
        x_cluster=tuple(float(v) for v in x_cluster),
        individuals=individuals,
    )


def make_dataset(clusters, design, grid, cluster_covariates=(), individual_covariates=()):
    return TrialDataset(
        design=design,
        grid=grid,
        clusters=tuple(clusters),
        cluster_covariates=tuple(cluster_covariates),
        individual_covariates=tuple(individual_covariates),
    )


def random_design2_dataset(
    rng,
    n_clusters,
    grid,
    design,
    sizes=(1, 2, 3),
    mean_fn=None,
    noise=1.0,
    cluster_covariates=(),
    individual_covariates=(),
):
    """A design-II dataset with arbitrary (not model-based) outcomes."""
    n_times = grid.n_times
    clusters = []
    for i in range(n_clusters):
        a1 = int(rng.choice([1, -1]))
        r = int(rng.integers(0, 2))
        a2nr = None if r == 1 else int(rng.choice([1, -1]))
        n = int(rng.choice(sizes))
        xc = tuple(rng.normal(size=len(cluster_covariates)))
        ys = []
        xi = []
        for j in range(n):
            xi.append(tuple(rng.normal(size=len(individual_covariates))))
            base = rng.normal(scale=noise, size=n_times)
            if mean_fn is not None:
                base = base + np.array([mean_fn(a1, r, a2nr, t) for t in grid.times])
            ys.append(tuple(float(v) for v in base))
        clusters.append(
            make_cluster(f"c{i:04d}", a1, r, a2nr, ys, x_cluster=xc, x_indiv=xi)
        )
    return make_dataset(
        clusters, design, grid,
        cluster_covariates=cluster_covariates,
        individual_covariates=individual_covariates,
    )


def random_dataset(rng, n_clusters, grid, design, sizes, cluster_covariates=(), individual_covariates=()):
    """Arbitrary outcomes and covariates on valid pathways of any design kind."""
    clusters = []
    for i in range(n_clusters):
        a1, r, a2 = int(rng.choice([1, -1])), int(rng.integers(0, 2)), int(rng.choice([1, -1]))
        if design.kind is DesignKind.I:
            a2nr, a2r = (None, a2) if r else (a2, None)
        else:
            a2nr, a2r = (a2 if design.rerandomizes(a1, r) else None), None
        n = int(rng.choice(sizes))
        clusters.append(make_cluster(
            f"c{i:03d}", a1, r, a2nr, rng.normal(size=(n, grid.n_times)), a2r=a2r,
            x_cluster=rng.normal(size=len(cluster_covariates)),
            x_indiv=rng.normal(size=(n, len(individual_covariates))),
        ))
    return make_dataset(clusters, design, grid, cluster_covariates, individual_covariates)


def permuted(ds, rng):
    """The same trial with clusters and each cluster's individuals reordered."""
    clusters = [
        replace(cl, individuals=tuple(cl.individuals[j] for j in rng.permutation(cl.n)))
        for cl in ds.clusters
    ]
    return replace(ds, clusters=tuple(clusters[i] for i in rng.permutation(len(clusters))))


def regime_design(regime, x):
    """The design rows D_j = [gamma | 1 x_j'] of individuals with covariate
    rows ``x`` under one engine regime, rebuilt from its gamma in the public
    stacker's layout (individual-major, then time)."""
    gamma = regime.gamma
    D = np.empty((len(x), len(gamma), gamma.shape[1] + x.shape[1]))
    D[..., : gamma.shape[1]] = gamma
    D[..., gamma.shape[1] :] = x[:, None]
    return D.reshape(-1, D.shape[-1])


def count_calls(monkeypatch, owner, names):
    """A dict counting calls of each ``owner.<name>`` from now on; the
    originals still run."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls
