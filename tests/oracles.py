"""Reference computations the tests compare the library against."""
import itertools

import numpy as np

from smartlong import ResidualGrams


def row_grams(groups, cais):
    """The :class:`ResidualGrams` of row-level residuals, one group per
    regime as a tuple ``(cai, weights (m,), sizes (m,), eps (rows, T+1))``:
    cluster ``i`` owns the next ``sizes[i]`` rows of ``eps``.  Residuals
    carry no outcome to judge them against, so ``scale`` is zero: only an
    exact zero variance is degenerate."""
    n_times = np.shape(groups[0][3])[1]
    rows = np.zeros((len(cais), n_times, n_times))
    clusters = np.zeros_like(rows)
    people = np.zeros(len(cais))
    pairs = np.zeros(len(cais))
    for cai, weights, sizes, eps in groups:
        k = list(cais).index(cai)
        w, n, e = np.asarray(weights, dtype=float), np.asarray(sizes), np.asarray(eps, dtype=float)
        col = np.add.reduceat(e, np.cumsum(n) - n)
        rows[k] += (np.repeat(w, n)[:, None] * e).T @ e
        clusters[k] += (w[:, None] * col).T @ col
        people[k] += w @ n
        pairs[k] += w @ (n * (n - 1.0))
    return ResidualGrams(rows, clusters, people, pairs, np.zeros((len(cais), n_times)))


def unchecked_V(alpha, d, n):
    """A cluster's V assembled entry by entry, with no definiteness check."""
    k = alpha.cais.index(d)
    n_times = alpha.n_times
    s = np.sqrt(alpha.sigma2[k])
    V = np.empty((n * n_times, n * n_times))
    for i, j, l, m in itertools.product(range(n), range(n), range(n_times), range(n_times)):
        corr = alpha.within[k, l, m] if i == j else alpha.between[k, l, m]
        V[i * n_times + l, j * n_times + m] = s[l] * s[m] * corr
    return V
