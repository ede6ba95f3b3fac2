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


def judged_stack(W, B, sizes):
    """The stack :func:`~smartlong.workingcov.block_stack` judges, rebuilt
    block by block from its W' and B' (R, T+1, T+1): W' - B' in slot 0, the
    identity where no size exceeds one, then W' + (n - 1) B' for each size n
    of ``sizes`` (R, k), the identity for a zero (padding)."""
    sizes = np.asarray(sizes)
    eye = np.eye(W.shape[-1])
    stack = np.empty((len(W), 1 + sizes.shape[1]) + eye.shape)
    for r, ns in enumerate(sizes):
        stack[r, 0] = W[r] - B[r] if ns.max() > 1 else eye
        for i, n in enumerate(ns):
            stack[r, 1 + i] = W[r] + (n - 1) * B[r] if n > 0 else eye
    return stack


def eigenvalue_rule_message(alpha, rows, sizes):
    """The :class:`NotPositiveDefinite` message of the eigenvalue rule judged
    block by block, or None where every V passes: for the regimes
    ``alpha.cais[rows]`` in order and their sizes ascending, the first V
    whose smallest eigenvalue is at most 1e-10 of its largest, V's spectrum
    being those of W' + (n - 1) B' and, for n > 1, W' - B'."""
    for k, ns in zip(rows, np.asarray(sizes)):
        s = np.sqrt(alpha.sigma2[k])
        W, B = np.outer(s, s) * alpha.within[k], np.outer(s, s) * alpha.between[k]
        shared = np.linalg.eigvalsh(W - B)
        for n in ns[ns > 0]:
            eig = np.linalg.eigvalsh(W + (n - 1) * B)
            lo, hi = (min(eig[0], shared[0]), max(eig[-1], shared[-1])) if n > 1 else (eig[0], eig[-1])
            if lo <= 1e-10 * max(hi, 0.0):
                return (
                    f"working covariance for regime {alpha.cais[k]}, cluster size {n} is not "
                    f"positive definite (eigenvalue range [{lo:.3e}, {hi:.3e}])"
                )
    return None
