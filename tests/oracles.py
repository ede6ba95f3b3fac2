"""Reference computations the tests compare the library against."""
import itertools

import numpy as np

from smartlong.workingcov import ResidualGrams


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


def scaled_blocks(alpha):
    """Each regime's W' = S^1/2 W S^1/2 and B' = S^1/2 B S^1/2, stacked
    (R, T+1, T+1), a regime at a time."""
    scales = [np.outer(s, s) for s in np.sqrt(alpha.sigma2)]
    return (
        np.array([scale * w for scale, w in zip(scales, alpha.within)]),
        np.array([scale * b for scale, b in zip(scales, alpha.between)]),
    )


def judged_stack(W, B, sizes):
    """The stack :func:`~smartlong.workingcov.block_stack` judges, rebuilt
    block by block from W' and B' (R, T+1, T+1): W' - B' in slot 0, the
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


def inverse_factors(W, B, sizes):
    """The factors :func:`~smartlong.workingcov.block_stack` returns, read
    block by block from the inverse of :func:`judged_stack`: A'^{-1} in slot
    0, zero where no size exceeds one, then (A_n'^{-1} - A'^{-1}) / n for
    each size n, zero for padding."""
    sizes = np.asarray(sizes)
    inverse = np.linalg.inv(judged_stack(W, B, sizes))
    factors = np.zeros_like(inverse)
    for r, ns in enumerate(sizes):
        if ns.max() > 1:
            factors[r, 0] = inverse[r, 0]
        for i, n in enumerate(ns):
            if n > 0:
                factors[r, 1 + i] = (inverse[r, 1 + i] - factors[r, 0]) / n
    return factors


def eigenvalue_rule_message(cais, W, B, sizes):
    """The :class:`NotPositiveDefinite` message of the eigenvalue rule judged
    block by block, or None where every V passes: for the regimes ``cais``
    with blocks W' and B' (R, T+1, T+1), in order, and their sizes ascending,
    the first V whose smallest eigenvalue is at most 1e-10 of its largest,
    V's spectrum being those of W' + (n - 1) B' and, for n > 1, W' - B'."""
    for d, w, b, ns in zip(cais, W, B, np.asarray(sizes)):
        shared = np.linalg.eigvalsh(w - b)
        for n in ns[ns > 0]:
            eig = np.linalg.eigvalsh(w + (n - 1) * b)
            lo, hi = (min(eig[0], shared[0]), max(eig[-1], shared[-1])) if n > 1 else (eig[0], eig[-1])
            if lo <= 1e-10 * max(hi, 0.0):
                return (
                    f"working covariance for regime {d}, cluster size {n} is not "
                    f"positive definite (eigenvalue range [{lo:.3e}, {hi:.3e}])"
                )
    return None
