import itertools
import math
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smartlong import (
    AlphaEstimate,
    BetweenCorr,
    CorrCai,
    EmbeddedCai,
    VarianceCai,
    VarianceTime,
    WithinCorr,
    WorkingCovSpec,
    build_V,
    workingcov,
)
from smartlong.errors import DegenerateVariance, InsufficientData, NotPositiveDefinite
from smartlong.workingcov import block_stack, estimate_alpha

from conftest import count_calls
from oracles import eigenvalue_rule_message, inverse_factors, row_grams, scaled_blocks, unchecked_V

D11 = EmbeddedCai(1, None, 1)
D1M = EmbeddedCai(1, None, -1)

HET = dict(variance_time=VarianceTime.HETEROSCEDASTIC, variance_cai=VarianceCai.HETEROGENEOUS)
CLIP = workingcov._CLIP
# the transcription's key for a level pooled over regimes or times
POOLED = "pooled"


def residual_groups(entries):
    """One :func:`~oracles.row_grams` group per regime from per-(cluster,
    regime) triples ``(cai, weight, eps[n, T+1])``, clusters in entry order."""
    by_regime = {}
    for cai, w, eps in entries:
        by_regime.setdefault(cai, []).append((w, np.asarray(eps, dtype=float)))
    return [
        (
            cai,
            [w for w, _ in members],
            [len(e) for _, e in members],
            np.concatenate([e for _, e in members]),
        )
        for cai, members in by_regime.items()
    ]


def naive_alpha(entries, spec, cais):
    """Loop-level transcription of the weighted moment estimators (oracle).

    Returns the variances at the spec's pooling level (regimes pooled as
    sum of numerators over sum of denominators, times as the arithmetic
    mean), and the correlations."""
    n_times = entries[0][2].shape[1]
    T = n_times - 1
    # fully disaggregated variances, used for standardization
    s2, s2_num, s2_den = {}, {}, {}
    for d in cais:
        num = np.zeros(n_times)
        den = 0.0
        for cai, w, eps in entries:
            if cai != d:
                continue
            for j in range(eps.shape[0]):
                for k in range(n_times):
                    num[k] += w * eps[j, k] ** 2
            den += w * eps.shape[0]
        s2[d] = num / den
        s2_num[d], s2_den[d] = num, den
    sigma = {d: np.sqrt(v) for d, v in s2.items()}
    if spec.variance_cai is VarianceCai.HETEROGENEOUS:
        levels = s2
    else:
        levels = {POOLED: sum(s2_num.values()) / sum(s2_den.values())}
    if spec.variance_time is VarianceTime.HETEROSCEDASTIC:
        sigma2 = {(dk, k): v[k] for dk, v in levels.items() for k in range(n_times)}
    else:
        # numpy's summation order, so that exact inputs give equal bits
        sigma2 = {(dk, POOLED): float(np.mean(v)) for dk, v in levels.items()}

    def dkeys():
        return cais if spec.corr_cai is CorrCai.HETEROGENEOUS else [POOLED]

    def dk(d):
        return d if spec.corr_cai is CorrCai.HETEROGENEOUS else POOLED

    within = spec.within_corr if T >= 1 else WithinCorr.INDEPENDENT
    rho_w, rho_b = {}, {}
    if within is WithinCorr.AR1:
        num = {k: 0.0 for k in dkeys()}
        den = {k: 0.0 for k in dkeys()}
        for cai, w, eps in entries:
            for j in range(eps.shape[0]):
                for l in range(T):
                    num[dk(cai)] += w * (eps[j, l] / sigma[cai][l]) * (
                        eps[j, l + 1] / sigma[cai][l + 1]
                    )
            den[dk(cai)] += w * eps.shape[0] * T
        rho_w = {(k,): num[k] / den[k] for k in num}
    elif within is WithinCorr.EXCHANGEABLE:
        num = {k: 0.0 for k in dkeys()}
        den = {k: 0.0 for k in dkeys()}
        for cai, w, eps in entries:
            for j in range(eps.shape[0]):
                for l in range(n_times):
                    for m in range(n_times):
                        if l == m:
                            continue
                        num[dk(cai)] += w * (eps[j, l] / sigma[cai][l]) * (
                            eps[j, m] / sigma[cai][m]
                        )
            den[dk(cai)] += w * eps.shape[0] * n_times * T
        rho_w = {(k,): num[k] / den[k] for k in num}
    elif within is WithinCorr.UNSTRUCTURED:
        for l in range(n_times):
            for m in range(l + 1, n_times):
                num = {k: 0.0 for k in dkeys()}
                den = {k: 0.0 for k in dkeys()}
                for cai, w, eps in entries:
                    for j in range(eps.shape[0]):
                        num[dk(cai)] += w * (eps[j, l] / sigma[cai][l]) * (
                            eps[j, m] / sigma[cai][m]
                        )
                    den[dk(cai)] += w * eps.shape[0]
                for k in num:
                    rho_w[(k, l, m)] = num[k] / den[k]

    if spec.between_corr is BetweenCorr.EXCHANGEABLE:
        num = {k: 0.0 for k in dkeys()}
        den = {k: 0.0 for k in dkeys()}
        for cai, w, eps in entries:
            n = eps.shape[0]
            for j in range(n):
                for jj in range(n):
                    if j == jj:
                        continue
                    for l in range(n_times):
                        for m in range(n_times):
                            num[dk(cai)] += w * (eps[j, l] / sigma[cai][l]) * (
                                eps[jj, m] / sigma[cai][m]
                            )
            den[dk(cai)] += w * n * (n - 1) * n_times**2
        rho_b = {(k,): num[k] / den[k] for k in num if den[k] > 0}
    elif spec.between_corr is BetweenCorr.UNSTRUCTURED:
        for l in range(n_times):
            for m in range(l, n_times):
                num = {k: 0.0 for k in dkeys()}
                den = {k: 0.0 for k in dkeys()}
                for cai, w, eps in entries:
                    n = eps.shape[0]
                    for j in range(n):
                        for jj in range(n):
                            if j == jj:
                                continue
                            num[dk(cai)] += w * (eps[j, l] / sigma[cai][l]) * (
                                eps[jj, m] / sigma[cai][m]
                            )
                    den[dk(cai)] += w * n * (n - 1)
                for k in num:
                    if den[k] > 0:
                        rho_b[(k, l, m)] = num[k] / den[k]
    return sigma2, rho_w, rho_b


def clip_open(rho):
    return min(max(float(rho), -CLIP), CLIP)


def oracle_blocks(spec, params, d, n_times):
    """Regime ``d``'s variances and correlation blocks W and B,
    entry by entry from the transcription's per-cell parameters: each
    correlation clipped into the open interval, AR(1) entries as powers of
    its one parameter."""
    sigma2, rho_w, rho_b = params
    vk = d if spec.variance_cai is VarianceCai.HETEROGENEOUS else POOLED
    ck = d if spec.corr_cai is CorrCai.HETEROGENEOUS else POOLED
    het_time = spec.variance_time is VarianceTime.HETEROSCEDASTIC
    s2 = np.array([sigma2[(vk, k if het_time else POOLED)] for k in range(n_times)])
    W = np.eye(n_times)
    if n_times > 1 and spec.within_corr is WithinCorr.AR1:
        lags = np.abs(np.subtract.outer(np.arange(n_times), np.arange(n_times)))
        W = clip_open(rho_w[(ck,)]) ** lags
        np.fill_diagonal(W, 1.0)
    elif n_times > 1 and spec.within_corr is WithinCorr.EXCHANGEABLE:
        W = np.full((n_times, n_times), clip_open(rho_w[(ck,)]))
        np.fill_diagonal(W, 1.0)
    elif n_times > 1 and spec.within_corr is WithinCorr.UNSTRUCTURED:
        for l in range(n_times):
            for m in range(l + 1, n_times):
                W[l, m] = W[m, l] = clip_open(rho_w[(ck, l, m)])
    B = np.zeros((n_times, n_times))
    if spec.between_corr is BetweenCorr.EXCHANGEABLE:
        B[:] = clip_open(rho_b[(ck,)])
    elif spec.between_corr is BetweenCorr.UNSTRUCTURED:
        for l in range(n_times):
            for m in range(l, n_times):
                B[l, m] = B[m, l] = clip_open(rho_b[(ck, l, m)])
    return s2, W, B


def expanded(params, spec, cais, n_times):
    """The transcription's parameters in the estimate's layout: one row per
    regime, pooled cells repeated."""
    rows = [oracle_blocks(spec, params, d, n_times) for d in cais]
    return tuple(np.array([row[i] for row in rows]) for i in range(3))


def random_entries(rng, cais, n_entries=40, n_times=3, sizes=(1, 2, 3)):
    entries = []
    for _ in range(n_entries):
        cai = cais[rng.integers(len(cais))]
        n = int(rng.choice(sizes))
        w = float(rng.uniform(0.5, 4.0))
        eps = rng.normal(size=(n, n_times))
        entries.append((cai, w, eps))
    return entries


def exact_entries(rng, cais, n_times, kind):
    """Residuals whose moments are exact in floating point: regime k's rows
    are +-c at time t, c = (k + 1)(t + 1), so standardized residuals are +-1
    and every sum is an integer.  ``random`` draws the signs; ``negative``
    mostly alternates them over time (a negative AR(1) rho); ``extreme``
    gives each regime one two-person cluster of +-2 standardized residuals
    beside six zero singletons, so moment ratios reach +-1 and +-4."""
    entries = []
    for k, d in enumerate(cais):
        c = (k + 1.0) * np.arange(1, n_times + 1)
        alternating = (-1.0) ** np.arange(n_times)
        if kind == "extreme":
            person = c if k == 0 else c * alternating
            entries.append((d, 1.0, np.array([person, person if k == 0 else -person])))
            entries += [(d, 1.0, np.zeros((1, n_times)))] * 6
            continue
        for _ in range(12):
            n = int(rng.integers(1, 4))
            signs = rng.choice([-1.0, 1.0], size=(n, n_times))
            if kind == "negative":
                flip = rng.random(n) < 0.75
                signs[flip] = rng.choice([-1.0, 1.0], size=(flip.sum(), 1)) * alternating
            entries.append((d, float(rng.integers(1, 4)), signs * c))
    return entries


class TestEstimateAlpha:
    def test_independent_structure_forces_zero_rho(self):
        rng = np.random.default_rng(2)
        entries = [(D11, 1.0, rng.normal(size=(2, 3))) for _ in range(5)]
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])
        np.testing.assert_array_equal(alpha.within, [np.eye(3)])
        np.testing.assert_array_equal(alpha.between, np.zeros((1, 3, 3)))
        # Table A2 weighted mean of squared residuals
        expected = sum(e[2][:, 0] @ e[2][:, 0] for e in entries) / (5 * 2)
        assert alpha.sigma2[0, 0] == pytest.approx(expected)

    def test_grams_of_another_number_of_regimes(self):
        entries = [(D11, 1.0, np.ones((2, 3)))]
        grams = row_grams(residual_groups(entries), [D11])
        with pytest.raises(ValueError, match=r"^residual moments of 1 regimes for 2 regimes$"):
            estimate_alpha(grams, WorkingCovSpec(**HET), [D11, D1M])

    def test_single_cluster_unstructured_within(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.UNSTRUCTURED, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        entries = [(D11, 4.0, np.array([[1.0, 1.0]]))]
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])
        assert alpha.sigma2[0] == pytest.approx([1.0, 1.0])
        assert alpha.within[0, 0, 1] == pytest.approx(1.0)  # weights cancel

    def test_two_cluster_between_exchangeable(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.EXCHANGEABLE, **HET
        )
        entries = [
            (D11, 1.0, np.array([[1.0], [1.0]])),
            (D11, 1.0, np.array([[1.0], [-1.0]])),
        ]
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])
        assert alpha.sigma2[0, 0] == pytest.approx(1.0)
        assert alpha.between[0, 0, 0] == pytest.approx(0.0)

    def test_ar1_uses_adjacent_lags_only(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.AR1, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        # residual series (1, 2, 4): lag-1 standardized products are all 1
        entries = [(D11, 1.0, np.array([[1.0, 2.0, 4.0]]))]
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])
        assert alpha.within[0, 0, 1] == pytest.approx(1.0)

    @pytest.mark.parametrize("within", [WithinCorr.AR1, WithinCorr.EXCHANGEABLE, WithinCorr.UNSTRUCTURED])
    @pytest.mark.parametrize("between", [BetweenCorr.EXCHANGEABLE, BetweenCorr.UNSTRUCTURED])
    @pytest.mark.parametrize("corr_cai", [CorrCai.HETEROGENEOUS, CorrCai.HOMOGENEOUS])
    @pytest.mark.parametrize("variance_time", list(VarianceTime))
    @pytest.mark.parametrize("variance_cai", list(VarianceCai))
    def test_matches_naive_transcription(self, within, between, corr_cai, variance_time, variance_cai):
        # a stable seed: Enum hashes are salted per process, the values are not
        rng = np.random.default_rng(zlib.crc32("|".join(e.value for e in (within, between, corr_cai)).encode()))
        cais = [D11, D1M]
        entries = random_entries(rng, cais)
        spec = WorkingCovSpec(variance_time, variance_cai, within, between, corr_cai)
        alpha = estimate_alpha(row_grams(residual_groups(entries), cais), spec, cais)
        sigma2, W, B = expanded(naive_alpha(entries, spec, cais), spec, cais, 3)
        assert alpha.sigma2 == pytest.approx(sigma2)
        assert alpha.within == pytest.approx(W)
        assert alpha.between == pytest.approx(B)
        # pooled cells hold one value
        if variance_cai is VarianceCai.HOMOGENEOUS:
            np.testing.assert_array_equal(alpha.sigma2, alpha.sigma2[[0, 0]])
        if variance_time is VarianceTime.HOMOSCEDASTIC:
            np.testing.assert_array_equal(alpha.sigma2, alpha.sigma2[:, [0, 0, 0]])
        if corr_cai is CorrCai.HOMOGENEOUS:
            np.testing.assert_array_equal(alpha.within, alpha.within[[0, 0]])
            np.testing.assert_array_equal(alpha.between, alpha.between[[0, 0]])

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(9)
        cais = [D11, D1M]
        entries = random_entries(rng, cais)
        spec = WorkingCovSpec(within_corr=WithinCorr.EXCHANGEABLE, between_corr=BetweenCorr.EXCHANGEABLE, **HET)
        a1 = estimate_alpha(row_grams(residual_groups(entries), cais), spec, cais)
        scaled = [(c, 7.5 * w, e) for c, w, e in entries]
        a2 = estimate_alpha(row_grams(residual_groups(scaled), cais), spec, cais)
        for name in ("sigma2", "within", "between"):
            assert getattr(a1, name) == pytest.approx(getattr(a2, name))

    def test_singletons_skipped_for_between_but_not_error(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.EXCHANGEABLE, **HET
        )
        rng = np.random.default_rng(13)
        entries = [
            (D11, 1.0, rng.normal(size=(1, 2))),  # singleton: no pairs
            (D11, 1.0, rng.normal(size=(3, 2))),
        ]
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])
        _, _, B = expanded(naive_alpha(entries, spec, [D11]), spec, [D11], 2)
        assert alpha.between == pytest.approx(B)

    def test_insufficient_data_when_no_cluster_informs_cell(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.EXCHANGEABLE, **HET
        )
        entries = [(D11, 1.0, np.ones((1, 2)))]  # singletons only
        with pytest.raises(InsufficientData):
            estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])

    def test_insufficient_data_for_missing_regime(self):
        spec = WorkingCovSpec(within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.INDEPENDENT, **HET)
        entries = [(D11, 1.0, np.ones((2, 2)))]
        with pytest.raises(InsufficientData):
            estimate_alpha(row_grams(residual_groups(entries), [D11, D1M]), spec, [D11, D1M])

    def test_degenerate_variance(self):
        spec = WorkingCovSpec(within_corr=WithinCorr.EXCHANGEABLE, between_corr=BetweenCorr.INDEPENDENT, **HET)
        entries = [(D11, 1.0, np.zeros((2, 3)))]
        with pytest.raises(DegenerateVariance):
            estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])

    def test_degenerate_variance_without_correlations(self):
        spec = WorkingCovSpec(within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.INDEPENDENT, **HET)
        eps = np.array([[1.0, 0.0], [2.0, 0.0]])  # no variance at time 1
        with pytest.raises(DegenerateVariance, match="at time index 1; the working covariance"):
            estimate_alpha(row_grams(residual_groups([(D11, 1.0, eps)]), [D11]), spec, [D11])
        # every variance of V at its floor: V is a multiple of the identity
        estimate_alpha(row_grams(residual_groups([(D11, 1.0, np.zeros((2, 2)))]), [D11]), spec, [D11])
        # pooled with a regime whose variance at time 1 is real
        pooled = WorkingCovSpec(
            variance_cai=VarianceCai.HOMOGENEOUS, within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.INDEPENDENT,
        )
        groups = residual_groups([(D11, 1.0, eps), (D1M, 1.0, np.ones((2, 2)))])
        estimate_alpha(row_grams(groups, [D11, D1M]), pooled, [D11, D1M])

    def test_pooled_variance_over_cai(self):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HETEROSCEDASTIC,
            variance_cai=VarianceCai.HOMOGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.INDEPENDENT,
        )
        entries = [
            (D11, 2.0, np.array([[1.0, 2.0]])),
            (D1M, 1.0, np.array([[2.0, 0.0], [2.0, 0.0]])),
        ]
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11, D1M]), spec, [D11, D1M])
        # Table A2 pooled: sum_d sums in numerator and denominator, one row per regime
        pooled = [(2 * 1 + 1 * 8) / (2 + 2), (2 * 4 + 0) / 4]
        assert alpha.sigma2 == pytest.approx(np.array([pooled, pooled]))


class TestBlockStack:
    @pytest.mark.parametrize("n_times", [1, 2, 4])
    @pytest.mark.parametrize("pooled", [False, True], ids=["variance-per-cell", "variance-pooled"])
    @pytest.mark.parametrize("within,between,corr_cai", list(itertools.product(WithinCorr, BetweenCorr, CorrCai)))
    def test_matches_per_entry_oracle(self, within, between, corr_cai, pooled, n_times):
        variance = (VarianceTime.HOMOSCEDASTIC, VarianceCai.HOMOGENEOUS) if pooled else (
            VarianceTime.HETEROSCEDASTIC, VarianceCai.HETEROGENEOUS)
        spec = WorkingCovSpec(*variance, within, between, corr_cai)
        rng = np.random.default_rng(n_times)
        cais = [D11, D1M]
        compared = {1: 0, 2: 0}  # by the number of sizes
        for kind in ("random", "negative", "extreme"):
            entries = exact_entries(rng, cais, n_times, kind)
            alpha = estimate_alpha(row_grams(residual_groups(entries), cais), spec, cais)
            params = naive_alpha(entries, spec, cais)
            for k, d in enumerate(cais):
                s2, W, B = oracle_blocks(spec, params, d, n_times)
                s = np.sqrt(s2)
                W, B = np.outer(s, s)[None] * W, np.outer(s, s)[None] * B
                one = AlphaEstimate((d,), alpha.sigma2[k : k + 1], alpha.within[k : k + 1], alpha.between[k : k + 1])
                # one person judges and inverts W' alone; one and two, W' - B' and W' + B' too
                for sizes in ([[1]], [[1, 2]]):
                    message = eigenvalue_rule_message((d,), W, B, sizes)
                    if message is not None:
                        with pytest.raises(NotPositiveDefinite) as raised:
                            block_stack(one, sizes)
                        assert str(raised.value) == message
                        continue
                    np.testing.assert_array_equal(block_stack(one, sizes), inverse_factors(W, B, sizes))
                    compared[len(sizes[0])] += 1
            ratios = [*params[1].values(), *params[2].values()]
            assert alpha.clipped == any(abs(v) > CLIP for v in ratios)
            if kind == "extreme" and between is not BetweenCorr.INDEPENDENT and corr_cai is CorrCai.HETEROGENEOUS:
                # moment ratios of +-4 are stored at the open-interval bound
                assert alpha.clipped
                assert np.abs(alpha.between).max() == CLIP
        assert compared[1] >= 4 and compared[2] >= 3


CAIS_I = [
    EmbeddedCai(a1, a2r, a2nr) for a1 in (1, -1) for a2r in (1, -1) for a2nr in (1, -1)
]


@st.composite
def block_inputs(draw):
    """An estimate of one to three regimes and each one's distinct cluster
    sizes (padded with zeros).  Per regime W' - B' is drawn with a condition
    number from 1 to 1e12, or made indefinite or singular, or is a positive
    definite block at 1e-6 to 1e-11 of the scale of W' + (n - 1) B', with
    B' = b ((1 - rho) I + rho J)."""
    n_times = draw(st.integers(1, 4))
    n_regimes = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma2, within, between, sizes = [], [], [], []
    for _ in range(n_regimes):
        kind = draw(st.sampled_from(["definite", "indefinite", "singular", "small shared block"]))
        lam = 10.0 ** (-draw(st.floats(0.0, 12.0)) * np.linspace(0.0, 1.0, n_times))
        if kind == "indefinite":
            lam[-1] = -lam[-1]
        elif kind == "singular":
            lam[-1] = 0.0
        q = np.linalg.qr(rng.normal(size=(n_times, n_times)))[0]
        shared = 0.49 * (q * lam) @ q.T
        b = draw(st.floats(-0.49, 0.49))
        if kind == "small shared block":
            shared *= draw(st.sampled_from([1e-6, 1e-9, 1e-11]))
            b = draw(st.floats(0.1, 0.49))
        rho = draw(st.floats(0.0, 0.9))
        B = b * ((1.0 - rho) * np.eye(n_times) + rho)
        within.append((shared + shared.T) / 2.0 + B)
        between.append(B)
        sigma2.append(10.0 ** draw(st.floats(-3.0, 3.0)) * rng.uniform(0.5, 2.0, n_times))
        sizes.append(sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))))
    padded = np.zeros((n_regimes, max(map(len, sizes))), dtype=int)
    for row, ns in zip(padded, sizes):
        row[: len(ns)] = ns
    alpha = AlphaEstimate(tuple(CAIS_I[:n_regimes]), sigma2, within, between)
    return alpha, padded


class TestBlockStackCertificate:
    @settings(max_examples=300, deadline=None)
    @given(block_inputs())
    def test_rejects_exactly_where_the_dense_eigenvalue_rule_does(self, inputs):
        alpha, sizes = inputs
        first_failing = None
        for k, ns in enumerate(sizes):
            for n in ns[ns > 0]:
                eig = np.linalg.eigvalsh(unchecked_V(alpha, alpha.cais[k], int(n)))
                limit = 1e-10 * max(eig[-1], 0.0)
                # the block and dense spectra differ by rounding: no verdict within it
                assume(not abs(eig[0] - limit) <= 1e-3 * abs(limit))
                if first_failing is None and eig[0] <= limit:
                    first_failing = (alpha.cais[k], n)
        W, B = scaled_blocks(alpha)
        if first_failing is None:
            factors = block_stack(alpha, sizes)
            assert eigenvalue_rule_message(alpha.cais, W, B, sizes) is None
            assert np.array_equal(factors, inverse_factors(W, B, sizes))
        else:
            with pytest.raises(NotPositiveDefinite) as raised:
                block_stack(alpha, sizes)
            assert str(raised.value) == eigenvalue_rule_message(alpha.cais, W, B, sizes)
            d, n = first_failing
            assert str(raised.value).startswith(f"working covariance for regime {d}, cluster size {n} is not")

    @pytest.mark.parametrize("sigma2,passes,linalg_calls", [
        # lambda_min / lambda_max = 3.2e-10 passes the rule, but bounds from
        # the traces cannot show it: one eigenvalue call decides
        ([1.0, 10.0**-9.5], True, {"cholesky": 1, "inv": 1, "eigvalsh": 1}),
        ([1.0, 1e-11], False, {"cholesky": 1, "inv": 1, "eigvalsh": 1}),
        ([1.0, 1e-8], True, {"cholesky": 1, "inv": 1, "eigvalsh": 0}),
        # not numerically positive definite: the factorization fails first
        ([1.0, 0.0], False, {"cholesky": 1, "inv": 0, "eigvalsh": 1}),
    ])
    def test_eigenvalues_only_where_the_certificate_cannot_decide(self, monkeypatch, sigma2, passes, linalg_calls):
        alpha = one_regime(sigma2)
        calls = count_calls(monkeypatch, np.linalg, list(linalg_calls))
        if passes:
            factors = block_stack(alpha, [[1]])
            monkeypatch.undo()
            np.testing.assert_array_equal(factors, inverse_factors(*scaled_blocks(alpha), [[1]]))
        else:
            with pytest.raises(NotPositiveDefinite, match=r"regime \(\+1,\+1\), cluster size 1 is not positive definite"):
                block_stack(alpha, [[1]])
        assert calls == linalg_calls


def one_regime(sigma2, within=None, between=None):
    """An estimate for regime D11 alone."""
    t = len(sigma2)
    return AlphaEstimate(
        (D11,), [sigma2], [np.eye(t) if within is None else within],
        [np.zeros((t, t)) if between is None else between],
    )


class TestAlphaEstimate:
    def test_arrays_are_read_only_copies(self):
        s2 = np.array([[1.0, 2.0]])
        alpha = AlphaEstimate((D11,), s2, [np.eye(2)], np.zeros((1, 2, 2)))
        s2[0, 0] = 5.0
        assert alpha.sigma2[0, 0] == 1.0
        for name in ("sigma2", "within", "between"):
            with pytest.raises(ValueError):
                getattr(alpha, name)[0, 0] = 0.0
        assert alpha.n_times == 2 and alpha.cais == (D11,) and not alpha.clipped

    def test_rejects_bad_values_and_shapes(self):
        eye, zero = [np.eye(2)], np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="must be nonnegative"):
            AlphaEstimate((D11,), [[1.0, -0.5]], eye, zero)
        for bad in (math.nan, 1.5, -1.0 - 1e-12):
            with pytest.raises(ValueError, match="must lie in"):
                AlphaEstimate((D11,), [[1.0, 1.0]], eye, np.full((1, 2, 2), bad))
            with pytest.raises(ValueError, match="must lie in"):
                AlphaEstimate((D11,), [[1.0, 1.0]], [[[1.0, bad], [bad, 1.0]]], zero)
        with pytest.raises(ValueError, match="one row per regime"):
            AlphaEstimate((D11, D1M), [[1.0, 1.0]], eye, zero)
        with pytest.raises(ValueError, match="one matrix per regime"):
            AlphaEstimate((D11,), [[1.0, 1.0]], [np.eye(3)], zero)


class TestBuildV:
    def test_homoscedastic_independent_is_scaled_identity(self, grid012):
        spec = WorkingCovSpec.independent_homoscedastic()
        V = build_V(spec, one_regime([2.5] * 3), D11, 3, grid012)
        np.testing.assert_allclose(V, 2.5 * np.eye(9))

    def test_single_person_exchangeable(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.EXCHANGEABLE, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        alpha = one_regime([4.0, 9.0], within=[[1.0, 0.5], [0.5, 1.0]])
        V = build_V(spec, alpha, D11, 1, 2)
        np.testing.assert_allclose(V, [[4.0, 0.5 * 2 * 3], [0.5 * 2 * 3, 9.0]])

    def test_two_person_single_time_between(self):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HETEROSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.EXCHANGEABLE,
        )
        V = build_V(spec, one_regime([1.0], between=[[0.3]]), D11, 2, 1)
        np.testing.assert_allclose(V, [[1.0, 0.3], [0.3, 1.0]])

    def test_symmetric_and_individual_exchangeable(self, grid012):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.AR1, between_corr=BetweenCorr.EXCHANGEABLE, **HET
        )
        lags = np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        alpha = one_regime([1.0, 2.0, 3.0], within=0.4**lags, between=np.full((3, 3), 0.1))
        V = build_V(spec, alpha, D11, 3, grid012)
        np.testing.assert_array_equal(V, V.T)
        # swapping two individuals permutes blocks without changing V
        perm = np.arange(9).reshape(3, 3)[[1, 0, 2]].ravel()
        np.testing.assert_allclose(V[np.ix_(perm, perm)], V)

    def test_ar1_entries_exact_powers(self, grid012):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HOMOSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.AR1,
            between_corr=BetweenCorr.INDEPENDENT,
        )
        # four alternating series and one constant over unit variances
        entries = [(D11, 1.0, np.array([[1.0, -1.0, 1.0]]))] * 4 + [(D11, 1.0, np.ones((1, 3)))]
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])
        rho = (4 * -2 + 2) / (5 * 2)
        V = build_V(spec, alpha, D11, 2, grid012)
        for l in range(3):
            for m in range(3):
                assert V[l, m] == rho ** abs(l - m)
                assert V[l, 3 + m] == 0.0

    def test_independent_independent_is_diagonal(self, grid012):
        rng = np.random.default_rng(4)
        entries = [(D11, float(rng.uniform(1, 3)), rng.normal(size=(2, 3))) for _ in range(6)]
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])
        V = build_V(spec, alpha, D11, 2, grid012)
        np.testing.assert_allclose(V, np.diag(np.diag(V)))

    def test_not_positive_definite(self, grid012):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HOMOSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.EXCHANGEABLE,
        )
        alpha = one_regime([1.0] * 3, between=np.full((3, 3), -0.9))
        with pytest.raises(NotPositiveDefinite):
            build_V(spec, alpha, D11, 5, grid012)

    def test_cluster_size_must_be_positive(self, grid012):
        with pytest.raises(ValueError, match="^cluster size must be positive, got 0$"):
            build_V(WorkingCovSpec.independent_homoscedastic(), one_regime([1.0] * 3), D11, 0, grid012)

    def test_grid_must_match_estimate(self, grid012):
        spec = WorkingCovSpec.independent_homoscedastic()
        with pytest.raises(ValueError, match="grid has 3 times, the estimate 2"):
            build_V(spec, one_regime([1.0, 1.0]), D11, 2, grid012)
        with pytest.raises(ValueError, match="grid has 1 times"):
            build_V(spec, one_regime([1.0, 1.0]), D11, 2, 1)

    def test_perfect_correlation_estimates_still_assemble(self):
        # rho-hat of 1 is stored as the open-interval bound V is built from
        spec = WorkingCovSpec(
            within_corr=WithinCorr.UNSTRUCTURED, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        entries = [(D11, 4.0, np.array([[1.0, 1.0]]))]
        alpha = estimate_alpha(row_grams(residual_groups(entries), [D11]), spec, [D11])
        assert alpha.within[0, 0, 1] == alpha.within[0, 1, 0] == 1.0 - 1e-8
        assert alpha.clipped
        V = build_V(spec, alpha, D11, 1, 2)
        assert np.linalg.eigvalsh(V)[0] > 0
