import itertools
import math

import numpy as np
import pytest

from smartlong import (
    POOLED,
    AlphaEstimate,
    BetweenCorr,
    CorrCai,
    EmbeddedCai,
    ResidualGroup,
    VarianceCai,
    VarianceTime,
    WithinCorr,
    WorkingCovSpec,
    build_V,
    estimate_alpha,
    workingcov,
)
from smartlong.errors import DegenerateVariance, InsufficientData, NotPositiveDefinite

D11 = EmbeddedCai(1, None, 1)
D1M = EmbeddedCai(1, None, -1)

HET = dict(variance_time=VarianceTime.HETEROSCEDASTIC, variance_cai=VarianceCai.HETEROGENEOUS)


def residual_groups(entries):
    """One :class:`ResidualGroup` per regime from per-(cluster, regime)
    triples ``(cai, weight, eps[n, T+1])``, clusters in entry order."""
    by_regime = {}
    for cai, w, eps in entries:
        by_regime.setdefault(cai, []).append((w, np.asarray(eps, dtype=float)))
    return [
        ResidualGroup(
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
        sigma2 = {(dk, POOLED): sum(v) / n_times for dk, v in levels.items()}

    def dkeys():
        return cais if spec.corr_cai is CorrCai.HETEROGENEOUS else [POOLED]

    def dk(d):
        return d if spec.corr_cai is CorrCai.HETEROGENEOUS else POOLED

    rho_w, rho_b = {}, {}
    if spec.within_corr is WithinCorr.AR1:
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
    elif spec.within_corr is WithinCorr.EXCHANGEABLE:
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
    elif spec.within_corr is WithinCorr.UNSTRUCTURED:
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


def random_entries(rng, cais, n_entries=40, n_times=3, sizes=(1, 2, 3)):
    entries = []
    for _ in range(n_entries):
        cai = cais[rng.integers(len(cais))]
        n = int(rng.choice(sizes))
        w = float(rng.uniform(0.5, 4.0))
        eps = rng.normal(size=(n, n_times))
        entries.append((cai, w, eps))
    return entries


class TestEstimateAlpha:
    def test_independent_structure_forces_zero_rho(self):
        rng = np.random.default_rng(2)
        entries = [(D11, 1.0, rng.normal(size=(2, 3))) for _ in range(5)]
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        alpha = estimate_alpha(residual_groups(entries), spec, [D11])
        assert alpha.rho_w == {} and alpha.rho_b == {}
        # Table A2 weighted mean of squared residuals
        expected = sum(e[2][:, 0] @ e[2][:, 0] for e in entries) / (5 * 2)
        assert alpha.sigma2[(D11, 0)] == pytest.approx(expected)

    def test_single_cluster_unstructured_within(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.UNSTRUCTURED, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        entries = [(D11, 4.0, np.array([[1.0, 1.0]]))]
        alpha = estimate_alpha(residual_groups(entries), spec, [D11])
        assert alpha.sigma2[(D11, 0)] == pytest.approx(1.0)
        assert alpha.sigma2[(D11, 1)] == pytest.approx(1.0)
        assert alpha.rho_w[(D11, 0, 1)] == pytest.approx(1.0)  # weights cancel

    def test_two_cluster_between_exchangeable(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.EXCHANGEABLE, **HET
        )
        entries = [
            (D11, 1.0, np.array([[1.0], [1.0]])),
            (D11, 1.0, np.array([[1.0], [-1.0]])),
        ]
        alpha = estimate_alpha(residual_groups(entries), spec, [D11])
        assert alpha.sigma2[(D11, 0)] == pytest.approx(1.0)
        assert alpha.rho_b[(D11,)] == pytest.approx(0.0)

    def test_ar1_uses_adjacent_lags_only(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.AR1, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        # residual series (1, 2, 4): lag-1 standardized products are all 1
        entries = [(D11, 1.0, np.array([[1.0, 2.0, 4.0]]))]
        alpha = estimate_alpha(residual_groups(entries), spec, [D11])
        assert alpha.rho_w[(D11,)] == pytest.approx(1.0)

    @pytest.mark.parametrize("within", [WithinCorr.AR1, WithinCorr.EXCHANGEABLE, WithinCorr.UNSTRUCTURED])
    @pytest.mark.parametrize("between", [BetweenCorr.EXCHANGEABLE, BetweenCorr.UNSTRUCTURED])
    @pytest.mark.parametrize("corr_cai", [CorrCai.HETEROGENEOUS, CorrCai.HOMOGENEOUS])
    @pytest.mark.parametrize("variance_time", list(VarianceTime))
    @pytest.mark.parametrize("variance_cai", list(VarianceCai))
    def test_matches_naive_transcription(self, within, between, corr_cai, variance_time, variance_cai):
        rng = np.random.default_rng(hash((within, between, corr_cai)) % 2**31)
        cais = [D11, D1M]
        entries = random_entries(rng, cais)
        spec = WorkingCovSpec(variance_time, variance_cai, within, between, corr_cai)
        alpha = estimate_alpha(residual_groups(entries), spec, cais)
        s2, rho_w, rho_b = naive_alpha(entries, spec, cais)
        assert alpha.sigma2.keys() == s2.keys()
        for key, v in s2.items():
            assert alpha.sigma2[key] == pytest.approx(v)
        for key, v in rho_w.items():
            assert alpha.rho_w[key] == pytest.approx(np.clip(v, -1, 1))
        for key, v in rho_b.items():
            assert alpha.rho_b[key] == pytest.approx(np.clip(v, -1, 1))

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(9)
        cais = [D11, D1M]
        entries = random_entries(rng, cais)
        spec = WorkingCovSpec(within_corr=WithinCorr.EXCHANGEABLE, between_corr=BetweenCorr.EXCHANGEABLE, **HET)
        a1 = estimate_alpha(residual_groups(entries), spec, cais)
        scaled = [(c, 7.5 * w, e) for c, w, e in entries]
        a2 = estimate_alpha(residual_groups(scaled), spec, cais)
        for key in a1.sigma2:
            assert a1.sigma2[key] == pytest.approx(a2.sigma2[key])
        for key in a1.rho_w:
            assert a1.rho_w[key] == pytest.approx(a2.rho_w[key])
        for key in a1.rho_b:
            assert a1.rho_b[key] == pytest.approx(a2.rho_b[key])

    def test_singletons_skipped_for_between_but_not_error(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.EXCHANGEABLE, **HET
        )
        rng = np.random.default_rng(13)
        entries = [
            (D11, 1.0, rng.normal(size=(1, 2))),  # singleton: no pairs
            (D11, 1.0, rng.normal(size=(3, 2))),
        ]
        alpha = estimate_alpha(residual_groups(entries), spec, [D11])
        assert (D11,) in alpha.rho_b

    def test_insufficient_data_when_no_cluster_informs_cell(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.EXCHANGEABLE, **HET
        )
        entries = [(D11, 1.0, np.ones((1, 2)))]  # singletons only
        with pytest.raises(InsufficientData):
            estimate_alpha(residual_groups(entries), spec, [D11])

    def test_insufficient_data_for_missing_regime(self):
        spec = WorkingCovSpec(within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.INDEPENDENT, **HET)
        entries = [(D11, 1.0, np.ones((2, 2)))]
        with pytest.raises(InsufficientData):
            estimate_alpha(residual_groups(entries), spec, [D11, D1M])

    def test_degenerate_variance(self):
        spec = WorkingCovSpec(within_corr=WithinCorr.EXCHANGEABLE, between_corr=BetweenCorr.INDEPENDENT, **HET)
        entries = [(D11, 1.0, np.zeros((2, 3)))]
        with pytest.raises(DegenerateVariance):
            estimate_alpha(residual_groups(entries), spec, [D11])

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
        alpha = estimate_alpha(residual_groups(entries), spec, [D11, D1M])
        # Table A2 pooled: sum_d sums in numerator and denominator
        assert alpha.sigma2[(POOLED, 0)] == pytest.approx((2 * 1 + 1 * 8) / (2 + 2))
        assert alpha.sigma2[(POOLED, 1)] == pytest.approx((2 * 4 + 0) / 4)


class TestBuildV:
    def test_homoscedastic_independent_is_scaled_identity(self, grid012):
        spec = WorkingCovSpec.independent_homoscedastic()
        alpha = AlphaEstimate(n_times=3, sigma2={(POOLED, POOLED): 2.5})
        V = build_V(spec, alpha, D11, 3, grid012)
        np.testing.assert_allclose(V, 2.5 * np.eye(9))

    def test_single_person_exchangeable(self):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.EXCHANGEABLE, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        alpha = AlphaEstimate(
            n_times=2, sigma2={(D11, 0): 4.0, (D11, 1): 9.0}, rho_w={(D11,): 0.5}
        )
        V = build_V(spec, alpha, D11, 1, 2)
        np.testing.assert_allclose(V, [[4.0, 0.5 * 2 * 3], [0.5 * 2 * 3, 9.0]])

    def test_two_person_single_time_between(self):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HETEROSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.EXCHANGEABLE,
        )
        alpha = AlphaEstimate(n_times=1, sigma2={(D11, 0): 1.0}, rho_b={(D11,): 0.3})
        V = build_V(spec, alpha, D11, 2, 1)
        np.testing.assert_allclose(V, [[1.0, 0.3], [0.3, 1.0]])

    def test_symmetric_and_individual_exchangeable(self, grid012):
        spec = WorkingCovSpec(
            within_corr=WithinCorr.AR1, between_corr=BetweenCorr.EXCHANGEABLE, **HET
        )
        alpha = AlphaEstimate(
            n_times=3,
            sigma2={(D11, 0): 1.0, (D11, 1): 2.0, (D11, 2): 3.0},
            rho_w={(D11,): 0.4},
            rho_b={(D11,): 0.1},
        )
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
        rho = -0.6
        alpha = AlphaEstimate(n_times=3, sigma2={(D11, POOLED): 1.0}, rho_w={(D11,): rho})
        V = build_V(spec, alpha, D11, 2, grid012)
        for l in range(3):
            for m in range(3):
                assert abs(V[l, m]) == pytest.approx(abs(rho) ** abs(l - m))

    def test_independent_independent_is_diagonal(self, grid012):
        rng = np.random.default_rng(4)
        entries = [(D11, float(rng.uniform(1, 3)), rng.normal(size=(2, 3))) for _ in range(6)]
        spec = WorkingCovSpec(
            within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        alpha = estimate_alpha(residual_groups(entries), spec, [D11])
        V = build_V(spec, alpha, D11, 2, grid012)
        np.testing.assert_allclose(V, np.diag(np.diag(V)))

    def test_not_positive_definite(self, grid012):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HOMOSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.EXCHANGEABLE,
        )
        alpha = AlphaEstimate(n_times=3, sigma2={(D11, POOLED): 1.0}, rho_b={(D11,): -0.9})
        with pytest.raises(NotPositiveDefinite):
            build_V(spec, alpha, D11, 5, grid012)

    def test_open_clip_bounds_and_passes_nan(self):
        clip = workingcov._CLIP
        assert [workingcov._clip_open(v) for v in (2.0, -2.0, 0.25, -0.0)] == [clip, -clip, 0.25, 0.0]
        assert all(type(workingcov._clip_open(v)) is float for v in (np.float64(0.5), 1, 2.0))
        assert math.isnan(workingcov._clip_open(math.nan))
        with pytest.raises(ValueError, match="must lie in"):
            AlphaEstimate(n_times=1, sigma2={(D11, 0): 1.0}, rho_b={(D11,): math.nan})

    def test_perfect_correlation_estimates_still_assemble(self):
        # rho-hat of 1 is stored exactly; assembly clips into the open interval
        spec = WorkingCovSpec(
            within_corr=WithinCorr.UNSTRUCTURED, between_corr=BetweenCorr.INDEPENDENT, **HET
        )
        entries = [(D11, 4.0, np.array([[1.0, 1.0]]))]
        alpha = estimate_alpha(residual_groups(entries), spec, [D11])
        assert alpha.rho_w[(D11, 0, 1)] == 1.0
        assert alpha.clipped
        V = build_V(spec, alpha, D11, 1, 2)
        assert np.linalg.eigvalsh(V)[0] > 0
