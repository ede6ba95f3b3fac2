import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from smartlong import (
    AdjustmentOptions,
    AlphaEstimate,
    POOLED,
    BetweenCorr,
    CorrCai,
    DesignKind,
    EmbeddedCai,
    FitOptions,
    MeanModelSpec,
    SmartDesign,
    ThetaEstimate,
    TimeGrid,
    VarianceCai,
    VarianceTime,
    WithinCorr,
    WorkingCovSpec,
    build_V,
    consistency_indicator,
    contrast_auc,
    contrast_end_of_study,
    contrast_second_stage_slope,
    custom_contrast,
    design_weight,
    enumerate_cais,
    fit,
    fit_end_of_study,
    make_saturated_basis,
    mu,
    sandwich_covariance,
    stack_design_matrix,
    wald_test,
)
from smartlong import gee, workingcov
from smartlong.errors import InconsistentCluster, InsufficientData, NotPositiveDefinite, ZeroVariance
from smartlong.gee import _assemble, _make_workspace, _Workspace

from conftest import make_cluster, make_dataset, permuted, random_dataset, random_design2_dataset

D11 = EmbeddedCai(1, None, 1)
D1M = EmbeddedCai(1, None, -1)
DM1 = EmbeddedCai(-1, None, 1)
DMM = EmbeddedCai(-1, None, -1)

IID = WorkingCovSpec.independent_homoscedastic()
EXCH = WorkingCovSpec(
    variance_time=VarianceTime.HETEROSCEDASTIC,
    variance_cai=VarianceCai.HETEROGENEOUS,
    within_corr=WithinCorr.EXCHANGEABLE,
    between_corr=BetweenCorr.EXCHANGEABLE,
    corr_cai=CorrCai.HETEROGENEOUS,
)
UNSTR = WorkingCovSpec(
    variance_time=VarianceTime.HETEROSCEDASTIC,
    variance_cai=VarianceCai.HETEROGENEOUS,
    within_corr=WithinCorr.UNSTRUCTURED,
    between_corr=BetweenCorr.UNSTRUCTURED,
    corr_cai=CorrCai.HETEROGENEOUS,
)


def model_mean(theta, a1, a2nr, t, knot=1.0):
    g = theta
    if t <= knot:
        return g[0] + g[1] * t + g[2] * a1 * t
    a2 = a2nr if a2nr is not None else 0
    return (
        g[0] + g[1] * knot + g[2] * a1 * knot
        + (g[3] + g[4] * a1 + g[5] * a2 + g[6] * a1 * a2) * (t - knot)
    )


def identity_solve(ds, spec, weights=None):
    """theta from one weighted solve under an identity working covariance."""
    theta, _, _, _ = _make_workspace(ds, spec, weights).solve(None)
    return ThetaEstimate(theta[: spec.n_gamma], theta[spec.n_gamma :], spec.param_names)


def exact_dataset(design, grid, theta, rng, n_clusters=24, responders=False):
    """Outcomes exactly on the model surface (no noise)."""
    clusters = []
    for i in range(n_clusters):
        a1 = 1 if i % 2 == 0 else -1
        if responders and i % 3 == 0:
            r, a2nr = 1, None
        else:
            r, a2nr = 0, [1, -1][(i // 2) % 2]
        n = int(rng.integers(1, 4))
        ys = [
            tuple(model_mean(theta, a1, a2nr, t) for t in grid.times)
            for _ in range(n)
        ]
        clusters.append(make_cluster(f"c{i:03d}", a1, r, a2nr, ys))
    return make_dataset(clusters, design, grid)


DESIGN2 = SmartDesign.balanced(DesignKind.II)
GRID012 = TimeGrid(times=(0.0, 1.0, 2.0), knot=1.0)


class TestSolveTheta:
    def test_exact_fixed_point(self, design2, grid012):
        rng = np.random.default_rng(0)
        theta0 = np.array([0.5, 0.3, -0.1, 0.2, 0.05, 0.1, -0.02])
        ds = exact_dataset(design2, grid012, theta0, rng)
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        est = identity_solve(ds, spec)
        np.testing.assert_allclose(est.gamma, theta0, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(1e-3, 1e3))
    @example(scale=2.0)
    def test_weight_scale_invariance(self, scale):
        rng = np.random.default_rng(1)
        ds = random_design2_dataset(rng, 30, GRID012, DESIGN2)
        spec = MeanModelSpec.piecewise_linear(DESIGN2, GRID012)
        ws = _make_workspace(ds, spec)
        base = identity_solve(ds, spec)
        scaled = identity_solve(ds, spec, weights=scale * ws.weights)
        np.testing.assert_allclose(scaled.full, base.full, rtol=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite_weights(self, design2, grid012, bad):
        rng = np.random.default_rng(1)
        ds = random_design2_dataset(rng, 30, grid012, design2)
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        weights = _make_workspace(ds, spec).weights.copy()
        weights[3] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            identity_solve(ds, spec, weights=weights)

    def test_saturated_identity_v_reproduces_weighted_means(self, design2, grid012):
        # six-cluster hand dataset; oracle computed by direct weighted means
        clusters = [
            make_cluster("a", 1, 1, None, [(1.0, 2.0, 3.0), (2.0, 3.0, 4.0)]),
            make_cluster("b", 1, 0, 1, [(0.0, 1.0, 5.0)]),
            make_cluster("c", 1, 0, -1, [(1.0, 0.0, 2.0), (3.0, 1.0, 0.0), (2.0, 2.0, 2.0)]),
            make_cluster("d", -1, 1, None, [(4.0, 4.0, 4.0)]),
            make_cluster("e", -1, 0, 1, [(2.0, 5.0, 1.0), (0.0, 1.0, 1.0)]),
            make_cluster("f", -1, 0, -1, [(1.0, 1.0, 2.0)]),
        ]
        ds = make_dataset(clusters, design2, grid012)
        spec = MeanModelSpec.custom(design2, grid012, make_saturated_basis(design2, grid012))
        est = identity_solve(ds, spec)

        for ci, d in enumerate(enumerate_cais(design2)):
            for k, t in enumerate(grid012.times):
                num = den = 0.0
                for cl in clusters:
                    ind = consistency_indicator(cl, d, design2)
                    if not ind:
                        continue
                    w = design_weight(cl, design2)
                    num += w * sum(indiv.y[k] for indiv in cl.individuals)
                    den += w * cl.n
                fitted = mu(spec, d, (), t, est)
                assert fitted == pytest.approx(num / den, abs=1e-10)


class TestFit:
    def test_iid_converges_in_two_iterations(self, design2, grid012):
        rng = np.random.default_rng(2)
        ds = random_design2_dataset(rng, 40, grid012, design2)
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, IID)
        assert res.converged
        assert res.iterations <= 2
        assert res.max_delta < 1e-12  # scalar V reproduces the initializer

    def test_infinite_tolerance_returns_initializer(self, design2, grid012):
        rng = np.random.default_rng(3)
        ds = random_design2_dataset(rng, 40, grid012, design2)
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, EXCH, FitOptions(tolerance=math.inf))
        base = identity_solve(ds, spec)
        np.testing.assert_array_equal(res.theta.full, base.full)
        assert res.iterations == 0 and res.converged

    def test_root_certificate(self, design2, grid012):
        rng = np.random.default_rng(4)
        ds = random_design2_dataset(rng, 50, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, EXCH)
        assert res.converged
        y_max = max(abs(v) for cl in ds.clusters for ind in cl.individuals for v in ind.y)
        assert res.ee_residual_norm < 1e-8 * (1.0 + y_max)

    def test_nonconvergence_is_warning_state(self, design2, grid012):
        rng = np.random.default_rng(5)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        with pytest.warns(RuntimeWarning):
            res = fit(ds, spec, EXCH, FitOptions(max_iter=1))
        assert not res.converged
        assert res.iterations == 1
        # the last iterate is returned: the exact root under its own V(alpha)
        y_max = max(abs(v) for cl in ds.clusters for ind in cl.individuals for v in ind.y)
        assert res.ee_residual_norm < 1e-12 * (1.0 + y_max)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tolerance": math.nan}, {"tolerance": 0.0}, {"tolerance": -1.0}, {"max_iter": 0}],
        ids=["nan-tolerance", "zero-tolerance", "negative-tolerance", "zero-max-iter"],
    )
    def test_options_reject_bad_stopping_rule(self, kwargs):
        with pytest.raises(ValueError, match="tolerance must be positive|max_iter must be at least 1"):
            FitOptions(**kwargs)

    def test_missing_regime_is_hard_error(self, design2, grid012):
        clusters = [
            make_cluster("a", 1, 0, 1, [(1.0, 2.0, 3.0)]),
            make_cluster("b", -1, 0, 1, [(1.0, 2.0, 3.0)]),
            make_cluster("c", -1, 0, -1, [(0.0, 1.0, 2.0)]),
        ]  # nothing consistent with (1,-1)
        ds = make_dataset(clusters, design2, grid012)
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        with pytest.raises(InsufficientData):
            fit(ds, spec, IID)

    def test_nonfinite_covariate_rejected_before_solving(self, design2, grid012):
        rng = np.random.default_rng(20)
        ds = random_design2_dataset(rng, 30, grid012, design2, cluster_covariates=("u",))
        bad = replace(ds.clusters[0], x_cluster=(math.nan,))
        ds = replace(ds, clusters=(bad, *ds.clusters[1:]))
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("u",))
        with pytest.raises(InconsistentCluster, match="not all finite"):
            fit(ds, spec, IID)
        with pytest.raises(InconsistentCluster, match="not all finite"):
            fit_end_of_study(ds, ("u",))

    def test_determinism_and_cluster_order_invariance(self, design2, grid012):
        rng = np.random.default_rng(6)
        ds = random_design2_dataset(rng, 30, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res1 = fit(ds, spec, EXCH)
        res2 = fit(ds, spec, EXCH)
        reversed_ds = make_dataset(list(reversed(ds.clusters)), design2, grid012)
        res3 = fit(reversed_ds, spec, EXCH)
        np.testing.assert_array_equal(res1.theta.full, res2.theta.full)
        np.testing.assert_array_equal(res1.sigma_theta, res2.sigma_theta)
        np.testing.assert_array_equal(res1.theta.full, res3.theta.full)
        np.testing.assert_array_equal(res1.sigma_theta, res3.sigma_theta)

    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("sizes", [(1,), (1, 2, 3, 5)], ids=["singletons", "mixed"])
    @pytest.mark.parametrize("terms", [(), ("u", "v"), ("v", "u")])
    def test_engine_design_path_matches_public_stacker(self, grid012, kind, sizes, terms):
        rng = np.random.default_rng(7)
        design = SmartDesign.balanced(kind)
        ds = random_dataset(rng, 40, grid012, design, sizes, cluster_covariates=("u",), individual_covariates=("v",))
        spec = MeanModelSpec.piecewise_linear(design, grid012, covariate_terms=terms)
        ws = _make_workspace(ds, spec)
        cais = enumerate_cais(design)
        # every consistent (cluster, regime) pair once, in canonical regime,
        # then ascending position order
        expected = [
            (cais.index(d), cl.n, pos, d)
            for pos, cl in enumerate(ds.clusters)
            for d in cais
            if consistency_indicator(cl, d, design)
        ]
        got = [
            (cais.index(r.cai), n, pos, r.cai)
            for r in ws.regimes
            for n, pos in zip(r.sizes.tolist(), r.cluster_pos.tolist())
        ]
        assert got == sorted(expected, key=lambda e: (e[0], e[2]))
        for r in ws.regimes:
            for i, (pos, start, n) in enumerate(zip(r.cluster_pos, r.starts, r.sizes)):
                cl = ds.clusters[pos]
                assert cl.n == n
                rows = slice(start, start + n)
                design_rows = r.design[rows].reshape(-1, spec.n_params)
                np.testing.assert_array_equal(design_rows, stack_design_matrix(spec, r.cai, cl, ds))
                np.testing.assert_array_equal(r.y[rows].ravel(), [v for ind in cl.individuals for v in ind.y])
                scale = np.abs(r.design[rows]).sum(axis=0)
                assert np.all(np.abs(r.design_sum[i] - r.design[rows].sum(axis=0)) <= 1e-14 * scale)


class TestSandwich:
    def test_zero_residuals_zero_covariance(self, design2, grid012):
        rng = np.random.default_rng(8)
        theta0 = np.array([1.0, 0.5, 0.2, 0.1, 0.0, 0.3, -0.1])
        ds = exact_dataset(design2, grid012, theta0, rng)
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        # identity working covariance keeps the meat matrix in outcome scale
        res = fit(ds, spec, IID, FitOptions(tolerance=math.inf))
        np.testing.assert_allclose(res.q_hat, 0.0, atol=1e-20)
        np.testing.assert_allclose(res.sigma_theta, 0.0, atol=1e-20)
        # a converged fit under estimated variance still reports zero sigma
        res2 = fit(ds, spec, IID)
        np.testing.assert_allclose(res2.sigma_theta, 0.0, atol=1e-20)

    def test_intercept_model_matches_hand_sandwich(self, design2):
        # three singleton non-responder clusters, two times, intercept-only mean
        from smartlong import CustomBasis, TimeGrid

        grid = TimeGrid(times=(0.0, 1.0), knot=0.0)
        ys = [(1.0, 2.0), (0.0, 1.0), (3.0, 5.0)]
        paths = [(1, 1), (-1, 1), (-1, -1)]
        clusters = [
            make_cluster(f"c{i}", a1, 0, a2, [y])
            for i, ((a1, a2), y) in enumerate(zip(paths, ys))
        ]
        # cover remaining regime so the fit precondition holds
        clusters.append(make_cluster("c3", 1, 0, -1, [(2.0, 2.0)]))
        ys.append((2.0, 2.0))
        ds = make_dataset(clusters, design2, grid)
        basis = CustomBasis(functions=[lambda t, d: 1.0], grid=grid, labels=["mean"])
        spec = MeanModelSpec.custom(design2, grid, basis)
        res = fit(ds, spec, IID, FitOptions(tolerance=math.inf))

        w = 4.0  # all non-responders under balanced randomization
        sums = np.array([sum(y) for y in ys])
        theta_hat = (w * sums).sum() / (w * 2 * len(ys))
        assert res.theta.full[0] == pytest.approx(theta_hat, abs=1e-12)
        n = len(ys)
        j_hat = w * 2 * n / n
        u = w * (sums - 2 * theta_hat)
        q_hat = (u**2).sum() / n
        expected_var = q_hat / j_hat**2 / n
        assert res.sigma_theta[0, 0] == pytest.approx(expected_var, rel=1e-12)

    def test_sandwich_helper_psd_and_symmetry(self):
        j = np.array([[2.0, 0.3], [0.3, 1.0]])
        q = np.array([[1.0, 0.2], [0.2, 0.5]])
        sig = sandwich_covariance(j, q, 25)
        np.testing.assert_array_equal(sig, sig.T)
        assert np.linalg.eigvalsh(sig)[0] >= 0

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(1e-3, 1e3))
    @example(scale=5.0)
    def test_weight_scale_leaves_sigma_invariant(self, scale):
        rng = np.random.default_rng(9)
        ds = random_design2_dataset(rng, 25, GRID012, DESIGN2)
        spec = MeanModelSpec.piecewise_linear(DESIGN2, GRID012)
        ws = _make_workspace(ds, spec)

        def run(scale):
            w = _Workspace(ds, spec, ws.weights * scale)
            theta, A, b, vd = w.solve(None)
            _, _, sigma, _ = _assemble(w, theta, A, b, vd, False, None)
            return theta, sigma

        (theta1, sigma1), (theta_s, sigma_s) = run(1.0), run(scale)
        np.testing.assert_allclose(theta1, theta_s, rtol=1e-12)
        np.testing.assert_allclose(sigma1, sigma_s, rtol=1e-10)


class TestWald:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(10)
        ds = random_design2_dataset(
            rng, 60, GRID012, DESIGN2, sizes=(2, 3),
            mean_fn=lambda a1, r, a2nr, t: 0.5 + 0.2 * t + 0.1 * (a1 == 1) * t,
        )
        spec = MeanModelSpec.piecewise_linear(DESIGN2, GRID012)
        return spec, fit(ds, spec, EXCH)

    def test_zero_estimate_gives_unit_p(self, fitted):
        # exact-integer theta and contrast so the dot product cancels exactly
        spec, res = fitted
        from dataclasses import replace

        from smartlong import ContrastVector, ThetaEstimate

        gamma = np.array([1.0, 2.0, 4.0, 0.5, -1.0, 3.0, 2.0])
        null_fit = replace(res, theta=ThetaEstimate(gamma, res.theta.eta, res.theta.names))
        c = np.zeros(spec.n_params)
        c[0], c[1] = 2.0, -1.0  # 2*1 - 1*2 == 0 with exact float products
        w = wald_test(null_fit, ContrastVector(c=c, label="null"))
        assert w.statistic == 0.0
        assert w.p_value == 1.0
        assert w.ci[0] <= 0.0 <= w.ci[1]

    @settings(max_examples=25, deadline=None)
    @given(power=st.integers(-30, 30), factor=st.floats(1e-6, 1e6))
    @example(power=5, factor=37.0)
    def test_contrast_scale_invariance(self, fitted, power, factor):
        spec, res = fitted
        c = contrast_end_of_study(spec, D11, DMM)
        from smartlong import ContrastVector

        # power-of-two scaling is exact in floating point: bitwise equality
        pow2 = 2.0**power
        w1, w2 = wald_test(res, c), wald_test(res, ContrastVector(c=pow2 * c.c, label="pow2"))
        assert w1.statistic == w2.statistic
        assert w1.p_value == w2.p_value
        np.testing.assert_allclose([v / pow2 for v in w2.ci], w1.ci, rtol=0, atol=0)
        # arbitrary positive scaling agrees to floating-point accuracy
        w3 = wald_test(res, ContrastVector(c=factor * c.c, label="scaled"))
        assert w3.statistic == pytest.approx(w1.statistic, rel=1e-12)
        assert w3.p_value == pytest.approx(w1.p_value, rel=1e-12)
        np.testing.assert_allclose([v / factor for v in w3.ci], w1.ci, rtol=1e-12)

    def test_ci_contains_estimate_and_se_positive(self, fitted):
        spec, res = fitted
        w = wald_test(res, contrast_end_of_study(spec, D11, DM1), level=0.9)
        assert w.se > 0
        assert w.ci[0] <= w.estimate <= w.ci[1]

    def test_zero_variance_raises(self, design2, grid012):
        rng = np.random.default_rng(11)
        theta0 = np.array([1.0, 0.5, 0.2, 0.1, 0.0, 0.3, -0.1])
        ds = exact_dataset(design2, grid012, theta0, rng)
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, IID)
        with pytest.raises(ZeroVariance):
            wald_test(res, contrast_end_of_study(spec, D11, DMM))


class TestAdjustments:
    def test_nonneg_clamp_noop_when_already_nonneg(self, design2, grid012):
        rng = np.random.default_rng(12)
        ds = random_design2_dataset(
            rng, 60, grid012, design2, sizes=(2, 3),
            mean_fn=lambda a1, r, a2nr, t: 1.0,
        )
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, EXCH)
        adj = fit(ds, spec, EXCH, FitOptions(adjustments=AdjustmentOptions(enforce_nonneg_corr=True)))
        if all(v >= 0 for v in {**res.alpha.rho_w, **res.alpha.rho_b}.values()):
            assert adj.alpha.rho_w == res.alpha.rho_w
            assert adj.alpha.rho_b == res.alpha.rho_b
            np.testing.assert_allclose(adj.theta.full, res.theta.full, rtol=1e-12)
        assert "enforce_nonneg_corr" in adj.adjustments_applied

    def test_nonneg_clamp_refits_once_when_negative(self, design2, grid012):
        rng = np.random.default_rng(13)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, EXCH)
        negatives = [v for v in {**res.alpha.rho_w, **res.alpha.rho_b}.values() if v < 0]
        adj = fit(ds, spec, EXCH, FitOptions(adjustments=AdjustmentOptions(enforce_nonneg_corr=True)))
        assert all(v >= 0 for v in {**adj.alpha.rho_w, **adj.alpha.rho_b}.values())
        if negatives:
            assert not np.array_equal(adj.theta.full, res.theta.full)

    def test_t_matches_z_for_large_n(self, design2, grid012):
        rng = np.random.default_rng(14)
        ds = random_design2_dataset(
            rng, 2000, grid012, design2, sizes=(2,),
            mean_fn=lambda a1, r, a2nr, t: 0.2 * t * (1 + (a1 > 0)),
        )
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, IID)
        adj = fit(ds, spec, IID, FitOptions(adjustments=AdjustmentOptions(t_reference=True)))
        assert adj.df == 2000 - spec.n_params
        c = contrast_end_of_study(spec, D11, DMM)
        wz, wt = wald_test(res, c), wald_test(adj, c)
        assert abs(wz.p_value - wt.p_value) < 1e-3

    def test_bias_correction_inflates_variance(self, design2, grid012):
        rng = np.random.default_rng(15)
        ds = random_design2_dataset(rng, 25, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, EXCH)
        adj = fit(ds, spec, EXCH, FitOptions(adjustments=AdjustmentOptions(bias_correct=True)))
        assert "bias_correct" in adj.adjustments_applied
        # leverage inflation cannot shrink every diagonal entry
        assert np.trace(adj.sigma_theta) > np.trace(res.sigma_theta)

    def test_adjustments_recorded(self, design2, grid012):
        rng = np.random.default_rng(16)
        ds = random_design2_dataset(rng, 30, grid012, design2, sizes=(2,))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, EXCH, FitOptions(adjustments=AdjustmentOptions.all()))
        assert set(res.adjustments_applied) == {
            "enforce_nonneg_corr", "bias_correct", "t_reference",
        }
        assert res.df == 30 - spec.n_params

    @pytest.mark.parametrize(
        "adjustments",
        [
            AdjustmentOptions(),
            AdjustmentOptions(t_reference=True),
            AdjustmentOptions(bias_correct=True),
            AdjustmentOptions(enforce_nonneg_corr=True),
            AdjustmentOptions.all(),
        ],
        ids=["none", "t", "bias", "clamp", "all"],
    )
    def test_fit_assembles_once(self, design2, grid012, monkeypatch, adjustments):
        rng = np.random.default_rng(13)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        calls = {"factorize": 0, "assemble": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gee._Workspace, "factorize", counted("factorize", gee._Workspace.factorize))
        monkeypatch.setattr(gee, "_assemble", counted("assemble", gee._assemble))
        res = fit(ds, spec, EXCH, FitOptions(adjustments=adjustments))
        assert calls == {
            "factorize": res.iterations + adjustments.enforce_nonneg_corr,
            "assemble": 1,
        }

    @pytest.mark.parametrize("tolerance", [1e-8, math.inf], ids=["iterated", "identity"])
    @pytest.mark.parametrize(
        "adjustments", [AdjustmentOptions(), AdjustmentOptions.all()], ids=["none", "all"]
    )
    def test_normal_equations_once_per_solve(self, design2, grid012, monkeypatch, tolerance, adjustments):
        # the sandwich reuses the last solve's normal system and V^{-1} D
        rng = np.random.default_rng(13)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        calls = {"solve": 0, "normal_equations": 0, "_vinv_design": 0}
        for name in calls:
            original = getattr(gee._Workspace, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(gee._Workspace, name, wrapper)
        res = fit(ds, spec, EXCH, FitOptions(tolerance=tolerance, adjustments=adjustments))
        solves = 1 + res.iterations + adjustments.enforce_nonneg_corr
        assert calls == {"solve": solves, "normal_equations": solves, "_vinv_design": solves}

    @pytest.mark.parametrize(
        "adjustments", [AdjustmentOptions(), AdjustmentOptions.all()], ids=["none", "all"]
    )
    def test_previous_vinv_design_released_before_next(self, design2, grid012, monkeypatch, adjustments):
        # fit holds one V^{-1} D at a time, never the last one beside the next
        rng = np.random.default_rng(13)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        original = gee._Workspace._vinv_design
        live, alive_at_call = [], []

        def wrapper(self, factors):
            gc.collect()
            alive_at_call.append(sum(ref() is not None for ref in live))
            live.clear()
            out = original(self, factors)
            if factors is not None:  # the identity returns the workspace's own design
                live.extend(weakref.ref(a) for a in out)
            return out

        monkeypatch.setattr(gee._Workspace, "_vinv_design", wrapper)
        res = fit(ds, spec, EXCH, FitOptions(adjustments=adjustments))
        assert res.iterations >= 2
        assert alive_at_call == [0] * (1 + res.iterations + adjustments.enforce_nonneg_corr)


class TestEndOfStudyComparator:
    def test_singleton_clusters_match_weighted_mean(self, design2, grid012):
        rng = np.random.default_rng(17)
        ds = random_design2_dataset(rng, 50, grid012, design2, sizes=(1,))
        eos = fit_end_of_study(ds)
        for ci, d in enumerate(enumerate_cais(design2)):
            num = den = 0.0
            for cl in ds.clusters:
                if consistency_indicator(cl, d, design2):
                    w = design_weight(cl, design2)
                    num += w * cl.individuals[0].y[-1]
                    den += w
            assert eos.theta.gamma[ci] == pytest.approx(num / den)

    def test_contrast_runs(self, design2, grid012):
        rng = np.random.default_rng(18)
        ds = random_design2_dataset(rng, 60, grid012, design2, sizes=(2, 3))
        eos = fit_end_of_study(ds)
        w = wald_test(eos, contrast_end_of_study(eos.mean_spec, D11, DMM))
        assert w.se > 0
        assert w.ci[0] <= w.estimate <= w.ci[1]

    @pytest.mark.parametrize("covariates", [(), ("u",)])
    def test_fixed_point_oracle(self, design2, grid012, covariates):
        rng = np.random.default_rng(19)
        ds = random_design2_dataset(
            rng, 80, grid012, design2, sizes=(2, 3, 4, 5), cluster_covariates=covariates,
            mean_fn=lambda a1, r, a2nr, t: 0.3 * a1 * t,
        )
        res = fit_end_of_study(ds, covariates, tolerance=1e-12, t_reference=True)
        assert res.converged
        cais = enumerate_cais(design2)
        theta = res.theta.full
        p = theta.size
        entries = []  # (cluster index, regime index, weight, D, y) at the final time
        for i, cl in enumerate(ds.clusters):
            y = np.array([ind.y[-1] for ind in cl.individuals])
            for ci, d in enumerate(cais):
                if consistency_indicator(cl, d, design2):
                    D = np.zeros((cl.n, p))
                    D[:, ci] = 1.0
                    D[:, len(cais):] = cl.x_cluster
                    entries.append((i, ci, design_weight(cl, design2), D, y))

        # moments at theta-hat: a pooled variance, and rho_b standardized by
        # each regime's own variance
        ss, wn = np.zeros(len(cais)), np.zeros(len(cais))
        for _, ci, w, D, y in entries:
            e = y - D @ theta
            ss[ci] += w * e @ e
            wn[ci] += w * len(y)
        num = den = 0.0
        for _, ci, w, D, y in entries:
            z = (y - D @ theta) / math.sqrt(ss[ci] / wn[ci])
            num += w * (z.sum() ** 2 - z @ z)
            den += w * len(y) * (len(y) - 1)
        assert res.alpha.sigma2 == {(POOLED, POOLED): pytest.approx(ss.sum() / wn.sum(), rel=1e-10)}
        assert res.alpha.rho_b == {(POOLED,): pytest.approx(num / den, abs=1e-10)}

        # theta-hat is the root of the estimating equation under V(alpha-hat)
        A, b = np.zeros((p, p)), np.zeros(p)
        U = np.zeros((ds.n_clusters, p))
        for i, ci, w, D, y in entries:
            vd = np.linalg.solve(build_V(res.cov_spec, res.alpha, cais[ci], len(y), 1), D)
            A += w * D.T @ vd
            b += w * vd.T @ y
            U[i] += w * vd.T @ (y - D @ theta)
        np.testing.assert_allclose(U.sum(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(np.linalg.solve(A, b), theta, atol=1e-10)
        A_inv = np.linalg.inv(A)
        sigma = A_inv @ U.T @ U @ A_inv
        np.testing.assert_allclose(res.sigma_theta, sigma, rtol=1e-10, atol=1e-14)
        assert res.df == ds.n_clusters - p
        for ci, d in enumerate(cais):
            for cj in range(ci + 1, len(cais)):
                w = wald_test(res, contrast_end_of_study(res.mean_spec, d, cais[cj]))
                z = (theta[ci] - theta[cj]) / math.sqrt(
                    sigma[ci, ci] + sigma[cj, cj] - 2.0 * sigma[ci, cj]
                )
                assert w.statistic == pytest.approx(z, abs=1e-10)
                assert w.label == f"end_of_study {d} vs {cais[cj]}"


def with_cluster_effects(ds, rng, sd=0.7):
    """Add a shared random shift to every outcome of each cluster."""
    clusters = []
    for cl in ds.clusters:
        shift = float(rng.normal(scale=sd))
        people = tuple(replace(ind, y=tuple(v + shift for v in ind.y)) for ind in cl.individuals)
        clusters.append(replace(cl, individuals=people))
    return replace(ds, clusters=tuple(clusters))


def dense_reference(ds, spec, res, bias_correct):
    """theta root, Sigma and pairwise end-of-study z from dense per-cluster V."""
    cais = enumerate_cais(ds.design)
    clusters = sorted(ds.clusters, key=lambda cl: cl.cluster_id)
    p = spec.n_params
    theta = res.theta.full
    A, b = np.zeros((p, p)), np.zeros(p)
    entries = []
    for pos, cl in enumerate(clusters):
        y = np.array([v for ind in cl.individuals for v in ind.y])
        for d in cais:
            if consistency_indicator(cl, d, ds.design):
                D = stack_design_matrix(spec, d, cl, ds)
                vd = np.linalg.solve(build_V(res.cov_spec, res.alpha, d, cl.n, ds.grid), D)
                w = design_weight(cl, ds.design)
                A += w * D.T @ vd
                b += w * vd.T @ y
                entries.append((pos, w, D, vd, y))
    U = np.zeros((len(clusters), p))
    A_inv = np.linalg.inv(A)
    for pos, w, D, vd, y in entries:
        eps = y - D @ theta
        if bias_correct:
            eps = np.linalg.solve(np.eye(len(y)) - w * D @ A_inv @ vd.T, eps)
        U[pos] += w * vd.T @ eps
    sigma = A_inv @ U.T @ U @ A_inv
    z = {}
    for d, d2 in itertools.combinations(cais, 2):
        c = contrast_end_of_study(spec, d, d2).c
        z[(d, d2)] = (c @ theta) / math.sqrt(c @ sigma @ c)
    return np.linalg.solve(A, b), sigma, z


def full_alpha(rng, cais, n_times, rho_b=None):
    """An estimate holding every key any structure can ask for."""
    dkeys = [*cais, POOLED]
    tkeys = [*range(n_times), POOLED]
    sigma2 = {(dk, tk): float(rng.uniform(0.5, 3.0)) for dk in dkeys for tk in tkeys}
    rho_w, rho_b_table = {}, {}
    for dk in dkeys:
        rho_w[(dk,)] = float(rng.uniform(-0.3, 0.8))
        rho_b_table[(dk,)] = float(rng.uniform(-0.15, 0.3)) if rho_b is None else rho_b
        for l in range(n_times):
            for m in range(l, n_times):
                if l < m:
                    rho_w[(dk, l, m)] = float(rng.uniform(0.0, 0.6))
                rho_b_table[(dk, l, m)] = (
                    float(rng.uniform(-0.05, 0.2)) if rho_b is None else rho_b
                )
    return AlphaEstimate(n_times=n_times, sigma2=sigma2, rho_w=rho_w, rho_b=rho_b_table)


def unchecked_V(spec, alpha, d, n, n_times):
    """A cluster's V assembled entry by entry, with no definiteness check."""
    W = workingcov._within_block(spec, alpha, d, n_times)
    B = workingcov._between_block(spec, alpha, d, n_times)
    s = np.sqrt([alpha.sigma2_at(spec, d, k) for k in range(n_times)])
    V = np.empty((n * n_times, n * n_times))
    for i, j, l, m in itertools.product(range(n), range(n), range(n_times), range(n_times)):
        corr = W[l, m] if i == j else B[l, m]
        V[i * n_times + l, j * n_times + m] = s[l] * s[m] * corr
    return V


STRUCTURES = list(itertools.product(WithinCorr, BetweenCorr, CorrCai))


class TestClosedFormInverse:
    @pytest.mark.parametrize("within,between,corr_cai", STRUCTURES)
    def test_matches_dense_cholesky_on_every_structure(self, design2, within, between, corr_cai):
        spec = WorkingCovSpec(VarianceTime.HETEROSCEDASTIC, VarianceCai.HETEROGENEOUS, within, between, corr_cai)
        rng = np.random.default_rng(30)
        grids = {1: TimeGrid((2.0,), knot=2.0), 3: TimeGrid((0.0, 1.0, 2.0), knot=1.0)}
        raised = singletons_beside_larger = 0
        # rho_b = -0.9 breaks A_n' and rho_b = 0.6 can break A' = W - B; the
        # last datasets mix sizes, so that one regime holds several C's and
        # singletons sit beside larger clusters
        rhos = (None, -0.9, 0.6)
        inputs = [
            *itertools.product((1, 3), [(1,), (2,), (5,), (6,)], rhos),
            *itertools.product((1, 3), [(1, 2, 5, 6)], rhos),
        ]
        for n_times, sizes, rho_b in inputs:
            grid = grids[n_times]
            ds = random_design2_dataset(
                rng, 16, grid, design2, sizes=sizes,
                cluster_covariates=("u",), individual_covariates=("v",),
            )
            basis = make_saturated_basis(design2, grid)
            mean_spec = MeanModelSpec.custom(design2, grid, basis, ("u", "v"))
            ws = _make_workspace(ds, mean_spec)
            alpha = full_alpha(rng, ws.cais, n_times, rho_b)
            dense = {}
            for key in {(r.cai, n) for r in ws.regimes for n in r.sizes.tolist()}:
                eig = np.linalg.eigvalsh(unchecked_V(spec, alpha, *key, n_times))
                if eig[0] <= 1e-10 * max(eig[-1], 0.0):
                    with pytest.raises(NotPositiveDefinite):
                        build_V(spec, alpha, key[0], key[1], grid)
                    dense[key] = None
                else:
                    dense[key] = cho_factor(build_V(spec, alpha, key[0], key[1], grid))
            if any(f is None for f in dense.values()):
                raised += 1
                with pytest.raises(NotPositiveDefinite):
                    ws.factorize(spec, alpha)
                continue
            for r, vd in zip(ws.regimes, ws._vinv_design(ws.factorize(spec, alpha))):
                singletons_beside_larger += 1 in r.sizes and r.sizes.max() > 1
                for start, n in zip(r.starts, r.sizes):
                    D = r.design[start : start + n].reshape(-1, mean_spec.n_params)
                    got = vd[start : start + n].reshape(D.shape)
                    want = cho_solve(dense[(r.cai, n)], D)
                    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        # rho_b = -0.9 makes every V of five or more people indefinite
        assert raised >= (0 if between is BetweenCorr.INDEPENDENT else 4)
        assert singletons_beside_larger > 0

    def test_same_rejection_as_dense(self, design2, grid012):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HOMOSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.EXCHANGEABLE,
        )
        alpha = AlphaEstimate(n_times=3, sigma2={(D11, POOLED): 1.0}, rho_b={(D11,): -0.9})
        clusters = [make_cluster(f"c{i}", 1, 0, 1, [(0.0, 1.0, 2.0)] * 5) for i in range(3)]
        ws = _make_workspace(
            make_dataset(clusters, design2, grid012), MeanModelSpec.piecewise_linear(design2, grid012)
        )
        with pytest.raises(NotPositiveDefinite):
            build_V(spec, alpha, D11, 5, grid012)
        with pytest.raises(NotPositiveDefinite):
            ws.factorize(spec, alpha)

    def test_rejection_names_first_regime_and_smallest_size(self, design2, grid012):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HOMOSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.EXCHANGEABLE,
        )
        # rho_b = -0.2 makes V indefinite from three people on, -0.9 from two
        alpha = AlphaEstimate(
            n_times=3,
            sigma2={(D11, POOLED): 1.0, (D1M, POOLED): 1.0},
            rho_b={(D11,): -0.2, (D1M,): -0.9},
        )
        clusters = [
            make_cluster(f"c{i}{a2nr}", 1, 0, a2nr, [(0.0, 1.0, 2.0)] * n)
            for a2nr in (-1, 1) for i, n in enumerate((4, 1, 3, 2))
        ]
        ws = _make_workspace(
            make_dataset(clusters, design2, grid012), MeanModelSpec.piecewise_linear(design2, grid012)
        )
        message = (
            "working covariance for regime (+1,+1), cluster size 3 is not positive "
            "definite (eigenvalue range [-2.000e-01, 1.600e+00])"
        )
        for _ in range(3):
            with pytest.raises(NotPositiveDefinite) as raised:
                ws.factorize(spec, alpha)
            assert str(raised.value) == message

    def test_regime_blocks_built_once_per_regime(self, design2, grid012, monkeypatch):
        rng = np.random.default_rng(32)
        ds = random_design2_dataset(rng, 60, grid012, design2, sizes=(1, 2, 3, 4))
        ws = _make_workspace(ds, MeanModelSpec.piecewise_linear(design2, grid012))
        alpha = full_alpha(rng, ws.cais, 3)
        calls = {"_within_block": 0, "_between_block": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(workingcov, name, counted(name, getattr(workingcov, name)))
        ws.factorize(UNSTR, alpha)
        regimes = {r.cai for r in ws.regimes}
        assert len({(r.cai, n) for r in ws.regimes for n in r.sizes.tolist()}) > len(regimes) == 4
        assert calls == {"_within_block": 4, "_between_block": 4}

    @pytest.mark.parametrize("cov_spec", [EXCH, UNSTR], ids=["exchangeable", "unstructured"])
    @pytest.mark.parametrize("bias_correct", [False, True])
    def test_fit_matches_dense_reference(self, design2, grid012, cov_spec, bias_correct):
        rng = np.random.default_rng(31)
        ds = random_design2_dataset(
            rng, 70, grid012, design2, sizes=(1, 2, 3, 4, 5, 6), individual_covariates=("v",),
            mean_fn=lambda a1, r, a2nr, t: 0.4 * a1 * t,
        )
        ds = with_cluster_effects(ds, rng)
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("v",))
        options = FitOptions(adjustments=AdjustmentOptions(bias_correct=bias_correct))
        res = fit(ds, spec, cov_spec, options)
        assert res.converged
        theta, sigma, z = dense_reference(ds, spec, res, bias_correct)
        np.testing.assert_allclose(res.theta.full, theta, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res.sigma_theta, sigma, rtol=1e-10, atol=1e-14)
        for (d, d2), want in z.items():
            got = wald_test(res, contrast_end_of_study(spec, d, d2)).statistic
            assert got == pytest.approx(want, abs=1e-10)


class TestPermutationInvariance:
    @pytest.fixture(scope="class")
    def base(self):
        design = SmartDesign.balanced(DesignKind.II)
        grid = TimeGrid(times=(0.0, 1.0, 2.0), knot=1.0)
        rng = np.random.default_rng(32)
        ds = random_design2_dataset(
            rng, 70, grid, design, sizes=(1, 2, 3, 4, 5, 6), individual_covariates=("v",),
        )
        ds = with_cluster_effects(ds, rng)
        spec = MeanModelSpec.piecewise_linear(design, grid, covariate_terms=("v",))
        return ds, spec, {c: fit(ds, spec, c) for c in (EXCH, UNSTR)}

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), unstructured=st.booleans())
    def test_cluster_and_individual_order(self, base, seed, unstructured):
        ds, spec, fits = base
        cov_spec = UNSTR if unstructured else EXCH
        res = fit(permuted(ds, np.random.default_rng(seed)), spec, cov_spec)
        ref = fits[cov_spec]
        np.testing.assert_allclose(res.theta.full, ref.theta.full, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res.sigma_theta, ref.sigma_theta, rtol=1e-10, atol=1e-14)


POOLED_EXCH = WorkingCovSpec(
    variance_time=VarianceTime.HETEROSCEDASTIC,
    variance_cai=VarianceCai.HOMOGENEOUS,
    within_corr=WithinCorr.EXCHANGEABLE,
    between_corr=BetweenCorr.EXCHANGEABLE,
    corr_cai=CorrCai.HOMOGENEOUS,
)
POOLED_UNSTR = replace(
    POOLED_EXCH, within_corr=WithinCorr.UNSTRUCTURED, between_corr=BetweenCorr.UNSTRUCTURED
)
RESCALING_CASES = list(itertools.product(range(40, 46), (POOLED_EXCH, POOLED_UNSTR)))
RESCALING_IDS = [
    f"seed{seed}-{spec.within_corr.name.lower()}" for seed, spec in RESCALING_CASES
]
# an absolute stopping rule is not scale-free; this one stays far below 1e-10
TIGHT = FitOptions(tolerance=1e-12)


def all_z(spec, res):
    """Wald z of every end-of-study, slope and AUC contrast between two regimes."""
    return np.array([
        wald_test(res, contrast(spec, d, d2)).statistic
        for d, d2 in itertools.combinations(enumerate_cais(spec.design), 2)
        for contrast in (contrast_end_of_study, contrast_second_stage_slope, contrast_auc)
    ])


def max_abs(x):
    return float(np.abs(x).max())


class TestRescalingInvariance:
    @pytest.fixture(scope="class")
    def fits(self):
        spec = MeanModelSpec.piecewise_linear(DESIGN2, GRID012, covariate_terms=("u",))
        out = {}
        for seed, cov_spec in RESCALING_CASES:
            rng = np.random.default_rng(seed)
            ds = random_design2_dataset(
                rng, 40, GRID012, DESIGN2, sizes=(1, 2, 3, 4), cluster_covariates=("u",)
            )
            ds = with_cluster_effects(ds, rng)
            res = fit(ds, spec, cov_spec, TIGHT)
            out[(seed, cov_spec)] = ds, spec, res, all_z(spec, res)
        return out

    @pytest.mark.parametrize("case", RESCALING_CASES, ids=RESCALING_IDS)
    def test_duplicating_every_cluster(self, fits, case):
        ds, spec, res, z = fits[case]
        copies = tuple(replace(cl, cluster_id=f"{cl.cluster_id}-copy") for cl in ds.clusters)
        doubled = fit(replace(ds, clusters=ds.clusters + copies), spec, case[1], TIGHT)
        assert doubled.n_clusters == 2 * res.n_clusters
        assert max_abs(doubled.theta.full - res.theta.full) <= 1e-10 * max_abs(res.theta.full)
        assert max_abs(doubled.sigma_theta - res.sigma_theta / 2) <= 1e-10 * max_abs(res.sigma_theta)
        assert max_abs(all_z(spec, doubled) - math.sqrt(2.0) * z) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        case=st.sampled_from(RESCALING_CASES),
        a=st.floats(-10.0, 10.0),
        b=st.floats(0.1, 10.0),
        negative=st.booleans(),
    )
    def test_affine_outcome_map(self, fits, case, a, b, negative):
        ds, spec, res, z = fits[case]
        b = -b if negative else b
        clusters = tuple(
            replace(cl, individuals=tuple(
                replace(ind, y=tuple(a + b * v for v in ind.y)) for ind in cl.individuals
            ))
            for cl in ds.clusters
        )
        mapped = fit(replace(ds, clusters=clusters), spec, case[1], TIGHT)
        # the piecewise-linear basis carries the intercept in theta[0]
        want = b * res.theta.full
        want[0] += a
        assert max_abs(mapped.theta.full - want) <= 1e-10 * max_abs(want)
        assert max_abs(mapped.sigma_theta - b * b * res.sigma_theta) <= 1e-10 * b * b * max_abs(res.sigma_theta)
        assert max_abs(all_z(spec, mapped) - math.copysign(1.0, b) * z) <= 1e-10
