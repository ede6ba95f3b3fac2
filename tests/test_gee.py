import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from smartlong import (
    AdjustmentOptions,
    AlphaEstimate,
    BetweenCorr,
    CorrCai,
    CustomBasis,
    DesignKind,
    EmbeddedCai,
    FitOptions,
    MeanModelSpec,
    SmartDesign,
    ThetaEstimate,
    TimeGrid,
    VarianceCai,
    VarianceTime,
    WeightMode,
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
    stack_design_matrix,
    wald_test,
)
from smartlong import gee
from smartlong.errors import (
    DegenerateVariance, InsufficientData, MissingCell, NotPositiveDefinite, RankDeficient,
    ZeroVariance,
)
from smartlong.gee import _assemble, _Workspace, sandwich_covariance
from smartlong.workingcov import block_stack, estimate_alpha

from conftest import (
    count_calls, make_cluster, make_dataset, permuted, random_dataset, random_design2_dataset, regime_design,
)
from oracles import row_grams, unchecked_V

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
AR1 = replace(EXCH, within_corr=WithinCorr.AR1)


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
    ws = _Workspace(ds, spec, weights)
    theta, _, _ = ws.solve(ws.identity())
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
        ws = _Workspace(ds, spec)
        base = identity_solve(ds, spec)
        scaled = identity_solve(ds, spec, weights=scale * ws.weights)
        np.testing.assert_allclose(scaled.full, base.full, rtol=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite_weights(self, design2, grid012, bad):
        rng = np.random.default_rng(1)
        ds = random_design2_dataset(rng, 30, grid012, design2)
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        weights = _Workspace(ds, spec).weights.copy()
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

    def test_covariate_term_not_in_the_schema(self, design2, grid012):
        ds = random_design2_dataset(np.random.default_rng(3), 20, grid012, design2)
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("zzz",))
        with pytest.raises(ValueError, match="^covariate 'zzz' not present in the dataset schema$"):
            fit(ds, spec, IID)

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
        [
            {"tolerance": math.nan}, {"tolerance": 0.0}, {"tolerance": -1.0}, {"max_iter": 0},
            {"max_iter": 2.5}, {"max_iter": np.float64(3.0)}, {"max_iter": True}, {"max_iter": "3"},
        ],
        ids=[
            "nan-tolerance", "zero-tolerance", "negative-tolerance", "zero-max-iter",
            "fractional-max-iter", "float-max-iter", "bool-max-iter", "str-max-iter",
        ],
    )
    def test_options_reject_bad_stopping_rule(self, kwargs):
        with pytest.raises(ValueError, match="tolerance must be positive|max_iter must be (at least 1|an integer)"):
            FitOptions(**kwargs)

    @pytest.mark.parametrize("stage", ["stage1_covariates", "stage2_covariates"])
    def test_options_reject_weight_covariates_under_design_weights(self, stage):
        with pytest.raises(ValueError, match="weight-model covariates need weight_mode"):
            FitOptions(**{stage: ("u",)})
        assert getattr(FitOptions(weight_mode=WeightMode.ESTIMATED, **{stage: ("u",)}), stage) == ("u",)

    @pytest.mark.parametrize("stage", ["stage1_covariates", "stage2_covariates"])
    def test_options_reject_a_bare_string_of_covariates(self, stage):
        # a string is a sequence of its characters: "age" would name columns a, g and e
        for mode in WeightMode:
            with pytest.raises(TypeError, match=f"{stage} must be a sequence of names, not the string 'age'"):
                FitOptions(weight_mode=mode, **{stage: "age"})
        assert getattr(FitOptions(weight_mode=WeightMode.ESTIMATED, **{stage: ["age"]}), stage) == ("age",)

    def test_end_of_study_rejects_a_bare_string_of_covariates(self, design2, grid012):
        rng = np.random.default_rng(18)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3), cluster_covariates=("u",))
        with pytest.raises(TypeError, match="covariate_terms must be a sequence of names, not the string 'u'"):
            fit_end_of_study(ds, "u")
        assert fit_end_of_study(ds, ["u"]).param_names[-1] == "eta_u"

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

    @pytest.mark.parametrize("other", ["stretched-grid", "four-time-grid", "design-III"])
    def test_mean_model_for_another_grid_or_design_rejected(self, design2, grid012, other):
        # unchecked, each would fit with wrong slopes or fail inside NumPy
        rng = np.random.default_rng(21)
        ds = random_design2_dataset(rng, 30, grid012, design2)
        design, grid = {
            "stretched-grid": (design2, TimeGrid((0.0, 2.0, 4.0), knot=2.0)),
            "four-time-grid": (design2, TimeGrid((0.0, 1.0, 2.0, 3.0), knot=1.0)),
            "design-III": (SmartDesign.balanced(DesignKind.III), grid012),
        }[other]
        with pytest.raises(ValueError, match="mean model is built for design"):
            fit(ds, MeanModelSpec.piecewise_linear(design, grid), IID)

    def test_nonfinite_covariate_rejected_before_solving(self, design2, grid012):
        rng = np.random.default_rng(20)
        ds = random_design2_dataset(rng, 30, grid012, design2, cluster_covariates=("u",))
        bad = replace(ds.clusters[0], x_cluster=(math.nan,))
        ds = replace(ds, clusters=(bad, *ds.clusters[1:]))
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("u",))
        with pytest.raises(MissingCell, match="not all finite"):
            fit(ds, spec, IID)
        with pytest.raises(MissingCell, match="not all finite"):
            fit_end_of_study(ds, ("u",))

    @pytest.mark.parametrize("f,where", [
        (lambda t, d: math.log(t) if t > 0 else -math.inf, "regime (+1,+1) at t = 0.0"),
        (lambda t, d: math.nan if d == EmbeddedCai(-1, None, 1) and t == 2.0 else t, "regime (-1,+1) at t = 2.0"),
    ], ids=["log-at-zero", "nan"])
    def test_nonfinite_basis_value_rejected_before_solving(self, design2, grid012, f, where):
        # unchecked, the non-finite rows reach the moments and the fit reports an unidentified model
        rng = np.random.default_rng(22)
        ds = random_design2_dataset(rng, 30, grid012, design2)
        basis = CustomBasis(functions=[lambda t, d: 1.0, f], grid=grid012)
        with pytest.raises(ValueError, match=re.escape(f"the mean model's basis is not finite under {where}") + "$"):
            fit(ds, MeanModelSpec.custom(design2, grid012, basis), IID)

    def test_covariate_collinear_with_intercept_is_rank_deficient(self, design2, grid012):
        # a cluster covariate equal in every cluster is a multiple of the intercept
        rng = np.random.default_rng(21)
        ds = random_design2_dataset(rng, 30, grid012, design2, cluster_covariates=("u",))
        ds = replace(ds, clusters=tuple(replace(cl, x_cluster=(2.5,)) for cl in ds.clusters))
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("u",))
        with pytest.raises(RankDeficient, match="weighted normal system is singular"):
            fit(ds, spec, IID)

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
        ws = _Workspace(ds, spec)
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
            x, y = ws.regime_rows(r)
            np.testing.assert_array_equal(r.distinct[r.size_idx], r.sizes)
            for i, (pos, start, n) in enumerate(zip(r.cluster_pos, r.starts, r.sizes)):
                cl = ds.clusters[pos]
                assert cl.n == n
                rows = slice(start, start + n)
                np.testing.assert_array_equal(regime_design(r, x[rows]), stack_design_matrix(spec, r.cai, cl, ds))
                np.testing.assert_array_equal(y[rows].ravel(), [v for ind in cl.individuals for v in ind.y])
                scale = np.abs(x[rows]).sum(axis=0)
                assert np.all(np.abs(r.x_sum[i] - x[rows].sum(axis=0)) <= 1e-14 * scale)


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

    @pytest.mark.parametrize(
        "j_hat",
        [
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.diag([1.0, 1e-13]),
            np.array([[1.0, 0.0], [0.0, math.inf]]),
            np.array([[1.0, math.nan], [math.nan, 1.0]]),
        ],
        ids=["singular", "cond-above-1e12", "infinite", "nan"],
    )
    def test_sandwich_rejects_singular_bread(self, j_hat):
        with pytest.raises(RankDeficient, match="bread matrix J is singular"):
            sandwich_covariance(j_hat, np.eye(2), 10)

    def test_sandwich_accepts_bread_below_condition_bound(self):
        sigma = sandwich_covariance(np.diag([1.0, 1e-11]), np.eye(2), 10)
        np.testing.assert_allclose(np.diag(sigma), [0.1, 1e21], rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(1e-3, 1e3))
    @example(scale=5.0)
    def test_weight_scale_leaves_sigma_invariant(self, scale):
        rng = np.random.default_rng(9)
        ds = random_design2_dataset(rng, 25, GRID012, DESIGN2)
        spec = MeanModelSpec.piecewise_linear(DESIGN2, GRID012)
        ws = _Workspace(ds, spec)

        def run(scale):
            w = _Workspace(ds, spec, ws.weights * scale)
            theta, A, b = w.solve(w.identity())
            _, _, sigma, _ = _assemble(w, theta, A, b, w.identity(), False, None)
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

    def test_rejects_a_level_outside_the_unit_interval(self, fitted):
        spec, res = fitted
        c = custom_contrast(spec, [0, 1, 0, 0, 0, 0, 0], "slope")
        with pytest.raises(ValueError, match=r"^confidence level must lie in \(0, 1\)$"):
            wald_test(res, c, level=1.5)

    def test_rejects_a_contrast_of_the_wrong_length(self, fitted):
        from smartlong import ContrastVector

        spec, res = fitted
        short = ContrastVector(c=np.ones(spec.n_params - 1), label="short")
        with pytest.raises(ValueError, match="^contrast has 6 entries, fit has 7 parameters$"):
            wald_test(res, short)

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

    def test_p_values_and_intervals_equal_scipy_stats(self, fitted, monkeypatch):
        # p-values come from ndtr and stdtr, the functions norm.sf and t.sf
        # evaluate, and each critical value from one ppf per (level, df)
        from scipy.stats import norm, t as student_t

        from smartlong import ContrastVector

        spec, res = fitted
        z = np.concatenate((np.linspace(-40.0, 40.0, 161), [-1e-3, 1e-12, 0.37, 1.959963984540054, 39.999]))
        levels = (0.5, 0.9, 0.95, 0.99)
        dfs = (None, 1, 2, 5, 10, 30, 100, 1000, 100_000)
        c = np.zeros(spec.n_params)
        c[0] = 1.0
        contrast = ContrastVector(c=c, label="first")
        # theta_0 = z under unit variance: the statistic is z exactly
        unit = replace(res, sigma_theta=np.eye(spec.n_params))
        fits = [
            replace(unit, theta=ThetaEstimate(np.r_[v, res.theta.gamma[1:]], res.theta.eta, res.theta.names))
            for v in z
        ]
        want = {}
        for df in dfs:
            dist, args = (norm, ()) if df is None else (student_t, (df,))
            p = [2.0 * float(dist.sf(abs(v), *args)) for v in z]
            for level in levels:
                q = float(dist.ppf(0.5 + level / 2.0, *args))
                want[level, df] = (p, [(v - q, v + q) for v in z])

        class PpfOnly:
            """A distribution whose ppf calls are counted, and that has no sf."""

            def __init__(self, dist):
                self.dist = dist

            def ppf(self, *args):
                calls.append(args)
                return self.dist.ppf(*args)

        calls = []
        monkeypatch.setattr(gee, "norm", PpfOnly(norm))
        monkeypatch.setattr(gee, "student_t", PpfOnly(student_t))
        gee._quantile.cache_clear()
        for (level, df), (p, ci) in want.items():
            walds = [wald_test(replace(f, df=df), contrast, level=level) for f in fits]
            assert [w.statistic for w in walds] == z.tolist()
            assert np.array_equal([w.p_value for w in walds], p), (level, df)
            assert np.array_equal([w.ci for w in walds], ci), (level, df)
        assert len(calls) == len(want)
        gee._quantile.cache_clear()

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


def nonneg(alpha):
    return bool(np.all(alpha.within >= 0) and np.all(alpha.between >= 0))


CLAMP = FitOptions(adjustments=AdjustmentOptions(enforce_nonneg_corr=True))


class TestAdjustments:
    @pytest.mark.parametrize("cov_spec", [EXCH, AR1], ids=["exchangeable", "ar1"])
    def test_nonneg_clamp_noop_when_already_nonneg(self, design2, grid012, cov_spec):
        rng = np.random.default_rng(12)
        ds = random_design2_dataset(
            rng, 60, grid012, design2, sizes=(2, 3),
            mean_fn=lambda a1, r, a2nr, t: 1.0,
        )
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, cov_spec)
        adj = fit(ds, spec, cov_spec, CLAMP)
        if nonneg(res.alpha):
            np.testing.assert_array_equal(adj.alpha.within, res.alpha.within)
            np.testing.assert_array_equal(adj.alpha.between, res.alpha.between)
            np.testing.assert_allclose(adj.theta.full, res.theta.full, rtol=1e-12)
        assert "enforce_nonneg_corr" in adj.adjustments_applied

    @pytest.mark.parametrize("cov_spec", [EXCH, AR1], ids=["exchangeable", "ar1"])
    def test_nonneg_clamp_refits_once_when_negative(self, design2, grid012, cov_spec):
        rng = np.random.default_rng(13)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, cov_spec)
        adj = fit(ds, spec, cov_spec, CLAMP)
        assert nonneg(adj.alpha)
        if not nonneg(res.alpha):
            assert not np.array_equal(adj.theta.full, res.theta.full)

    def test_nonneg_clamp_of_negative_ar1_rho_is_independence(self, design2, grid012):
        # the clamped parameter is rho: its even powers are positive, yet a
        # clamped rho of zero leaves no within-person correlation at all
        rng = np.random.default_rng(13)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, AR1)
        adj = fit(ds, spec, AR1, CLAMP)
        negative = res.alpha.within[:, 0, 1] < 0
        assert negative.any() and np.all(res.alpha.within[negative, 0, 2] > 0)
        assert np.all(adj.alpha.within[negative] == np.eye(3))
        np.testing.assert_array_equal(adj.alpha.within[~negative], res.alpha.within[~negative])
        assert not np.array_equal(adj.theta.full, res.theta.full)

    def test_t_reference_needs_more_clusters_than_parameters(self, design2, grid012):
        # N = p leaves df = 0, where the t reference has no quantiles
        rng = np.random.default_rng(31)
        paths = [(1, 0, 1), (1, 0, -1), (-1, 0, 1), (-1, 0, -1), (1, 1, None), (-1, 1, None), (1, 0, 1), (-1, 0, -1)]
        clusters = [
            make_cluster(f"c{i}", a1, r, a2nr, rng.normal(size=(3 + i % 2, 3)))
            for i, (a1, r, a2nr) in enumerate(paths)
        ]
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        options = FitOptions(adjustments=AdjustmentOptions(t_reference=True))
        with pytest.raises(InsufficientData, match="N = 7, p = 7"):
            fit(make_dataset(clusters[:7], design2, grid012), spec, IID, options)
        res = fit(make_dataset(clusters, design2, grid012), spec, IID, options)
        assert res.df == 1
        wald = wald_test(res, contrast_end_of_study(spec, D11, DMM))
        assert math.isfinite(wald.p_value) and all(math.isfinite(v) for v in wald.ci)
        # the comparator has one mean per regime
        with pytest.raises(InsufficientData, match="N = 4, p = 4"):
            fit_end_of_study(make_dataset(clusters[:4], design2, grid012), t_reference=True)
        assert fit_end_of_study(make_dataset(clusters[:5], design2, grid012), t_reference=True).df == 1

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

    def test_bias_correction_rejects_leverage_one_cluster(self, design2, grid012):
        # the one cluster consistent with (+1,-1) alone determines that
        # regime's saturated means: its hat block has an eigenvalue of one
        rng = np.random.default_rng(17)
        clusters = [make_cluster("lone", 1, 0, -1, rng.normal(size=(2, 3)))]
        clusters += [make_cluster(f"p{i}", 1, 0, 1, rng.normal(size=(3, 3))) for i in range(6)]
        clusters += [
            make_cluster(f"m{i}", -1, i % 2, None if i % 2 else (1, -1)[i % 4 // 2], rng.normal(size=(2, 3)))
            for i in range(8)
        ]
        ds = make_dataset(clusters, design2, grid012)
        spec = MeanModelSpec.custom(design2, grid012, make_saturated_basis(design2, grid012))
        assert fit(ds, spec, POOLED_EXCH).converged
        bias = FitOptions(adjustments=AdjustmentOptions(bias_correct=True))
        with pytest.raises(RankDeficient, match=r"cluster 'lone' has leverage one under regime \(\+1,-1\)"):
            fit(ds, spec, POOLED_EXCH, bias)

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
        factorizations = count_calls(monkeypatch, gee._Workspace, ["factorize"])
        assemblies = count_calls(monkeypatch, gee, ["_assemble"])
        res = fit(ds, spec, EXCH, FitOptions(adjustments=adjustments))
        assert {**factorizations, **assemblies} == {
            "factorize": res.iterations + adjustments.enforce_nonneg_corr,
            "_assemble": 1,
        }

    @pytest.mark.parametrize("tolerance", [1e-8, math.inf], ids=["iterated", "identity"])
    @pytest.mark.parametrize(
        "adjustments", [AdjustmentOptions(), AdjustmentOptions.all()], ids=["none", "all"]
    )
    def test_normal_equations_once_per_solve(self, design2, grid012, monkeypatch, tolerance, adjustments):
        # the sandwich reuses the last solve's normal system
        rng = np.random.default_rng(13)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        calls = count_calls(monkeypatch, gee._Workspace, ["solve", "normal_equations"])
        res = fit(ds, spec, EXCH, FitOptions(tolerance=tolerance, adjustments=adjustments))
        solves = 1 + res.iterations + adjustments.enforce_nonneg_corr
        assert calls == {"solve": solves, "normal_equations": solves}


def slow_fit_inputs():
    """A design-II fit whose plain theta iteration contracts slowly: it stops
    unconverged after 50 sweeps."""
    design = SmartDesign.balanced(DesignKind.II)
    grid = TimeGrid((0.0, 1.0, 2.0, 3.0), knot=1.0)
    ds = random_dataset(np.random.default_rng(1), 60, grid, design, (1, 2, 3, 5), ("u",), ("w",))
    spec = MeanModelSpec.piecewise_linear(design, grid, ("u", "w"))
    cov_spec = WorkingCovSpec(
        VarianceTime.HETEROSCEDASTIC, VarianceCai.HETEROGENEOUS, WithinCorr.INDEPENDENT,
        BetweenCorr.UNSTRUCTURED, CorrCai.HETEROGENEOUS,
    )
    return ds, spec, cov_spec


class TestAndersonMixing:
    def test_slow_contraction_converges(self):
        ds, spec, cov_spec = slow_fit_inputs()
        res = fit(ds, spec, cov_spec)
        assert res.converged
        assert res.iterations <= 20
        assert res.max_delta < 1e-8

    @pytest.mark.parametrize("failing_call", [1, 2, 3, 5])
    def test_a_failure_restarts_only_at_an_extrapolated_point(self, monkeypatch, failing_call):
        # the first two evaluations of the theta map are at the identity
        # solve and at its image; later ones are extrapolated
        ds, spec, cov_spec = slow_fit_inputs()
        # both fits near the root, so that where each stops does not show
        options = FitOptions(tolerance=1e-12)
        plain = fit(ds, spec, cov_spec, options)
        original = gee._Workspace.factorize
        calls = []

        def factorize(ws, alpha):
            calls.append(alpha)
            if len(calls) == failing_call:
                raise NotPositiveDefinite("working covariance for a test")
            return original(ws, alpha)

        monkeypatch.setattr(gee._Workspace, "factorize", factorize)
        if failing_call <= 2:
            with pytest.raises(NotPositiveDefinite, match="working covariance for a test"):
                fit(ds, spec, cov_spec, options)
            return
        res = fit(ds, spec, cov_spec, options)
        assert res.converged
        assert res.iterations == len(calls)
        np.testing.assert_allclose(res.theta.full, plain.theta.full, rtol=1e-8)

    @pytest.mark.parametrize("max_iter", [1, 2, 4, 50])
    def test_iterations_count_evaluations_of_the_theta_map(self, monkeypatch, max_iter):
        ds, spec, cov_spec = slow_fit_inputs()
        estimates = count_calls(monkeypatch, gee, ["estimate_alpha"])
        sweeps = count_calls(monkeypatch, gee._Workspace, ["factorize", "solve"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = fit(ds, spec, cov_spec, FitOptions(max_iter=max_iter))
        assert res.converged == (max_iter == 50)
        assert res.converged or res.iterations == max_iter
        # each evaluation estimates alpha and factorizes; one extrapolated
        # point of this fit gives an indefinite V, so it solves one time fewer
        # (besides the identity solve) from the fifth evaluation on
        assert {**estimates, **sweeps} == {
            "estimate_alpha": res.iterations, "factorize": res.iterations,
            "solve": 1 + res.iterations - (res.iterations >= 5),
        }
        # the returned theta is the exact root under the factors it was solved
        # with, an image of the map and not an extrapolated point: |b - A theta|
        # is rounding error against |A| |theta|
        A = res.j_hat * res.n_clusters
        assert res.ee_residual_norm < 1e-12 * np.abs(A).max() * np.abs(res.theta.full).max()


class TestFitMemory:
    @staticmethod
    def warm_peak(ds, spec, options):
        """tracemalloc peak of a fit after a first one."""
        fit(ds, spec, WorkingCovSpec(), options)
        tracemalloc.start()
        try:
            fit(ds, spec, WorkingCovSpec(), options)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "adjustments,multiple", [(AdjustmentOptions(), 4), (AdjustmentOptions.all(), 25)], ids=["none", "all"]
    )
    def test_peak_is_a_small_multiple_of_the_data(self, adjustments, multiple):
        # fit keeps index structure and moments whose size does not grow with
        # N, never a design of rows x (T+1) x p: on 5007 rows it peaks near
        # 2.3x the outcome and covariate bytes, 15x with the p x p Woodbury
        # solve per cluster of the bias correction, where a stored design and
        # V^{-1} D made these 34x and 45x (6.6x and 18x with per-regime rows,
        # 3.6x and 17x with a per-individual covariate table)
        design = SmartDesign.balanced(DesignKind.I)
        terms = ("u", "v", "w")
        ds = random_dataset(np.random.default_rng(0), 2000, GRID012, design, (1, 2, 3, 4), (), terms)
        spec = MeanModelSpec.piecewise_linear(design, GRID012, terms)
        peak = self.warm_peak(ds, spec, FitOptions(adjustments=adjustments))
        assert len(ds.y) > 4000
        assert peak < multiple * (ds.y.nbytes + ds.x_individual.nbytes)

    def test_rows_are_not_copied_per_regime(self):
        # design I puts every cluster in two regimes; with cluster and
        # individual covariates and estimated weights, 7553 rows peak near
        # 2.7x the dataset's array bytes: 4.3x with a per-individual covariate
        # table, per-regime index copies and a dense weight-score matrix, 7.4x
        # when each regime kept its own outcome and covariate rows.  Those
        # rows add about 2x here, so a bound 0.8x above the measured ratio
        # would catch their return.
        design = SmartDesign.balanced(DesignKind.I)
        ds = random_dataset(np.random.default_rng(0), 3000, GRID012, design, (1, 2, 3, 4), ("u", "v"), ("w",))
        spec = MeanModelSpec.piecewise_linear(design, GRID012, ("u", "v", "w"))
        options = FitOptions(
            weight_mode=WeightMode.ESTIMATED, stage1_covariates=("u", "v"), stage2_covariates=("u",)
        )
        peak = self.warm_peak(ds, spec, options)
        arrays = sum(
            getattr(ds, name).nbytes
            for name in ("a1", "r", "a2nr", "a2r", "sizes", "x_cluster", "x_individual", "y", "pathway_index")
        )
        assert len(ds.y) > 7000
        assert peak < 3.5 * arrays


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
        assert res.alpha.sigma2 == pytest.approx(np.full((len(cais), 1), ss.sum() / wn.sum()), rel=1e-10)
        assert res.alpha.between == pytest.approx(np.full((len(cais), 1, 1), num / den), abs=1e-10)
        np.testing.assert_array_equal(res.alpha.within, np.ones((len(cais), 1, 1)))

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


def dense_normal_system(ds, mean_spec, chol, theta):
    """The dense oracle: A, b and every U_i, plain and bias-corrected (None
    where a cluster has leverage one), summed over clusters in canonical
    order from D_i'V_i^{-1}(.), with D_i from the public stacker, design
    weights, and V_i^{-1} applied by ``chol``, the Cholesky factor of each
    (regime, size)'s dense V."""
    clusters = sorted(ds.clusters, key=lambda cl: cl.cluster_id)
    p = mean_spec.n_params
    A, b = np.zeros((p, p)), np.zeros(p)
    entries = []
    for pos, cl in enumerate(clusters):
        y = np.array([v for ind in cl.individuals for v in ind.y])
        for d in enumerate_cais(ds.design):
            if consistency_indicator(cl, d, ds.design):
                D = stack_design_matrix(mean_spec, d, cl, ds)
                vd = cho_solve(chol[(d, cl.n)], D)
                w = design_weight(cl, ds.design)
                A += w * D.T @ vd
                b += w * vd.T @ y
                entries.append((pos, w, D, vd, y))
    U, U_bc = np.zeros((len(clusters), p)), np.zeros((len(clusters), p))
    A_inv = np.linalg.inv(A)
    for pos, w, D, vd, y in entries:
        eps = y - D @ theta
        U[pos] += w * vd.T @ eps
        residual_maker = np.eye(len(y)) - w * D @ A_inv @ vd.T
        # I - H is of unit scale, and a 1 x 1 one is perfectly conditioned even
        # at zero, so judge it by its smallest singular value
        if np.linalg.svd(residual_maker, compute_uv=False)[-1] < 1e-8:
            U_bc = None  # a leverage of one: the bias correction is undefined
        elif U_bc is not None:
            U_bc[pos] += w * vd.T @ np.linalg.solve(residual_maker, eps)
    return A, b, U, U_bc


def dense_reference(ds, spec, res, bias_correct):
    """theta root, Sigma and pairwise end-of-study z from dense per-cluster V."""
    cais = enumerate_cais(ds.design)
    keys = {(d, cl.n) for cl in ds.clusters for d in cais if consistency_indicator(cl, d, ds.design)}
    chol = {key: cho_factor(build_V(res.cov_spec, res.alpha, *key, ds.grid)) for key in keys}
    theta = res.theta.full
    A, b, U, U_bc = dense_normal_system(ds, spec, chol, theta)
    if bias_correct:
        U = U_bc
    A_inv = np.linalg.inv(A)
    sigma = A_inv @ U.T @ U @ A_inv
    z = {}
    for d, d2 in itertools.combinations(cais, 2):
        c = contrast_end_of_study(spec, d, d2).c
        z[(d, d2)] = (c @ theta) / math.sqrt(c @ sigma @ c)
    return np.linalg.solve(A, b), sigma, z


def random_alpha(rng, spec, cais, n_times, rho_b=None):
    """An estimate with ``spec``'s correlation structure and random
    parameters, variances per regime and time; ``rho_b``, when given, is
    every between-person correlation."""
    lags = np.abs(np.subtract.outer(np.arange(n_times), np.arange(n_times)))
    pairs = np.triu_indices(n_times, 1)

    def correlations():
        W, B = np.eye(n_times), np.zeros((n_times, n_times))
        rho = rng.uniform(-0.3, 0.8)
        if spec.within_corr is WithinCorr.AR1:
            W = rho**lags
        elif spec.within_corr is WithinCorr.EXCHANGEABLE:
            W = np.where(lags > 0, rho, 1.0)
        elif spec.within_corr is WithinCorr.UNSTRUCTURED:
            W[pairs] = W.T[pairs] = rng.uniform(0.0, 0.6, size=pairs[0].size)
        if spec.between_corr is BetweenCorr.EXCHANGEABLE:
            B[:] = rng.uniform(-0.15, 0.3)
        elif spec.between_corr is BetweenCorr.UNSTRUCTURED:
            B = rng.uniform(-0.05, 0.2, size=(n_times, n_times))
            B = (B + B.T) / 2
        if rho_b is not None and spec.between_corr is not BetweenCorr.INDEPENDENT:
            B[:] = rho_b
        return W, B

    if spec.corr_cai is CorrCai.HOMOGENEOUS:
        rows = [correlations()] * len(cais)
    else:
        rows = [correlations() for _ in cais]
    sigma2 = rng.uniform(0.5, 3.0, size=(len(cais), n_times))
    return AlphaEstimate(tuple(cais), sigma2, [W for W, _ in rows], [B for _, B in rows])


STRUCTURES = list(itertools.product(WithinCorr, BetweenCorr, CorrCai))


def assert_close_rows(got, want):
    """Each row of ``got`` within 1e-10 of ``want`` relative to that row."""
    want = np.atleast_2d(want)
    scale = np.abs(want).max(axis=1)
    assert np.all(scale > 0)
    assert np.all(np.abs(np.atleast_2d(got) - want).max(axis=1) <= 1e-10 * scale)


class TestClosedFormInverse:
    @pytest.mark.parametrize("within,between,corr_cai", STRUCTURES)
    def test_matches_dense_cholesky_on_every_structure(self, design2, within, between, corr_cai):
        spec = WorkingCovSpec(VarianceTime.HETEROSCEDASTIC, VarianceCai.HETEROGENEOUS, within, between, corr_cai)
        rng = np.random.default_rng(30)
        grids = {1: TimeGrid((2.0,), knot=2.0), 3: TimeGrid((0.0, 1.0, 2.0), knot=1.0)}
        raised = singletons_beside_larger = bias_corrected = 0
        # rho_b = -0.9 breaks A_n' and rho_b = 0.6 can break A' = W - B; the
        # mixed datasets put several C's in one regime and singletons beside
        # larger clusters; each runs with and without covariates
        rhos = (None, -0.9, 0.6)
        terms = ((), ("u", "v"))
        inputs = [
            *itertools.product((1, 3), [(1,), (2,), (5,), (6,)], rhos, terms),
            *itertools.product((1, 3), [(1, 2, 5, 6)], rhos, terms),
        ]
        for n_times, sizes, rho_b, covariates in inputs:
            grid = grids[n_times]
            ds = random_design2_dataset(
                rng, 16, grid, design2, sizes=sizes,
                cluster_covariates=("u",), individual_covariates=("v",),
            )
            basis = make_saturated_basis(design2, grid)
            mean_spec = MeanModelSpec.custom(design2, grid, basis, covariates)
            ws = _Workspace(ds, mean_spec)
            alpha = random_alpha(rng, spec, ws.cais, n_times, rho_b)
            dense = {}
            for key in {(r.cai, n) for r in ws.regimes for n in r.sizes.tolist()}:
                V = unchecked_V(alpha, *key)
                eig = np.linalg.eigvalsh(V)
                if eig[0] <= 1e-10 * max(eig[-1], 0.0):
                    with pytest.raises(NotPositiveDefinite):
                        build_V(spec, alpha, key[0], key[1], grid)
                    dense[key] = None
                else:
                    # the library's dense reference is the same entry-by-entry V
                    assert np.array_equal(build_V(spec, alpha, key[0], key[1], grid), V)
                    dense[key] = cho_factor(V)
            if any(f is None for f in dense.values()):
                raised += 1
                with pytest.raises(NotPositiveDefinite):
                    ws.factorize(alpha)
                continue
            singletons_beside_larger += sum(1 in r.sizes and r.sizes.max() > 1 for r in ws.regimes)
            theta = rng.normal(size=mean_spec.n_params)
            factors = ws.factorize(alpha)
            A, b, U, U_bc = dense_normal_system(ds, mean_spec, dense, theta)
            got_A, got_b = ws.normal_equations(factors)
            assert_close_rows(got_A, A)
            assert_close_rows(got_b, b)
            assert_close_rows(ws.u_rows(theta, factors), U)
            if U_bc is None:
                with pytest.raises(RankDeficient, match="has leverage one under regime"):
                    ws.u_rows(theta, factors, leverage_inverse_from=got_A)
            else:
                bias_corrected += 1
                assert_close_rows(ws.u_rows(theta, factors, leverage_inverse_from=got_A), U_bc)
        # rho_b = -0.9 makes every V of five or more people indefinite
        assert raised >= (0 if between is BetweenCorr.INDEPENDENT else 4 * len(terms))
        assert singletons_beside_larger > 0
        assert bias_corrected >= 0.9 * (len(inputs) - raised)

    @pytest.mark.parametrize("covariates", [(), ("u", "v")], ids=["plain", "covariates"])
    def test_identity_matches_dense(self, design2, grid012, covariates):
        # the identity working covariance as factors: A'^{-1} = I, every C = 0
        rng = np.random.default_rng(33)
        ds = random_design2_dataset(
            rng, 40, grid012, design2, sizes=(1, 2, 5, 6),
            cluster_covariates=("u",), individual_covariates=("v",),
        )
        mean_spec = MeanModelSpec.piecewise_linear(design2, grid012, covariates)
        ws = _Workspace(ds, mean_spec)
        eye = {(r.cai, n): cho_factor(np.eye(n * grid012.n_times)) for r in ws.regimes for n in r.sizes.tolist()}
        theta = rng.normal(size=mean_spec.n_params)
        A, b, U, U_bc = dense_normal_system(ds, mean_spec, eye, theta)
        got_theta, got_A, got_b = ws.solve(ws.identity())
        assert_close_rows(got_A, A)
        assert_close_rows(got_b, b)
        np.testing.assert_allclose(got_theta, np.linalg.solve(A, b), rtol=1e-10)
        assert_close_rows(ws.u_rows(theta, ws.identity()), U)
        assert U_bc is not None
        assert_close_rows(ws.u_rows(theta, ws.identity(), leverage_inverse_from=got_A), U_bc)

    def test_same_rejection_as_dense(self, design2, grid012):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HOMOSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.EXCHANGEABLE,
        )
        # rho_b = -0.9 under (+1,+1); a singleton in each other regime, where B = 0
        alpha = AlphaEstimate(
            (D11, D1M, DM1, DMM), np.ones((4, 3)), [np.eye(3)] * 4,
            np.array([-0.9, 0.0, 0.0, 0.0])[:, None, None] * np.ones((3, 3)),
        )
        clusters = [make_cluster(f"c{i}", 1, 0, 1, [(0.0, 1.0, 2.0)] * 5) for i in range(3)]
        clusters += [
            make_cluster(f"d{a1}{a2nr}", a1, 0, a2nr, [(0.0, 1.0, 2.0)]) for a1, a2nr in ((1, -1), (-1, 1), (-1, -1))
        ]
        ws = _Workspace(
            make_dataset(clusters, design2, grid012), MeanModelSpec.piecewise_linear(design2, grid012)
        )
        with pytest.raises(NotPositiveDefinite):
            build_V(spec, alpha, D11, 5, grid012)
        with pytest.raises(NotPositiveDefinite):
            ws.factorize(alpha)

    def test_rejection_names_first_regime_and_smallest_size(self, design2, grid012):
        spec = WorkingCovSpec(
            variance_time=VarianceTime.HOMOSCEDASTIC,
            variance_cai=VarianceCai.HETEROGENEOUS,
            within_corr=WithinCorr.INDEPENDENT,
            between_corr=BetweenCorr.EXCHANGEABLE,
        )
        # rho_b = -0.2 makes V indefinite from three people on, -0.9 from two;
        # a singleton in each a1 = -1 regime, where B = 0
        alpha = AlphaEstimate(
            (D11, D1M, DM1, DMM), np.ones((4, 3)), [np.eye(3)] * 4,
            np.array([-0.2, -0.9, 0.0, 0.0])[:, None, None] * np.ones((3, 3)),
        )
        clusters = [
            make_cluster(f"c{i}{a2nr}", 1, 0, a2nr, [(0.0, 1.0, 2.0)] * n)
            for a2nr in (-1, 1) for i, n in enumerate((4, 1, 3, 2))
        ]
        clusters += [make_cluster(f"d{a2nr}", -1, 0, a2nr, [(0.0, 1.0, 2.0)]) for a2nr in (-1, 1)]
        ws = _Workspace(
            make_dataset(clusters, design2, grid012), MeanModelSpec.piecewise_linear(design2, grid012)
        )
        message = (
            "working covariance for regime (+1,+1), cluster size 3 is not positive "
            "definite (eigenvalue range [-2.000e-01, 1.600e+00])"
        )
        for _ in range(3):
            with pytest.raises(NotPositiveDefinite) as raised:
                ws.factorize(alpha)
            assert str(raised.value) == message

    @pytest.mark.parametrize("kind,regimes", [(DesignKind.III, 3), (DesignKind.II, 4), (DesignKind.I, 8)])
    def test_one_cholesky_and_one_inv_per_factorize(self, grid012, monkeypatch, kind, regimes):
        rng = np.random.default_rng(32)
        design = SmartDesign.balanced(kind)
        ds = random_dataset(rng, 120, grid012, design, (1, 2, 3, 4))
        ws = _Workspace(ds, MeanModelSpec.piecewise_linear(design, grid012))
        alpha = random_alpha(rng, UNSTR, ws.cais, 3)
        calls = count_calls(monkeypatch, np.linalg, ["cholesky", "inv", "eigvalsh"])
        factors = ws.factorize(alpha)
        assert len(ws.regimes) == regimes
        assert len({(r.cai, n) for r in ws.regimes for n in r.sizes.tolist()}) > regimes
        # positive definiteness certified by the factorization: no eigenvalues
        assert calls == {"cholesky": 1, "inv": 1, "eigvalsh": 0}
        # the same inverse as each regime's blocks judged and inverted alone
        for r, s in zip(ws.regimes, factors):
            (W,), (B,), _ = block_stack(alpha, [alpha.cais.index(r.cai)], r.distinct[None])
            np.testing.assert_array_equal(s[0], np.linalg.inv(W - B) if r.distinct[-1] > 1 else 0.0)
            for n, c in zip(r.distinct, s[1:]):
                np.testing.assert_array_equal(c, (np.linalg.inv(W + (n - 1) * B) - s[0]) / n)
            assert not s[1 + r.distinct.size :].any()

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


VARIANCE_POOLING = [
    (VarianceTime.HETEROSCEDASTIC, VarianceCai.HETEROGENEOUS),
    (VarianceTime.HOMOSCEDASTIC, VarianceCai.HOMOGENEOUS),
]


def row_residual_groups(ws, theta):
    """One :func:`~oracles.row_grams` group per regime of residual rows
    y - D theta, each formed from the regime's outcome and covariate rows."""
    n_gamma = ws.mean_spec.n_gamma
    return [
        (
            r.cai, ws.weights[r.cluster_pos], r.sizes,
            y - r.gamma @ theta[:n_gamma] - (x @ theta[n_gamma:])[:, None],
        )
        for r in ws.regimes
        for x, y in [ws.regime_rows(r)]
    ]


def assert_same_alpha(got, want, rtol):
    for name in ("sigma2", "within", "between"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=rtol, atol=0, err_msg=name)
    assert got.clipped == want.clipped


class TestResidualGrams:
    @pytest.fixture(scope="class")
    def workspaces(self):
        """A design-II workspace with covariates and clusters of one to four,
        and the same trial with every outcome shifted by 1e6."""
        design = SmartDesign.balanced(DesignKind.II)
        ds = random_design2_dataset(
            np.random.default_rng(40), 80, GRID012, design, sizes=(1, 2, 3, 4),
            individual_covariates=("v",), mean_fn=lambda a1, r, a2nr, t: 0.5 * a1 * t,
        )
        ds = with_cluster_effects(ds, np.random.default_rng(41))
        shifted = replace(ds, clusters=tuple(
            replace(cl, individuals=tuple(replace(ind, y=tuple(v + 1e6 for v in ind.y)) for ind in cl.individuals))
            for cl in ds.clusters
        ))
        spec = MeanModelSpec.piecewise_linear(design, GRID012, covariate_terms=("v",))
        return _Workspace(ds, spec), _Workspace(shifted, spec)

    @pytest.mark.parametrize("variance", VARIANCE_POOLING, ids=["variance-per-cell", "variance-pooled"])
    @pytest.mark.parametrize("within,between,corr_cai", STRUCTURES)
    def test_anchored_grams_match_row_oracle(self, workspaces, within, between, corr_cai, variance):
        # anchored at the identity root, read at a step away from it in every
        # parameter: the closed form must give the oracle's estimate from rows
        spec = WorkingCovSpec(*variance, within, between, corr_cai)
        estimates = []
        for ws in workspaces:
            theta_0 = ws.solve(ws.identity())[0]
            theta = theta_0 + np.random.default_rng(42).normal(scale=0.3, size=theta_0.size)
            at_anchor = estimate_alpha(ws.residual_grams(theta_0), spec, ws.cais)
            rows_at_anchor = row_grams(row_residual_groups(ws, theta_0), ws.cais)
            assert_same_alpha(at_anchor, estimate_alpha(rows_at_anchor, spec, ws.cais), 1e-15)
            estimates.append((
                estimate_alpha(ws.residual_grams(theta), spec, ws.cais),
                estimate_alpha(row_grams(row_residual_groups(ws, theta), ws.cais), spec, ws.cais),
            ))
        plain, (got, want) = estimates
        assert_same_alpha(*plain, 1e-12)
        # y + 1e6: each residual, the oracle's and the anchor's alike, is y - D
        # theta rounded to a few eps |y|, so both sets carry errors of relative
        # size eps max|y| / sigma next to their unit-scale residuals; a moment
        # over sigma^2 moves by at most twice that (Cauchy-Schwarz).  Twice
        # again covers the two roundings: 7e-10 here, where 3e-11 is observed.
        y_max = max(np.abs(workspaces[1].regime_rows(r)[1]).max() for r in workspaces[1].regimes)
        bound = 4 * np.finfo(float).eps * y_max / np.sqrt(want.sigma2.min())
        np.testing.assert_allclose(got.sigma2, want.sigma2, rtol=bound, atol=0)
        np.testing.assert_allclose(got.within, want.within, rtol=0, atol=bound)
        np.testing.assert_allclose(got.between, want.between, rtol=0, atol=bound)
        assert got.clipped == want.clipped

    def test_fit_reads_rows_a_fixed_number_of_times(self, design2, grid012, monkeypatch):
        # row-level residuals are formed at the anchor and for the sandwich,
        # once per regime each, however many iterations the fit takes
        rng = np.random.default_rng(13)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        calls = []
        original = gee._Workspace._residuals

        def counted(self, r, theta):
            calls.append(r.cai)
            return original(self, r, theta)

        monkeypatch.setattr(gee._Workspace, "_residuals", counted)
        iterations = set()
        options = [
            FitOptions(tolerance=math.inf), FitOptions(), FitOptions(tolerance=1e-14),
            FitOptions(adjustments=AdjustmentOptions.all()),
        ]
        for opts in options:
            calls.clear()
            res = fit(ds, spec, UNSTR, opts)
            iterations.add(res.iterations)
            assert calls == list(enumerate_cais(design2)) * 2
        assert len(iterations) >= 3

    @staticmethod
    def constant_first_time(c):
        """Data whose outcome at the first time is c in every cluster, and a
        saturated mean, which fits it exactly: that variance is rounding error
        however c rounds."""
        design = SmartDesign.balanced(DesignKind.III)
        grid = TimeGrid(tuple(float(t) for t in range(6)), knot=2.0)
        ds = random_dataset(np.random.default_rng(2), 120, grid, design, tuple(range(8, 17)))
        ds = replace(ds, clusters=tuple(
            replace(cl, individuals=tuple(replace(ind, y=(c,) + ind.y[1:]) for ind in cl.individuals))
            for cl in ds.clusters
        ))
        return ds, MeanModelSpec.custom(design, grid, make_saturated_basis(design, grid))

    @pytest.mark.parametrize("c", [0.1, 1 / 3, 7.77, 5.3])
    def test_constant_outcome_time_is_degenerate(self, c):
        ds, spec = self.constant_first_time(c)
        cov_spec = WorkingCovSpec(
            within_corr=WithinCorr.UNSTRUCTURED, between_corr=BetweenCorr.UNSTRUCTURED,
            corr_cai=CorrCai.HOMOGENEOUS,
        )
        with pytest.raises(DegenerateVariance, match="at time index 0"):
            fit(ds, spec, cov_spec)

    @pytest.mark.parametrize("c", [0.1, 1 / 3, 7.77, 5.3])
    def test_constant_outcome_time_is_degenerate_without_correlations(self, c):
        # V itself would hold the floored variance, so naming it beats a
        # singular V downstream
        ds, spec = self.constant_first_time(c)
        independent = WorkingCovSpec(within_corr=WithinCorr.INDEPENDENT, between_corr=BetweenCorr.INDEPENDENT)
        with pytest.raises(DegenerateVariance, match=r"regime .* at time index 0; the working covariance"):
            fit(ds, spec, independent)
        # pooled over regimes and times, V's one variance is real
        assert fit(ds, spec, WorkingCovSpec.independent_homoscedastic()).converged


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
