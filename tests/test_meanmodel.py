import re

import numpy as np
import pytest
from scipy.integrate import quad

from smartlong import (
    AnchoredKnotBasis,
    ContrastVector,
    CustomBasis,
    DesignKind,
    EmbeddedCai,
    MeanModelSpec,
    SmartDesign,
    ThetaEstimate,
    TimeGrid,
    contrast_auc,
    contrast_end_of_study,
    contrast_second_stage_slope,
    custom_contrast,
    enumerate_cais,
    make_saturated_basis,
    mu,
    stack_design_matrix,
)
from smartlong.errors import NonIntegrableBasis, TimeOutOfRange, UnknownCai
from smartlong.meanmodel import _design_row as design_row

from conftest import make_cluster, make_dataset

D11 = EmbeddedCai(1, None, 1)
D1M = EmbeddedCai(1, None, -1)
DM1 = EmbeddedCai(-1, None, 1)
DMM = EmbeddedCai(-1, None, -1)


def theta_for(spec, gamma, eta=()):
    return ThetaEstimate(gamma=np.asarray(gamma, float), eta=np.asarray(eta, float), names=spec.param_names)


@pytest.fixture
def pl_spec(design2, grid012):
    return MeanModelSpec.piecewise_linear(design2, grid012)


def fd_gradient(spec, d, x, t, p, h=1e-6):
    """Central finite differences of mu in theta (oracle for design_row)."""
    grad = np.empty(p)
    for j in range(p):
        up = np.zeros(p)
        up[j] = h
        n_g = spec.n_gamma
        th_hi = ThetaEstimate(up[:n_g], up[n_g:], spec.param_names)
        th_lo = ThetaEstimate(-up[:n_g], -up[n_g:], spec.param_names)
        grad[j] = (mu(spec, d, x, t, th_hi) - mu(spec, d, x, t, th_lo)) / (2 * h)
    return grad


class TestSpecConstructors:
    @pytest.mark.parametrize("make", [
        lambda design, grid, terms: MeanModelSpec.piecewise_linear(design, grid, terms),
        lambda design, grid, terms: MeanModelSpec.piecewise_sqrt(design, grid, terms),
        lambda design, grid, terms: MeanModelSpec.custom(design, grid, make_saturated_basis(design, grid), terms),
        lambda design, grid, terms: MeanModelSpec(AnchoredKnotBasis(design.kind, grid), design, grid, terms),
    ], ids=["piecewise_linear", "piecewise_sqrt", "custom", "direct"])
    def test_a_bare_string_of_covariates_is_rejected(self, design2, grid012, make):
        # a string is a sequence of its characters: "age" would give eta_a, eta_g and eta_e
        with pytest.raises(TypeError, match="covariate_terms must be a sequence of names, not the string 'age'"):
            make(design2, grid012, "age")
        spec = make(design2, grid012, ["age", "sex"])
        assert spec.covariate_terms == ("age", "sex")
        assert spec.param_names[-2:] == ("eta_age", "eta_sex")

    @pytest.mark.parametrize("make_basis,kind", [
        # a design III basis has 6 gamma coefficients where design II needs 7
        (lambda grid: AnchoredKnotBasis(DesignKind.III, grid), "III"),
        # one mean per design I regime and time: no design II regime matches a cell
        (lambda grid: make_saturated_basis(SmartDesign.balanced(DesignKind.I), grid), "I"),
    ], ids=["anchored", "saturated"])
    def test_a_basis_for_another_design_kind_is_rejected(self, design2, grid012, make_basis, kind):
        with pytest.raises(ValueError, match=f"the basis is built for design {kind}, the mean model for design II$"):
            MeanModelSpec(make_basis(grid012), design2, grid012)

    @pytest.mark.parametrize("make_basis", [
        lambda design, grid: AnchoredKnotBasis(design.kind, grid),
        lambda design, grid: make_saturated_basis(design, grid),
    ], ids=["anchored", "custom"])
    def test_a_basis_on_another_grid_is_rejected(self, design2, grid012, make_basis):
        other = TimeGrid((0.0, 2.0, 4.0), knot=2.0)
        message = f"the basis is built on {other}, the mean model on {grid012}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            MeanModelSpec(make_basis(design2, other), design2, grid012)


class TestGammaRows:
    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("transform", ["linear", "sqrt"])
    @pytest.mark.parametrize("times,knot", [
        ((0.0, 1.0, 2.0), 1.0), ((0.0, 1.0), 0.0), ((0.3, 1.1, 2.9, 7.0, 7.5), 2.9), ((0.0, 0.5, 1.7, 4.0), 1.7),
    ])
    def test_anchored_rows_are_gamma_row_at_each_time(self, kind, transform, times, knot):
        grid = TimeGrid(times, knot=knot)
        basis = AnchoredKnotBasis(kind, grid, transform)
        for d in enumerate_cais(SmartDesign.balanced(kind)):
            want = np.stack([basis.gamma_row(t, d) for t in times])
            # the same floating-point operations: equal bytes, signs of zero included
            assert basis.gamma_rows(times, d).tobytes() == want.tobytes()


class TestMu:
    def test_parameter_counts_by_design(self, grid012):
        expected = {DesignKind.II: 7, DesignKind.I: 9, DesignKind.III: 6, DesignKind.IV: 7}
        for kind, n in expected.items():
            spec = MeanModelSpec.piecewise_linear(SmartDesign.balanced(kind), grid012)
            assert spec.n_gamma == n

    def test_reported_fit_baseline_value(self, pl_spec):
        # published estimates reduce to the intercept at t=0
        theta = theta_for(pl_spec, [0.502, 0.142, -0.041, 0.046, 0.005, 0.020, 0.000])
        assert mu(pl_spec, D11, (), 0.0, theta) == pytest.approx(0.502)

    def test_pre_knot_regimes_indistinguishable(self, pl_spec):
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = theta_for(pl_spec, rng.normal(size=7))
            for t in (0.0, 0.4, 1.0):
                assert mu(pl_spec, D11, (), t, theta) == mu(pl_spec, D1M, (), t, theta)
                assert mu(pl_spec, DM1, (), t, theta) == mu(pl_spec, DMM, (), t, theta)

    def test_sqrt_basis_plateau_value(self, design2):
        grid = TimeGrid(times=(0.0, 1.0, 4.0), knot=1.0)
        spec = MeanModelSpec.piecewise_sqrt(design2, grid)
        theta = theta_for(spec, [0, 1, 0, 0, 0, 0, 0])
        # with only the shared slope set, the post-knot value stays sqrt(knot)
        assert mu(spec, D11, (), 4.0, theta) == pytest.approx(1.0)

    def test_exact_linearity(self, pl_spec):
        rng = np.random.default_rng(11)
        for _ in range(50):
            theta = theta_for(pl_spec, rng.normal(size=7))
            d = [D11, D1M, DM1, DMM][rng.integers(4)]
            t = float(rng.uniform(0, 2))
            row = design_row(pl_spec, d, (), t)
            assert mu(pl_spec, d, (), t, theta) == pytest.approx(
                float(row @ theta.full), rel=0, abs=1e-15
            )

    def test_knot_continuity(self, design2):
        grid = TimeGrid(times=(0.0, 1.0, 2.0), knot=1.0)
        rng = np.random.default_rng(17)
        eps = 1e-8
        for transform in ("piecewise_linear", "piecewise_sqrt"):
            spec = getattr(MeanModelSpec, transform)(design2, grid)
            for _ in range(10):
                theta = theta_for(spec, rng.normal(size=7))
                for d in (D11, D1M, DM1, DMM):
                    lo = mu(spec, d, (), grid.knot - eps, theta)
                    hi = mu(spec, d, (), grid.knot + eps, theta)
                    assert abs(hi - lo) <= 1e-6 * np.abs(theta.full).max()

    def test_time_out_of_range(self, pl_spec):
        theta = theta_for(pl_spec, np.zeros(7))
        with pytest.raises(TimeOutOfRange):
            mu(pl_spec, D11, (), 2.5, theta)

    def test_unknown_cai(self, pl_spec):
        theta = theta_for(pl_spec, np.zeros(7))
        with pytest.raises(UnknownCai):
            mu(pl_spec, EmbeddedCai(1, 1, 1), (), 1.0, theta)


class TestDesignRow:
    def test_baseline_row(self, pl_spec):
        np.testing.assert_allclose(design_row(pl_spec, D11, (), 0.0), [1, 0, 0, 0, 0, 0, 0])

    def test_knot_row(self, pl_spec):
        np.testing.assert_allclose(design_row(pl_spec, D11, (), 1.0), [1, 1, 1, 0, 0, 0, 0])

    def test_end_row(self, pl_spec):
        np.testing.assert_allclose(design_row(pl_spec, D11, (), 2.0), [1, 1, 1, 1, 1, 1, 1])

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_matches_finite_differences(self, kind, grid012):
        design = SmartDesign.balanced(kind)
        spec = MeanModelSpec.piecewise_linear(design, grid012)
        rng = np.random.default_rng(23)
        from smartlong import enumerate_cais

        for d in enumerate_cais(design):
            for t in (0.0, 0.7, 1.0, 1.3, 2.0):
                row = design_row(spec, d, (), t)
                grad = fd_gradient(spec, d, (), t, spec.n_params)
                np.testing.assert_allclose(row, grad, rtol=1e-6, atol=1e-6)

    def test_custom_basis_finite_differences(self, design2, grid012):
        basis = CustomBasis(
            functions=[
                lambda t, d: 1.0,
                lambda t, d: np.sin(t),
                lambda t, d: d.a1 * t**2,
                lambda t, d: (d.a2nr or 0) * max(t - 1.0, 0.0) ** 2,
            ],
            grid=grid012,
            quadrature=True,
        )
        spec = MeanModelSpec.custom(design2, grid012, basis, covariate_terms=("x",))
        for t in (0.0, 0.9, 1.7):
            row = design_row(spec, D1M, (0.3,), t)
            grad = fd_gradient(spec, D1M, (0.3,), t, spec.n_params)
            np.testing.assert_allclose(row, grad, rtol=1e-6, atol=1e-6)

    def test_pre_knot_rows_depend_only_on_a1(self, pl_spec):
        for t in (0.0, 0.5, 1.0):
            np.testing.assert_array_equal(
                design_row(pl_spec, D11, (), t), design_row(pl_spec, D1M, (), t)
            )
            np.testing.assert_array_equal(
                design_row(pl_spec, DM1, (), t), design_row(pl_spec, DMM, (), t)
            )

    def test_stacking_order(self, design2, grid012):
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("w", "z"))
        cl = make_cluster(
            "c", 1, 0, 1,
            [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)],
            x_cluster=(0.7,), x_indiv=[(0.1,), (0.2,)],
        )
        ds = make_dataset([cl], design2, grid012, cluster_covariates=("w",), individual_covariates=("z",))
        M = stack_design_matrix(spec, D11, cl, ds)
        assert M.shape == (6, 9)
        for j in range(2):
            for k, t in enumerate(grid012.times):
                expected = design_row(spec, D11, (0.7, (0.1, 0.2)[j]), t)
                np.testing.assert_allclose(M[j * 3 + k], expected)


class TestContrasts:
    def test_end_of_study_displayed_expansion(self, pl_spec):
        c = contrast_end_of_study(pl_spec, D11, DMM)
        np.testing.assert_allclose(c.c, [0, 0, 2, 0, 2, 2, 0])

    def test_end_of_study_equals_mu_difference(self, pl_spec):
        rng = np.random.default_rng(31)
        c = contrast_end_of_study(pl_spec, D11, DM1)
        for _ in range(20):
            theta = theta_for(pl_spec, rng.normal(size=7))
            direct = mu(pl_spec, D11, (), 2.0, theta) - mu(pl_spec, DM1, (), 2.0, theta)
            assert float(c.c @ theta.full) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_same_regime_rejected(self, pl_spec):
        with pytest.raises(ValueError):
            contrast_end_of_study(pl_spec, D11, D11)
        with pytest.raises(ValueError):
            contrast_auc(pl_spec, DMM, DMM)

    def test_antisymmetry(self, pl_spec):
        for fn in (contrast_end_of_study, contrast_second_stage_slope, contrast_auc):
            c = fn(pl_spec, D11, DMM).c
            c_swap = fn(pl_spec, DMM, D11).c
            np.testing.assert_allclose(c, -c_swap)

    def test_second_stage_slope_values(self, pl_spec):
        np.testing.assert_allclose(
            contrast_second_stage_slope(pl_spec, D11, D1M).c, [0, 0, 0, 0, 0, 2, 2]
        )
        np.testing.assert_allclose(
            contrast_second_stage_slope(pl_spec, D11, DM1).c, [0, 0, 0, 0, 2, 0, 2]
        )

    def test_second_stage_slope_fd_oracle(self, pl_spec):
        rng = np.random.default_rng(37)
        c = contrast_second_stage_slope(pl_spec, D1M, DM1)
        for _ in range(20):
            theta = theta_for(pl_spec, rng.normal(size=7))
            slope = lambda d: (
                mu(pl_spec, d, (), 2.0, theta) - mu(pl_spec, d, (), 1.0, theta)
            ) / 1.0
            assert float(c.c @ theta.full) == pytest.approx(slope(D1M) - slope(DM1), rel=1e-12, abs=1e-12)

    def test_auc_closed_form(self, pl_spec):
        c = contrast_auc(pl_spec, D11, DMM)
        np.testing.assert_allclose(c.c, [0, 0, 1.5, 0, 0.5, 0.5, 0])

    def test_auc_same_first_stage_kills_shared_slope(self, pl_spec):
        c = contrast_auc(pl_spec, D11, D1M)
        assert c.c[2] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("maker", ["piecewise_linear", "piecewise_sqrt"])
    def test_auc_quadrature_oracle(self, design2, maker):
        grid = TimeGrid(times=(0.0, 1.5, 4.0), knot=1.5)
        spec = getattr(MeanModelSpec, maker)(design2, grid)
        rng = np.random.default_rng(41)
        c = contrast_auc(spec, D11, DMM)
        for _ in range(10):
            theta = theta_for(spec, rng.normal(size=7))
            f = lambda t: mu(spec, D11, (), t, theta) - mu(spec, DMM, (), t, theta)
            # integrate each smooth segment separately
            val = quad(f, 0.0, 1.5, epsabs=1e-13, epsrel=1e-13)[0]
            val += quad(f, 1.5, 4.0, epsabs=1e-13, epsrel=1e-13)[0]
            val /= 4.0
            assert float(c.c @ theta.full) == pytest.approx(val, rel=1e-10, abs=1e-12)

    def test_custom_basis_requires_quadrature(self, design2, grid012):
        basis = CustomBasis(
            functions=[lambda t, d: 1.0, lambda t, d: d.a1 * np.sin(t)],
            grid=grid012,
            quadrature=False,
        )
        spec = MeanModelSpec.custom(design2, grid012, basis)
        with pytest.raises(NonIntegrableBasis):
            contrast_auc(spec, D11, DMM)

    def test_custom_basis_simpson_fallback(self, design2, grid012):
        basis = CustomBasis(
            functions=[lambda t, d: 1.0, lambda t, d: d.a1 * np.sin(t)],
            grid=grid012,
            quadrature=True,
        )
        spec = MeanModelSpec.custom(design2, grid012, basis)
        c = contrast_auc(spec, D11, DMM)
        expected = 2.0 * (1.0 - np.cos(2.0)) / 2.0  # 2 sin(t) averaged on [0, 2]
        assert c.c[1] == pytest.approx(expected, rel=1e-9)

    def test_design3_absent_arm_contrast_is_zero_not_error(self, grid012):
        design3 = SmartDesign.balanced(DesignKind.III)
        spec = MeanModelSpec.piecewise_linear(design3, grid012)
        low = EmbeddedCai(-1, None, None)
        c = contrast_end_of_study(spec, EmbeddedCai(1, None, 1), low)
        # the a2nr slope coefficient reflects only the re-randomized arm
        np.testing.assert_allclose(c.c, [0, 0, 2, 0, 2, 1, 0][: spec.n_gamma])

    def test_eta_coordinates_zero(self, design2, grid012):
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("u", "v"))
        for fn in (contrast_end_of_study, contrast_second_stage_slope, contrast_auc):
            c = fn(spec, D11, DMM).c
            assert c.size == 9
            np.testing.assert_array_equal(c[7:], [0.0, 0.0])

    def test_one_time_grid_has_no_span(self, design2):
        grid = TimeGrid(times=(2.0,), knot=2.0)
        with pytest.raises(ValueError):
            AnchoredKnotBasis(DesignKind.II, grid)
        spec = MeanModelSpec.custom(design2, grid, make_saturated_basis(design2, grid))
        assert contrast_end_of_study(spec, D11, DMM).c.tolist() == [1.0, 0.0, 0.0, -1.0]
        with pytest.raises(ValueError):
            contrast_second_stage_slope(spec, D11, DMM)
        with pytest.raises(ValueError):
            contrast_auc(spec, D11, DMM)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_contrast_rejects_nonfinite_entries(self, design2, grid012, bad):
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        with pytest.raises(ValueError, match="must be finite"):
            custom_contrast(spec, [bad, 0, 1, 0, 0, 0, 0], "bad")

    def test_custom_contrast_padding(self, design2, grid012):
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("u",))
        c = custom_contrast(spec, [0, 0, 1, 0, 0, 0, 0], "gamma2")
        assert c.c.size == 8 and c.c[2] == 1.0


class TestSaturatedBasis:
    def test_cell_indicators(self, design2, grid012):
        basis = make_saturated_basis(design2, grid012)
        spec = MeanModelSpec.custom(design2, grid012, basis)
        assert spec.n_gamma == 12
        row = design_row(spec, D1M, (), 1.0)
        assert row.sum() == 1.0
        assert row[basis.labels.index(f"mu[{D1M},t=1]")] == 1.0


class TestRejectedInputs:
    def test_mu_wants_one_value_per_covariate_term(self, pl_spec):
        theta = theta_for(pl_spec, np.zeros(7))
        with pytest.raises(ValueError, match="^expected 0 covariate values, got 1$"):
            mu(pl_spec, D11, (0.3,), 1.0, theta)

    def test_custom_contrast_wants_one_coefficient_per_gamma(self, pl_spec):
        with pytest.raises(ValueError, match="^expected 7 gamma coefficients, got 6$"):
            custom_contrast(pl_spec, np.ones(6), "short")

    def test_contrast_vector_of_zeros(self):
        with pytest.raises(ValueError, match="^contrast vector must be nonzero$"):
            ContrastVector(c=np.zeros(3), label="zero")

    def test_theta_names_must_cover_gamma_and_eta(self):
        with pytest.raises(ValueError, match="^names must cover gamma and eta jointly$"):
            ThetaEstimate(gamma=np.zeros(2), eta=np.zeros(1), names=("a", "b"))

    def test_anchored_basis_transforms(self, grid012):
        with pytest.raises(ValueError, match="^unknown time transform 'log'$"):
            AnchoredKnotBasis(DesignKind.II, grid012, "log")
        negative = TimeGrid(times=(-1.0, 0.0, 1.0), knot=0.0)
        with pytest.raises(ValueError, match="^sqrt transform requires nonnegative times$"):
            AnchoredKnotBasis(DesignKind.II, negative, "sqrt")

    def test_custom_basis_labels_must_match_its_functions(self, grid012):
        with pytest.raises(ValueError, match="^labels must match the number of basis functions$"):
            CustomBasis([lambda t, d: 1.0], grid012, labels=("a", "b"))

    def test_mu_wants_one_theta_entry_per_column(self, pl_spec):
        theta = ThetaEstimate(gamma=np.zeros(6), eta=np.zeros(0), names=pl_spec.param_names[:6])
        with pytest.raises(ValueError, match="^theta has 6 entries, model expects 7$"):
            mu(pl_spec, D11, (), 1.0, theta)

    def test_stack_design_matrix_resolves_covariates_in_the_dataset(self, design2, grid012):
        spec = MeanModelSpec.piecewise_linear(design2, grid012, covariate_terms=("u",))
        cl = make_cluster("c1", 1, 0, 1, [(1.0, 2.0, 3.0)], x_cluster=(0.5,))
        with pytest.raises(ValueError, match="^covariate terms require the dataset for name resolution$"):
            stack_design_matrix(spec, D11, cl)
        other = make_dataset([cl], design2, grid012, cluster_covariates=("w",))
        with pytest.raises(ValueError, match="^covariate 'u' not present in the dataset schema$"):
            stack_design_matrix(spec, D11, cl, other)
