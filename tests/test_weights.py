from dataclasses import replace

import numpy as np
import pytest

from smartlong import (
    FitOptions,
    MeanModelSpec,
    WeightMode,
    fit,
)
from smartlong.errors import RankDeficient, Separation
from smartlong.gee import (
    _logistic_mle, _score_corrected_q, _Workspace, estimate_weight_model, sandwich_covariance,
)
from smartlong import WorkingCovSpec

from conftest import make_cluster, make_dataset, random_dataset, random_design2_dataset

IID = WorkingCovSpec.independent_homoscedastic()


def balanced_dataset(design2, grid012, reps=2):
    """Exactly balanced arms: frequencies reproduce the design probabilities."""
    clusters = []
    idx = 0
    for _ in range(reps):
        for a1 in (1, -1):
            clusters.append(make_cluster(f"r{idx}", a1, 1, None, [(1.0, 2.0, 3.0)]))
            idx += 1
            for a2 in (1, -1):
                clusters.append(
                    make_cluster(f"n{idx}", a1, 0, a2, [(0.0, 1.0, float(idx % 3))])
                )
                idx += 1
    return make_dataset(clusters, design2, grid012)


class TestWeightModel:
    def test_saturated_mle_equals_frequencies(self, design2, grid012):
        ds = balanced_dataset(design2, grid012)
        wm = estimate_weight_model(ds)
        clusters = ds.clusters  # canonical order
        # balanced by construction: responders 2, non-responders 4
        for cl, w in zip(clusters, wm.fitted_weights):
            assert w == pytest.approx(2.0 if cl.r == 1 else 4.0, rel=1e-6)

    def test_unbalanced_frequencies(self, design2, grid012):
        clusters = [
            make_cluster("a", 1, 0, 1, [(0.0, 0.0, 0.0)]),
            make_cluster("b", 1, 0, 1, [(0.0, 0.0, 0.0)]),
            make_cluster("c", 1, 0, -1, [(0.0, 0.0, 0.0)]),
            make_cluster("d", -1, 0, 1, [(0.0, 0.0, 0.0)]),
            make_cluster("e", -1, 0, -1, [(0.0, 0.0, 0.0)]),
            make_cluster("f", -1, 1, None, [(0.0, 0.0, 0.0)]),
        ]
        ds = make_dataset(clusters, design2, grid012)
        wm = estimate_weight_model(ds)
        by_id = dict(zip(sorted(c.cluster_id for c in clusters), wm.fitted_weights))
        # P(A1=+1) = 3/6; P(A2=+1 | +1, nr) = 2/3; P(A2=+1 | -1, nr) = 1/2
        assert by_id["a"] == pytest.approx(1.0 / (0.5 * (2 / 3)), rel=1e-6)
        assert by_id["c"] == pytest.approx(1.0 / (0.5 * (1 / 3)), rel=1e-6)
        assert by_id["f"] == pytest.approx(2.0, rel=1e-6)

    def test_score_sum_vanishes(self, design2, grid012):
        rng = np.random.default_rng(21)
        ds = random_design2_dataset(
            rng, 80, grid012, design2, sizes=(2, 3), cluster_covariates=("x",)
        )
        wm = estimate_weight_model(ds, stage1_covariates=("x",), stage2_covariates=("x",))
        assert wm.score_sum_norm < 1e-6

    @pytest.mark.parametrize("stage", ["stage1_covariates", "stage2_covariates"])
    def test_a_bare_string_of_covariates_is_rejected(self, design2, grid012, stage):
        rng = np.random.default_rng(21)
        ds = random_design2_dataset(rng, 40, grid012, design2, sizes=(2, 3), cluster_covariates=("x",))
        with pytest.raises(TypeError, match=f"{stage} must be a sequence of names, not the string 'x'"):
            estimate_weight_model(ds, **{stage: "x"})

    def test_probabilities_valid(self, design2, grid012):
        rng = np.random.default_rng(22)
        ds = random_design2_dataset(rng, 60, grid012, design2, cluster_covariates=("x",))
        wm = estimate_weight_model(ds, stage1_covariates=("x",), stage2_covariates=("x",))
        assert np.all(wm.fitted_weights > 1.0)
        assert np.all(np.isfinite(wm.fitted_weights))

    def test_separation_falls_back_to_design(self, design2, grid012):
        # every non-responder of the +1 arm got a2 = +1: that cell separates
        clusters = [
            make_cluster("a", 1, 0, 1, [(0.0, 0.0, 0.0)]),
            make_cluster("b", 1, 0, 1, [(0.0, 0.0, 0.0)]),
            make_cluster("c", -1, 0, 1, [(0.0, 0.0, 0.0)]),
            make_cluster("d", -1, 0, -1, [(0.0, 0.0, 0.0)]),
            make_cluster("e", 1, 1, None, [(0.0, 0.0, 0.0)]),
        ]
        ds = make_dataset(clusters, design2, grid012)
        wm = estimate_weight_model(ds)
        assert (1, 0) in wm.fallback_cells
        by_id = dict(zip(sorted(c.cluster_id for c in clusters), wm.fitted_weights))
        # fallback cell uses the design probability 0.5
        assert by_id["a"] == pytest.approx(1.0 / ((3 / 5) * 0.5), rel=1e-6)

    def test_singular_information_falls_back_to_design(self, design2, grid012):
        # an all-zero covariate leaves every stage-two information matrix singular
        rng = np.random.default_rng(23)
        ds = random_design2_dataset(rng, 40, grid012, design2, cluster_covariates=("z",))
        zero = replace(ds, clusters=tuple(replace(cl, x_cluster=(0.0,)) for cl in ds.clusters))
        wm = estimate_weight_model(zero, stage2_covariates=("z",))
        cells = sorted(design2.p_a2_given)
        assert wm.fallback_cells == tuple(cells)
        for cell in cells:
            p = design2.p_a2_given[cell]
            np.testing.assert_array_equal(wm.stage2_coef[cell], [np.log(p / (1.0 - p)), 0.0])
        assert len(wm.score_blocks) == 1  # stage one alone was fitted

    def test_score_that_does_not_vanish_is_separation(self):
        X, y = np.ones((10, 1)), np.repeat([1.0, 0.0], [6, 4])
        with pytest.raises(Separation, match="^weight-model score did not vanish$"):
            _logistic_mle(X, y, max_iter=1)
        assert 1.0 / (1.0 + np.exp(-_logistic_mle(X, y)[0])) == pytest.approx(0.6, rel=1e-12)

    def test_stage_two_covariate_must_be_cluster_level(self, design2, grid012):
        rng = np.random.default_rng(24)
        ds = random_design2_dataset(rng, 40, grid012, design2, cluster_covariates=("x",), individual_covariates=("v",))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        options = FitOptions(weight_mode=WeightMode.ESTIMATED, stage2_covariates=("v",))
        with pytest.raises(ValueError, match="^weight-model covariate 'v' must be a cluster-level covariate$"):
            fit(ds, spec, IID, options)

    @pytest.mark.parametrize(
        "scale,shift", [(1e-3, 0.0), (1e3, 0.0), (1.0, 100.0)], ids=["milli", "kilo", "shifted"]
    )
    def test_covariate_units_do_not_change_the_model(self, design2, grid012, scale, shift):
        # an affine map of a covariate leaves the fitted probabilities alone,
        # so it must not turn a model into a fallback: at x 1e-3 the
        # coefficient of u is -30 in stage one, of v up to 346 in stage two
        ds = random_dataset(np.random.default_rng(3), 400, grid012, design2, (1, 2), ("u", "v"))
        mapped = replace(ds, clusters=tuple(
            replace(cl, x_cluster=tuple(v * scale + shift for v in cl.x_cluster)) for cl in ds.clusters
        ))
        base, moved = (estimate_weight_model(d, ("u",), ("v",)) for d in (ds, mapped))
        assert moved.fallback_cells == base.fallback_cells == ()
        np.testing.assert_allclose(moved.fitted_weights, base.fitted_weights, rtol=1e-10, atol=0)


class TestCorrectedSandwich:
    def test_zero_scores_equal_plain_sandwich(self, design2, grid012):
        rng = np.random.default_rng(23)
        ds = random_design2_dataset(rng, 50, grid012, design2, sizes=(2,))
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(ds, spec, IID)
        ws = _Workspace(ds, spec)
        U = ws.u_rows(res.theta.full, ws.factorize(res.alpha))
        q = _score_corrected_q(res.q_hat, U, np.zeros((res.n_clusters, 3)))
        assert q is res.q_hat
        corrected = sandwich_covariance(res.j_hat, q, res.n_clusters)
        np.testing.assert_allclose(corrected, res.sigma_theta, atol=1e-15)

    def test_duplicated_score_columns_are_rejected(self):
        # U'S is nonzero, so the projection needs S'S / N, which is singular
        rng = np.random.default_rng(25)
        U = rng.normal(size=(40, 3))
        s = U[:, :1] + rng.normal(size=(40, 1))
        with pytest.raises(RankDeficient, match="score outer-product matrix is singular"):
            _score_corrected_q(U.T @ U / 40, U, np.hstack((s, s)))

    def test_correction_never_inflates_diagonal(self, design2, grid012):
        spec_cache = None
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            ds = random_design2_dataset(
                rng, 60, grid012, design2, sizes=(2, 3), cluster_covariates=("x",)
            )
            spec = MeanModelSpec.piecewise_linear(design2, grid012)
            res = fit(
                ds, spec, IID,
                FitOptions(weight_mode=WeightMode.ESTIMATED, stage1_covariates=("x",), stage2_covariates=("x",)),
            )
            wm = res.weight_model
            # rebuild the uncorrected meat for comparison
            ws = _Workspace(ds, spec, wm.fitted_weights)
            factors = ws.factorize(res.alpha) if res.iterations else ws.identity()
            U = ws.u_rows(res.theta.full, factors)
            q_plain = U.T @ U / res.n_clusters
            np.testing.assert_array_compare(
                lambda a, b: a <= b + 1e-12, np.diag(res.q_hat), np.diag(q_plain)
            )
            # PSD order: q_plain - q_hat is positive semidefinite
            diff = q_plain - res.q_hat
            assert np.linalg.eigvalsh(diff)[0] > -1e-10

    def test_estimated_mode_end_to_end(self, design2, grid012):
        rng = np.random.default_rng(24)
        ds = random_design2_dataset(
            rng, 100, grid012, design2, sizes=(2,), cluster_covariates=("x",),
            mean_fn=lambda a1, r, a2nr, t: 0.3 * t,
        )
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        res = fit(
            ds, spec, IID,
            FitOptions(weight_mode=WeightMode.ESTIMATED, stage1_covariates=("x",), stage2_covariates=("x",)),
        )
        assert res.weight_mode is WeightMode.ESTIMATED
        assert res.weight_model is not None
        assert res.weight_model.score_sum_norm < 1e-6
        assert np.linalg.eigvalsh(res.sigma_theta)[0] >= -1e-14
