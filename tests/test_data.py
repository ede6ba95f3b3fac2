import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartlong import (
    DesignKind,
    MeanModelSpec,
    SmartDesign,
    TableSchema,
    TimeGrid,
    WorkingCovSpec,
    data,
    fit,
    parse_long_table,
    serialize_long_table,
    validate,
)
from smartlong.errors import (
    BadTreatmentCode,
    InconsistentCluster,
    MissingCell,
    UnknownTime,
)

from conftest import make_cluster, make_dataset, random_design2_dataset


def schema_for(design, grid, **kw):
    return TableSchema(design=design, grid=grid, **kw)


MINIMAL = """cluster_id,individual_id,time,y,a1,r,a2nr
c1,p1,0,1.0,1,0,-1
c1,p1,1,1.5,1,0,-1
c1,p1,2,2.0,1,0,-1
c1,p2,0,0.5,1,0,-1
c1,p2,1,0.7,1,0,-1
c1,p2,2,0.9,1,0,-1
"""


class TestParse:
    def test_minimal_table(self, design2, grid012):
        ds = parse_long_table(MINIMAL, schema_for(design2, grid012))
        assert ds.n_clusters == 1
        cl = ds.clusters[0]
        assert cl.n == 2
        assert cl.a1 == 1 and cl.r == 0 and cl.a2nr == -1
        assert cl.individuals[0].y == (1.0, 1.5, 2.0)

    def test_tab_delimited(self, design2, grid012):
        ds = parse_long_table(MINIMAL.replace(",", "\t"), schema_for(design2, grid012))
        assert ds.clusters[0].individuals[1].y == (0.5, 0.7, 0.9)

    def test_responder_with_a2nr_rejected(self, design2, grid012):
        # design II responders are never re-randomized
        bad = MINIMAL.replace(",1,0,-1", ",1,1,-1")
        with pytest.raises(InconsistentCluster):
            parse_long_table(bad, schema_for(design2, grid012))

    def test_missing_outcome_cell(self, design2, grid012):
        bad = MINIMAL.replace("c1,p2,2,0.9,1,0,-1\n", "")
        with pytest.raises(MissingCell):
            parse_long_table(bad, schema_for(design2, grid012))

    def test_empty_outcome_field(self, design2, grid012):
        bad = MINIMAL.replace("c1,p1,1,1.5", "c1,p1,1,")
        with pytest.raises(MissingCell):
            parse_long_table(bad, schema_for(design2, grid012))

    def test_unknown_time(self, design2, grid012):
        bad = MINIMAL.replace("c1,p1,1,1.5", "c1,p1,0.5,1.5")
        with pytest.raises(UnknownTime):
            parse_long_table(bad, schema_for(design2, grid012))

    def test_bad_treatment_code(self, design2, grid012):
        bad = MINIMAL.replace(",1,0,-1", ",2,0,-1")
        with pytest.raises(BadTreatmentCode):
            parse_long_table(bad, schema_for(design2, grid012))

    def test_conflicting_rows_within_cluster(self, design2, grid012):
        bad = MINIMAL.replace("c1,p2,2,0.9,1,0,-1", "c1,p2,2,0.9,-1,0,-1")
        with pytest.raises(InconsistentCluster):
            parse_long_table(bad, schema_for(design2, grid012))

    def test_duplicate_time_row(self, design2, grid012):
        bad = MINIMAL + "c1,p1,2,9.9,1,0,-1\n"
        with pytest.raises(InconsistentCluster):
            parse_long_table(bad, schema_for(design2, grid012))

    @pytest.mark.parametrize("value", ["nan", "inf", "NA", "abc"])
    def test_nonfinite_covariate_names_column_and_line(self, design2, grid012, value):
        text = MINIMAL.replace("a2nr\n", "a2nr,u\n").replace("-1\n", "-1,0.5\n")
        bad = text.replace("c1,p2,1,0.7,1,0,-1,0.5", f"c1,p2,1,0.7,1,0,-1,{value}")
        with pytest.raises(MissingCell, match=f"line 6: covariate 'u' is '{value}'"):
            parse_long_table(bad, schema_for(design2, grid012, cluster_covariates=("u",)))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_outcome_names_line(self, design2, grid012, value):
        bad = MINIMAL.replace("c1,p2,1,0.7", f"c1,p2,1,{value}")
        with pytest.raises(MissingCell, match=f"line 6: outcome is '{value}'"):
            parse_long_table(bad, schema_for(design2, grid012))

    def test_covariates_and_custom_codes(self, design2, grid012):
        text = (
            "school,sp,week,cbt,coach,resp,facil,lunch\n"
            "s1,a,0,1.0,yes,no,none,0.5\n"
            "s1,a,1,2.0,yes,no,none,0.5\n"
            "s1,a,2,3.0,yes,no,none,0.5\n"
        )
        # responders only exist once r codes map: here a non-responder cluster
        text = text.replace("no,none", "no,add")
        schema = TableSchema(
            design=design2,
            grid=grid012,
            columns={
                "cluster_id": "school", "individual_id": "sp", "time": "week",
                "y": "cbt", "a1": "coach", "r": "resp", "a2nr": "facil",
            },
            cluster_covariates=("lunch",),
            a1_codes={"yes": 1, "no": -1},
            r_codes={"no": 0, "yes": 1},
            a2_codes={"add": 1, "none": -1},
        )
        ds = parse_long_table(text, schema)
        assert ds.clusters[0].a1 == 1
        assert ds.clusters[0].a2nr == 1
        assert ds.clusters[0].x_cluster == (0.5,)

    def test_asic_sized_table(self, design2):
        # 94 clusters, sizes in {1,2,3}, 45 weekly times: structural check
        rng = np.random.default_rng(0)
        grid = TimeGrid(times=tuple(float(t) for t in range(45)), knot=9.0)
        ds = random_design2_dataset(rng, 94, grid, design2)
        text = serialize_long_table(ds)
        ds2 = parse_long_table(text, schema_for(design2, grid))
        assert ds2.n_clusters == 94
        assert all(len(ind.y) == 45 for cl in ds2.clusters for ind in cl.individuals)


class TestValidate:
    def test_well_formed_empty_report(self, design2, grid012):
        rng = np.random.default_rng(1)
        ds = random_design2_dataset(rng, 12, grid012, design2)
        report = validate(ds)
        assert report.ok
        assert report.violations == ()

    def test_short_outcome_vector(self, design2, grid012):
        cl = make_cluster("c1", 1, 0, -1, [(1.0, 2.0)])  # length 2, grid has 3
        report = validate(make_dataset([cl], design2, grid012))
        assert any(v.code == "MissingCell" for v in report.violations)

    def test_design3_a2nr_on_wrong_arm(self, grid012):
        design3 = SmartDesign.balanced(DesignKind.III)
        cl = make_cluster("c1", -1, 0, 1, [(1.0, 2.0, 3.0)])
        report = validate(make_dataset([cl], design3, grid012))
        assert any(v.code == "design-consistency" for v in report.violations)

    @pytest.mark.parametrize("level", ["cluster", "individual"])
    def test_nonfinite_covariate(self, design2, grid012, level):
        xc, xi = ((math.nan,), [(0.0,)]) if level == "cluster" else ((0.0,), [(math.inf,)])
        cl = make_cluster("c1", 1, 0, -1, [(1.0, 2.0, 3.0)], x_cluster=xc, x_indiv=xi)
        report = validate(make_dataset([cl], design2, grid012, ("u",), ("v",)))
        assert [v.code for v in report.violations] == ["NonFiniteCovariate"]

    def test_uncovered_cai_is_warning_not_violation(self, design2, grid012):
        cl = make_cluster("c1", 1, 0, 1, [(1.0, 2.0, 3.0)])
        report = validate(make_dataset([cl], design2, grid012))
        assert report.ok
        assert len(report.warnings) == 3  # (1,-1), (-1,1), (-1,-1) uncovered


class TestValidateOnce:
    @pytest.fixture
    def pathway_calls(self, monkeypatch):
        calls = []
        original = data._pathway_violation

        def counted(cl, kind):
            calls.append(cl.cluster_id)
            return original(cl, kind)

        monkeypatch.setattr(data, "_pathway_violation", counted)
        return calls

    def test_parse_then_fit_validates_once(self, design2, grid012, pathway_calls):
        rng = np.random.default_rng(40)
        text = serialize_long_table(random_design2_dataset(rng, 20, grid012, design2))
        ds = parse_long_table(text, schema_for(design2, grid012))
        fit(ds, MeanModelSpec.piecewise_linear(design2, grid012), WorkingCovSpec.independent_homoscedastic())
        assert sorted(pathway_calls) == sorted(cl.cluster_id for cl in ds.clusters)

    def test_equal_and_invalid_datasets_are_checked_in_full(self, design2, grid012, pathway_calls):
        rng = np.random.default_rng(41)
        ds = random_design2_dataset(rng, 12, grid012, design2)
        report = validate(ds)
        assert validate(ds) is report
        assert len(pathway_calls) == 12
        assert validate(replace(ds)) == report
        assert len(pathway_calls) == 24
        bad = replace(ds.clusters[0], a2r=1)
        invalid = replace(ds, clusters=(bad, *ds.clusters[1:]))
        assert [v.code for v in validate(invalid).violations] == ["design-consistency"]
        assert len(pathway_calls) == 36
        assert validate(ds) == report
        assert len(pathway_calls) == 48


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_clusters=st.integers(1, 8))
    def test_serialize_parse_round_trip(self, seed, n_clusters):
        rng = np.random.default_rng(seed)
        design = SmartDesign.balanced(DesignKind.II)
        grid = TimeGrid(times=(0.0, 1.0, 2.0), knot=1.0)
        ds = random_design2_dataset(
            rng, n_clusters, grid, design,
            cluster_covariates=("u",), individual_covariates=("v",),
        )
        text = serialize_long_table(ds)
        ds2 = parse_long_table(
            text,
            schema_for(design, grid, cluster_covariates=("u",), individual_covariates=("v",)),
        )
        assert ds2 == ds

    def test_row_permutation_invariance(self, design2, grid012):
        rng = np.random.default_rng(3)
        ds = random_design2_dataset(rng, 5, grid012, design2)
        text = serialize_long_table(ds)
        header, *rows = text.strip().split("\n")
        rng.shuffle(rows)
        shuffled = "\n".join([header, *rows]) + "\n"
        assert parse_long_table(shuffled, schema_for(design2, grid012)) == ds


class TestTimeGrid:
    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            TimeGrid(times=(0.0, 0.0, 1.0), knot=0.0)

    def test_rejects_knot_outside(self):
        with pytest.raises(ValueError):
            TimeGrid(times=(0.0, 1.0), knot=1.0)  # knot must precede the last time

    def test_one_time_grid_needs_knot_at_its_time(self):
        grid = TimeGrid(times=(3.0,), knot=3.0)
        assert grid.n_times == 1 and grid.t_end == 3.0 and grid.knot_index == 0
        with pytest.raises(ValueError):
            TimeGrid(times=(3.0,), knot=2.0)
        with pytest.raises(ValueError):
            TimeGrid(times=(), knot=0.0)

    def test_knot_index(self):
        grid = TimeGrid(times=(0.0, 1.0, 2.0, 5.0), knot=1.5)
        assert grid.knot_index == 1
