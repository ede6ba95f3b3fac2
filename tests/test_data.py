import copy
import csv
import io
import itertools
import math
import pickle
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartlong import (
    AdjustmentOptions,
    DesignKind,
    FitOptions,
    MeanModelSpec,
    SmartDesign,
    TableSchema,
    TimeGrid,
    TrialDataset,
    WeightMode,
    WorkingCovSpec,
    contrast_auc,
    contrast_end_of_study,
    contrast_second_stage_slope,
    data,
    enumerate_cais,
    fit,
    fit_end_of_study,
    parse_long_table,
    serialize_long_table,
    stack_design_matrix,
    validate,
    wald_test,
)
from smartlong.errors import (
    BadTreatmentCode,
    InconsistentCluster,
    MissingCell,
    SmartlongError,
    UnknownTime,
)
from smartlong.gee import _Workspace

from conftest import (
    make_cluster, make_dataset, permuted, random_dataset, random_design2_dataset, regime_design,
)


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

    def test_empty_input_has_no_header(self, design2, grid012):
        with pytest.raises(MissingCell, match="^empty input: header row required$"):
            parse_long_table("", schema_for(design2, grid012))

    def test_missing_outcome_cell(self, design2, grid012):
        bad = MINIMAL.replace("c1,p2,2,0.9,1,0,-1\n", "")
        with pytest.raises(MissingCell):
            parse_long_table(bad, schema_for(design2, grid012))

    def test_empty_outcome_field(self, design2, grid012):
        bad = MINIMAL.replace("c1,p1,1,1.5", "c1,p1,1,")
        with pytest.raises(MissingCell):
            parse_long_table(bad, schema_for(design2, grid012))

    @pytest.mark.parametrize("value", ["0.5", "nan", "inf"])
    def test_unknown_time(self, design2, grid012, value):
        bad = MINIMAL.replace("c1,p1,1,1.5", f"c1,p1,{value},1.5")
        with pytest.raises(UnknownTime, match=fr"^line 3: time {value} is not on the grid \(0.0, 1.0, 2.0\)$"):
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

    def test_time_cells_are_read_as_numbers(self, design2, grid012):
        schema = schema_for(design2, grid012)
        text = MINIMAL.replace("c1,p1,0,", "c1,p1,-0,").replace("c1,p1,1,", "c1,p1, 1e0 ,")
        text = text.replace("c1,p2,1,", "c1,p2,+1.0,")
        assert parse_long_table(text, schema) == parse_long_table(MINIMAL, schema)

    def test_column_named_twice_in_header(self, design2, grid012):
        twice = MINIMAL.replace("a2nr\n", "a2nr,y\n").replace("-1\n", "-1,9.0\n")
        with pytest.raises(MissingCell, match=r"^column 'y' \(for 'y'\) appears more than once in the header$"):
            parse_long_table(twice, schema_for(design2, grid012))
        twice = MINIMAL.replace("a2nr\n", "a2nr,u,u\n").replace("-1\n", "-1,0.5,0.5\n")
        with pytest.raises(MissingCell, match="^covariate column 'u' appears more than once in the header$"):
            parse_long_table(twice, schema_for(design2, grid012, individual_covariates=("u",)))
        # a column the schema does not read may repeat
        assert parse_long_table(twice, schema_for(design2, grid012)) == parse_long_table(
            MINIMAL, schema_for(design2, grid012)
        )


# A design-II table with a cluster covariate u and an individual covariate v:
# five individuals in three clusters, lines 2-16, three times each.
CHAR_HEADER = "cluster_id,individual_id,time,y,a1,r,a2nr,u,v"
CHAR_FIELDS = CHAR_HEADER.split(",")
CHAR_PEOPLE = [
    ("c1", "p1", "1", "0", "-1", "0.5", "1.0"),
    ("c1", "p2", "1", "0", "-1", "0.5", "2.0"),
    ("c2", "p1", "-1", "1", "NA", "-0.25", "0.0"),
    ("c3", "p1", "-1", "0", "1", "1.5", "-1.0"),
    ("c3", "p2", "-1", "0", "1", "1.5", "3.0"),
]
CHAR_ROWS = [
    [cid, iid, str(t), f"{k + 0.1 * t:.1f}", a1, r, a2nr, u, v]
    for k, (cid, iid, a1, r, a2nr, u, v) in enumerate(CHAR_PEOPLE)
    for t in range(3)
]
# one failing check per mutation: (rank in the parser's check order, field, new
# value); a mutated line is never the first of its cluster or individual
MUTATIONS = {
    "field_count": (0, None, "extra"),
    "y_missing": (1, "y", ""),
    "y_nonnumeric": (2, "y", "abc"),
    "t_nonnumeric": (2, "time", "x"),
    "y_nonfinite": (3, "y", "nan"),
    "t_unknown": (4, "time", "0.5"),
    "a1_code": (5, "a1", "2"),
    "a1_outside": (5, "a1", "0"),
    "r_code": (6, "r", "5"),
    "a2nr_code": (7, "a2nr", "7"),
    "u_nonfinite": (8, "u", "inf"),
    "v_nonfinite": (9, "v", "NA"),
    "pathway": (10, "r", "1"),
    "xc": (11, "u", "9.5"),
    "dup_time": (12, "time", "0"),
    "xi": (13, "v", "9.5"),
}
MUTATION_ERRORS = {
    "field_count": (InconsistentCluster, "line {}: expected 9 fields, got 10"),
    "y_missing": (MissingCell, "line {}: missing outcome for cluster '{}'"),
    "y_nonnumeric": (MissingCell, "line {}: non-numeric outcome or time"),
    "t_nonnumeric": (MissingCell, "line {}: non-numeric outcome or time"),
    "y_nonfinite": (MissingCell, "line {}: outcome is 'nan', not a finite number"),
    "t_unknown": (UnknownTime, "line {}: time 0.5 is not on the grid (0.0, 1.0, 2.0)"),
    "a1_code": (BadTreatmentCode, "line {}: unknown a1 code '2'"),
    "a1_outside": (BadTreatmentCode, "line {}: a1 code '0' maps outside (-1, 1)"),
    "r_code": (BadTreatmentCode, "line {}: unknown r code '5'"),
    "a2nr_code": (BadTreatmentCode, "line {}: unknown a2nr code '7'"),
    "u_nonfinite": (MissingCell, "line {}: covariate 'u' is 'inf', not a finite number"),
    "v_nonfinite": (MissingCell, "line {}: covariate 'v' is 'NA', not a finite number"),
    "pathway": (InconsistentCluster, "line {}: cluster '{}' rows disagree on treatment/response"),
    "xc": (InconsistentCluster, "line {}: cluster '{}' rows disagree on cluster covariates"),
    "dup_time": (InconsistentCluster, "line {}: duplicate time 0.0 for individual '{}' in cluster '{}'"),
    "xi": (InconsistentCluster, "line {}: individual '{}' rows disagree on covariates"),
}


def char_schema(design2, grid012):
    return schema_for(
        design2, grid012, cluster_covariates=("u",), individual_covariates=("v",),
        a1_codes={"1": 1, "-1": -1, "0": 0},
    )


def char_table(mutations=(), rows=CHAR_ROWS, header=CHAR_HEADER):
    """The table with each (line, mutation name) applied."""
    rows = [list(row) for row in rows]
    for line, name in mutations:
        _, name_of_field, value = MUTATIONS[name]
        row = rows[line - 2]
        if name_of_field is None:
            row.append(value)
        else:
            row[CHAR_FIELDS.index(name_of_field)] = value
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def expected_error(name, line, rows=CHAR_ROWS):
    cls, template = MUTATION_ERRORS[name]
    cid, iid = rows[line - 2][:2]
    ids = {"y_missing": (cid,), "pathway": (cid,), "xc": (cid,), "dup_time": (iid, cid), "xi": (iid,)}
    return cls, template.format(line, *ids.get(name, ()))


def raised(text, schema):
    with pytest.raises(SmartlongError) as info:
        parse_long_table(text, schema)
    return type(info.value), str(info.value)


class TestParseCharacterization:
    """Which error the parser raises, and where, on tables with several faults."""

    def test_unmutated_table_parses(self, design2, grid012):
        ds = parse_long_table(char_table(), char_schema(design2, grid012))
        assert [cl.cluster_id for cl in ds.clusters] == ["c1", "c2", "c3"]

    @pytest.mark.parametrize("name", list(MUTATIONS))
    def test_each_check_names_its_line(self, design2, grid012, name):
        schema = char_schema(design2, grid012)
        for line in (6, 15):
            assert raised(char_table([(line, name)]), schema) == expected_error(name, line)

    def test_earlier_line_wins(self, design2, grid012):
        schema = char_schema(design2, grid012)
        for first, second in itertools.product(MUTATIONS, repeat=2):
            text = char_table([(6, first), (15, second)])
            assert raised(text, schema) == expected_error(first, 6), (first, second)

    def test_check_order_on_one_line(self, design2, grid012):
        schema = char_schema(design2, grid012)
        for a, b in itertools.combinations(MUTATIONS, 2):
            if MUTATIONS[a][1] == MUTATIONS[b][1]:
                continue  # both rewrite the same field
            first = min((a, b), key=lambda name: MUTATIONS[name][0])
            assert raised(char_table([(12, a), (12, b)]), schema) == expected_error(first, 12), (a, b)

    def test_design1_a2r_code(self, grid012):
        # design I: the responder cluster c2 carries a2r, the others a2nr
        design1 = SmartDesign.balanced(DesignKind.I)
        schema = schema_for(design1, grid012, cluster_covariates=("u",), individual_covariates=("v",))
        rows = [row[:7] + ["1" if row[5] == "1" else "NA"] + row[7:] for row in CHAR_ROWS]
        header = CHAR_HEADER.replace("a2nr", "a2nr,a2r")
        assert parse_long_table(char_table(rows=rows, header=header), schema).n_clusters == 3

        def faulty(**cells):
            mutated = [list(row) for row in rows]
            for name, value in cells.items():
                mutated[9 - 2][header.split(",").index(name)] = value
            return char_table(rows=mutated, header=header)

        a2r_fault = (BadTreatmentCode, "line 9: unknown a2r code '7'")
        assert raised(faulty(a2r="7"), schema) == a2r_fault
        assert raised(faulty(a2r="7", u="inf"), schema) == a2r_fault
        assert raised(faulty(a2r="7", a2nr="7"), schema) == (BadTreatmentCode, "line 9: unknown a2nr code '7'")

    def test_far_apart_lines_of_a_long_shuffled_table(self, design2, grid012):
        # references (a cluster's or individual's first row) lie hundreds of
        # lines before the faults
        rng = np.random.default_rng(12)
        rows = []
        for c in range(300):
            a1, r = ("1", "0") if c % 2 else ("-1", "0")
            for p in range(2):
                rows += [[f"c{c:03d}", f"p{p}", str(t), f"{rng.normal():.3f}", a1, r, "1", f"{c}.5", f"{p}.25"]
                         for t in range(3)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        first_line = {}
        for line, row in enumerate(rows, start=2):
            first_line.setdefault((row[0], row[1]), line)
        late = [line for line, row in enumerate(rows, start=2) if line - first_line[row[0], row[1]] > 600]
        early, far = late[0], late[-1]
        assert far - early > 600
        schema = char_schema(design2, grid012)
        names = list(MUTATIONS)
        for i, name in enumerate(names):
            other = names[(i + 1) % len(names)]
            assert raised(char_table([(far, name)], rows), schema) == expected_error(name, far, rows)
            text = char_table([(early, other), (far, name)], rows)
            assert raised(text, schema) == expected_error(other, early, rows)

    def test_missing_outcomes_come_after_rows_and_before_validation(self, design2, grid012):
        schema = char_schema(design2, grid012)
        responder_with_a2nr = [row[:6] + ["1"] + row[7:] if row[0] == "c2" else row for row in CHAR_ROWS]
        assert raised(char_table(rows=responder_with_a2nr), schema) == (
            InconsistentCluster,
            "cluster 'c2': design II: a cluster with a1 = -1, r = 1 carries no second-stage treatment",
        )
        missing = [row for line, row in enumerate(responder_with_a2nr, start=2) if line not in (5, 16)]
        assert raised(char_table(rows=missing), schema) == (
            MissingCell, "cluster 'c1' individual 'p2': missing outcomes at times [0.0]",
        )
        # a fault on a later line still wins over a missing outcome
        text = char_table([(len(missing) + 1, "y_nonfinite")], missing)
        assert raised(text, schema) == expected_error("y_nonfinite", len(missing) + 1, missing)

    def test_blank_rows_are_skipped_but_counted(self, design2, grid012):
        schema = char_schema(design2, grid012)
        want = parse_long_table(char_table(), schema)
        head, *lines = char_table().split("\n")
        blanks = ["", "   ", ",,,,,,,,", " \t, ,", ",,,,,,,,,,,"]
        padded = "\n".join([head, *blanks, *lines])
        assert parse_long_table(padded, schema) == want
        head, *lines = char_table([(6, "xi")]).split("\n")
        padded = "\n".join([head, *blanks, *lines])
        cls, message = expected_error("xi", 6)
        assert raised(padded, schema) == (cls, message.replace("line 6", f"line {6 + len(blanks)}"))

    def test_crlf_line_ends(self, design2, grid012):
        schema = char_schema(design2, grid012)
        text = char_table()
        assert parse_long_table(text.replace("\n", "\r\n"), schema) == parse_long_table(text, schema)
        assert parse_long_table(MINIMAL.replace("\n", "\r\n"), schema_for(design2, grid012)) == (
            parse_long_table(MINIMAL, schema_for(design2, grid012))
        )

    def test_fault_before_an_unreadable_line_wins(self, design2, grid012):
        schema = char_schema(design2, grid012)
        head, *lines = char_table().split("\n")
        lines[13] = lines[13].replace(",", "\r,", 1)  # line 15: a lone CR in an unquoted field
        with pytest.raises(csv.Error):
            parse_long_table("\n".join([head, *lines]), schema)
        head, *lines = char_table([(6, "xi")]).split("\n")
        lines[13] = lines[13].replace(",", "\r,", 1)
        assert raised("\n".join([head, *lines]), schema) == expected_error("xi", 6)

    def test_lone_cr_line_ends_are_one_header_line(self, design2, grid012):
        assert raised(MINIMAL.replace("\n", "\r"), schema_for(design2, grid012)) == (
            MissingCell, "column 'a2nr' (for 'a2nr') missing from header",
        )

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_quoted_ids_round_trip(self, design2, grid012, delimiter):
        ids = sorted(["a,b", "x\ny", 'say "hi"', "tab\there"])
        clusters = [
            make_cluster(cid, 1, 0, a2nr, [(1.0, 2.0, 3.0), (0.5, 0.25, 0.0)])
            for cid, a2nr in zip(ids, (1, -1, 1, -1))
        ]
        clusters = [replace(cl, individuals=tuple(
            replace(ind, individual_id=f"{cl.cluster_id}{delimiter}\n{j}")
            for j, ind in enumerate(cl.individuals)
        )) for cl in clusters]
        ds = make_dataset(clusters, design2, grid012)
        text = serialize_long_table(ds, delimiter=delimiter)
        assert parse_long_table(text, schema_for(design2, grid012)) == ds


# rows of no content, each with or without the header's number of fields
BLANK_ROWS = ["", "   ", "\t", ",,,,,,,,", " \t, ,", " ,\t, , , , , , , "]


@st.composite
def messy_tables(draw):
    """The characterization table's rows, maybe shuffled, with faults, padded
    cells, a NUL, wrong field counts and blank rows: its data lines and line end."""
    rows = [list(row) for row in CHAR_ROWS]
    if draw(st.booleans()):
        rows = [list(row) for row in draw(st.permutations(rows))]
    cells = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(CHAR_FIELDS) - 1))
    for i, name in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(list(MUTATIONS))),
                                 max_size=2)):
        _, name_of_field, value = MUTATIONS[name]
        if name_of_field is None:
            rows[i].append(value)
        else:
            rows[i][CHAR_FIELDS.index(name_of_field)] = value
    pads = st.sampled_from([" ", "\t", "  ", ""])
    for i, j in draw(st.lists(cells, max_size=4)):
        rows[i][j] = draw(pads) + rows[i][j] + draw(pads)
    for i, j in draw(st.lists(cells, max_size=1)):
        rows[i][j] = rows[i][j][:1] + "\0" + rows[i][j][1:]
    for i, longer in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.booleans()), max_size=2)):
        if longer:
            rows[i].append("x")
        else:
            rows[i].pop()
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_ROWS)))
    return lines, draw(st.sampled_from(["\n", "\r\n"]))


def parse_outcome(text, schema, stream):
    """The dataset parsed from ``text``, as a string or a stream, or the class
    and message of the error it raised."""
    try:
        return parse_long_table(io.StringIO(text) if stream else text, schema)
    except (SmartlongError, csv.Error) as exc:
        return type(exc), str(exc)


class TestCovariateNames:
    @pytest.mark.parametrize("name", ["cluster_covariates", "individual_covariates"])
    def test_bare_string_raises(self, design2, grid012, name):
        with pytest.raises(TypeError, match=f"{name} must be a sequence of names, not the string 'age'"):
            TableSchema(design=design2, grid=grid012, **{name: "age"})
        with pytest.raises(TypeError, match=f"{name} must be a sequence of names, not the string 'ab'"):
            TrialDataset(design2, grid012, [], **{name: "ab"})
        assert getattr(TableSchema(design=design2, grid=grid012, **{name: ["age"]}), name) == ("age",)
        assert getattr(TrialDataset(design2, grid012, [], **{name: ["ab"]}), name) == ("ab",)


class TestSplitPath:
    """Chunks split at once into columns read as ``csv.reader`` reads them."""

    @settings(max_examples=60, deadline=None)
    @given(table=messy_tables(), final_newline=st.booleans(), chunk_rows=st.sampled_from([3, 512]))
    def test_same_dataset_or_error_as_csv(self, table, final_newline, chunk_rows):
        design, grid = SmartDesign.balanced(DesignKind.II), TimeGrid(times=(0.0, 1.0, 2.0), knot=1.0)
        schema = char_schema(design, grid)
        lines, end = table
        # a quoted cell, which csv reads back unchanged, sends every row to csv.reader
        first, _, rest = lines[0].partition(",")
        quoted = [f'"{first}"' + (f",{rest}" if "," in lines[0] else ""), *lines[1:]]
        split_text, csv_text = (
            end.join([CHAR_HEADER, *body]) + (end if final_newline else "") for body in (lines, quoted)
        )
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
            want = parse_outcome(csv_text, schema, stream=False)
            for text, stream in itertools.product((split_text, csv_text), (False, True)):
                got = parse_outcome(text, schema, stream)
                if isinstance(want, tuple):
                    assert got == want, (text, stream)
                else:
                    assert_same_columns(got, want)
                    assert got == want

    def test_clean_chunks_are_split_and_others_are_not(self, design2, grid012, monkeypatch):
        schema = char_schema(design2, grid012)
        splits = []
        original = data._split_columns
        monkeypatch.setattr(data, "_split_columns", lambda *args: splits.append(original(*args)) or splits[-1])
        text = char_table()
        want = parse_long_table(text, schema)
        assert len(splits) == 1 and splits[0] is not None
        splits.clear()
        with_nul = text.replace("p2,", "p\0,")
        assert parse_outcome(with_nul, schema, stream=False) == (
            parse_outcome(with_nul.replace("c1,", '"c1",', 1), schema, stream=False)
        )
        assert splits == [None]  # read by csv.reader, row by row
        splits.clear()
        assert parse_long_table(text.replace("c1,", '"c1",', 1), schema) == want
        assert splits == []

    def test_extra_and_missing_fields_in_one_chunk(self, design2, grid012):
        # the chunk has as many cells as lines times fields, but its columns
        # would be out of step from line 6 to line 9
        schema = char_schema(design2, grid012)
        head, *lines = char_table().split("\n")
        lines[4] += ",x"
        lines[7] = lines[7].rpartition(",")[0]
        assert raised("\n".join([head, *lines]), schema) == (InconsistentCluster, "line 6: expected 9 fields, got 10")

    def test_stream_with_carriage_return_line_ends(self, design2, grid012):
        # such a stream yields lines ending at a lone CR, which csv.reader reads as rows
        schema = schema_for(design2, grid012)
        for end in ("\r", "\r\n"):
            stream = io.StringIO(MINIMAL.replace("\n", end), newline="")
            assert parse_long_table(stream, schema) == parse_long_table(MINIMAL, schema)

    @pytest.mark.parametrize("stream", [False, True])
    def test_fields_past_the_csv_limit(self, design2, grid012, stream):
        schema = char_schema(design2, grid012)
        long_id = "c" + "x" * 40
        text = char_table().replace("c3,", f"{long_id},")
        limit = csv.field_size_limit()
        try:
            csv.field_size_limit(32)
            # every chunk is longer than the limit; only one holding a longer field goes to csv
            assert parse_long_table(io.StringIO(char_table()) if stream else char_table(), schema) == (
                parse_long_table(char_table(), schema)
            )
            with pytest.raises(csv.Error, match="field larger than field limit"):
                parse_long_table(io.StringIO(text) if stream else text, schema)
            bad = char_table([(6, "xi")]).replace("c3,", f"{long_id},")
            assert raised(bad, schema) == expected_error("xi", 6)
        finally:
            csv.field_size_limit(limit)


def ordered_rows(order):
    """CHAR_ROWS with the rows of the (person, time) pairs ``order`` first,
    person ``k`` being ``CHAR_PEOPLE[k]``, and the rest after them in order."""
    chosen = [3 * k + t for k, t in order]
    return [CHAR_ROWS[i] for i in chosen + [i for i in range(len(CHAR_ROWS)) if i not in chosen]]


# row orders for the parser's individual-id maps, each read in chunks of 2, 3
# and 512 rows, so that a cluster is met again after its map was dropped
PERSON_ORDERS = {
    # c1's second individual arrives after c2's, in one chunk
    "two_runs_in_one_chunk": [(0, 0), (2, 0), (1, 0)],
    # the same, with chunks of three rows between them
    "two_runs_across_chunks": [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2), (1, 0)],
    # every individual's first time, then every second, then every third:
    # later rows only revisit individuals met before
    "revisits_of_known_people": [(k, t) for t in range(3) for k in range(len(CHAR_PEOPLE))],
}


class TestPersonSlots:
    """The parser keeps a cluster's map of individual ids only while the
    cluster's rows are read, unless its individuals are scattered.  Any row
    order parses as the records route builds the dataset, and a fault on a
    revisited individual names the same line and message."""

    @pytest.mark.parametrize("chunk_rows", [2, 3, 512])
    @pytest.mark.parametrize("order", list(PERSON_ORDERS))
    def test_parses_equal_to_the_records_route(self, design2, grid012, order, chunk_rows):
        schema = char_schema(design2, grid012)
        canonical = parse_long_table(char_table(), schema)
        records = TrialDataset(design2, grid012, list(canonical.clusters), ("u",), ("v",))
        text = char_table(rows=ordered_rows(PERSON_ORDERS[order]))
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
            for stream in (False, True):
                got = parse_outcome(text, schema, stream)
                assert_same_columns(got, records)
                assert got == records

    @pytest.mark.parametrize("chunk_rows", [2, 3, 512])
    @pytest.mark.parametrize("order", list(PERSON_ORDERS))
    @pytest.mark.parametrize("name", ["dup_time", "xi", "xc"])
    def test_faults_on_revisited_individuals_name_their_line(self, design2, grid012, name, order, chunk_rows):
        schema = char_schema(design2, grid012)
        rows = ordered_rows(PERSON_ORDERS[order])
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
            for person in (["c1", "p1"], ["c1", "p2"], ["c3", "p2"]):
                # the individual's last row, a time after its first
                line = max(line for line, row in enumerate(rows, start=2) if row[:2] == person)
                assert rows[line - 2][2] != "0"
                assert raised(char_table([(line, name)], rows), schema) == expected_error(name, line, rows)


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

    def test_cluster_covariate_count_differs_from_schema(self, design2, grid012):
        cl = make_cluster("c1", 1, 0, -1, [(1.0, 2.0, 3.0)], x_cluster=(0.0, 1.0), x_indiv=[(0.0,)])
        ds = make_dataset([cl], design2, grid012, ("u",), ("v",))
        assert [(v.cluster_id, v.code, v.message) for v in validate(ds).violations] == [
            ("c1", "CovariateSchema", "expected 1 cluster covariates, got 2"),
        ]
        with pytest.raises(InconsistentCluster, match="^cluster 'c1': expected 1 cluster covariates, got 2$"):
            fit(ds, MeanModelSpec.piecewise_linear(design2, grid012), WorkingCovSpec())

    def test_record_faults_in_values_raise_missing_cell(self, design2, grid012):
        # as the parser does for the same faults
        rng = np.random.default_rng(11)
        ds = random_design2_dataset(rng, 12, grid012, design2, individual_covariates=("v",))
        first = ds.clusters[0]
        person = first.individuals[0]
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        for bad, message in [
            (replace(person, y=person.y[:2]), f"individual {person.individual_id!r} has 2 outcomes, expected 3"),
            (replace(person, x_individual=(math.inf,)), f"individual {person.individual_id!r} has non-finite covariates"),
        ]:
            broken = replace(ds, clusters=(replace(first, individuals=(bad, *first.individuals[1:])), *ds.clusters[1:]))
            expected = f"^cluster {first.cluster_id!r}: {re.escape(message)}$"
            with pytest.raises(MissingCell, match=expected):
                fit(broken, spec, WorkingCovSpec())
            with pytest.raises(MissingCell, match=expected):
                fit_end_of_study(broken)

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

    def test_report_order_with_faults_columns_cannot_hold(self, design2, grid012):
        three = (1.0, 2.0, 3.0)
        c1 = make_cluster("c1", 1, 0, -1, [(1.0, 2.0), three], x_cluster=(math.nan,), x_indiv=[(0.0,), (0.0,)])
        c1 = replace(c1, individuals=(c1.individuals[0], replace(c1.individuals[1], x_individual=(0.0, 1.0))))
        c2 = make_cluster("c2", 1, 1, -1, [], x_cluster=(0.0,))
        c2_again = make_cluster("c2", 1, 0, 1, [three], x_cluster=(0.0,), x_indiv=[(0.0,)])
        c3 = make_cluster("c3", -1, 0, 1, [(1.0, math.inf, 3.0)], x_cluster=(0.0,), x_indiv=[(math.nan,)])
        report = validate(make_dataset([c3, c2, c1, c2_again], design2, grid012, ("u",), ("v",)))
        assert [(v.cluster_id, v.code, v.message) for v in report.violations] == [
            ("c1", "NonFiniteCovariate", "cluster covariates are not all finite"),
            ("c1", "MissingCell", "individual 'c1-0' has 2 outcomes, expected 3"),
            ("c1", "CovariateSchema", "individual 'c1-1' has 2 covariates, expected 1"),
            ("c2", "design-consistency", "design II: a cluster with a1 = +1, r = 1 carries no second-stage treatment"),
            ("c2", "EmptyCluster", "cluster has no individuals"),
            ("c2", "DuplicateCluster", "duplicate cluster id"),
            ("c3", "MissingCell", "individual 'c3-0' has non-finite outcomes"),
            ("c3", "NonFiniteCovariate", "individual 'c3-0' has non-finite covariates"),
        ]
        assert report.warnings == ()

    def test_duplicate_individual_is_rejected(self, design2, grid012):
        three = (1.0, 2.0, 3.0)
        cl = make_cluster("c1", 1, 0, -1, [three, three, (1.0, math.nan, 3.0)])
        twice = replace(cl, individuals=(cl.individuals[1], cl.individuals[0], replace(cl.individuals[2], individual_id="c1-0")))
        # the same id in another cluster is no duplicate
        other = make_cluster("c2", 1, 0, 1, [three])
        other = replace(other, individuals=(replace(other.individuals[0], individual_id="c1-0"),))
        ds = make_dataset([other, twice], design2, grid012)
        # the repeat, the second in sorted order, is reported before its outcomes
        assert [(v.cluster_id, v.code, v.message) for v in validate(ds).violations] == [
            ("c1", "DuplicateIndividual", "duplicate individual id 'c1-0'"),
            ("c1", "MissingCell", "individual 'c1-0' has non-finite outcomes"),
        ]
        same = make_dataset([other, replace(cl, individuals=cl.individuals[:1] * 2)], design2, grid012)
        assert [v.code for v in validate(same).violations] == ["DuplicateIndividual"]
        spec = MeanModelSpec.piecewise_linear(design2, grid012)
        with pytest.raises(InconsistentCluster, match="cluster 'c1': duplicate individual id 'c1-0'"):
            fit(same, spec, WorkingCovSpec())
        with pytest.raises(InconsistentCluster, match="duplicate time 0.0 for individual 'c1-0' in cluster 'c1'"):
            parse_long_table(serialize_long_table(same), schema_for(design2, grid012))

    def test_second_stage_code_outside_the_signs(self, design2, grid012):
        cl = make_cluster("c1", 1, 0, 5, [(1.0, 2.0, 3.0)])
        report = validate(make_dataset([cl], design2, grid012))
        assert [(v.cluster_id, v.code, v.message) for v in report.violations] == [
            ("c1", "design-consistency", "a2nr must be -1/+1 or absent, got 5"),
        ]

    def test_uncovered_cai_is_warning_not_violation(self, design2, grid012):
        cl = make_cluster("c1", 1, 0, 1, [(1.0, 2.0, 3.0)])
        report = validate(make_dataset([cl], design2, grid012))
        assert report.ok
        assert len(report.warnings) == 3  # (1,-1), (-1,1), (-1,-1) uncovered


def distinct_pathways(ds):
    return {(cl.a1, cl.r, cl.a2nr, cl.a2r) for cl in ds.clusters}


class TestValidateOnce:
    @pytest.fixture
    def pathway_calls(self, monkeypatch):
        calls = []
        original = data._pathway_violation

        def counted(pathway, kind):
            calls.append(tuple(pathway))
            return original(pathway, kind)

        monkeypatch.setattr(data, "_pathway_violation", counted)
        return calls

    def test_parse_then_fit_validates_once(self, design2, grid012, pathway_calls):
        rng = np.random.default_rng(40)
        text = serialize_long_table(random_design2_dataset(rng, 20, grid012, design2))
        pathway_calls.clear()
        ds = parse_long_table(text, schema_for(design2, grid012))
        fit(ds, MeanModelSpec.piecewise_linear(design2, grid012), WorkingCovSpec.independent_homoscedastic())
        # one pass, judging each distinct observed pathway once
        assert len(pathway_calls) == len(set(pathway_calls)) < ds.n_clusters
        assert set(pathway_calls) == distinct_pathways(ds)

    def test_end_of_study_fit_adds_no_pass(self, design2, grid012, pathway_calls):
        rng = np.random.default_rng(42)
        ds = random_design2_dataset(rng, 50, grid012, design2)
        assert set(pathway_calls) == distinct_pathways(ds)
        passes = len(pathway_calls)
        fit_end_of_study(ds)
        assert len(pathway_calls) == passes

    def test_equal_and_invalid_datasets_are_checked_in_full(self, design2, grid012, pathway_calls):
        rng = np.random.default_rng(41)
        ds = random_design2_dataset(rng, 12, grid012, design2)
        per_pass = len(distinct_pathways(ds))
        assert len(pathway_calls) == per_pass
        report = validate(ds)
        assert validate(ds) is report
        assert len(pathway_calls) == per_pass
        assert validate(replace(ds)) == report
        assert len(pathway_calls) == 2 * per_pass
        bad = replace(ds.clusters[0], a2r=1)
        invalid = replace(ds, clusters=(bad, *ds.clusters[1:]))
        assert [v.code for v in validate(invalid).violations] == ["design-consistency"]
        assert len(pathway_calls) == 2 * per_pass + len(distinct_pathways(invalid))
        assert validate(ds) == report
        assert len(pathway_calls) == 2 * per_pass + len(distinct_pathways(invalid))


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_clusters=st.integers(1, 8),
        kind=st.sampled_from(list(DesignKind)),
        delimiter=st.sampled_from([",", "\t"]),
    )
    def test_serialize_parse_round_trip(self, seed, n_clusters, kind, delimiter):
        rng = np.random.default_rng(seed)
        design = SmartDesign.balanced(kind)
        grid = TimeGrid(times=(0.0, 1.0, 2.0), knot=1.0)
        ds = random_dataset(
            rng, n_clusters, grid, design, (1, 2, 3),
            cluster_covariates=("u",), individual_covariates=("v",),
        )
        text = serialize_long_table(ds, delimiter=delimiter)
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


class TestParseMemory:
    """A parse holds one chunk's cells and the per-individual arrays, never
    every row, a list per row or a second copy of the text.  Each bound is
    the peak measured on CPython 3.11 plus a quarter of the text's length."""

    @staticmethod
    def parse_peak(n_times, n_clusters, kind=DesignKind.I, sizes=(1, 2, 3), covariates=(("u",), ("v",))):
        """tracemalloc peak of parsing a table, and the text's length."""
        design = SmartDesign.balanced(kind)
        grid = TimeGrid(times=tuple(map(float, range(n_times))), knot=1.0)
        ds = random_dataset(np.random.default_rng(0), n_clusters, grid, design, sizes, *covariates)
        text = serialize_long_table(ds)
        assert text.isascii() and text.count("\n") > 4000
        schema = schema_for(design, grid, cluster_covariates=covariates[0], individual_covariates=covariates[1])
        parse_long_table(text, schema)
        tracemalloc.start()
        try:
            parse_long_table(text, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, len(text)

    def test_peak_is_a_small_multiple_of_the_text(self):
        # 4144 rows of 700 small clusters peak near 1.62x the text's length:
        # 1.77x with a str object per id, 2.15x while every cluster kept its
        # map of individual ids to the end, 2.57x when every row was a list
        # and each individual a tuple key
        peak, size = self.parse_peak(3, 700)
        assert peak < 1.9 * size

    def test_peak_on_a_long_grid(self):
        # the per-individual arrays grow with the individuals, not the rows:
        # 5626 rows on 45 times peak near 1.00x the text's length (was 1.61x)
        peak, size = self.parse_peak(45, 60)
        assert peak < 1.25 * size

    def test_peak_with_short_rows_in_large_clusters(self):
        # short rows make many cells per character of text: 9026 rows of 30
        # clusters of 40-80 on 5 times, without covariates, peak near 1.07x
        # the text's length (1.23x with a str object per id, 1.43x while
        # every cluster kept its map of individual ids, 2.64x when every row
        # was a list)
        peak, size = self.parse_peak(5, 30, DesignKind.II, tuple(range(40, 81)), ((), ()))
        assert peak < 1.35 * size


ID_COLUMNS = ("cluster_ids", "individual_ids", "pathways")
ARRAY_COLUMNS = ("a1", "r", "a2nr", "a2r", "sizes", "x_cluster", "x_individual", "y", "pathway_index")


def assert_same_columns(a, b):
    for name in ID_COLUMNS:
        assert getattr(a, name) == getattr(b, name), name
    for name in ARRAY_COLUMNS:
        got, want = getattr(a, name), getattr(b, name)
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert got.dtype == want.dtype and not got.flags.writeable, name


class TestRecordRoute:
    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("sizes", [(1,), (1, 2, 3, 5)], ids=["singletons", "mixed"])
    @pytest.mark.parametrize("covariates", [False, True], ids=["plain", "covariates"])
    def test_parsed_and_record_built_agree(self, grid012, kind, sizes, covariates):
        rng = np.random.default_rng(8)
        design = SmartDesign.balanced(kind)
        xc, xi = (("u",), ("v",)) if covariates else ((), ())
        records = random_dataset(rng, 30, grid012, design, sizes, xc, xi)
        schema = schema_for(design, grid012, cluster_covariates=xc, individual_covariates=xi)
        parsed = parse_long_table(serialize_long_table(records), schema)
        assert_same_columns(parsed, records)
        assert parsed.clusters == records.clusters
        assert parsed == records and records == parsed
        assert validate(parsed) == validate(records)
        spec = MeanModelSpec.piecewise_linear(design, grid012, covariate_terms=xc + xi)
        ws_parsed, ws_records = _Workspace(parsed, spec), _Workspace(records, spec)
        np.testing.assert_array_equal(ws_parsed.weights, ws_records.weights)
        for g, h in zip(ws_parsed.regimes, ws_records.regimes, strict=True):
            (g_x, g_y), (h_x, h_y) = ws_parsed.regime_rows(g), ws_records.regime_rows(h)
            assert g.cai == h.cai
            np.testing.assert_array_equal(g.sizes, h.sizes)
            np.testing.assert_array_equal(g.cluster_pos, h.cluster_pos)
            np.testing.assert_array_equal(g.gamma, h.gamma)
            np.testing.assert_array_equal(g_x, h_x)
            np.testing.assert_array_equal(g_y, h_y)
            for pos, start, n in zip(g.cluster_pos, g.starts, g.sizes):
                rows = slice(start, start + n)
                np.testing.assert_array_equal(
                    regime_design(g, g_x[rows]), stack_design_matrix(spec, g.cai, records.clusters[pos], records)
                )

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_shuffled_records_give_equal_datasets(self, grid012, kind):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 25, grid012, SmartDesign.balanced(kind), (1, 2, 4), ("u",), ("v",))
        shuffled = permuted(ds, rng)
        assert shuffled == ds
        assert shuffled.clusters == ds.clusters
        assert_same_columns(shuffled, ds)
        assert validate(shuffled) == validate(ds)

    def test_equality_needs_a_dataset_of_the_same_schema(self, design2, grid012):
        ds = random_design2_dataset(np.random.default_rng(12), 6, grid012, design2)
        assert ds.__eq__(ds.clusters) is NotImplemented
        assert ds != ds.clusters
        assert ds != replace(ds, grid=TimeGrid((0.0, 1.0, 3.0), knot=1.0))
        assert ds != replace(ds, design=SmartDesign.balanced(DesignKind.III))

    def test_end_of_study_slice_shares_columns_and_report(self, design2, grid012):
        rng = np.random.default_rng(10)
        ds = random_design2_dataset(rng, 12, grid012, design2, cluster_covariates=("u",))
        final = ds.final_time()
        assert final.grid == TimeGrid(times=(2.0,), knot=2.0)
        np.testing.assert_array_equal(final.y, ds.y[:, -1:])
        assert validate(final) is validate(ds)
        assert [ind.y for cl in final.clusters for ind in cl.individuals] == [
            ind.y[-1:] for cl in ds.clusters for ind in cl.individuals
        ]


# ids that are prefixes of each other, and of one, two and four bytes a character
ODD_CLUSTER_IDS = ("c1", "c10", "c100", "c2", "é", "日本", "日", "🙂")
ODD_PERSON_IDS = ("p", "p1", "p10", "ü", "🙂x", "🙂")


def odd_id_dataset(design, grid, rng):
    """Records with ODD_*_IDS, in shuffled order, and the cluster and
    individual ids in canonical order."""
    clusters, people_of = [], {}
    for k, cid in enumerate(ODD_CLUSTER_IDS):
        people = people_of[cid] = ODD_PERSON_IDS[: 1 + k % len(ODD_PERSON_IDS)]
        cl = make_cluster(cid, 1, 0, -1, rng.normal(size=(len(people), grid.n_times)), x_cluster=(k,),
                          x_indiv=rng.normal(size=(len(people), 1)))
        people = [replace(ind, individual_id=iid) for ind, iid in zip(cl.individuals, people)]
        clusters.append(replace(cl, individuals=tuple(people[j] for j in rng.permutation(len(people)))))
    records = make_dataset([clusters[i] for i in rng.permutation(len(clusters))], design, grid, ("u",), ("v",))
    cids = tuple(sorted(ODD_CLUSTER_IDS))
    iids = tuple(iid for cid in cids for iid in sorted(people_of[cid]))
    return records, cids, iids


def datasets_by_route(design, grid):
    records, _, _ = odd_id_dataset(design, grid, np.random.default_rng(12))
    parsed = parse_long_table(serialize_long_table(records), schema_for(
        design, grid, cluster_covariates=("u",), individual_covariates=("v",)))
    return {"records": records, "parsed": parsed, "final_time": parsed.final_time()}


class TestIdColumns:
    """A dataset holds each id column as one string and offsets; the tuples
    of ids are made on first use, as the public API has them."""

    def test_ids_round_trip_on_every_route(self, design2, grid012):
        records, cids, iids = odd_id_dataset(design2, grid012, np.random.default_rng(11))
        schema = schema_for(design2, grid012, cluster_covariates=("u",), individual_covariates=("v",))
        text = serialize_long_table(records)
        parsed = parse_long_table(text, schema)
        header, *rows = text.splitlines(keepends=True)
        shuffled = parse_long_table(header + "".join(rows[::-1]), schema)  # the sorting route
        for ds in (records, parsed, shuffled, records.final_time(), parsed.final_time()):
            assert ds.cluster_ids == cids and ds.individual_ids == iids
            assert type(ds.cluster_ids) is tuple and all(type(i) is str for i in ds.individual_ids)
            assert [cl.cluster_id for cl in ds.clusters] == list(cids)
            assert [ind.individual_id for cl in ds.clusters for ind in cl.individuals] == list(iids)
            assert ds.n_clusters == len(cids)
        assert parsed == records and shuffled == records
        empty = make_dataset([], design2, grid012)
        assert empty.cluster_ids == empty.individual_ids == () and empty.n_clusters == 0

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4, 512])
    @pytest.mark.parametrize("people,canonical", [
        ((0, 1, 2, 3, 4), True),  # individual ids start again in each cluster
        ((0, 1, 2, 4, 3), False),  # c3's individuals in reverse
        ((2, 0, 1, 3, 4), False),  # c2 before c1
    ])
    def test_canonical_order_is_judged_across_chunk_ends(self, design2, grid012, people, canonical, chunk_rows):
        # in chunks of 3 rows each individual is a chunk of its own, so each
        # order is judged between a chunk's first id and the last before it
        schema = char_schema(design2, grid012)
        records = TrialDataset(design2, grid012, list(parse_long_table(char_table(), schema).clusters), ("u",), ("v",))
        text = char_table(rows=[CHAR_ROWS[3 * k + t] for k in people for t in range(3)])
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows), \
                mock.patch.object(data._Ids, "of", wraps=data._Ids.of) as of:
            got = parse_long_table(text, schema)
        assert_same_columns(got, records)
        assert got == records
        # sorting rebuilds the individual ids, which otherwise come joined
        assert of.call_count == (1 if canonical else 2)

    @pytest.mark.parametrize("route", ["records", "parsed", "final_time"])
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("copier", [lambda ds: pickle.loads(pickle.dumps(ds)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_pickle_and_deepcopy(self, design2, grid012, route, read_first, copier):
        ds = datasets_by_route(design2, grid012)[route]
        if read_first:
            ds.cluster_ids, ds.individual_ids
        got = copier(ds)
        assert got is not ds
        assert ("cluster_ids" in vars(got)) is read_first
        assert_same_columns(got, ds)
        for name in ("_cluster_id_column", "_individual_id_column"):
            assert not getattr(got, name).offsets.flags.writeable, name
        assert got == ds and got.grid == ds.grid
        assert validate(got) == validate(ds)
        assert got.final_time() == ds.final_time()

    def test_pipeline_never_builds_id_tuples(self, grid012):
        design = SmartDesign.balanced(DesignKind.I)
        records = random_dataset(np.random.default_rng(13), 120, grid012, design, (1, 2, 3), ("u",), ("v",))
        ds = parse_long_table(serialize_long_table(records), schema_for(
            design, grid012, cluster_covariates=("u",), individual_covariates=("v",)))
        spec = MeanModelSpec.piecewise_linear(design, grid012, ("u", "v"))
        options = FitOptions(
            adjustments=AdjustmentOptions.all(), weight_mode=WeightMode.ESTIMATED, stage1_covariates=("u",),
        )
        result = fit(ds, spec, WorkingCovSpec(), options)
        fit_end_of_study(ds, ("u", "v"), t_reference=True)
        for d, e in itertools.combinations(enumerate_cais(design), 2):
            for build in (contrast_end_of_study, contrast_second_stage_slope, contrast_auc):
                wald_test(result, build(spec, d, e))
        assert not {"cluster_ids", "individual_ids", "clusters"} & set(vars(ds))

    def test_parsed_dataset_keeps_ids_compact(self, grid012):
        # 2000 small clusters keep about 16 bytes an id above their arrays:
        # 8 of offset and the id's 4-7 characters, where a str object alone
        # takes 49 bytes and a tuple slot 8
        design = SmartDesign.balanced(DesignKind.I)
        records = random_dataset(np.random.default_rng(14), 2000, grid012, design, (1, 2, 3, 4), ("u",), ("v",))
        text = serialize_long_table(records)
        schema = schema_for(design, grid012, cluster_covariates=("u",), individual_covariates=("v",))
        tracemalloc.start()
        try:
            ds = parse_long_table(text, schema)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = sum(getattr(ds, name).nbytes for name in ARRAY_COLUMNS)
        n_ids = ds.n_clusters + len(ds.y)
        assert n_ids > 6000
        assert kept - arrays < 24 * n_ids


class TestTimeGrid:
    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            TimeGrid(times=(0.0, 0.0, 1.0), knot=0.0)

    @pytest.mark.parametrize(
        "times,knot", [((0.0, math.nan, 2.0), 0.5), ((0.0, 1.0, math.inf), 0.5), ((math.nan,), math.nan)]
    )
    def test_rejects_nonfinite(self, times, knot):
        # NaN fails every ordering test, so only a finiteness check catches it
        with pytest.raises(ValueError, match="must be finite"):
            TimeGrid(times=times, knot=knot)

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
