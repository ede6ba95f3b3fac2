"""Observed-data model for a clustered SMART with repeated measures.

Datasets are ingested from long-format delimited text (one row per
cluster/individual/time) and held immutable afterwards, so they can be
shared freely across parallel workers.
"""
from __future__ import annotations

import bisect
import csv
import io
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, TextIO, Tuple

from .design import DesignKind, EmbeddedCai, SmartDesign, consistency_indicator, enumerate_cais
from .errors import (
    BadTreatmentCode,
    InconsistentCluster,
    MissingCell,
    UnknownTime,
)

__all__ = [
    "TimeGrid",
    "IndividualRecord",
    "ClusterRecord",
    "TrialDataset",
    "TableSchema",
    "Violation",
    "ValidationReport",
    "parse_long_table",
    "serialize_long_table",
    "validate",
]


@dataclass(frozen=True)
class TimeGrid:
    """Ordered measurement times with the second decision point ``knot``."""

    times: Tuple[float, ...]
    knot: float

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if not times:
            raise ValueError("grid needs at least one measurement time")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("measurement times must be strictly increasing")
        if not (times[0] <= self.knot < times[-1] or times == (self.knot,)):
            raise ValueError(
                f"knot {self.knot} must lie in [{times[0]}, {times[-1]}), "
                "or equal the time of a one-time grid"
            )

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def t_end(self) -> float:
        return self.times[-1]

    @property
    def knot_index(self) -> int:
        """Unique ``s`` with ``times[s] <= knot < times[s+1]``; 0 on a one-time grid."""
        return bisect.bisect_right(self.times, self.knot) - 1


@dataclass(frozen=True)
class IndividualRecord:
    individual_id: str
    x_individual: Tuple[float, ...]
    y: Tuple[float, ...]


@dataclass(frozen=True)
class ClusterRecord:
    """One cluster's treatment/response pathway plus member outcome series."""

    cluster_id: str
    a1: int
    r: int
    a2nr: Optional[int]
    individuals: Tuple[IndividualRecord, ...]
    x_cluster: Tuple[float, ...] = ()
    a2r: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.individuals)


@dataclass(frozen=True)
class TrialDataset:
    design: SmartDesign
    grid: TimeGrid
    clusters: Tuple[ClusterRecord, ...]
    cluster_covariates: Tuple[str, ...] = ()
    individual_covariates: Tuple[str, ...] = ()

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class TableSchema:
    """Column mapping and coding rules for a long-format table.

    ``columns`` maps the logical names ``cluster_id``, ``individual_id``,
    ``time``, ``y``, ``a1``, ``r``, ``a2nr`` (and ``a2r`` for design I) to
    header names in the file.  User treatment codes are translated through
    the explicit ``*_codes`` maps; values are never guessed.
    """

    design: SmartDesign
    grid: TimeGrid
    columns: Mapping[str, str] = field(
        default_factory=lambda: {k: k for k in ("cluster_id", "individual_id", "time", "y", "a1", "r", "a2nr")}
    )
    cluster_covariates: Tuple[str, ...] = ()
    individual_covariates: Tuple[str, ...] = ()
    a1_codes: Mapping[str, int] = field(default_factory=lambda: {"1": 1, "+1": 1, "-1": -1})
    r_codes: Mapping[str, int] = field(default_factory=lambda: {"0": 0, "1": 1})
    a2_codes: Mapping[str, int] = field(default_factory=lambda: {"1": 1, "+1": 1, "-1": -1})


_ABSENT = ("", "NA")


def _decode_treatment(raw: str, codes: Mapping[str, int], allowed: Tuple[int, ...], what: str, where: str) -> int:
    raw = raw.strip()
    if raw not in codes:
        raise BadTreatmentCode(f"{where}: unknown {what} code {raw!r}")
    value = codes[raw]
    if value not in allowed:
        raise BadTreatmentCode(f"{where}: {what} code {raw!r} maps outside {allowed}")
    return value


def _decode_optional_treatment(raw: str, codes: Mapping[str, int], what: str, where: str) -> Optional[int]:
    if raw.strip() in _ABSENT:
        return None
    return _decode_treatment(raw, codes, (-1, 1), what, where)


def _match_time(value: float, grid: TimeGrid, where: str) -> int:
    # exact matching against the grid, no interpolation
    for k, t in enumerate(grid.times):
        if value == t:
            return k
    raise UnknownTime(f"{where}: time {value} is not on the grid {grid.times}")


def _parse_covariates(
    row: Sequence[str], col_index: Mapping[str, int], names: Sequence[str], where: str
) -> Tuple[float, ...]:
    values = []
    for name in names:
        raw = row[col_index[name]].strip()
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise MissingCell(f"{where}: covariate {name!r} is {raw!r}, not a finite number")
        values.append(value)
    return tuple(values)


def parse_long_table(source: TextIO | str, schema: TableSchema) -> TrialDataset:
    """Parse a delimited long-format table into a :class:`TrialDataset`.

    Comma and tab delimiters are accepted; a header row is required.  Rows
    belonging to one cluster must agree on treatment, response, and
    cluster-level covariates.  Every individual must contribute exactly one
    complete outcome per grid time.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    sample = source.readline()
    if not sample:
        raise MissingCell("empty input: header row required")
    delimiter = "\t" if sample.count("\t") >= sample.count(",") else ","
    header = [h.strip() for h in sample.rstrip("\r\n").split(delimiter)]
    reader = csv.reader(source, delimiter=delimiter)

    cols = dict(schema.columns)
    needed = ["cluster_id", "individual_id", "time", "y", "a1", "r", "a2nr"]
    if schema.design.kind is DesignKind.I:
        needed.append("a2r")
    col_index: dict[str, int] = {}
    for logical in needed:
        name = cols.get(logical, logical)
        if name not in header:
            raise MissingCell(f"column {name!r} (for {logical!r}) missing from header")
        col_index[logical] = header.index(name)
    for cov in (*schema.cluster_covariates, *schema.individual_covariates):
        if cov not in header:
            raise MissingCell(f"covariate column {cov!r} missing from header")
        col_index[cov] = header.index(cov)

    grid = schema.grid
    n_times = grid.n_times

    pathways: dict[str, tuple] = {}
    cluster_x: dict[str, Tuple[float, ...]] = {}
    outcomes: dict[str, dict[str, dict[int, float]]] = {}
    indiv_x: dict[str, dict[str, Tuple[float, ...]]] = {}

    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise InconsistentCluster(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        where = f"line {lineno}"
        cid = row[col_index["cluster_id"]].strip()
        iid = row[col_index["individual_id"]].strip()
        raw_y = row[col_index["y"]].strip()
        if raw_y in _ABSENT:
            raise MissingCell(f"{where}: missing outcome for cluster {cid!r}")
        try:
            y = float(raw_y)
            t = float(row[col_index["time"]])
        except ValueError as exc:
            raise MissingCell(f"{where}: non-numeric outcome or time") from exc
        if not math.isfinite(y):
            raise MissingCell(f"{where}: outcome is {raw_y!r}, not a finite number")
        k = _match_time(t, grid, where)

        a1 = _decode_treatment(row[col_index["a1"]], schema.a1_codes, (-1, 1), "a1", where)
        r = _decode_treatment(row[col_index["r"]], schema.r_codes, (0, 1), "r", where)
        a2nr = _decode_optional_treatment(row[col_index["a2nr"]], schema.a2_codes, "a2nr", where)
        a2r = None
        if "a2r" in col_index:
            a2r = _decode_optional_treatment(row[col_index["a2r"]], schema.a2_codes, "a2r", where)
        xc = _parse_covariates(row, col_index, schema.cluster_covariates, where)
        xi = _parse_covariates(row, col_index, schema.individual_covariates, where)

        pathway = (a1, r, a2nr, a2r)
        if cid in pathways:
            if pathways[cid] != pathway:
                raise InconsistentCluster(
                    f"{where}: cluster {cid!r} rows disagree on treatment/response"
                )
            if cluster_x[cid] != xc:
                raise InconsistentCluster(
                    f"{where}: cluster {cid!r} rows disagree on cluster covariates"
                )
        else:
            pathways[cid] = pathway
            cluster_x[cid] = xc
            outcomes[cid] = {}
            indiv_x[cid] = {}
        per_indiv = outcomes[cid].setdefault(iid, {})
        if k in per_indiv:
            raise InconsistentCluster(
                f"{where}: duplicate time {t} for individual {iid!r} in cluster {cid!r}"
            )
        per_indiv[k] = y
        if iid in indiv_x[cid]:
            if indiv_x[cid][iid] != xi:
                raise InconsistentCluster(
                    f"{where}: individual {iid!r} rows disagree on covariates"
                )
        else:
            indiv_x[cid][iid] = xi

    clusters = []
    for cid in sorted(pathways):
        a1, r, a2nr, a2r = pathways[cid]
        individuals = []
        for iid in sorted(outcomes[cid]):
            series = outcomes[cid][iid]
            if len(series) != n_times:
                missing = [grid.times[k] for k in range(n_times) if k not in series]
                raise MissingCell(
                    f"cluster {cid!r} individual {iid!r}: missing outcomes at times {missing}"
                )
            y = tuple(series[k] for k in range(n_times))
            individuals.append(IndividualRecord(iid, indiv_x[cid][iid], y))
        clusters.append(
            ClusterRecord(
                cluster_id=cid,
                a1=a1,
                r=r,
                a2nr=a2nr,
                a2r=a2r,
                x_cluster=cluster_x[cid],
                individuals=tuple(individuals),
            )
        )

    ds = TrialDataset(
        design=schema.design,
        grid=schema.grid,
        clusters=tuple(clusters),
        cluster_covariates=tuple(schema.cluster_covariates),
        individual_covariates=tuple(schema.individual_covariates),
    )
    report = validate(ds)
    if report.violations:
        first = report.violations[0]
        raise InconsistentCluster(f"cluster {first.cluster_id!r}: {first.message}")
    return ds


def serialize_long_table(ds: TrialDataset, delimiter: str = ",") -> str:
    """Inverse of :func:`parse_long_table` (up to row order)."""
    header = [
        "cluster_id", "individual_id", "time", "y", "a1", "r", "a2nr",
    ]
    include_a2r = ds.design.kind is DesignKind.I
    if include_a2r:
        header.append("a2r")
    header.extend(ds.cluster_covariates)
    header.extend(ds.individual_covariates)

    def enc(v: Optional[int]) -> str:
        return "NA" if v is None else str(v)

    def num(v: float) -> str:
        return repr(float(v))

    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    for cl in ds.clusters:
        for indiv in cl.individuals:
            for k, t in enumerate(ds.grid.times):
                row = [
                    cl.cluster_id, indiv.individual_id, num(t), num(indiv.y[k]),
                    str(cl.a1), str(cl.r), enc(cl.a2nr),
                ]
                if include_a2r:
                    row.append(enc(cl.a2r))
                row.extend(num(v) for v in cl.x_cluster)
                row.extend(num(v) for v in indiv.x_individual)
                writer.writerow(row)
    return out.getvalue()


@dataclass(frozen=True)
class Violation:
    cluster_id: str
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[Violation, ...] = ()
    warnings: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _pathway_violation(cl: ClusterRecord, kind: DesignKind) -> Optional[str]:
    if cl.a1 not in (-1, 1):
        return f"a1 must be -1/+1, got {cl.a1}"
    if cl.r not in (0, 1):
        return f"r must be 0/1, got {cl.r}"
    for name in ("a2nr", "a2r"):
        v = getattr(cl, name)
        if v is not None and v not in (-1, 1):
            return f"{name} must be -1/+1 or absent, got {v}"
    if kind is DesignKind.II:
        if (cl.a2nr is None) != (cl.r == 1):
            return "design II: a2nr must be present exactly for non-responders"
        if cl.a2r is not None:
            return "design II: responders are never re-randomized, a2r must be absent"
    elif kind is DesignKind.I:
        if cl.r == 1 and (cl.a2r is None or cl.a2nr is not None):
            return "design I: responders carry a2r only"
        if cl.r == 0 and (cl.a2nr is None or cl.a2r is not None):
            return "design I: non-responders carry a2nr only"
    elif kind is DesignKind.III:
        expected = cl.r == 0 and cl.a1 == 1
        if (cl.a2nr is not None) != expected:
            return "design III: a2nr present exactly for non-responders of the +1 arm"
        if cl.a2r is not None:
            return "design III: a2r must be absent"
    else:  # IV
        if cl.a2nr is None:
            return "design IV: second-stage treatment (a2nr slot) always present"
        if cl.a2r is not None:
            return "design IV: a2r slot unused"
    return None


# datasets are immutable: validating the last one checked again reuses its report
_last_checked: Tuple[Optional[weakref.ref], Optional[ValidationReport]] = (None, None)


def validate(ds: TrialDataset) -> ValidationReport:
    """Report every invariant violation; empty report iff the dataset is valid."""
    global _last_checked
    ref, report = _last_checked
    if ref is not None and ref() is ds:
        return report
    violations: list[Violation] = []
    warnings: list[str] = []
    n_times = ds.grid.n_times
    n_xc = len(ds.cluster_covariates)
    n_xi = len(ds.individual_covariates)

    seen_ids = set()
    for cl in ds.clusters:
        if cl.cluster_id in seen_ids:
            violations.append(Violation(cl.cluster_id, "DuplicateCluster", "duplicate cluster id"))
        seen_ids.add(cl.cluster_id)
        msg = _pathway_violation(cl, ds.design.kind)
        if msg is not None:
            violations.append(Violation(cl.cluster_id, "design-consistency", msg))
        if cl.n < 1:
            violations.append(Violation(cl.cluster_id, "EmptyCluster", "cluster has no individuals"))
        if len(cl.x_cluster) != n_xc:
            violations.append(Violation(
                cl.cluster_id, "CovariateSchema",
                f"expected {n_xc} cluster covariates, got {len(cl.x_cluster)}",
            ))
        elif not all(map(math.isfinite, cl.x_cluster)):
            violations.append(Violation(
                cl.cluster_id, "NonFiniteCovariate", "cluster covariates are not all finite",
            ))
        for indiv in cl.individuals:
            if len(indiv.y) != n_times:
                violations.append(Violation(
                    cl.cluster_id, "MissingCell",
                    f"individual {indiv.individual_id!r} has {len(indiv.y)} outcomes, expected {n_times}",
                ))
            elif not all(map(math.isfinite, indiv.y)):
                violations.append(Violation(
                    cl.cluster_id, "MissingCell",
                    f"individual {indiv.individual_id!r} has non-finite outcomes",
                ))
            if len(indiv.x_individual) != n_xi:
                violations.append(Violation(
                    cl.cluster_id, "CovariateSchema",
                    f"individual {indiv.individual_id!r} has {len(indiv.x_individual)} covariates, expected {n_xi}",
                ))
            elif not all(map(math.isfinite, indiv.x_individual)):
                violations.append(Violation(
                    cl.cluster_id, "NonFiniteCovariate",
                    f"individual {indiv.individual_id!r} has non-finite covariates",
                ))

    if not violations:
        for cai in enumerate_cais(ds.design):
            if not any(consistency_indicator(cl, cai, ds.design) for cl in ds.clusters):
                warnings.append(f"no cluster is consistent with embedded regime {cai}")

    _last_checked = (weakref.ref(ds), ValidationReport(tuple(violations), tuple(warnings)))
    return _last_checked[1]
