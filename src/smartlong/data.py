"""Observed-data model for a clustered SMART with repeated measures.

A :class:`TrialDataset` is a set of columns in canonical order: clusters
sorted by id, and each cluster's individuals sorted by id and stored next to
each other.  Per cluster it holds the ids, the pathway codes ``a1``, ``r``,
``a2nr`` and ``a2r`` (small ints, 0 for an absent second-stage slot), the
sizes and the cluster covariates; per individual the ids, the individual
covariates and one outcome per grid time.  Each id column is one string of
every id joined and where each id begins in it, not a ``str`` object per id;
the tuple of ids is made where it is asked for.  The distinct observed pathways
and each cluster's index into them are derived once, as are the invariant
checks: the :class:`ValidationReport` is computed when the dataset is built,
judging the pathway rule once per distinct pathway, and :func:`validate`
returns it.  Datasets are immutable afterwards, so they can be shared freely
across parallel workers, and they pickle and copy as read-only as they were.

Datasets come from long-format delimited text (one row per cluster,
individual and time), or from :class:`ClusterRecord` and
:class:`IndividualRecord` records, which also serve as a read-only view
(``ds.clusters``).  Records can hold what columns cannot, such as an outcome
vector of the wrong length; the report lists such faults as violations.
:func:`parse_long_table` reads text a chunk of lines at a time and checks it
column-wise, one mask per row check; the first failing row's error is read
from the values the chunk converted.  A chunk of plain lines is split into
columns with one ``str.split``, one string per cell and nothing per row, and
``csv.reader`` reads the rest.  Per-individual arrays are reserved from the
line count.  Rows that introduce (cluster id, individual id) pairs in
increasing order, as :func:`serialize_long_table` writes them, fill them in
canonical order, so the dataset takes them without a sort or copy.  Rows that
give each cluster's individuals one run, in any order of clusters, let the
parser keep a map of individual ids only for the clusters a chunk reads:
every other cluster's individuals are a run of slots, whose ids are read back
where the cluster is met again.  A chunk's new ids are kept joined into one
string, so their ``str`` objects go with the chunk's cells.
"""
from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, TextIO, Tuple

import numpy as np

from .design import SmartDesign, _pathway_violation, consistency_indicator, enumerate_cais
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
    "Pathway",
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
        if not all(map(math.isfinite, times + (self.knot,))):
            raise ValueError(f"measurement times and knot must be finite, got {times} and knot {self.knot}")
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


class Pathway(NamedTuple):
    """An observed treatment/response pathway; absent second-stage slots are None."""

    a1: int
    r: int
    a2nr: Optional[int]
    a2r: Optional[int]


def _name_tuple(names: Sequence[str], argument: str) -> Tuple[str, ...]:
    """``names`` as a tuple of names; a bare string, which would split into
    its characters, raises TypeError naming ``argument``, and a name given
    twice ValueError."""
    if isinstance(names, str):
        raise TypeError(f"{argument} must be a sequence of names, not the string {names!r}")
    names = tuple(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{argument} names {name!r} more than once")
    return names


def _covariate_names(cluster: Sequence[str], individual: Sequence[str]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The cluster and individual covariate names, each a :func:`_name_tuple`;
    a name in both raises ValueError."""
    cluster = _name_tuple(cluster, "cluster_covariates")
    individual = _name_tuple(individual, "individual_covariates")
    for name in cluster:
        if name in individual:
            raise ValueError(f"{name!r} is both a cluster and an individual covariate")
    return cluster, individual


class _Ids:
    """A column of ids as one string of them all joined, and where each
    begins in it: id ``i``, for ``0 <= i < len(ids)``, is
    ``text[offsets[i] : offsets[i + 1]]``, with ``offsets`` read-only int64
    from 0.  That takes a byte a character of ASCII ids and 8 an id, where a
    ``str`` object and a tuple slot take about 72 bytes an id."""

    __slots__ = ("text", "offsets")

    def __init__(self, text: str, offsets: np.ndarray) -> None:
        offsets.flags.writeable = False
        self.text, self.offsets = text, offsets

    @classmethod
    def of(cls, ids: Sequence[str]) -> "_Ids":
        lengths = np.fromiter(itertools.chain((0,), map(len, ids)), np.int64, len(ids) + 1)
        return cls("".join(ids), np.cumsum(lengths))

    def __reduce__(self):
        # through __init__, so that a copy's offsets are read-only too
        return _Ids, (self.text, self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> str:
        return self.text[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self) -> Iterator[str]:
        offsets = self.offsets.tolist()
        return map(self.text.__getitem__, map(slice, offsets, offsets[1:]))


# each id tuple, made on first use, and the column it is made from
_ID_TUPLES = {"cluster_ids": "_cluster_id_column", "individual_ids": "_individual_id_column"}


@dataclass(frozen=True, init=False, eq=False)
class TrialDataset:
    """A trial's observations as columns in canonical (sorted-id) order.

    Per cluster: ``cluster_ids``; ``a1``, ``r``, ``a2nr``, ``a2r`` (int8, 0
    for an absent slot); ``sizes``; ``x_cluster`` (N x q).  Per individual,
    clusters' members contiguous: ``individual_ids``; ``x_individual``
    (M x q'); ``y`` (M x (T+1)).  ``pathways`` lists the distinct observed
    pathways and ``pathway_index`` maps each cluster to its entry.  Arrays are
    read-only.  The ids are held as :class:`_Ids` columns; ``cluster_ids``
    and ``individual_ids``, tuples of ``str``, are made from them on first
    use, and nothing in the library asks for them.

    The constructor is the record route: clusters and their individuals may
    come in any order.  Its arguments are the dataclass fields, so
    :func:`dataclasses.replace` rebuilds a dataset through records.
    ``clusters`` is the records in canonical order; for a parsed dataset that
    view is made on first use.  Two datasets are equal when they hold the
    same schema and records, whichever route built them.
    """

    design: SmartDesign
    grid: TimeGrid
    clusters: Tuple[ClusterRecord, ...]
    cluster_covariates: Tuple[str, ...] = ()
    individual_covariates: Tuple[str, ...] = ()

    def __init__(
        self,
        design: SmartDesign,
        grid: TimeGrid,
        clusters: Sequence[ClusterRecord],
        cluster_covariates: Sequence[str] = (),
        individual_covariates: Sequence[str] = (),
    ) -> None:
        records = tuple(sorted(map(_with_sorted_individuals, clusters), key=lambda cl: cl.cluster_id))
        people = [ind for cl in records for ind in cl.individuals]
        n_times, n_xc, n_xi = grid.n_times, len(cluster_covariates), len(individual_covariates)
        x_cluster, bad_xc = _record_matrix([cl.x_cluster for cl in records], n_xc)
        y, bad_y = _record_matrix([ind.y for ind in people], n_times)
        x_individual, bad_xi = _record_matrix([ind.x_individual for ind in people], n_xi)
        sizes = np.array([cl.n for cl in records], dtype=np.intp)
        owner = np.repeat(np.arange(len(records)), sizes)
        cids = [cl.cluster_id for cl in records]
        iids = [ind.individual_id for ind in people]

        # what columns cannot hold, keyed by position as _check orders
        # violations; only records can repeat an id, and sorting puts the
        # repeats next to each other
        faults = [
            ((pos, 0), Violation(cids[pos], "DuplicateCluster", "duplicate cluster id"))
            for pos in range(1, len(cids)) if cids[pos] == cids[pos - 1]
        ]
        faults += [
            ((c, 4, j, -1), Violation(cids[c], "DuplicateIndividual", f"duplicate individual id {iids[j]!r}"))
            for j, c, before in zip(range(1, len(iids)), owner[1:].tolist(), owner[:-1].tolist())
            if c == before and iids[j] == iids[j - 1]
        ]
        faults += [
            ((pos, 3), Violation(
                records[pos].cluster_id, "CovariateSchema",
                f"expected {n_xc} cluster covariates, got {len(records[pos].x_cluster)}",
            ))
            for pos in bad_xc
        ]
        for j in bad_y:
            ind = people[j]
            faults.append(((int(owner[j]), 4, j, 0), Violation(
                records[owner[j]].cluster_id, "MissingCell",
                f"individual {ind.individual_id!r} has {len(ind.y)} outcomes, expected {n_times}",
            )))
        for j in bad_xi:
            ind = people[j]
            faults.append(((int(owner[j]), 4, j, 1), Violation(
                records[owner[j]].cluster_id, "CovariateSchema",
                f"individual {ind.individual_id!r} has {len(ind.x_individual)} covariates, expected {n_xi}",
            )))

        # pathways are judged as recorded; the int8 columns encode valid ones exactly
        pathways, pathway_index = _pathway_table(Pathway(cl.a1, cl.r, cl.a2nr, cl.a2r) for cl in records)
        codes = np.array([[_code(v) for v in p] for p in pathways], dtype=np.int8).reshape(-1, 4)
        a1, r, a2nr, a2r = codes[pathway_index].T

        object.__setattr__(self, "clusters", records)
        self._set_columns(
            design, grid, cluster_covariates, individual_covariates,
            _cluster_id_column=_Ids.of(cids), a1=a1, r=r, a2nr=a2nr, a2r=a2r,
            sizes=sizes, x_cluster=x_cluster,
            _individual_id_column=_Ids.of(iids), x_individual=x_individual, y=y,
            pathways=pathways, pathway_index=pathway_index,
        )
        object.__setattr__(self, "_report", _check(self, faults))

    @classmethod
    def _from_columns(
        cls,
        design: SmartDesign,
        grid: TimeGrid,
        cluster_covariates: Sequence[str],
        individual_covariates: Sequence[str],
        report: Optional[ValidationReport] = None,
        **columns,
    ) -> "TrialDataset":
        """The column route: columns already in canonical order.  Without
        ``report`` the dataset is checked."""
        ds = cls.__new__(cls)
        ds._set_columns(design, grid, cluster_covariates, individual_covariates, **columns)
        object.__setattr__(ds, "_report", _check(ds) if report is None else report)
        return ds

    def _set_columns(self, design, grid, cluster_covariates, individual_covariates, **columns) -> None:
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "grid", grid)
        cluster_covariates, individual_covariates = _covariate_names(cluster_covariates, individual_covariates)
        object.__setattr__(self, "cluster_covariates", cluster_covariates)
        object.__setattr__(self, "individual_covariates", individual_covariates)
        for name, value in columns.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # through _set_columns, so that a copy's arrays are read-only too
        return _restored, (vars(self),)

    def __getattr__(self, name: str):
        # only reached for an attribute not set yet: the record view of a
        # dataset built from columns, or an id tuple
        if name == "clusters":
            value = self._record_view()
        elif name in _ID_TUPLES:
            value = tuple(getattr(self, _ID_TUPLES[name]))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def _record_view(self) -> Tuple[ClusterRecord, ...]:
        first = np.cumsum(self.sizes) - self.sizes
        people = [
            IndividualRecord(iid, tuple(xi), tuple(y))
            for iid, xi, y in zip(self._individual_id_column, self.x_individual.tolist(), self.y.tolist())
        ]
        return tuple(
            ClusterRecord(
                cluster_id=cid, a1=p.a1, r=p.r, a2nr=p.a2nr, a2r=p.a2r, x_cluster=tuple(xc),
                individuals=tuple(people[f : f + n]),
            )
            for cid, p, xc, f, n in zip(
                self._cluster_id_column, (self.pathways[i] for i in self.pathway_index),
                self.x_cluster.tolist(), first.tolist(), self.sizes.tolist(),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialDataset):
            return NotImplemented
        schema = (self.design, self.grid, self.cluster_covariates, self.individual_covariates)
        if schema != (other.design, other.grid, other.cluster_covariates, other.individual_covariates):
            return False
        # records can hold what columns cannot
        return self.clusters == other.clusters

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)

    def final_time(self) -> "TrialDataset":
        """The dataset on a one-time grid holding its last time alone.

        Every other column, and the validation report, is shared.
        """
        t_end = self.grid.t_end
        columns = {
            c: getattr(self, c)
            for c in (
                "_cluster_id_column", "a1", "r", "a2nr", "a2r", "sizes", "x_cluster",
                "_individual_id_column", "x_individual", "pathways", "pathway_index",
            )
        }
        return TrialDataset._from_columns(
            self.design, TimeGrid((t_end,), knot=t_end),
            self.cluster_covariates, self.individual_covariates, report=self._report,
            y=self.y[:, -1:], **columns,
        )


def _restored(state: Dict[str, object]) -> TrialDataset:
    """The dataset whose attributes are ``state``, as pickled."""
    ds = TrialDataset.__new__(TrialDataset)
    ds._set_columns(**state)
    return ds


def _with_sorted_individuals(cl: ClusterRecord) -> ClusterRecord:
    people = tuple(sorted(cl.individuals, key=lambda ind: ind.individual_id))
    return cl if people == cl.individuals else replace(cl, individuals=people)


def _record_matrix(rows: Sequence[Sequence[float]], width: int) -> Tuple[np.ndarray, List[int]]:
    """Records' value tuples as a float matrix, and the rows not ``width`` long
    (stored as zeros, so that only their length is reported)."""
    wrong = [j for j, row in enumerate(rows) if len(row) != width]
    if wrong:
        rows = [(0.0,) * width if len(row) != width else row for row in rows]
    return np.array(rows, dtype=float).reshape(len(rows), width), wrong


# int8 code of a pathway entry that is not -1, 0, 1 or absent
_BAD_CODE = 2


def _code(value: Optional[int]) -> int:
    """int8 code of a pathway entry, 0 when absent.  An invalid entry's code
    loses its value, but only datasets whose report flags it hold one."""
    if value is None:
        return 0
    return int(value) if value in (-1, 0, 1) else _BAD_CODE


def _pathway_table(pathways: Iterable[Pathway]) -> Tuple[Tuple[Pathway, ...], np.ndarray]:
    """The distinct pathways in order of first appearance, and each cluster's
    index into them."""
    table: Dict[Pathway, int] = {}
    index = [table.setdefault(p, len(table)) for p in pathways]
    return tuple(table), np.array(index, dtype=np.intp)


def _code_pathway_table(codes: np.ndarray) -> Tuple[Tuple[Pathway, ...], np.ndarray]:
    """:func:`_pathway_table` of the pathways whose valid int8 codes (a1, r,
    a2nr, a2r) are the rows of ``codes``, with no object per row."""
    # a row's four int8 codes read as one int32 key
    _, first, inverse = np.unique(
        np.ascontiguousarray(codes).view(np.int32)[:, 0], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    pathways = tuple(
        Pathway(a1, r, a2nr or None, a2r or None) for a1, r, a2nr, a2r in codes[first[order]].tolist()
    )
    return pathways, rank[inverse]


# the logical columns of every long table, in header order
_COLUMNS = ("cluster_id", "individual_id", "time", "y", "a1", "r", "a2nr")


def _table_columns(design: SmartDesign) -> Tuple[str, ...]:
    """The logical columns of a long table of ``design``: :data:`_COLUMNS`,
    then ``a2r`` where a regime of the design uses that slot."""
    return _COLUMNS + ("a2r",) * any(d.a2r is not None for d in enumerate_cais(design))


@dataclass(frozen=True)
class TableSchema:
    """Column mapping and coding rules for a long-format table.

    ``columns`` maps the logical names ``cluster_id``, ``individual_id``,
    ``time``, ``y``, ``a1``, ``r``, ``a2nr`` (and ``a2r`` for design I) to
    header names in the file; a name it does not map is its own header
    name.  A key that is not one of those logical names, or two logical names
    read from one header name, raise ValueError.  Each covariate is read from
    the header column of its own name, apart from the logical columns; a
    covariate named twice, or in both covariate lists, raises ValueError.
    User treatment codes are translated through the explicit ``*_codes``
    maps; values are never guessed.
    """

    design: SmartDesign
    grid: TimeGrid
    columns: Mapping[str, str] = field(default_factory=lambda: dict(zip(_COLUMNS, _COLUMNS)))
    cluster_covariates: Tuple[str, ...] = ()
    individual_covariates: Tuple[str, ...] = ()
    a1_codes: Mapping[str, int] = field(default_factory=lambda: {"1": 1, "+1": 1, "-1": -1})
    r_codes: Mapping[str, int] = field(default_factory=lambda: {"0": 0, "1": 1})
    a2_codes: Mapping[str, int] = field(default_factory=lambda: {"1": 1, "+1": 1, "-1": -1})

    def __post_init__(self) -> None:
        cluster, individual = _covariate_names(self.cluster_covariates, self.individual_covariates)
        object.__setattr__(self, "cluster_covariates", cluster)
        object.__setattr__(self, "individual_covariates", individual)
        logical = _table_columns(self.design)
        for key in self.columns:
            if key not in logical:
                raise ValueError(f"columns key {key!r} is not one of {', '.join(logical)}")
        names = [self.columns.get(column, column) for column in logical]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(
                    f"columns reads {logical[names.index(name)]!r} and {logical[i]!r} from one header name {name!r}"
                )


_ABSENT = ("", "NA")


# lines read and checked together: enough to amortize the per-chunk NumPy
# calls, few enough that a chunk's cells stay small next to the builder's
# per-individual arrays.  Chunks are bounded by lines, never by characters:
# every line of a chunk becomes cells, so its line count sets its memory
_CHUNK_ROWS = 512
# time indices of a time cell that is not a number, or not on the grid
_NON_NUMERIC_TIME, _OFF_GRID_TIME = -1, -2


def _lines(text: str) -> Iterator[str]:
    """Lines split at "\\n" only, each keeping it, as :class:`io.StringIO` reads them."""
    lines = text.split("\n")
    tail = lines.pop()  # empty unless the text ends without a newline
    yield from map(operator.add, lines, itertools.repeat("\n"))
    if tail:
        yield tail


def _text_chunks(text: str, start: int) -> Iterator[Tuple[str, Iterable[str]]]:
    """``text`` from ``start`` on, as slices of at most :data:`_CHUNK_ROWS`
    lines, each ending at a line end or at the end of the text, with the
    slice's lines.

    A slice's span is guessed from the mean length of the lines before it,
    and shrunk while it holds too many lines, so finding it costs a few
    string scans and nothing per line.
    """
    end = len(text)
    span = _CHUNK_ROWS * max(start, 1)  # the header's length, for a first guess
    while start < end:
        stop = start + span
        if stop < end:
            # the last line end in the span; alone, a line longer than the span
            stop = text.rfind("\n", start, stop) + 1 or text.find("\n", start) + 1 or end
        else:
            stop = end
        n_lines = text.count("\n", start, stop) + (stop == end and not text.endswith("\n"))
        if n_lines > _CHUNK_ROWS:
            span = span * _CHUNK_ROWS // n_lines
            continue
        chunk = text[start:stop]
        yield chunk, _lines(chunk)
        span = (stop - start) * _CHUNK_ROWS // n_lines
        start = stop


def _stream_chunks(source: Iterator[str]) -> Iterator[Tuple[str, Iterable[str]]]:
    """At most :data:`_CHUNK_ROWS` lines of ``source`` at a time, joined, with
    those lines; they are kept only where splitting the join at "\\n" may not
    give them back, a stream that ends lines at a carriage return."""
    while True:
        lines: Iterable[str] = list(itertools.islice(source, _CHUNK_ROWS))
        if not lines:
            return
        chunk = "".join(lines)
        if "\r" not in chunk:
            lines = _lines(chunk)
        yield chunk, lines


def _split_columns(chunk: str, delimiter: str, n_fields: int) -> Optional[List[List[str]]]:
    """The columns of a chunk whose every line holds ``n_fields - 1``
    delimiters, split with one ``str.split``; None for any other chunk, and
    for one ``csv`` would reject: one holding a NUL, or a field longer than
    ``csv.field_size_limit()``.

    The chunk holds no quote and no carriage return outside "\\r\\n", so its
    lines are its ``csv`` rows.  Each line end stays at the end of the line's
    last cell: cells are only read stripped or through ``float``, which
    ignore it, and finding one line end in every last cell shows that no
    line holds too many or too few delimiters.
    """
    if "\0" in chunk:
        return None
    if not chunk.endswith("\n"):
        chunk += "\n"
    spread = chunk.replace("\n", "\n" + delimiter)
    n_lines = len(spread) - len(chunk)  # one delimiter added per line end
    cells = spread.split(delimiter)
    del spread
    cells.pop()  # empty: what follows the last line end
    if len(cells) != n_lines * n_fields or "".join(cells[n_fields - 1 :: n_fields]).count("\n") != n_lines:
        return None
    limit = csv.field_size_limit()
    if len(chunk) > limit and max(map(len, cells)) > limit:
        return None
    return [cells[j::n_fields] for j in range(n_fields)]


def _floats(raws: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """``float`` of each string, NaN where it raises, and where it raised."""
    try:
        return np.fromiter(map(float, raws), float, len(raws)), np.zeros(len(raws), dtype=bool)
    except ValueError:
        values = np.empty(len(raws))
        failed = np.zeros(len(raws), dtype=bool)
        for i, raw in enumerate(raws):
            try:
                values[i] = float(raw)
            except ValueError:
                values[i], failed[i] = math.nan, True
        return values, failed


def _decoded(raws: Sequence[str], decode) -> np.ndarray:
    """Codes of the raw cells, each distinct string decoded once; _BAD_CODE
    where decoding raises."""
    table = {}
    for raw in set(raws):
        try:
            table[raw] = _code(decode(raw))
        except BadTreatmentCode:
            table[raw] = _BAD_CODE
    return np.fromiter(map(table.__getitem__, raws), np.int8, len(raws))


def _float_columns(columns: Sequence[Sequence[str]], indices: Sequence[int], rows: int) -> np.ndarray:
    values = np.empty((rows, len(indices)))
    for j, i in enumerate(indices):
        values[:, j] = _floats(columns[i])[0]
    return values


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` with room for at least ``rows`` rows, contents kept."""
    if rows <= len(array):
        return array
    bigger = np.zeros((max(rows, 2 * len(array)), *array.shape[1:]), dtype=array.dtype)
    bigger[: len(array)] = array
    return bigger


def _exact(array: np.ndarray, rows: int) -> np.ndarray:
    """The first ``rows`` rows of ``array``: the array itself when that is all
    of it, else a copy, so that no unused room outlives the parse."""
    return array if len(array) == rows else array[:rows].copy()


def _first_seen(slots: np.ndarray, n: int) -> Tuple[np.ndarray, int]:
    """For slots handed out in order of first appearance, ``n`` of them
    before ``slots``: where a slot is new, and how many slots there are after
    every entry."""
    before = np.empty(len(slots) + 1, dtype=np.intp)  # slots before each entry
    before[0] = n
    np.maximum.accumulate(np.maximum(slots + 1, n), out=before[1:])
    return slots >= before[:-1], int(before[-1])


class _IdPieces:
    """Ids by slot, appended a chunk at a time: each chunk's new ids joined
    into one string, a piece, with the offsets of :class:`_Ids` into the
    pieces joined, which start with room for ``room`` ids."""

    def __init__(self, room: int) -> None:
        self.pieces: List[str] = []
        self.first: List[int] = []  # each piece's first slot
        self.offsets = np.zeros(room + 1, dtype=np.int64)
        self.n = 0

    def extend(self, ids: List[str]) -> None:
        if not ids:
            return
        n, stop = self.n, self.n + len(ids)
        self.offsets = _grown(self.offsets, stop + 1)
        start = int(self.offsets[n])
        lengths = np.fromiter(itertools.chain((start,), map(len, ids)), np.int64, len(ids) + 1)
        np.cumsum(lengths, out=self.offsets[n : stop + 1])
        self.pieces.append("".join(ids))
        self.first.append(n)
        self.n = stop

    def read(self, start: int, stop: int) -> List[str]:
        """The ids of the slots ``start`` to ``stop``, at a cost that grows
        with their number, not with the number of pieces."""
        offsets = self.offsets[start : stop + 1].tolist()
        ids = []
        for slot, begin, end in zip(range(start, stop), offsets, offsets[1:]):
            k = bisect.bisect_right(self.first, slot) - 1
            base = int(self.offsets[self.first[k]])
            ids.append(self.pieces[k][begin - base : end - base])
        return ids

    def column(self) -> _Ids:
        return _Ids("".join(self.pieces), _exact(self.offsets, self.n + 1))


class _PersonSlots(dict):
    """Each cluster slot's map from individual id to slot, held only while in use.

    Clusters and individuals get slots in the order rows introduce them.
    While the owners of new individual slots never decrease (``in_order``,
    weaker than canonical order), cluster ``c``'s individuals hold the slots
    ``first[c] : first[c + 1]``.  So no map outlives the chunk that used it
    (:meth:`settle`), except the chunk's last cluster's, whose rows may go on
    in the next chunk: a later lookup of a cluster rebuilds its map from the
    ids of its run, read back from their pieces.  From the first chunk that
    breaks that order on, every map is kept, and ``first`` stays true of the
    clusters whose maps were dropped before.
    """

    def __init__(self, ids: _IdPieces, next_slot) -> None:
        super().__init__()
        self.ids = ids  # every individual id, by slot
        self.next_slot = next_slot
        self.first = np.zeros(1, dtype=np.intp)
        self.in_order = True

    def __missing__(self, c: int) -> Dict[str, int]:
        # only a cluster of an earlier chunk can lack a map: see open
        f, e = int(self.first[c]), int(self.first[c + 1])
        people = self[c] = defaultdict(self.next_slot, zip(self.ids.read(f, e), range(f, e)))
        return people

    def open(self, start: int, stop: int) -> None:
        """Empty maps for the new cluster slots ``start`` to ``stop``."""
        self.update(zip(range(start, stop), map(defaultdict, itertools.repeat(self.next_slot, stop - start))))

    def settle(self, owner: np.ndarray, start: int, stop: int, n_clusters: int, last: int) -> None:
        """Drop the maps no later chunk needs, once a chunk is read: its new
        individuals are the slots ``start : stop`` of ``owner``, the clusters
        now number ``n_clusters``, and its last row is of cluster ``last``."""
        if not self.in_order:
            return
        after = max(start, 1)  # the first slot with a slot before it
        step = owner[after:stop] - owner[after - 1 : stop - 1]
        if step.size and step.min() < 0:
            self.in_order = False
            return
        heads = np.flatnonzero(step) + after  # each new cluster's first slot
        self.first = _grown(self.first, n_clusters + 1)
        self.first[n_clusters - heads.size : n_clusters] = heads
        self.first[n_clusters] = stop
        people = self[last]
        self.clear()
        self[last] = people


class _ColumnBuilder:
    """Checks and accumulates a long table's rows, one chunk at a time.

    Clusters and individuals get dense slots in the order rows introduce
    them: a dict maps each cluster id to its slot, and a
    :class:`_PersonSlots` maps the individual ids of the clusters in use, so
    no key is kept per row or per (cluster, individual) pair.  The cluster
    ids by slot are that dict's keys, listed; the individual ids are
    :class:`_IdPieces`.  ``canonical``, judged a chunk at a time on the new
    individuals while their ids are ``str`` objects, says whether the rows
    introduce (cluster id, individual id) pairs in increasing order, so that
    slots are canonical positions (:meth:`dataset`).  Arrays indexed by
    slot hold a cluster's first-row codes and covariates, and an
    individual's cluster, first-row covariates and outcomes, so their sizes
    follow the clusters and individuals, not the rows; the per-individual
    arrays start with room for ``people`` individuals, where their number
    can be foreseen.  Rows arrive as columns (:meth:`add_columns`), which
    raises on the earliest failing row.  Each row check is one vectorized
    mask over a chunk; the failing row's error is read from the values the
    chunk converted, with no second parse.
    """

    def __init__(
        self, schema: TableSchema, n_fields: int, col_index: Dict[str, int], x_col: List[int], people: int
    ) -> None:
        self.schema = schema
        self.n_fields = n_fields
        self.col = col_index  # each logical column's field
        self.x_col = x_col  # each cluster, then individual, covariate's field
        self.n_times = schema.grid.n_times
        self.grid_index = {t: k for k, t in enumerate(schema.grid.times)}  # matched exactly
        self.n_clusters = self.n_people = 0
        # a new id takes the next slot as it is looked up
        self.cluster_of: Dict[str, int] = defaultdict(itertools.count().__next__)
        self.individual_ids = _IdPieces(people)
        self.canonical, self.last = True, []  # whether the pairs introduced rise, and the last of them
        self.people_of = _PersonSlots(self.individual_ids, itertools.count().__next__)
        n_xc, n_xi = len(schema.cluster_covariates), len(schema.individual_covariates)
        self.codes = np.zeros((0, 4), dtype=np.int8)  # a1, r, a2nr, a2r
        self.xc = np.zeros((0, n_xc))
        self.owner = np.zeros(people, dtype=np.intp)
        self.xi = np.zeros((people, n_xi))
        self.y = np.zeros((people, self.n_times))
        self.filled = np.zeros((people, self.n_times), dtype=bool)

    def add_columns(self, first_line: int, columns: Sequence[Sequence[str]]) -> None:
        """Convert, check and store the rows, numbered from ``first_line``, of
        ``columns``, one sequence of cells per field; blank rows are skipped.

        Outcomes are stored up to the first row failing a check, first-row
        references for every cluster and individual the rows introduce; then
        that row's error is raised, read from the values converted here.
        """
        cids = list(map(str.strip, columns[self.col["cluster_id"]]))
        lines: Sequence[int] = range(first_line, first_line + len(cids))
        if "" in cids:  # only a row with an empty cluster id can be blank
            nonblank = [bool(cid) or any(column[i].strip() for column in columns) for i, cid in enumerate(cids)]
            if not all(nonblank):
                columns = [list(itertools.compress(column, nonblank)) for column in columns]
                cids = list(itertools.compress(cids, nonblank))
                lines = list(itertools.compress(lines, nonblank))
        if not cids:
            return
        schema, col, grid = self.schema, self.col, self.schema.grid
        m = len(cids)
        iids = list(map(str.strip, columns[col["individual_id"]]))
        raw_y = list(map(str.strip, columns[col["y"]]))

        y, y_unreadable = _floats(raw_y)
        times = {}
        for raw in set(columns[col["time"]]):
            try:
                times[raw] = self.grid_index.get(float(raw), _OFF_GRID_TIME)
            except ValueError:
                times[raw] = _NON_NUMERIC_TIME
        k = np.fromiter(map(times.__getitem__, columns[col["time"]]), np.intp, m)
        codes = np.zeros((m, 4), dtype=np.int8)  # a2r stays absent outside design I
        for j, name in enumerate(Pathway._fields):
            if name in col:
                codes[:, j] = _decoded(columns[col[name]], functools.partial(self._decode, name, where=""))
        n_xc = len(schema.cluster_covariates)
        xc = _float_columns(columns, self.x_col[:n_xc], m)
        xi = _float_columns(columns, self.x_col[n_xc:], m)

        # each row's cluster and individual slot
        c_slots = list(map(self.cluster_of.__getitem__, cids))
        c = np.array(c_slots, dtype=np.intp)
        new_c, n_clusters = _first_seen(c, self.n_clusters)
        self.people_of.open(self.n_clusters, n_clusters)
        self.n_clusters = n_clusters
        p = np.fromiter(map(operator.getitem, map(self.people_of.__getitem__, c_slots), iids), np.intp, m)
        new_p, n_people = _first_seen(p, self.n_people)
        start, self.n_people = self.n_people, n_people
        for name in ("codes", "xc"):
            setattr(self, name, _grown(getattr(self, name), self.n_clusters))
        for name in ("owner", "xi", "y", "filled"):
            setattr(self, name, _grown(getattr(self, name), self.n_people))
        self.codes[c[new_c]] = codes[new_c]
        self.xc[c[new_c]] = xc[new_c]
        self.owner[p[new_p]] = c[new_p]
        self.xi[p[new_p]] = xi[new_p]
        self.people_of.settle(self.owner, start, self.n_people, self.n_clusters, c_slots[-1])
        new_iids = list(itertools.compress(iids, new_p))
        if self.canonical:
            # from the last pair before: no cluster id falls, and where one does not rise the individual id does
            cs, js = self.last[:1] + list(itertools.compress(cids, new_p)), self.last[1:] + new_iids
            self.canonical = all(map(operator.le, cs, cs[1:])) and all(
                map(operator.or_, map(operator.lt, cs, cs[1:]), map(operator.lt, js, js[1:])))
            self.last = cs[-1:] + js[-1:]
        self.individual_ids.extend(new_iids)

        # the key of an off-grid row is unique, so it never counts as a duplicate
        on_grid = k >= 0
        key = np.where(on_grid, p * self.n_times + k, -1 - np.arange(m))
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(m, dtype=bool)
        repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
        duplicate = on_grid & (self.filled[p, np.where(on_grid, k, 0)] | repeated)

        # an absent outcome, "" or "NA", is unreadable
        failed = (
            y_unreadable | (k == _NON_NUMERIC_TIME) | ~np.isfinite(y) | (k == _OFF_GRID_TIME)
            | (codes == _BAD_CODE).any(axis=1)
            | ~np.isfinite(xc).all(axis=1) | ~np.isfinite(xi).all(axis=1)
            | (self.codes[c] != codes).any(axis=1) | (self.xc[c] != xc).any(axis=1)
            | duplicate
            | (self.xi[p] != xi).any(axis=1)
        )
        fault = int(np.argmax(failed)) if failed.any() else m
        self.y[p[:fault], k[:fault]] = y[:fault]
        self.filled[p[:fault], k[:fault]] = True
        if fault == m:
            return

        # the failing row's first failing check, in the order of failed
        where, cid, iid = f"line {lines[fault]}", cids[fault], iids[fault]
        if raw_y[fault] in _ABSENT:
            raise MissingCell(f"{where}: missing outcome for cluster {cid!r}")
        if y_unreadable[fault] or k[fault] == _NON_NUMERIC_TIME:
            raise MissingCell(f"{where}: non-numeric outcome or time")
        if not math.isfinite(y[fault]):
            raise MissingCell(f"{where}: outcome is {raw_y[fault]!r}, not a finite number")
        t = float(columns[col["time"]][fault])
        if k[fault] == _OFF_GRID_TIME:
            raise UnknownTime(f"{where}: time {t} is not on the grid {grid.times}")
        for name, code in zip(Pathway._fields, codes[fault].tolist()):
            if code == _BAD_CODE:
                self._decode(name, columns[col[name]][fault], where)  # raises BadTreatmentCode
        covariates = (*schema.cluster_covariates, *schema.individual_covariates)
        for name, i, value in zip(covariates, self.x_col, [*xc[fault].tolist(), *xi[fault].tolist()]):
            if not math.isfinite(value):
                raw = columns[i][fault].strip()
                raise MissingCell(f"{where}: covariate {name!r} is {raw!r}, not a finite number")
        if (self.codes[c[fault]] != codes[fault]).any():
            raise InconsistentCluster(f"{where}: cluster {cid!r} rows disagree on treatment/response")
        if (self.xc[c[fault]] != xc[fault]).any():
            raise InconsistentCluster(f"{where}: cluster {cid!r} rows disagree on cluster covariates")
        if duplicate[fault]:
            raise InconsistentCluster(f"{where}: duplicate time {t} for individual {iid!r} in cluster {cid!r}")
        raise InconsistentCluster(f"{where}: individual {iid!r} rows disagree on covariates")

    def _decode(self, name: str, raw: str, where: str) -> Optional[int]:
        """The pathway entry ``name`` coded in ``raw``, None for an absent
        second-stage entry; raises BadTreatmentCode."""
        schema, raw = self.schema, raw.strip()
        if name in ("a2nr", "a2r") and raw in _ABSENT:
            return None
        codes = {"a1": schema.a1_codes, "r": schema.r_codes}.get(name, schema.a2_codes)
        allowed = (0, 1) if name == "r" else (-1, 1)
        if raw not in codes:
            raise BadTreatmentCode(f"{where}: unknown {name} code {raw!r}")
        if codes[raw] not in allowed:
            raise BadTreatmentCode(f"{where}: {name} code {raw!r} maps outside {allowed}")
        return codes[raw]

    def dataset(self) -> TrialDataset:
        """The canonical-order dataset, once every row has been added.

        When the rows introduced (cluster id, individual id) pairs in
        increasing order (``canonical``), as :func:`serialize_long_table`
        writes them, slots are positions and the dataset takes the builder's
        arrays and ids as they are; otherwise they are sorted into place.
        """
        cids = list(self.cluster_of)  # slots are handed out in insertion order
        del self.cluster_of, self.people_of  # no id is looked up after the last row
        schema, grid = self.schema, self.schema.grid
        n_clusters, n_people = self.n_clusters, self.n_people
        iids = self.individual_ids.column()
        del self.individual_ids  # its pieces, joined now
        owner = self.owner[:n_people]
        incomplete = np.flatnonzero(~self.filled[:n_people].all(axis=1)).tolist()
        if incomplete:
            # the first in canonical order
            j = min(incomplete, key=lambda j: (cids[owner[j]], iids[j]))
            missing = [grid.times[k] for k in np.flatnonzero(~self.filled[j]).tolist()]
            raise MissingCell(f"cluster {cids[owner[j]]!r} individual {iids[j]!r}: missing outcomes at times {missing}")
        if self.canonical:
            codes, x_cluster = _exact(self.codes, n_clusters), _exact(self.xc, n_clusters)
            x_individual, y = _exact(self.xi, n_people), _exact(self.y, n_people)
            sizes = np.bincount(owner, minlength=n_clusters)
        else:
            iid_list = list(iids)
            clusters = sorted(range(n_clusters), key=cids.__getitem__)
            position = np.empty(n_clusters, dtype=np.intp)
            position[clusters] = np.arange(n_clusters)
            keys = list(zip(position[owner].tolist(), iid_list))
            people = sorted(range(n_people), key=keys.__getitem__)
            codes, x_cluster = self.codes[clusters], self.xc[clusters]
            x_individual, y = self.xi[people], self.y[people]
            sizes = np.bincount(position[owner], minlength=n_clusters)
            cids, iids = [cids[c] for c in clusters], _Ids.of([iid_list[j] for j in people])
        pathways, pathway_index = _code_pathway_table(codes)
        return TrialDataset._from_columns(
            schema.design, grid, schema.cluster_covariates, schema.individual_covariates,
            pathways=pathways, pathway_index=pathway_index,
            _cluster_id_column=_Ids.of(cids),
            a1=codes[:, 0], r=codes[:, 1], a2nr=codes[:, 2], a2r=codes[:, 3],
            sizes=sizes, x_cluster=x_cluster,
            _individual_id_column=iids, x_individual=x_individual, y=y,
        )


def _add_rows(builder: _ColumnBuilder, line: int, reader: Iterator[List[str]]) -> int:
    """Add the rows ``reader`` yields, numbered from ``line``, a chunk at a
    time as columns, and return the number of the line after them.

    A chunk is added up to its first nonblank row with the wrong number of
    fields, whose error is then raised; a blank row of any length enters as
    empty cells, which the builder skips.
    """
    n = builder.n_fields
    while True:
        rows: List[List[str]] = []
        try:
            rows.extend(itertools.islice(reader, _CHUNK_ROWS))
        finally:  # also on a csv.Error, so that a fault on an earlier row is reported first
            wrong = next((i for i, row in enumerate(rows) if len(row) != n and any(map(str.strip, row))), len(rows))
            if wrong:
                builder.add_columns(line, list(zip(*(row if len(row) == n else [""] * n for row in rows[:wrong]))))
            if wrong < len(rows):
                raise InconsistentCluster(f"line {line + wrong}: expected {n} fields, got {len(rows[wrong])}")
        if not rows:
            return line
        line += len(rows)


def _header_index(header: List[str], name: str, what: str) -> int:
    """The position of the column ``name`` in ``header``; raises
    MissingCell, naming the column as ``what``, unless it is there once."""
    if name not in header:
        raise MissingCell(f"{what} missing from header")
    if header.count(name) > 1:
        raise MissingCell(f"{what} appears more than once in the header")
    return header.index(name)


def parse_long_table(source: TextIO | str, schema: TableSchema) -> TrialDataset:
    """Parse a delimited long-format table into a :class:`TrialDataset`.

    Comma and tab delimiters are accepted; a header row is required, and
    must name each column the schema reads once (see :class:`TableSchema`
    for the names).  Header names may be quoted, as R's ``write.csv`` writes
    them, and a leading byte order mark is dropped.  Rows belonging to one
    cluster must agree on treatment, response, and cluster-level
    covariates.  Every individual must contribute exactly one complete
    outcome per grid time.  The earliest failing row raises; after
    all rows, missing outcomes and then the first validation violation do.

    ``source``, a string or a text stream, is read at most
    :data:`_CHUNK_ROWS` lines at a time; a string is sliced, never copied
    whole or split per line.  A chunk whose every line holds one delimiter
    fewer than the header has fields is split into columns at once, one
    string per cell; a chunk that is not, or that holds a NUL or a field
    longer than ``csv.field_size_limit()``, is read by ``csv.reader`` row by
    row.  From the first chunk holding a quote or a carriage return outside
    "\\r\\n", ``csv.reader`` reads all the rest, since a quoted field may
    span lines.  Both routes give the same dataset, or the same error.
    """
    people = 0  # individuals foreseen from a string's lines: one per grid time
    if isinstance(source, str):
        header_end = source.find("\n") + 1 or len(source)
        sample = source[:header_end]
        chunks = _text_chunks(source, header_end)
        n_lines = source.count("\n", header_end) + (not source.endswith("\n"))
        people = -(-n_lines // schema.grid.n_times)
    else:
        stream = iter(source)
        sample = next(stream, "")
        chunks = _stream_chunks(stream)
    if not sample:
        raise MissingCell("empty input: header row required")
    sample = sample.removeprefix("\ufeff")
    delimiter = "\t" if sample.count("\t") >= sample.count(",") else ","
    if '"' in sample:
        header = next(csv.reader([sample], delimiter=delimiter))
    else:
        header = sample.rstrip("\r\n").split(delimiter)
    header = [h.strip() for h in header]

    col_index: dict[str, int] = {}
    for logical in _table_columns(schema.design):
        name = schema.columns.get(logical, logical)
        col_index[logical] = _header_index(header, name, f"column {name!r} (for {logical!r})")
    x_col = [
        _header_index(header, cov, f"covariate column {cov!r}")
        for cov in (*schema.cluster_covariates, *schema.individual_covariates)
    ]

    builder = _ColumnBuilder(schema, len(header), col_index, x_col, people)
    line = 2
    for chunk, lines in chunks:
        if '"' in chunk or "\r" in chunk and chunk.count("\r") != chunk.count("\r\n"):
            # a quoted field may span lines: csv.reader reads the rest
            remaining = itertools.chain(lines, itertools.chain.from_iterable(more for _, more in chunks))
            _add_rows(builder, line, csv.reader(remaining, delimiter=delimiter))
            break
        columns = _split_columns(chunk, delimiter, len(header))
        if columns is None:
            line = _add_rows(builder, line, csv.reader(lines, delimiter=delimiter))
        else:
            builder.add_columns(line, columns)
            line += len(columns[0])
        del columns  # before the next chunk is split

    ds = builder.dataset()
    _raise_first_violation(validate(ds))
    return ds


def serialize_long_table(ds: TrialDataset, delimiter: str = ",") -> str:
    """Inverse of :func:`parse_long_table` (up to row order)."""
    columns = _table_columns(ds.design)
    include_a2r = "a2r" in columns
    header = [*columns, *ds.cluster_covariates, *ds.individual_covariates]

    def enc(v: int) -> str:
        return "NA" if v == 0 else str(v)

    # the cells after y, shared by every row of a cluster
    cluster_cells = [
        [str(a1), str(r), enc(a2nr), *([enc(a2r)] if include_a2r else []), *map(repr, xc)]
        for a1, r, a2nr, a2r, xc in zip(
            ds.a1.tolist(), ds.r.tolist(), ds.a2nr.tolist(), ds.a2r.tolist(), ds.x_cluster.tolist()
        )
    ]
    times = [repr(t) for t in ds.grid.times]
    cids = list(ds._cluster_id_column)
    owner = np.repeat(np.arange(ds.n_clusters), ds.sizes).tolist()

    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    for c, iid, xi, ys in zip(owner, ds._individual_id_column, ds.x_individual.tolist(), ds.y.tolist()):
        cid, cells, xi = cids[c], cluster_cells[c], [repr(v) for v in xi]
        writer.writerows([cid, iid, t, repr(v), *cells, *xi] for t, v in zip(times, ys))
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


def _check(ds: TrialDataset, faults: Sequence[Tuple[tuple, Violation]] = ()) -> ValidationReport:
    """Every invariant violation, per cluster in canonical order, plus
    ``faults`` the columns could not hold; warnings only on a valid dataset.

    A key (cluster position, check, individual position, slot) orders the
    violations: duplicate id, pathway, empty cluster, cluster covariates,
    then each individual's duplicate id, outcomes and covariates.  Duplicate
    ids are among ``faults``: only records can hold them.  Ids are read only
    to name a violation's cluster or individual.
    """
    faults = list(faults)
    ids = ds._cluster_id_column
    messages = [_pathway_violation(p, ds.design.kind) for p in ds.pathways]
    if any(messages):
        faults += [
            ((pos, 1), Violation(ids[pos], "design-consistency", messages[i]))
            for pos, i in enumerate(ds.pathway_index.tolist()) if messages[i] is not None
        ]
    faults += [
        ((pos, 2), Violation(ids[pos], "EmptyCluster", "cluster has no individuals"))
        for pos in np.flatnonzero(ds.sizes == 0).tolist()
    ]
    faults += [
        ((pos, 3), Violation(ids[pos], "NonFiniteCovariate", "cluster covariates are not all finite"))
        for pos in np.flatnonzero(~np.isfinite(ds.x_cluster).all(axis=1)).tolist()
    ]
    owner = np.repeat(np.arange(ds.n_clusters), ds.sizes)
    for slot, values, code, what in (
        (0, ds.y, "MissingCell", "outcomes"), (1, ds.x_individual, "NonFiniteCovariate", "covariates"),
    ):
        faults += [
            ((int(owner[j]), 4, j, slot), Violation(
                ids[owner[j]], code, f"individual {ds._individual_id_column[j]!r} has non-finite {what}",
            ))
            for j in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist()
        ]
    violations = tuple(v for _, v in sorted(faults, key=lambda fault: fault[0]))
    warnings: Tuple[str, ...] = ()
    if not violations:
        warnings = tuple(
            f"no cluster is consistent with embedded regime {cai}"
            for cai in enumerate_cais(ds.design)
            if not any(consistency_indicator(p, cai, ds.design) for p in ds.pathways)
        )
    return ValidationReport(violations, warnings)


def _raise_first_violation(report: ValidationReport) -> None:
    """Raise the report's first violation, if any: :class:`MissingCell` for
    an absent or non-finite value, else :class:`InconsistentCluster`."""
    if report.violations:
        first = report.violations[0]
        error = MissingCell if first.code in ("MissingCell", "NonFiniteCovariate") else InconsistentCluster
        raise error(f"cluster {first.cluster_id!r}: {first.message}")


def validate(ds: TrialDataset) -> ValidationReport:
    """Report every invariant violation; empty report iff the dataset is valid.

    The report is computed when the dataset is built; this returns it.
    """
    return ds._report
