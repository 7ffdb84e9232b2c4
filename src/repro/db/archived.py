"""What a table has archived: the catalog's record of rows that left memory.

§4.1 of the paper argues that once a model captures the law of the data, the
raw pages are redundant.  :class:`repro.persist.archive.ArchiveTier` moves
the rows matching a predicate onto disk; what stays behind is one record per
table — its :class:`ArchivedSegment`\\ s, committed as table metadata under
:data:`ARCHIVE_META_KEY` in the same commit as the shrunken table.  Being
catalog state it is pin-aware (a reader sees the record of its commit) and it
is created, replaced and dropped with the table.  Every reader asks it here:

* :func:`with_archived` — catalog statistics fold in the archived rows'
  statistics, so model routes keep describing the full logical table;
* :func:`blocking_reason` — the planner: exact execution over the live rows
  would be incomplete, unless the WHERE clause is provably disjoint from
  every archived predicate (``ts >= 5000`` against ``ts < 1000``);
* :func:`refit_reason` — captures and refits: a fit would see only the
  predicate-biased live remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import TYPE_CHECKING, Any

from repro.db.constraints import ColumnConstraint, extract_constraints
from repro.db.stats import ColumnStats, TableStats, merge_table_stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.catalog import Catalog
    from repro.db.sql.ast import SelectStatement

__all__ = [
    "ARCHIVE_META_KEY",
    "ArchivedSegment",
    "archived_rows",
    "archived_segments",
    "archived_tables",
    "blocking_reason",
    "refit_reason",
    "with_archived",
]

#: The table-metadata key the record is committed under.
ARCHIVE_META_KEY = "archive_segments"


@dataclass
class ArchivedSegment:
    """One archived slice of a table: where its rows went and what they were."""

    table_name: str
    predicate_sql: str
    schema_payload: list[list[Any]]
    segment_entries: list[dict[str, Any]]
    #: Statistics of the archived rows, computed once when they were archived.
    stats: TableStats
    #: Constraint analysis of ``predicate_sql``, computed once at archive or
    #: restore time (None when unanalysable) — the planner's disjointness
    #: check runs on every cache-missing plan and must not re-parse.
    constraints: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.constraints is None:
            self.constraints = _analyse_predicate(self.predicate_sql)

    @property
    def row_count(self) -> int:
        return self.stats.row_count

    @property
    def byte_size(self) -> int:
        return self.stats.byte_size

    def to_payload(self) -> dict[str, Any]:
        return {
            "table_name": self.table_name,
            "predicate_sql": self.predicate_sql,
            "row_count": self.row_count,
            "byte_size": self.byte_size,
            "schema": self.schema_payload,
            "segments": self.segment_entries,
            "column_stats": {name: stats.to_payload() for name, stats in self.stats.columns.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ArchivedSegment":
        return cls(
            table_name=payload["table_name"],
            predicate_sql=payload["predicate_sql"],
            schema_payload=payload["schema"],
            segment_entries=payload["segments"],
            stats=TableStats(
                table_name=payload["table_name"],
                row_count=int(payload["row_count"]),
                byte_size=int(payload["byte_size"]),
                columns={
                    name: ColumnStats.from_payload(entry)
                    for name, entry in payload.get("column_stats", {}).items()
                },
            ),
        )


def archived_segments(catalog: "Catalog", table_name: str) -> tuple[ArchivedSegment, ...]:
    """The segments ``table_name`` has archived, as the caller's commit has them."""
    return catalog.table_meta(table_name, ARCHIVE_META_KEY, ())


def archived_rows(catalog: "Catalog", table_name: str) -> int:
    return sum(segment.row_count for segment in archived_segments(catalog, table_name))


def archived_tables(catalog: "Catalog") -> list[str]:
    """The tables that have archived rows, by name."""
    return [name for name in catalog.table_names() if archived_segments(catalog, name)]


def with_archived(live: TableStats, segments: tuple[ArchivedSegment, ...]) -> TableStats:
    """Live statistics widened to cover the archived rows as well."""
    return reduce(merge_table_stats, (segment.stats for segment in segments), live)


def refit_reason(catalog: "Catalog", table_name: str) -> str | None:
    """Why capturing a model of ``table_name`` is unsound right now.

    With raw segments in the model-only tier, a fresh fit would see only the
    (predicate-biased) live remainder yet be served as describing the full
    logical table — and feedback verification is off over archived tables,
    so nothing would ever catch the bias.
    """
    rows = archived_rows(catalog, table_name)
    if rows:
        return (
            f"{rows} row(s) of {table_name!r} are archived; a refit would "
            f"fit only the live remainder — recall the archive first"
        )
    return None


def blocking_reason(catalog: "Catalog", statement: "SelectStatement") -> str | None:
    """Why ``statement`` cannot honestly run over the raw (live) rows.

    None when no table it reads has archived rows, or when its WHERE clause
    is provably disjoint from every archived predicate.  Pin-aware: a reader
    pinned to a post-archive commit stays blocked even if a concurrent recall
    has already restored the live table — its pinned table is still the
    shrunken remainder.
    """
    names = statement.table_names()
    segments_by_name = {name: archived_segments(catalog, name) for name in names}
    if not any(segments_by_name.values()):
        return None  # nothing archived: skip the constraint analysis
    # Disjointness proofs only apply to single-table statements: the
    # constraint analysis strips table qualifiers, so in a join a filter on
    # one table's ``ts`` would falsely "prove" disjointness from another
    # table's archived ``ts`` predicate.  With joins present, any archived
    # table blocks.
    query = statement.constraints if not statement.joins else None
    for name in names:
        segments = segments_by_name[name]
        for segment in segments:
            if query is None or not _provably_disjoint(segment, query):
                rows = sum(s.row_count for s in segments)
                return (
                    f"{rows} row(s) of table {name!r} are archived to the "
                    f"model-only tier (predicate {segment.predicate_sql!r}); "
                    f"exact execution over the remaining raw rows would be "
                    f"incomplete — serve from warehouse models or recall the archive"
                )
    return None


def _provably_disjoint(segment: ArchivedSegment, query) -> bool:
    """True when the query constraints exclude every archived row.

    Unanalysable residual conjuncts in the *query* are fine — they only
    narrow the selection, so a disjointness proof from the analysed
    conjuncts still stands.  An unanalysable *archive* predicate is fatal:
    we cannot characterise what was archived.
    """
    archived = segment.constraints
    if archived is None or archived.residual:
        return False
    for column, archived_constraint in archived.by_column.items():
        query_constraint = query.by_column.get(column)
        if query_constraint is not None and _constraints_disjoint(archived_constraint, query_constraint):
            return True
    return False


def _analyse_predicate(predicate_sql: str):
    """Parse + constraint-analyse a predicate once (None when it resists)."""
    # Imported here: the SQL package imports the catalog, which imports this.
    from repro.db.sql.parser import parse_expression

    try:
        return extract_constraints(parse_expression(predicate_sql))
    except Exception:
        return None


def _constraints_disjoint(a: ColumnConstraint, b: ColumnConstraint) -> bool:
    """True when no value can satisfy both constraints."""
    if a.values is not None:
        return all(not b.admits(v) for v in a.values)
    if b.values is not None:
        return all(not a.admits(v) for v in b.values)
    # Interval vs interval: empty intersection?
    both = replace(a)
    if b.low is not None:
        both.bound_below(b.low, b.low_inclusive)
    if b.high is not None:
        both.bound_above(b.high, b.high_inclusive)
    if both.low is None or both.high is None:
        return False
    return both.low > both.high or (
        both.low == both.high and not (both.low_inclusive and both.high_inclusive)
    )
