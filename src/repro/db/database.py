"""The :class:`Database` façade: catalog + SQL executor + IO model + UDFs.

This is the substrate object the rest of the library builds on.  The model
harvesting system (:class:`repro.core.system.LawsDatabase`) wraps a
``Database`` and adds the model store, the interception hooks and the
approximate query engine.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Mapping, Sequence

from repro.db.catalog import Catalog
from repro.db.io_model import IOModel
from repro.db.schema import Schema
from repro.db.sql.executor import QueryResult, SQLExecutor
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.db.udf import UDFRegistry

__all__ = ["Database"]


class Database:
    """An in-memory columnar relational database with a SQL subset.

    ``io_model`` brings the owning system's collectors: the executor traces
    to its tracer.  Built on its own, a database charges a default
    :class:`IOModel` and traces nothing.
    """

    def __init__(self, io_model: IOModel | None = None) -> None:
        self.catalog = Catalog()
        self.io_model = io_model or IOModel()
        self.udfs = UDFRegistry()
        self._executor = SQLExecutor(self.catalog, self.io_model, tracer=self.io_model.tracer)

    # -- DDL / data loading -----------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create an empty table with the given schema."""
        return self.catalog.create_table(name, schema)

    def register_table(self, table: Table, replace: bool = False) -> Table:
        """Register an existing :class:`Table` under its own name."""
        return self.catalog.register_table(table, replace=replace)

    def load_dict(self, name: str, data: Mapping[str, Sequence[Any]], schema: Schema | None = None) -> Table:
        """Create and register a table from a column mapping (types inferred)."""
        table = Table.from_dict(name, data, schema)
        return self.catalog.register_table(table)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)

    def insert_rows(self, name: str, rows: Sequence[Sequence[Any]]) -> int:
        """Append row tuples to an existing table (one atomic commit, see
        :meth:`~repro.db.catalog.Catalog.append_rows`); returns the row index
        the batch starts at."""
        return self.catalog.append_rows(name, rows)

    # -- lookup ------------------------------------------------------------------

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def stats(self, name: str) -> TableStats:
        return self.catalog.stats(name)

    def set_stats_overlay(self, name: str, overlay: Callable[[TableStats], TableStats]) -> None:
        """Serve ``stats(name)`` through ``overlay`` (archive-tier merging).

        Overlays live in the catalog and are captured by snapshots, so a
        pinned reader keeps the overlay state of its commit, not the live one.
        """
        self.catalog.set_stats_overlay(name, overlay)

    def clear_stats_overlay(self, name: str) -> None:
        self.catalog.clear_stats_overlay(name)

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self):
        """Pin a consistent view of every table (see :meth:`Catalog.snapshot`)."""
        return self.catalog.snapshot()

    def reading(self, snapshot):
        """Context manager: run this thread's reads against ``snapshot``."""
        return self.catalog.reading(snapshot)

    # -- SQL ------------------------------------------------------------------------

    def sql(self, query: str) -> QueryResult:
        """Execute a SQL statement and return its result."""
        return self._executor.execute(query)

    def parse_sql(self, query: str):
        """Parse a SQL statement through the executor's LRU cache.

        Other front-ends (the approximate engine, the unified planner)
        analyse the same statement text repeatedly; routing them through the
        shared cache means each distinct statement is parsed once.
        """
        return self._executor.prepare(query).statement

    @property
    def executor(self) -> SQLExecutor:
        """The SQL executor (exposes the parse/plan cache to the planner)."""
        return self._executor

    def query(self, query: str) -> Table:
        """Execute a SELECT and return just the result table."""
        return self._executor.execute(query).table

    def explain(self, query: str) -> str:
        """Return the physical plan text for a SELECT statement."""
        return self._executor.explain(query)

    def plan_cache_info(self) -> dict[str, int]:
        """Hit/miss/invalidation counters of the SQL plan cache."""
        return self._executor.plan_cache_info()

    def clear_plan_cache(self) -> None:
        """Drop all cached SQL parses and plans."""
        self._executor.clear_plan_cache()

    # -- accounting -------------------------------------------------------------------

    def reset_io(self) -> None:
        """Reset the simulated IO counters (benchmarks call this between runs)."""
        self.io_model.reset()

    def io_snapshot(self) -> dict[str, float]:
        return self.io_model.snapshot()

    def total_bytes(self) -> int:
        """Total nominal storage footprint of all tables."""
        return self.catalog.total_bytes()

    def fingerprint(self) -> str:
        """Deterministic digest of every table's name, schema and rows.

        The chaos suite diffs a faulted run against a never-faulted oracle:
        equal fingerprints mean byte-equal logical content, without
        per-table row-by-row assertions.  Row order is part of the digest —
        appends are ordered, so two runs of the same workload must agree.
        """
        digest = hashlib.sha256()
        for name in sorted(self.table_names()):
            table = self.table(name)
            digest.update(name.encode("utf-8"))
            digest.update(repr(table.schema.names).encode("utf-8"))
            for row in table.to_rows():
                digest.update(repr(row).encode("utf-8"))
        return digest.hexdigest()

    def describe(self) -> str:
        return self.catalog.describe()
