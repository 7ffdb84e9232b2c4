"""SQL statement executor: ties the parser, planner and operators together.

A text is looked up in two LRUs.  The first is keyed by the SQL text and
holds a :class:`PreparedStatement`: the parsed AST and — for SELECTs — the
physical plan.  On a text miss a SELECT is lexed once and reduced to its
shape (:mod:`repro.db.sql.shape`: the WHERE clause's comparison literals
become typed slots); the second LRU holds one parsed :class:`Template` per
shape, so a text that differs from a seen one only in those literals is
bound, not parsed.  INSERT and CREATE keep the text key alone.  Parsing is
pure, so neither entry goes stale.

The physical plan stays per statement: literals feed zone-map pruning and
top-N bounds when a plan binds.  It is stamped with the catalog's version
counter — any DDL or data change (an append commits a new data generation
of its table, which bumps the version) invalidates it, so a cached plan can
never serve a stale schema.  Plans are stateless operator trees: re-executing one always reads
the current table contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.db.catalog import Catalog
from repro.db.io_model import IOModel
from repro.db.lru import LockedLRU
from repro.db.schema import ColumnDef, Schema
from repro.db.sql.ast import CreateTableStatement, InsertStatement, SelectStatement, Statement
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse
from repro.db.sql.planner import PlannedQuery, plan_select
from repro.db.sql.shape import Shape, Template, select_shape, verbatim_key
from repro.db.table import Table
from repro.errors import SQLError, SQLPlanningError, UnsupportedSQLError
from repro.obs.trace import Tracer

__all__ = ["PreparedStatement", "QueryResult", "SQLExecutor"]

#: Statements that keep the text key alone, told apart without lexing them.
_TEXT_KEYED = frozenset({"insert", "create"})


@dataclass
class QueryResult:
    """The result of executing one SQL statement."""

    table: Table
    statement_type: str
    elapsed_seconds: float
    io: dict[str, float] = field(default_factory=dict)
    plan_text: str = ""

    def rows(self) -> list[tuple]:
        return self.table.to_rows()

    def scalar(self):
        """Return the single value of a 1x1 result (raises otherwise)."""
        if self.table.num_rows != 1 or self.table.num_columns != 1:
            raise SQLPlanningError(
                f"scalar() requires a 1x1 result, got {self.table.num_rows}x{self.table.num_columns}"
            )
        return self.table.row(0)[0]


@dataclass(eq=False)
class PreparedStatement:
    """One SQL text, parsed once; the cache entry a query carries end to end
    (hashed by identity: layers above may key what they derive on it)."""

    statement: Statement
    #: The SELECT's shape key (:mod:`repro.db.sql.shape`); None for DDL/DML.
    shape: str | None = None
    #: ``(catalog version, plan, rendered plan text)`` of a SELECT.  Stored
    #: as one attribute so concurrent executions swap it atomically.
    plan: tuple[int, PlannedQuery, str] | None = None


class SQLExecutor:
    """Execute SQL statements against a catalog, charging the IO model."""

    def __init__(
        self,
        catalog: Catalog,
        io_model: IOModel,
        *,
        tracer: Tracer,
        plan_cache_size: int = 128,
    ) -> None:
        self.catalog = catalog
        self.io_model = io_model
        #: While a trace is open on ``tracer``, SELECT operator trees execute
        #: with one span per operator; otherwise execution pays one check.
        self.tracer = tracer
        #: Optional :class:`repro.parallel.ParallelQueryEngine`.  When set,
        #: SELECT roots are first offered to the partitioned-execution path;
        #: it returns ``None`` (and this stays a single attribute check per
        #: query) whenever the partitioned strategy does not apply.  Assigned
        #: after construction, unlike every other collaborator: executor →
        #: engine → planner → database → executor is a cycle until the pool
        #: becomes database-owned (ROADMAP item 2(a)).
        self.parallel = None
        #: sql text -> :class:`PreparedStatement`; hits and misses count
        #: plan reuse, not text lookups (see :meth:`_plan`).
        self._cache = LockedLRU(plan_cache_size)
        #: SELECT shape key -> :class:`Template`.
        self._templates = LockedLRU(plan_cache_size)

    @property
    def plan_cache_size(self) -> int:
        return self._cache.capacity

    @plan_cache_size.setter
    def plan_cache_size(self, size: int) -> None:
        self._cache.capacity = size

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute one SQL statement."""
        return self.run(self.prepare(sql))

    def run(self, prepared: PreparedStatement) -> QueryResult:
        """Execute an already-prepared statement (no text lookup)."""
        statement = prepared.statement
        started = perf_counter()
        # Per-execution IO scope: only pages charged by *this* execution (and
        # anything it nests) are attributed to this statement, even when other
        # queries interleave on other threads.
        with self.io_model.scope() as io_scope:
            if isinstance(statement, SelectStatement):
                planned, plan_text = self._plan(prepared)
                table = self._run_root(planned)
                kind = "select"
            elif isinstance(statement, CreateTableStatement):
                table = self._execute_create(statement)
                kind = "create"
                plan_text = f"CreateTable({statement.name})"
            elif isinstance(statement, InsertStatement):
                table = self._execute_insert(statement)
                kind = "insert"
                plan_text = f"Insert({statement.name}, rows={len(statement.rows)})"
            else:  # pragma: no cover - parser only produces the three kinds above
                raise UnsupportedSQLError(f"unsupported statement type {type(statement).__name__}")

        elapsed = perf_counter() - started
        return QueryResult(
            table=table,
            statement_type=kind,
            elapsed_seconds=elapsed,
            io=io_scope.snapshot(),
            plan_text=plan_text,
        )

    def _run_root(self, planned: PlannedQuery) -> Table:
        """Execute a plan's root, per-operator traced when a trace is open.

        Cached plans are shared across executions and threads: operators are
        stateless, every :class:`TableScan` binds a frozen (pin-aware) view of
        its table per execution, and a traced run differs only in the tracer
        handed down the one walk (:meth:`Operator.execute`) — its spans go to
        the calling thread's stack, so concurrent executions of the same plan
        never see another query's spans.
        """
        parallel = self.parallel
        if parallel is not None:
            table = parallel.try_execute(planned)
            if table is not None:
                return table
        return planned.root.execute(self.tracer)

    def explain(self, sql: str) -> str:
        """Return the physical plan for a SELECT without executing it."""
        prepared = self.prepare(sql)
        if not isinstance(prepared.statement, SelectStatement):
            raise UnsupportedSQLError("EXPLAIN is only supported for SELECT statements")
        return self._plan(prepared)[1]

    # -- parse / plan caching -------------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """The cache entry for ``sql`` — the one text-keyed lookup of a query.

        A text seen for the first time is bound from its shape's template, or
        parsed, and remembered; parsing is pure (the AST is immutable and
        never depends on catalog state), so entries need no invalidation —
        only LRU eviction.  The entry stays valid in the caller's hands after
        eviction or :meth:`clear_plan_cache`.
        """
        prepared = self._cache.get(sql, count=False)
        if prepared is None:
            prepared = self._prepare(sql)
            self._cache.put(sql, prepared)
        return prepared

    def _prepare(self, sql: str) -> PreparedStatement:
        tokens = None
        if sql.lstrip()[:6].lower() not in _TEXT_KEYED:
            try:
                tokens = tokenize(sql)
            except SQLError:
                pass  # ``parse`` raises the same error
        shape = select_shape(tokens) if tokens else None
        if shape is None:
            return PreparedStatement(parse(sql))
        template = self._templates.get(shape.key, count=False)
        if template is not None:
            return PreparedStatement(template.bind(shape.values), shape.key)
        statement = parse(sql)
        template = Template.of(statement, shape)
        if template is None:
            # The token scan and the parser disagree about where this text's
            # literals sit: its shape is every token as written.
            shape = Shape(verbatim_key(tokens), 0, (), ())
            template = Template(statement, ())
        self._templates.put(shape.key, template)
        return PreparedStatement(statement, shape.key)

    def plan_statement(self, sql: str, statement: SelectStatement) -> tuple[PlannedQuery, str]:
        """Plan a SELECT through the version-stamped LRU cache.

        Exposed for the unified planner: a cached plan is only reused while
        ``catalog.version`` is unchanged, so DDL or data changes can never
        serve a stale schema.  A text the cache no longer holds is planned
        from the ``statement`` handed over, without an entry.
        """
        return self._plan(self._cache.get(sql, count=False) or PreparedStatement(statement))

    def _plan(self, prepared: PreparedStatement) -> tuple[PlannedQuery, str]:
        """Plan a SELECT, reusing its cached plan while the catalog is unchanged."""
        version = self.catalog.version
        cached = prepared.plan
        if cached is not None and cached[0] == version:
            self._cache.tally(hit=True)
            return cached[1], cached[2]
        self._cache.tally(hit=False, invalidated=cached is not None)
        planned = plan_select(prepared.statement, self.catalog, self.io_model)
        plan_text = planned.root.explain()
        prepared.plan = (version, planned, plan_text)
        return planned, plan_text

    def plan_cache_info(self) -> dict[str, int]:
        """Plan hit/miss/invalidation counters and current cache occupancy."""
        info = self._cache.info()
        info["invalidations"] = self._cache.invalidations
        return info

    def clear_plan_cache(self) -> None:
        """Drop every cached parse, template and plan (counters are kept)."""
        self._cache.clear()
        self._templates.clear()

    # -- DDL / DML ------------------------------------------------------------

    def _execute_create(self, statement: CreateTableStatement) -> Table:
        schema = Schema(ColumnDef(name, dtype) for name, dtype in statement.columns)
        return self.catalog.create_table(statement.name, schema)

    def _execute_insert(self, statement: InsertStatement) -> Table:
        # DML always targets the *live* table (a thread-pinned snapshot copy
        # would swallow the write).  The commit is the catalog's; the lock is
        # taken here already so the schema the rows are re-ordered for is the
        # schema of the table they land in.
        with self.catalog.commit_lock:
            table = self.catalog.live_table(statement.name)
            rows = statement.rows
            if statement.columns is not None:
                names = table.schema.names
                unknown = [c for c in statement.columns if c not in names]
                if unknown:
                    raise SQLPlanningError(f"INSERT references unknown columns {unknown} of table {statement.name!r}")
                rows = []
                for row in statement.rows:
                    if len(row) != len(statement.columns):
                        raise SQLPlanningError(
                            f"INSERT row has {len(row)} values but {len(statement.columns)} columns were named"
                        )
                    mapping = dict(zip(statement.columns, row))
                    rows.append(tuple(mapping.get(name) for name in names))
            self.catalog.append_rows(statement.name, rows)
            return table
