"""The approximate query engine: answering SQL from captured models.

This is where the harvested models pay off (Figure 2, steps 4-5).  Given a
SQL query, the engine decides whether some usable captured model can stand
in for the stored data, regenerates the tuples the query needs from the
model ("zero-IO"), runs the rest of the query over the regenerated table,
and attaches error estimates.  Queries the models cannot cover fall back to
exact execution — with the reason recorded, because the fallback conditions
(no model, non-enumerable inputs, unsupported SQL shape) are themselves
findings the paper discusses in §4.2.

Answer routes
-------------
The engine walks :data:`repro.core.approx.routes.ROUTES` — one module per
route, each a ``gate`` / ``sketch`` / ``answer`` triple
(:mod:`repro.core.approx.protocol`) — and the first route whose gate admits
the statement serves it; a gate that admits always answers.  In routing
order:

``grouped-model`` / ``grouped-hybrid``
    ``GROUP BY`` aggregates answered by evaluating the captured per-group
    models group-by-group, with per-group error estimates.  The per-group
    router serves healthy groups from models and — in the hybrid variant —
    computes only the uncovered groups exactly and merges the two.
``point``
    Every model input and group key is pinned by equality predicates: a
    single model evaluation (the paper's first example query).
``range-aggregate`` / ``analytic-aggregate``
    An aggregate without ``GROUP BY``, with or without a ``WHERE``: the
    aggregate kernel evaluates the model's parameter rows over the
    restricted input domain (§4.2) and combines a grouped model's groups.
``virtual-table``
    Non-aggregate selections: enumerate the parameter space, generate the
    virtual table, run the query plan over it (the paper's second example
    query).
``exact-fallback``
    No usable model covers the query; execute against the raw data.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.core.approx.enumeration import DEFAULT_MAX_ROWS
from repro.core.approx.legal import LegalCombinationFilter
from repro.core.approx.protocol import ApproximateAnswer, BoundRoute, Probe, RouteSketch
from repro.core.approx.routes import ROUTES
from repro.core.approx.routes.grouped import GroupedRoutePlan
from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore
from repro.db.constraints import bare_name
from repro.db.database import Database
from repro.db.sql.ast import SelectStatement, Star, Statement
from repro.errors import ApproximationError, EnumerationError, ModelNotFoundError
from repro.obs.trace import Tracer

__all__ = [
    "ApproximateAnswer",
    "ApproximateQueryEngine",
    "BoundRoute",
    "RouteSketch",
    "literal_keys",
]


class ApproximateQueryEngine:
    """Routes SQL queries to captured models when possible."""

    def __init__(
        self,
        database: Database,
        store: ModelStore,
        use_legal_filter: bool = False,
        *,
        tracer: Tracer,
        grouped_model_provider: Callable[..., CapturedModel | None],
    ) -> None:
        self.database = database
        self.store = store
        #: Refuse to enumerate parameter spaces larger than this many rows.
        self.max_virtual_rows = DEFAULT_MAX_ROWS
        self.use_legal_filter = use_legal_filter
        #: Per-route spans go here.
        self.tracer = tracer
        #: ``(table, output_column, group_columns) -> CapturedModel | None``:
        #: harvests a grouped model on demand when a GROUP BY query finds only
        #: ungrouped captures (same formula, per group), or declines.
        self.grouped_model_provider = grouped_model_provider
        #: (table_name, key columns) -> legality filter, built lazily on
        #: demand by the virtual-table route.
        self.legal_filters: dict[tuple[str, tuple[str, ...]], LegalCombinationFilter] = {}

    # -- public API -------------------------------------------------------------

    def answer(
        self,
        sql: str,
        allow_fallback: bool = True,
        statement: Statement | None = None,
        grouped_route_plan: GroupedRoutePlan | None = None,
    ) -> ApproximateAnswer:
        """Answer ``sql`` from captured models, falling back to exact execution.

        :meth:`resolve` then :meth:`answer_bound`.  ``statement`` lets the
        caller hand over the AST it already parsed; without it, the SQL text
        is parsed through the executor's shared LRU cache.
        ``grouped_route_plan`` likewise hands over a per-group routing already
        computed (the caller guarantees it was built against the current
        catalog/store state).
        """
        bound = self.resolve(sql, statement, True, grouped_plan=grouped_route_plan)
        return self.answer_bound(sql, bound, allow_fallback)

    def answer_bound(self, sql: str, bound: BoundRoute, allow_fallback: bool = True) -> ApproximateAnswer:
        """Serve what a walk bound to ``sql``: the route's answer, directly.

        No earlier gate runs again and no model is selected.  When no route
        admitted the statement, it falls back (or raises) with the reason the
        walk declined with.
        """
        started = perf_counter()
        # Per-execution IO scope: interleaved queries on other threads never
        # leak pages into this answer's attribution.
        with self.database.io_model.scope() as io_scope:
            try:
                if bound.match is None:
                    raise _fresh(bound.declined)
                answer = bound.route.answer(self, bound.probe, bound.match)
                self._note_staleness(answer)
            except (ApproximationError, EnumerationError, ModelNotFoundError) as exc:
                if not allow_fallback:
                    raise
                answer = self._exact(sql, reason=str(exc))
        answer.elapsed_seconds = perf_counter() - started
        answer.io = io_scope.snapshot()
        return answer

    def sketch_route(
        self, sql: str, statement: Statement | None = None, for_execution: bool = False
    ) -> RouteSketch | None:
        """Predict — without executing — which model route would serve ``sql``.

        The sketch of the route :meth:`resolve` binds, so the prediction and
        the execution cannot drift apart.  Returns None when no model route
        applies (the statement can only run exactly).
        """
        bound = self.resolve(sql, statement, for_execution)
        return bound.sketch(self) if bound.match is not None else None

    def resolve(
        self,
        sql: str,
        statement: Statement | None = None,
        for_execution: bool = False,
        grouped_plan: GroupedRoutePlan | None = None,
    ) -> BoundRoute:
        """The first route whose shape gate admits ``sql``, bound to it.

        When no gate admits the statement the result carries the rung the
        walk stopped on and the error it declined with.  ``for_execution=True``
        permits side effects the real answer path would incur anyway (the
        on-demand grouped harvest); a pure EXPLAIN must leave the store
        untouched and passes False.
        """
        try:
            probe = self._probe(sql, statement, grouped_plan, allow_harvest=for_execution)
        except (ApproximationError, EnumerationError, ModelNotFoundError) as exc:
            return BoundRoute(None, None, None, _fresh(exc))
        return self._bind_from(probe, 0)

    def rebind(self, bound: BoundRoute, sql: str, statement: SelectStatement) -> BoundRoute:
        """``bound`` — what a statement of the same shape resolved to — bound to ``statement``.

        The caller guarantees every gate the walk to ``bound`` consulted reads
        ``statement``'s literals as it read the first statement's (equal
        :func:`literal_keys`): the earlier gates decline again and a
        declined walk declines alike, so neither runs.  The probe keeps what
        the shape decides — the table, the referenced columns, the serving
        model and the grouped route's per-group routing; the WHERE pins and
        the bound route's own gate are this statement's, and the walk goes on
        from the next route only if that gate does not admit it.  A walk made
        for ``statement`` itself is returned as it is.
        """
        if bound.match is None or bound.probe.statement is statement:
            return bound
        shaped = bound.probe
        probe = Probe(
            sql,
            statement,
            shaped.table_name,
            shaped.referenced,
            self.database,
            bound.match if isinstance(bound.match, GroupedRoutePlan) else None,
            shaped.allow_harvest,
        )
        if shaped.model is not None:
            probe.model = shaped.model
            probe.pinned = _pins(statement)
        return self._bind_from(probe, ROUTES.index(bound.route))

    # -- the route walk -----------------------------------------------------------

    def _probe(
        self,
        sql: str,
        statement: Statement | None,
        grouped_plan: GroupedRoutePlan | None = None,
        allow_harvest: bool = True,
    ) -> Probe:
        """Check what every model route requires of a statement (raising the
        typed reason when it cannot be served) and open its routing state."""
        if statement is None:
            statement = self.database.parse_sql(sql)
        if not isinstance(statement, SelectStatement):
            raise ApproximationError("only SELECT statements can be answered approximately")
        if statement.table is None or statement.joins:
            raise ApproximationError("approximate answering supports single-table queries only")
        table_name = statement.table.name
        if not self.database.has_table(table_name):
            raise ApproximationError(f"unknown table {table_name!r}")
        return Probe(
            sql,
            statement,
            table_name,
            _referenced_columns(statement),
            self.database,
            grouped_plan,
            allow_harvest,
        )

    def _bind_from(self, probe: Probe, start: int) -> BoundRoute:
        """Walk ``ROUTES`` from ``start``: the first route whose shape gate
        admits ``probe``, bound to it — or the rung that raised, with the
        error.  The last route, enumeration, admits or raises, so only a walk
        that starts past it comes up empty."""
        for route in ROUTES[start:]:
            try:
                if route.needs_model and probe.model is None:
                    self._bind_model(probe)
                match = route.gate(self, probe)
            except (ApproximationError, EnumerationError, ModelNotFoundError) as exc:
                return BoundRoute(route, probe, None, _fresh(exc))
            if match is not None:
                return BoundRoute(route, probe, match)
        return BoundRoute(None, probe, None, ApproximationError("no model route serves the statement"))

    def _exact(self, sql: str, reason: str) -> ApproximateAnswer:
        result = self.database.sql(sql)
        return ApproximateAnswer(
            sql=sql,
            table=result.table,
            route="exact-fallback",
            is_exact=True,
            reason=reason,
        )

    # -- model selection ----------------------------------------------------------

    def _bind_model(self, probe: Probe) -> None:
        """Pick the serving model once the grouped route (which does its own
        lookup — the query's group keys need not be covered by the
        generically best model) has declined, and read off the values the
        WHERE clause's top-level conjuncts pin columns to.  Multiple pins on
        one column intersect (``g = 1 AND g IN (1, 2)`` pins to ``[1]``),
        which is always sound for enumeration: the statement's WHERE is
        re-applied over the generated table."""
        model = self._select_model(probe.table_name, probe.referenced)
        covered = set(model.group_columns) | set(model.input_columns) | {model.output_column}
        uncovered = probe.referenced - covered
        if uncovered:
            raise ApproximationError(
                f"query references columns {sorted(uncovered)} that model {model.model_id} does not cover"
            )
        probe.model = model
        probe.pinned = _pins(probe.statement)

    def _select_model(self, table_name: str, referenced: set[str]) -> CapturedModel:
        """Pick the captured model whose output the query needs.

        Stale models are admitted (``include_stale``) but ranked behind any
        active one: during continuous ingestion every append briefly marks
        models stale, and falling back to exact execution for that window
        would defeat the purpose of answering from models.
        """
        candidate_outputs = [
            column
            for column in referenced
            if self.store.has_model_for(table_name, column, include_stale=True)
        ]
        if not candidate_outputs:
            raise ModelNotFoundError(
                f"no captured model predicts any column referenced by the query on {table_name!r}"
            )
        # Prefer the model that covers the most of the referenced columns.
        best: CapturedModel | None = None
        best_score = -1
        for output in candidate_outputs:
            try:
                model = self.store.best_model(table_name, output, include_stale=True)
            except ModelNotFoundError:
                continue
            covered = set(model.group_columns) | set(model.input_columns) | {model.output_column}
            score = len(referenced & covered)
            if score > best_score:
                best, best_score = model, score
        if best is None:
            raise ModelNotFoundError(f"no usable captured model for table {table_name!r}")
        return best

    def _note_staleness(self, answer: ApproximateAnswer) -> None:
        """Flag answers served by stale models so callers can tell a fresh
        answer from one awaiting the maintenance loop."""
        stale_ids = [
            model_id
            for model_id in answer.used_model_ids
            if self.store.get(model_id).status == "stale"
        ]
        if stale_ids:
            note = f"served by stale model(s) {stale_ids} pending maintenance"
            answer.reason = f"{answer.reason}; {note}" if answer.reason else note


def _fresh(error: Exception) -> Exception:
    """The same error without its traceback: one a cached plan can hold (and
    execution raise) without keeping the walk's frames alive."""
    return type(error)(*error.args)


def _pins(statement: SelectStatement) -> dict[str, list[Any]]:
    """The values the WHERE clause's top-level conjuncts pin columns to."""
    return {
        column: list(constraint.values)
        for column, constraint in statement.constraints.by_column.items()
        if constraint.is_pinned
    }


def literal_keys(bound: BoundRoute | None, statement: SelectStatement) -> tuple:
    """What the gates that decided ``bound`` — every rung up to the one the
    walk ended on, none when it could not start — read from ``statement``'s
    literals, given the serving model the walk bound."""
    if bound is None or bound.route is None:
        return ()
    model = bound.probe.model
    return tuple(route.literal_key(statement, model) for route in ROUTES[: ROUTES.index(bound.route) + 1])


def _referenced_columns(statement: SelectStatement) -> set[str]:
    names: set[str] = set()
    for item in statement.items:
        if isinstance(item.expression, Star):
            raise ApproximationError("SELECT * cannot be answered from a model (unknown column set)")
        names |= item.expression.referenced_columns()
    if statement.where is not None:
        names |= statement.where.referenced_columns()
    for expression in statement.group_by:
        names |= expression.referenced_columns()
    if statement.having is not None:
        names |= statement.having.referenced_columns()
    for order in statement.order_by:
        names |= order.expression.referenced_columns()
    return {bare_name(name) for name in names}
