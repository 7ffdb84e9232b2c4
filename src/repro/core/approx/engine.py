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
the statement and whose evaluation does not decline serves it.  In routing
order:

``grouped-model`` / ``grouped-hybrid``
    ``GROUP BY`` aggregates answered by evaluating the captured per-group
    models group-by-group, with per-group error estimates.  The per-group
    router serves healthy groups from models and — in the hybrid variant —
    computes only the uncovered groups exactly and merges the two.
``point``
    Every model input and group key is pinned by equality predicates: a
    single model evaluation (the paper's first example query).
``range-aggregate``
    Aggregates restricted by range predicates (``BETWEEN``, ``<``, ``>``,
    ``IN``): the model is evaluated/integrated over the restricted input
    domain instead of falling back.
``analytic-aggregate``
    A global aggregate over the modelled column of an ungrouped closed-form
    model: the range integration with nothing clipped (§4.2).
``virtual-table``
    The general route: enumerate the parameter space, generate the virtual
    table, run the query plan over it (the paper's second example query).
``exact-fallback``
    No usable model covers the query; execute against the raw data.
"""

from __future__ import annotations

from collections.abc import Iterator
from time import perf_counter
from typing import Any, Callable

from repro.core.approx.enumeration import DEFAULT_MAX_ROWS
from repro.core.approx.legal import LegalCombinationFilter
from repro.core.approx.protocol import ApproximateAnswer, Probe, Route, RouteSketch
from repro.core.approx.routes import ROUTES
from repro.core.approx.routes.grouped import GroupedRoutePlan
from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore
from repro.db.constraints import bare_name, extract_constraints
from repro.db.database import Database
from repro.db.sql.ast import SelectStatement, Star, Statement
from repro.errors import ApproximationError, EnumerationError, ModelNotFoundError
from repro.obs.trace import Tracer

__all__ = ["ApproximateAnswer", "ApproximateQueryEngine", "RouteSketch"]


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

        ``statement`` lets the query pipeline hand over the AST it already
        parsed; without it, the SQL text is parsed through the executor's
        shared LRU cache — never re-lexed per call.
        ``grouped_route_plan`` likewise hands over the per-group routing the
        planner's sketch already computed, so grouped queries are not
        route-planned twice per execution (the caller guarantees it was
        built against the current catalog/store state).
        """
        started = perf_counter()
        # Per-execution IO scope: interleaved queries on other threads never
        # leak pages into this answer's attribution.
        with self.database.io_model.scope() as io_scope:
            try:
                answer = self._serve(self._probe(sql, statement, grouped_route_plan))
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

        Walks the same route table as :meth:`answer`, stopping at the first
        shape gate that admits the statement, so the prediction and the
        execution cannot drift apart.  Returns None when no model route
        applies (the statement can only run exactly).  ``for_execution=True``
        permits side effects the real answer path would incur anyway (the
        on-demand grouped harvest); a pure EXPLAIN must leave the store
        untouched and passes False.
        """
        try:
            probe = self._probe(sql, statement, allow_harvest=for_execution)
            for route, match in self._admitting_routes(probe):
                return route.sketch(self, probe, match)
        except (ApproximationError, EnumerationError, ModelNotFoundError):
            pass
        return None

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

    def _admitting_routes(self, probe: Probe) -> Iterator[tuple[Route, Any]]:
        """Yield ``(route, gate match)`` for each route whose shape gate admits
        the statement, in routing order — the one walk behind both the static
        sketch (which stops at the first) and the answer (which moves on when
        a route declines at evaluation time).  The last route, enumeration,
        admits or raises, so the walk never comes up empty."""
        for route in ROUTES:
            if route.needs_model and probe.model is None:
                self._bind_model(probe)
            match = route.gate(self, probe)
            if match is not None:
                yield route, match

    def _serve(self, probe: Probe) -> ApproximateAnswer:
        for route, match in self._admitting_routes(probe):
            answer = route.answer(self, probe, match)
            if answer is not None:
                return answer
        raise ApproximationError("no model route serves the statement")  # pragma: no cover

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
        probe.pinned = {
            column: list(constraint.values)
            for column, constraint in extract_constraints(probe.statement.where).by_column.items()
            if constraint.is_pinned
        }

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
