"""The staged query pipeline: parse → pin → plan → execute → verify → account.

One :meth:`LawsDatabase.query` call is one :class:`QueryContext` flowing
through six small stage functions.  Each fact about the query is established
once and carried on the context: the SQL text is looked up (and, the first
time, bound from its shape's template or parsed) by the parse stage only;
the snapshot pinned by the pin stage is what every later layer reads; the
:class:`UnifiedPlan` from the plan stage is the one place where "which
route", "may exact run at all" and "is this telemetry" are decided —
execute, verify and account only read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.core.planner.contract import AUTO, AccuracyContract
from repro.core.planner.feedback import FeedbackResult
from repro.core.planner.nodes import UnifiedPlan
from repro.core.planner.planner import PlannedAnswer
from repro.core.snapshot import Snapshot
from repro.db.sql.ast import InsertStatement
from repro.db.sql.executor import PreparedStatement, QueryResult
from repro.errors import ApproximationError, DegradedServiceError
from repro.obs.hub import normalize_reason
from repro.obs.trace import Span, Tracer

if TYPE_CHECKING:
    from repro.core.system import LawsDatabase

__all__ = ["QueryContext", "execute_write", "run_query"]


@dataclass
class QueryContext:
    """What one query carries from stage to stage."""

    system: "LawsDatabase"
    sql: str
    contract: AccuracyContract
    #: The hub's tracer; every span call is a no-op outside an open trace.
    tracer: Tracer
    #: Pin stage: an explicitly held view, else the planner's current one.
    snapshot: Snapshot | None
    started: float
    #: Parse stage: the executor's cache entry (AST + SELECT plan) for ``sql``.
    prepared: PreparedStatement | None = None
    #: The one IO scope, open around plan, execute and verify.
    io_scope: Any = None
    #: Plan stage: the (cached) route decision.
    plan: UnifiedPlan | None = None


def run_query(
    system: "LawsDatabase",
    sql: str,
    contract: AccuracyContract | None = None,
    snapshot: Snapshot | None = None,
    *,
    force_trace: bool = False,
) -> tuple[PlannedAnswer, Span | None]:
    """Run ``sql`` under ``contract`` through all six stages.

    Returns the answer and the root span this call opened (``None`` when it
    traced nothing).  ``snapshot`` pins the execution to an explicitly held
    view; by default every query pins the current one, so concurrent
    ``ingest()`` / ``maintain()`` / ``archive()`` commits are never observed
    mid-query.  ``force_trace`` traces this one query — on this thread only —
    even on an observability-off database.
    """
    obs = system.obs
    ctx = QueryContext(system, sql, contract or AUTO, obs.tracer, snapshot, perf_counter())
    observed = obs.enabled
    if not (observed or force_trace):
        return _run_stages(ctx), None
    with obs.tracer.trace("query", force=force_trace, sql=sql.strip()) as root:
        try:
            answer = _run_stages(ctx)
        except Exception as exc:
            obs.metrics.inc("query_errors_total", error=type(exc).__name__)
            raise
    # Traced is not observed: ``explain_analyze()`` on an observability-off
    # database forces a trace of its one query and accounts nothing.
    if observed:
        account(ctx, answer, root, perf_counter() - ctx.started)
    return answer, root


def _run_stages(ctx: QueryContext) -> PlannedAnswer:
    database = ctx.system.database
    parse(ctx)
    pin(ctx)
    # IO is measured around planning *and* execution: planning may trigger
    # the one-off on-demand grouped harvest, whose scan is charged to the
    # query that caused it; a per-execution scope keeps attribution correct
    # when queries interleave.  The snapshot stays pinned so every layer
    # reads one state; DML inside the pin still lands on live tables.
    with database.io_model.scope() as ctx.io_scope, ctx.snapshot.reading(
        database.catalog, ctx.system.models
    ):
        plan(ctx)
        answer = execute(ctx)
        verify(ctx, answer)
    answer.elapsed_seconds = perf_counter() - ctx.started
    return answer


# -- stages ---------------------------------------------------------------------------


def parse(ctx: QueryContext) -> None:
    """The query's one text-keyed lookup in the SQL layer (a text miss binds
    its shape's template, or parses)."""
    with ctx.tracer.span("parse"):
        ctx.prepared = ctx.system.database.executor.prepare(ctx.sql)


def pin(ctx: QueryContext) -> None:
    if ctx.snapshot is None:
        ctx.snapshot = ctx.system.planner.snapshot()


def plan(ctx: QueryContext) -> None:
    """The query's one shape-keyed lookup in the planner layer: the chosen
    route comes back bound to this statement's literals."""
    with ctx.tracer.span("plan") as span:
        ctx.plan = ctx.system.planner.plan(
            ctx.sql, ctx.contract, for_execution=True, prepared=ctx.prepared
        )
    if ctx.tracer.active:
        span.annotate(**ctx.plan.decision_attributes())


def execute(ctx: QueryContext) -> PlannedAnswer:
    """Run the node the plan chose — or refuse, when it chose none honestly."""
    decided = ctx.plan
    if decided.statement_type != "select":
        route = decided.statement_type
        with ctx.tracer.span("execute", route_taken=route):
            result = execute_write(ctx.system, ctx.sql, ctx.prepared)
    elif decided.blocked_reason is not None and not decided.is_model_route:
        # No honest route: the raw rows are archived (or a needed component
        # is failed) and the contract or the model population rules out
        # pure model serving.  An explicit refusal beats an answer computed
        # over a partial table.
        raise _refusal(decided)
    elif decided.is_model_route or ctx.contract.mode == "approx":
        return _execute_model(ctx)
    else:
        with ctx.tracer.span("execute", route_taken="exact") as span:
            result, route = ctx.system.database.executor.run(ctx.prepared), "exact"
        if ctx.tracer.active:
            span.annotate(rows=result.table.num_rows)
    return PlannedAnswer(
        sql=ctx.sql,
        contract=ctx.contract,
        plan=decided,
        table=result.table,
        route_taken=route,
        is_exact=True,
        query_result=result,
    )


def verify(ctx: QueryContext, answer: PlannedAnswer) -> None:
    """Audit a sampled model-served answer against exact execution.

    Never over a blocked plan — "exact" would run on the partial live rows
    and record bogus evidence against a model answering for the full logical
    table — nor over telemetry tables: an audit is itself a query, and
    auditing the telemetry warehouse would generate telemetry.  The audit is
    advisory and runs behind the verifier circuit breaker: a failing
    verifier has its failures recorded and, past the breaker threshold, its
    samples skipped, instead of failing answers already correctly served.
    """
    system, approx, decided = ctx.system, answer.approx, ctx.plan
    if approx is None or approx.is_exact or not approx.used_model_ids:
        return
    if decided.blocked_reason is not None or decided.telemetry:
        return
    if not system.planner.feedback.should_verify(ctx.contract):
        return
    breaker = system.resilience.breaker("planner.verify")
    with ctx.tracer.span("verify-sample") as span:
        if breaker.allow():
            try:
                answer.feedback = system.planner.feedback.verify(ctx.sql, approx)
            except Exception as exc:  # noqa: BLE001 - the audit must not kill the answer
                breaker.record_failure(f"{type(exc).__name__}: {exc}")
                system.obs.metrics.inc("verifier_failures_total", error=type(exc).__name__)
            else:
                breaker.record_success()
    if ctx.tracer.active and answer.feedback is not None:
        _annotate_verify_span(span, answer.feedback, decided, ctx.contract)


def account(ctx: QueryContext, answer: PlannedAnswer, root: Span, elapsed_seconds: float) -> None:
    """Post-execution metrics, compliance and slow-log accounting."""
    obs, decided = ctx.system.obs, answer.plan
    metrics = obs.metrics
    route = answer.route_taken
    metrics.inc("queries_total", route=route)
    metrics.observe("query_seconds", elapsed_seconds)
    pages = answer.io.get("pages_read", 0.0)
    if pages:
        metrics.inc("pages_read_total", pages, route=route)
    if route == "exact-fallback":
        reason = answer.approx.reason if answer.approx is not None else None
        metrics.inc("fallbacks_total", reason=normalize_reason(reason))
    model_ids = list(answer.approx.used_model_ids) if answer.approx is not None else []
    degraded = decided.degraded_reason is not None
    if degraded:
        metrics.inc("degraded_answers_total", route=route)
    obs.compliance.record_served(
        route,
        decided.chosen.predicted_relative_error if decided.is_model_route else None,
        model_ids=model_ids,
        degraded=degraded,
    )
    feedback = answer.feedback
    violated: bool | None = None
    if feedback is not None:
        metrics.inc("feedback_verifications_total")
        if feedback.demoted_model_ids:
            metrics.inc("feedback_demotions_total", float(len(feedback.demoted_model_ids)))
        if feedback.observed_relative_error is not None:
            violated = obs.compliance.record_verified(
                route,
                feedback.observed_relative_error,
                answer.contract.error_budget,
                model_ids=feedback.recorded_model_ids,
                demoted_ids=feedback.demoted_model_ids,
            )
            if violated:
                metrics.inc("contract_violations_total", route=route)
    if decided.telemetry:
        # Queries over the telemetry warehouse are counted above but must
        # not feed the self-observation loops: no slow-log entry, no
        # calibration sample, no SLO event, no flight record — otherwise
        # reading telemetry would mint more telemetry.
        return
    obs.slow_log.observe(
        answer.sql,
        route,
        elapsed_seconds,
        trace_summary=root.summary(),
        contract=answer.contract.describe(),
    )
    obs.calibration.observe_trace(root)
    obs.slo.observe_query(elapsed_seconds, degraded=degraded, violated=violated)
    obs.flight.on_query(answer, root, elapsed_seconds)


# -- execute: the three kinds of node ---------------------------------------------------


def execute_write(system: "LawsDatabase", sql: str, prepared: PreparedStatement) -> QueryResult:
    """DDL/DML: the mutation, its redo record and its lifecycle hook.

    A write through the SQL front-end must survive a crash like any
    programmatic write, so it commits the way ``LawsDatabase.insert_rows()``
    and ``register_table()`` do: mutation and redo record in one
    ``catalog.writing()`` critical section (atomic with respect to a
    concurrent checkpoint, rolled back if either raises), then — for an
    INSERT — the table's captured models go stale from the first appended row
    on (§4.1).  WAL replay re-runs a logged statement through this function.
    """
    statement = prepared.statement
    with system.database.catalog.writing(statement.name) as appended_from:
        result = system.database.executor.run(prepared)
        if system.durable is not None:
            system.durable.log_sql(sql)
    if isinstance(statement, InsertStatement):
        system.lifecycle.on_data_changed(statement.name, appended_from=appended_from)
    return result


def _execute_model(ctx: QueryContext) -> PlannedAnswer:
    decided, tracer, engine = ctx.plan, ctx.tracer, ctx.system.approx
    # Falling back to exact is dishonest over a blocked plan: a mid-route
    # failure must surface, not degrade into an answer over the partial table.
    allow_fallback = ctx.contract.allow_exact_fallback and decided.blocked_reason is None
    with tracer.span("execute") as span:
        try:
            approx = engine.answer_bound(ctx.sql, decided.bound, allow_fallback)
        except ApproximationError as exc:
            if decided.archived_reason is not None:
                raise ApproximationError(f"{exc}; {decided.archived_reason}") from exc
            raise
        if tracer.active:
            span.annotate(route_taken=approx.route, rows=approx.table.num_rows)
            if approx.used_model_ids:
                span.annotate(models=list(approx.used_model_ids))
            if approx.route == "exact-fallback":
                span.annotate(fallback_reason=approx.reason)
    approx.io = ctx.io_scope.snapshot()
    return PlannedAnswer(
        sql=ctx.sql,
        contract=ctx.contract,
        plan=decided,
        table=approx.table,
        route_taken=approx.route,
        is_exact=approx.is_exact,
        approx=approx,
        column_errors=dict(approx.column_errors),
    )


def _refusal(decided: UnifiedPlan) -> ApproximationError:
    """The typed error of a plan that chose no honest route."""
    if decided.archived_reason is not None:
        return ApproximationError(f"{decided.reason}: {decided.archived_reason}")
    # A failed/quarantined component: typed, carrying the quarantine reason.
    component, _, detail = decided.degraded_reason.partition(" — ")
    return DegradedServiceError(
        f"{decided.reason}: {decided.degraded_reason}",
        component=component,
        reason=detail or decided.degraded_reason,
    )


def _annotate_verify_span(
    span: Span, feedback: FeedbackResult, decided: UnifiedPlan, contract: AccuracyContract
) -> None:
    if feedback.observed_relative_error is None:
        span.annotate(outcome="no numeric columns to verify")
        return
    span.annotate(
        predicted_relative_error=f"{decided.chosen.predicted_relative_error:.2%}",
        observed_relative_error=f"{feedback.observed_relative_error:.2%}",
    )
    if contract.max_relative_error is not None:
        span.annotate(
            budget=f"{contract.max_relative_error:.2%}",
            within_budget=feedback.observed_relative_error <= contract.max_relative_error,
        )
    if feedback.demoted_model_ids:
        span.annotate(demoted_models=list(feedback.demoted_model_ids))
