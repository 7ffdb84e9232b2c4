"""Unified-plan nodes: model-serving routes and exact operators, one tree.

A :class:`UnifiedPlan` is what the planner produces for every statement:
the candidate plan nodes it considered (one per viable route), the node it
chose under the accuracy contract, and why.  Hybrid plans — healthy groups
served from models, uncovered groups computed exactly — appear as one
node with two children, generalizing the per-group router of PR 2 to
whole subplans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.planner.contract import AccuracyContract
from repro.lazy import lazy_attribute

__all__ = ["PlanNode", "UnifiedPlan"]


@dataclass
class PlanNode:
    """One candidate (or chosen) node of a unified plan."""

    #: "model-route" | "exact" | "ddl" | "dml"
    kind: str
    #: The serving route label ("point", "grouped-hybrid", "exact", ...).
    route: str
    #: The one-line description, or what renders it on first read: the
    #: exact candidate's physical plan is built only when someone reads it.
    description: str | Callable[[], str]
    predicted_seconds: float = 0.0
    #: Predicted |relative error| of the answer (0.0 for exact execution).
    predicted_relative_error: float = 0.0
    model_ids: list[int] = field(default_factory=list)
    children: list["PlanNode"] = field(default_factory=list)
    #: Set when this candidate cannot honestly execute (e.g. the raw rows it
    #: needs were archived to the model-only tier).  Choosing it raises.
    unavailable_reason: str | None = None

    @property
    def detail(self) -> str:
        description = self.description
        if callable(description):
            description = self.description = description()
        return description

    @property
    def is_exact(self) -> bool:
        return self.kind != "model-route"

    @property
    def is_available(self) -> bool:
        return self.unavailable_reason is None

    def headline(self) -> str:
        """Route, predicted cost and error — the line that names the node."""
        cost = f"cost≈{self.predicted_seconds * 1000.0:.3f}ms"
        if self.kind == "model-route":
            error = f"err≈{self.predicted_relative_error:.2%}"
            models = (
                " models=" + ",".join(f"#{mid}" for mid in self.model_ids)
                if self.model_ids
                else ""
            )
            head = f"{self.route} [{cost}, {error}{models}]"
        else:
            head = f"{self.route} [{cost}, exact]"
        if self.unavailable_reason is not None:
            head += " [UNAVAILABLE]"
        return head

    def render(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        lines = [pad + self.headline()]
        if self.unavailable_reason is not None:
            lines.append(f"{pad}  ! {self.unavailable_reason}")
        if self.detail:
            lines.append(f"{pad}  · {self.detail}")
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


@dataclass
class UnifiedPlan:
    """Everything the planner decided for one statement."""

    sql: str
    contract: AccuracyContract
    #: "select" | "create" | "insert"
    statement_type: str
    #: Every candidate the planner costed, in routing order.
    candidates: list[PlanNode]
    chosen: PlanNode
    #: Why the chosen node won under the contract.
    reason: str
    planning_seconds: float = 0.0
    catalog_version: int = 0
    store_version: int = 0
    #: The engine's RouteSketch behind the model candidate (None when no
    #: model route applies).
    sketch: Any = None
    #: Binds this statement's route walk to its literals (see
    #: :attr:`bound`); None when no model route was asked for.
    binder: Callable[[], Any] | None = None
    #: Set when raw rows this statement may need live in the model-only
    #: archive tier: exact execution would be incomplete.  If the chosen
    #: node is not a pure model route, execution raises with this reason.
    archived_reason: str | None = None
    #: Set when a component this statement depends on is failed or
    #: quarantined (e.g. the table's snapshot segments were moved aside at
    #: recovery).  Exact execution would silently run over the surviving
    #: partial rows; a pure model route still answers — with this reason
    #: disclosed — and anything else raises a typed
    #: :class:`~repro.errors.DegradedServiceError`.
    degraded_reason: str | None = None
    #: Calibration provenance of the cost model this plan was costed with
    #: ("builtin-defaults", "adaptive:gen3 (...)", "restored: ...") — every
    #: route decision discloses which rates it believed.
    cost_source: str | None = None
    #: True when the statement reads or writes a reserved ``_telemetry_*``
    #: table: the flight recorder, calibrator, SLO engine, slow log and
    #: feedback sampler all skip such plans, so observing the telemetry
    #: warehouse never generates more telemetry than it reads.
    telemetry: bool = False

    @property
    def is_model_route(self) -> bool:
        return self.chosen.kind == "model-route"

    @lazy_attribute
    def bound(self) -> Any:
        """This statement's route walk bound to its literals
        (:class:`~repro.core.approx.protocol.BoundRoute`), on first use:
        execution calls the route's answer directly, or falls back for the
        reason the walk declined with.  Validity is guaranteed by the plan
        cache's catalog/store version key."""
        return self.binder() if self.binder is not None else None

    @property
    def blocked_reason(self) -> str | None:
        """Why the raw rows cannot honestly be scanned (archived, else
        degraded): no exact route, no exact fallback, no exact audit."""
        return self.archived_reason if self.archived_reason is not None else self.degraded_reason

    def decision_attributes(self) -> dict[str, Any]:
        """The route decision — chosen and rejected — as trace-span attributes."""
        attributes: dict[str, Any] = {
            "decision": self.chosen.route,
            "reason": self.reason,
            "candidates": [
                f"{'chosen' if node is self.chosen else 'rejected'} — {node.headline()}"
                for node in self.candidates
            ],
        }
        if self.archived_reason is not None:
            attributes["archived"] = self.archived_reason
        return attributes

    def explain(self) -> str:
        """Human-readable plan: contract, candidates, decision."""
        lines = [
            f"Query: {self.sql.strip()}",
            f"Contract: {self.contract.describe()}",
        ]
        if self.cost_source is not None:
            lines.append(f"Cost model: {self.cost_source}")
        lines.append("Candidates:")
        for node in self.candidates:
            marker = "=>" if node is self.chosen else "  "
            rendered = node.render(indent=0)
            lines.append(f"{marker} {rendered[0]}")
            lines.extend(f"   {line}" for line in rendered[1:])
        lines.append(f"Decision: {self.chosen.route} — {self.reason}")
        if self.archived_reason is not None:
            lines.append(f"Archived: {self.archived_reason}")
        if self.degraded_reason is not None:
            lines.append(f"Degraded: {self.degraded_reason}")
        return "\n".join(lines)
