"""Per-group model-vs-exact routing.

§4.1's "multiple, partial or grouped models" challenge, at the granularity
the paper's workload actually needs: a single ``GROUP BY`` query may touch
groups covered by a healthy per-group fit, groups whose fit failed (too few
observations, optimiser divergence), groups that only a stale segment model
covers, and groups that appeared after every capture.  The router assigns
each requested group to the best servable model — or to exact execution —
so the engine can serve what it can from models and scan only the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore, _default_ranking
from repro.db.column import Column
from repro.fitting.grouped import StackedFits
from repro.fitting.model import FitResult

__all__ = [
    "RoutingPolicy",
    "GroupAssignment",
    "ModelBatch",
    "GroupRoutingPlan",
    "plan_group_routing",
]


@dataclass(frozen=True)
class RoutingPolicy:
    """When is a per-group fit healthy enough to serve a query?

    The defaults serve every group that has finite fitted parameters —
    model acceptance already gated overall quality at capture time.  Callers
    wanting stricter routing can require a per-group R² floor or refuse
    stale models entirely.
    """

    #: Minimum per-group R² to serve the group from the model (None = any).
    min_group_r_squared: float | None = None
    #: Refuse groups whose only cover is a stale model awaiting maintenance.
    allow_stale: bool = True

    def healthy(self, fits: StackedFits) -> np.ndarray:
        """Which records hold a fit healthy enough to serve (never a failed one)."""
        healthy = np.isfinite(fits.params).all(axis=1)
        if self.min_group_r_squared is not None:
            healthy &= fits.r_squared >= self.min_group_r_squared
        return healthy


@dataclass
class GroupAssignment:
    """One group's routing decision."""

    key: tuple[Any, ...]
    #: The serving model, or None when the group must be computed exactly.
    model: CapturedModel | None
    fit: FitResult | None
    reason: str
    #: Position of the serving fit's record in ``model.fit.records`` — its row
    #: of the model's stacked parameter table.
    record_position: int | None = None

    @property
    def served_from_model(self) -> bool:
        return self.model is not None


@dataclass(frozen=True)
class ModelBatch:
    """The groups one model serves, as index vectors into two orderings."""

    model: CapturedModel
    #: Rows of ``model.fit.stacked()`` holding these groups' parameters.
    record_positions: np.ndarray
    #: Positions of these groups among the plan's ``model_groups``.
    slots: np.ndarray


@dataclass
class GroupRoutingPlan:
    """Every requested group, split into model-served and exact.

    Complete once :func:`plan_group_routing` returns it: the derived views
    below are computed on first use and kept, so a cached plan pays for them
    once however often it is executed.
    """

    group_columns: tuple[str, ...]
    assignments: list[GroupAssignment] = field(default_factory=list)

    @cached_property
    def model_groups(self) -> list[GroupAssignment]:
        return [a for a in self.assignments if a.served_from_model]

    @cached_property
    def exact_groups(self) -> list[GroupAssignment]:
        return [a for a in self.assignments if not a.served_from_model]

    @cached_property
    def batches(self) -> list[ModelBatch]:
        """The model-served groups gathered per serving model."""
        grouped: dict[int, tuple[CapturedModel, list[int], list[int]]] = {}
        for slot, assignment in enumerate(self.model_groups):
            model = assignment.model
            _, positions, slots = grouped.setdefault(model.model_id, (model, [], []))
            positions.append(assignment.record_position)
            slots.append(slot)
        return [
            ModelBatch(model, np.asarray(positions, dtype=np.int64), np.asarray(slots, dtype=np.int64))
            for model, positions, slots in grouped.values()
        ]

    @cached_property
    def model_keys(self) -> list[tuple[Any, ...]]:
        """Keys of the model-served groups; a group's position is its slot."""
        return [a.key for a in self.model_groups]

    @cached_property
    def slot_of(self) -> dict[tuple[Any, ...], int]:
        return {key: slot for slot, key in enumerate(self.model_keys)}

    @cached_property
    def key_columns(self) -> list[Column]:
        """The model-served keys as one typed column per group column."""
        return [Column.infer(list(parts)) for parts in zip(*self.model_keys)]

    @cached_property
    def reasons(self) -> dict[tuple[Any, ...], str]:
        """Provenance (``model#<id>``) of every model-served group."""
        return {a.key: a.reason for a in self.model_groups}

    @property
    def used_model_ids(self) -> list[int]:
        return [batch.model.model_id for batch in self.batches]

    @property
    def is_hybrid(self) -> bool:
        return bool(self.model_groups) and bool(self.exact_groups)

    def describe(self) -> str:
        return (
            f"{len(self.model_groups)} group(s) from model(s) {self.used_model_ids}, "
            f"{len(self.exact_groups)} group(s) exact"
        )


def plan_group_routing(
    store: ModelStore,
    table_name: str,
    output_column: str,
    group_columns: tuple[str, ...],
    requested_keys: list[tuple[Any, ...]],
    policy: RoutingPolicy | None = None,
    models: list[CapturedModel] | None = None,
) -> GroupRoutingPlan:
    """Assign every requested group to the best servable model or to exact.

    The store is consulted once: candidates are ranked up front and their
    fit records indexed by (re-aligned) group key, so routing stays
    O(groups + models·records) instead of re-filtering the store per group.
    ``models`` restricts routing to a pre-filtered candidate list (the
    grouped route passes the models that can honor the query's predicates);
    the policy's staleness gate still applies.
    """
    policy = policy or RoutingPolicy()
    plan = GroupRoutingPlan(group_columns=group_columns)

    if models is not None:
        candidates = [
            m for m in models if (m.is_servable if policy.allow_stale else m.is_usable)
        ]
    else:
        candidates = store.grouped_candidates(
            table_name, output_column, group_columns, include_stale=policy.allow_stale
        )
    ranked = sorted(candidates, key=_default_ranking, reverse=True)
    indexed: list[tuple[CapturedModel, dict[tuple[Any, ...], int], np.ndarray]] = []
    for model in ranked:
        positions = [model.group_columns.index(column) for column in group_columns]
        index: dict[tuple[Any, ...], int] = {}
        for position, record in enumerate(model.fit.records):  # type: ignore[union-attr]
            if record.result is not None:
                index[tuple(record.key[p] for p in positions)] = position
        indexed.append((model, index, policy.healthy(model.fit.stacked())))  # type: ignore[union-attr]

    for key in requested_keys:
        assignment = GroupAssignment(
            key=key, model=None, fit=None, reason="no servable per-group fit"
        )
        for model, index, healthy in indexed:
            position = index.get(key)
            if position is None:
                continue
            if not healthy[position]:
                assignment = GroupAssignment(
                    key=key,
                    model=None,
                    fit=None,
                    reason=f"per-group fit of model#{model.model_id} below routing policy",
                )
                continue
            status = "" if model.status == "active" else f" ({model.status})"
            assignment = GroupAssignment(
                key=key,
                model=model,
                fit=model.fit.records[position].result,  # type: ignore[union-attr]
                reason=f"model#{model.model_id}{status}",
                record_position=position,
            )
            break
        plan.assignments.append(assignment)
    return plan
