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
from typing import Any

import numpy as np

from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore, _default_ranking
from repro.db.column import Column
from repro.fitting.grouped import GroupedFitResult
from repro.lazy import lazy_attribute

__all__ = [
    "GroupAssignment",
    "ModelBatch",
    "GroupRoutingPlan",
    "plan_group_routing",
]


@dataclass
class GroupAssignment:
    """One group's routing decision."""

    key: tuple[Any, ...]
    #: The serving model, or None when the group must be computed exactly.
    model: CapturedModel | None
    reason: str
    #: The group's row of the serving model's parameter table.
    row: int | None = None

    @property
    def served_from_model(self) -> bool:
        return self.model is not None


@dataclass(frozen=True)
class ModelBatch:
    """The groups one model serves, as index vectors into two orderings."""

    model: CapturedModel
    #: Rows of the model's parameter table holding these groups' parameters.
    rows: np.ndarray
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

    @lazy_attribute
    def model_groups(self) -> list[GroupAssignment]:
        return [a for a in self.assignments if a.served_from_model]

    @lazy_attribute
    def exact_groups(self) -> list[GroupAssignment]:
        return [a for a in self.assignments if not a.served_from_model]

    @lazy_attribute
    def batches(self) -> list[ModelBatch]:
        """The model-served groups gathered per serving model."""
        grouped: dict[int, tuple[CapturedModel, list[int], list[int]]] = {}
        for slot, assignment in enumerate(self.model_groups):
            model = assignment.model
            _, rows, slots = grouped.setdefault(model.model_id, (model, [], []))
            rows.append(assignment.row)
            slots.append(slot)
        return [
            ModelBatch(model, np.asarray(rows, dtype=np.int64), np.asarray(slots, dtype=np.int64))
            for model, rows, slots in grouped.values()
        ]

    @lazy_attribute
    def model_keys(self) -> list[tuple[Any, ...]]:
        """Keys of the model-served groups; a group's position is its slot."""
        return [a.key for a in self.model_groups]

    @lazy_attribute
    def slot_of(self) -> dict[tuple[Any, ...], int]:
        return {key: slot for slot, key in enumerate(self.model_keys)}

    @lazy_attribute
    def key_columns(self) -> list[Column]:
        """The model-served keys as one typed column per group column."""
        return [Column.infer(list(parts)) for parts in zip(*self.model_keys)]

    @lazy_attribute
    def reasons(self) -> dict[tuple[Any, ...], str]:
        """Provenance (``model#<id>``) of every model-served group."""
        return {a.key: a.reason for a in self.model_groups}

    @property
    def used_model_ids(self) -> list[int]:
        return [batch.model.model_id for batch in self.batches]

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
    models: list[CapturedModel] | None = None,
) -> GroupRoutingPlan:
    """Assign every requested group to the best servable model or to exact.

    The store is consulted once: candidates are ranked up front and their
    fitted rows indexed by (re-aligned) group key, so routing stays
    O(groups + models·groups) instead of re-filtering the store per group.
    ``models`` restricts routing to a pre-filtered candidate list (the
    grouped route passes the models that can honor the query's predicates).
    A stale model serves until maintenance replaces it; a group serves from
    a fit with finite parameters — model acceptance already gated overall
    quality at capture time — and a failed fit sends it exact.
    """
    plan = GroupRoutingPlan(group_columns=group_columns)

    if models is not None:
        candidates = [m for m in models if m.is_servable]
    else:
        candidates = store.grouped_candidates(table_name, output_column, group_columns, include_stale=True)
    ranked = sorted(candidates, key=_default_ranking, reverse=True)
    indexed: list[tuple[CapturedModel, dict[tuple[Any, ...], int], np.ndarray]] = []
    for model in ranked:
        fit: GroupedFitResult = model.fit  # type: ignore[assignment]
        fitted = np.flatnonzero(fit.succeeded)
        aligned = zip(*(fit.key_columns[model.group_columns.index(c)].take(fitted).to_pylist() for c in group_columns))
        finite = np.isfinite(fit.params).all(axis=1)
        indexed.append((model, dict(zip(aligned, fitted.tolist())), finite))

    for key in requested_keys:
        assignment = GroupAssignment(key=key, model=None, reason="no servable per-group fit")
        for model, index, finite in indexed:
            row = index.get(key)
            if row is None:
                continue
            if not finite[row]:
                assignment = GroupAssignment(
                    key=key,
                    model=None,
                    reason=f"per-group fit of model#{model.model_id} has non-finite parameters",
                )
                continue
            status = "" if model.status == "active" else f" ({model.status})"
            assignment = GroupAssignment(
                key=key, model=model, reason=f"model#{model.model_id}{status}", row=row
            )
            break
        plan.assignments.append(assignment)
    return plan
