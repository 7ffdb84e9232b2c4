"""Per-group model-vs-exact routing, as vectors over the requested keys.

§4.1's "multiple, partial or grouped models" challenge, at the granularity
the paper's workload actually needs: a single ``GROUP BY`` query may touch
groups covered by a healthy per-group fit, groups whose fit failed (too few
observations, optimiser divergence), groups that only a stale segment model
covers, and groups that appeared after every capture.

The requested keys are one typed column per group column, in ascending key
order.  Each ranked candidate's parameter table is gathered for all of them
at once (:meth:`~repro.fitting.grouped.GroupedFitResult.rows_of`), and the
routing is two vectors over the keys: ``owner``, the first ranked candidate
whose row holds a fit with finite parameters (−1: the group is computed
exactly), and ``row``, that row.  The engine serves what it can from models
— one :class:`ModelBatch` per serving model — and scans only the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.captured_model import CapturedModel
from repro.core.model_store import _default_ranking
from repro.db.column import Column
from repro.fitting.grouped import GroupedFitResult

__all__ = [
    "ModelBatch",
    "GroupRoutingPlan",
    "plan_group_routing",
]


@dataclass(frozen=True)
class ModelBatch:
    """The groups one model serves, as index vectors into two orderings."""

    model: CapturedModel
    #: Rows of the model's parameter table holding these groups' parameters.
    rows: np.ndarray
    #: Positions of these groups among the model-served keys.
    slots: np.ndarray


@dataclass(frozen=True)
class GroupRoutingPlan:
    """Every requested group, split into model-served and exact."""

    #: The requested keys, one typed column per group column.
    keys: tuple[Column, ...]
    #: The servable candidates, best first.
    models: tuple[CapturedModel, ...]
    #: Per requested key, its serving model's position in ``models``; −1 = exact.
    owner: np.ndarray
    #: Per requested key, the serving model's parameter row; −1 = exact.
    row: np.ndarray
    #: The model-served keys gathered per serving model, in order of each
    #: model's first served key.
    batches: tuple[ModelBatch, ...]

    @property
    def served(self) -> np.ndarray:
        """Whether each requested key is served from a model."""
        return self.owner >= 0

    @property
    def n_served(self) -> int:
        return int(np.count_nonzero(self.owner >= 0))

    def keys_where(self, mask: np.ndarray) -> list[Column]:
        """The requested keys ``mask`` selects, one column per group column."""
        positions = np.flatnonzero(mask)
        return [column.take(positions) for column in self.keys]

    @property
    def used_model_ids(self) -> list[int]:
        return [batch.model.model_id for batch in self.batches]

    def describe(self) -> str:
        exact = len(self.owner) - self.n_served
        return f"{self.n_served} group(s) from model(s) {self.used_model_ids}, {exact} group(s) exact"


def plan_group_routing(
    models: Sequence[CapturedModel], group_columns: tuple[str, ...], keys: Sequence[Column]
) -> GroupRoutingPlan:
    """Assign every requested group to the best servable model of ``models``
    (grouped by ``group_columns``, in any order) or to exact.

    ``keys`` holds the requested keys, one column per group column.  The
    candidates are ranked up front; each is then one key -> row gather over
    all the keys, so routing costs one vectorised pass per candidate.  A
    stale model serves until maintenance replaces it; a group serves from a
    fit with finite parameters — model acceptance already gated overall
    quality at capture time — and a failed fit leaves it to the next
    candidate, or exact.
    """
    ranked = tuple(sorted((m for m in models if m.is_servable), key=_default_ranking, reverse=True))
    owner = np.full(len(keys[0]), -1, dtype=np.int64)
    row = owner.copy()
    for position, model in enumerate(ranked):
        fit: GroupedFitResult = model.fit  # type: ignore[assignment]
        rows = fit.rows_of([keys[group_columns.index(column)] for column in model.group_columns])
        # -1 (no row) reads the appended False.
        usable = np.append(fit.succeeded & np.isfinite(fit.params).all(axis=1), False)[rows]
        claimed = usable & (owner < 0)
        owner[claimed], row[claimed] = position, rows[claimed]

    served = np.flatnonzero(owner >= 0)
    owners = owner[served]
    _, first = np.unique(owners, return_index=True)
    batches = []
    for position in owners[np.sort(first)]:
        slots = np.flatnonzero(owners == position)
        batches.append(ModelBatch(ranked[position], row[served[slots]], slots))
    return GroupRoutingPlan(tuple(keys), ranked, owner, row, tuple(batches))
