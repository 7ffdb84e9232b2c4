"""Captured models: what the database stores after intercepting a fit.

A :class:`CapturedModel` is the persistent artefact of the interception in
Figure 2: the model's *source form* (the formula text), the fitted
parameters (a single :class:`~repro.fitting.model.FitResult` or a grouped
result with one parameter set per group), the quality judgement, and the
coverage metadata (which table/columns/predicate the model describes) needed
to decide whether it can answer a later query.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.quality import ModelQuality
from repro.db.column import Column
from repro.db.sql.parser import parse_expression
from repro.db.table import Table
from repro.errors import ModelNotFoundError
from repro.fitting.grouped import GroupedFitResult
from repro.fitting.model import FitResult

__all__ = [
    "ModelCoverage",
    "CapturedModel",
    "covered_rows",
    "ensure_model_id_floor",
    "narrow",
    "predicate_mask",
    "residuals",
]

_id_counter = itertools.count(1)


def ensure_model_id_floor(minimum: int) -> None:
    """Advance the model-id sequence past ``minimum``.

    The durable warehouse restores captured models with their original ids;
    without raising the floor, the next in-process capture would reuse an id
    the restored models already occupy.
    """
    global _id_counter
    current = next(_id_counter)
    _id_counter = itertools.count(max(current, int(minimum) + 1))


@dataclass(frozen=True)
class ModelCoverage:
    """What part of the data a captured model describes.

    ``predicate_sql`` is the textual WHERE clause of the fitted subset (None
    when the whole table was used) — this is the paper's "partial models"
    challenge: a model fitted to a restricted query result only covers that
    subset.

    ``row_range`` restricts coverage to a half-open row interval of the base
    table (partition-scoped models): the model was fitted on exactly
    ``table[start:stop]``.  Range-scoped models never serve whole-table
    queries directly; the grouped route merges their per-group partials the
    same way it merges archive-segment models.
    """

    table_name: str
    input_columns: tuple[str, ...]
    output_column: str
    group_columns: tuple[str, ...] = ()
    predicate_sql: str | None = None
    row_range: tuple[int, int] | None = None

    @property
    def covers_whole_table(self) -> bool:
        return self.predicate_sql is None and self.row_range is None

    def columns(self) -> set[str]:
        return set(self.input_columns) | {self.output_column} | set(self.group_columns)


def predicate_mask(table: Table, predicate_sql: str) -> np.ndarray:
    """Rows of ``table`` where the WHERE clause is TRUE (a NULL outcome is not)."""
    result = parse_expression(predicate_sql).evaluate(table)
    return np.asarray(result.values, dtype=bool) & np.asarray(result.validity, dtype=bool)


def narrow(predicate_sql: str | None, extra_sql: str) -> str:
    """The conjunction of a (possibly absent) predicate with ``extra_sql``.

    Parenthesised: a predicate containing OR must not be re-bracketed by
    AND precedence.
    """
    return extra_sql if predicate_sql is None else f"({predicate_sql}) AND ({extra_sql})"


def covered_rows(table: Table, coverage: ModelCoverage, start_row: int = 0) -> Table:
    """The rows of ``table`` that ``coverage`` describes.

    ``table`` is the live table or an ingest batch staged as a table, whose
    first row is base-table row ``start_row`` — a partition's row range is
    in base-table positions, clamped to the rows at hand.
    """
    if coverage.row_range is not None:
        start, stop = (
            min(max(int(bound) - start_row, 0), table.num_rows) for bound in coverage.row_range
        )
        return table.slice(start, stop)
    if coverage.predicate_sql is None:
        return table
    return table.filter(predicate_mask(table, coverage.predicate_sql))


@dataclass
class CapturedModel:
    """A harvested model stored inside the database."""

    coverage: ModelCoverage
    formula: str
    fit: FitResult | GroupedFitResult
    quality: ModelQuality
    accepted: bool
    #: Fraction of groups that fitted successfully (1.0 for ungrouped models).
    group_fit_fraction: float = 1.0
    #: Monotonically increasing capture sequence number (acts as a timestamp).
    model_id: int = field(default_factory=lambda: next(_id_counter))
    #: Catalog row-count of the table at capture time (staleness detection).
    fitted_row_count: int = 0
    #: Free-form extras (optimiser method, robustness, notes).
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Lifecycle status: "active", "stale", "retired" or "superseded".
    status: str = "active"
    #: Sampled |relative error| observations from executed plans (most
    #: recent last, bounded) — the planner's closed feedback loop: models
    #: the planner catches lying accumulate evidence here and are demoted.
    observed_errors: list[float] = field(default_factory=list)

    # -- classification ----------------------------------------------------------

    @property
    def is_grouped(self) -> bool:
        return isinstance(self.fit, GroupedFitResult)

    @property
    def family_name(self) -> str:
        if self.is_grouped:
            return self.fit.family.name
        return self.fit.family.name

    @property
    def is_linear(self) -> bool:
        family = self.fit.family
        return bool(family.is_linear)

    @property
    def table_name(self) -> str:
        return self.coverage.table_name

    @property
    def output_column(self) -> str:
        return self.coverage.output_column

    @property
    def input_columns(self) -> tuple[str, ...]:
        return self.coverage.input_columns

    @property
    def group_columns(self) -> tuple[str, ...]:
        return self.coverage.group_columns

    # -- prediction ----------------------------------------------------------------

    def result_for_group(self, key: tuple[Any, ...] | Any) -> FitResult:
        """The per-group FitResult (or the single FitResult for ungrouped models)."""
        if not self.is_grouped:
            return self.fit  # type: ignore[return-value]
        result = self.fit.result_for(key)  # type: ignore[union-attr]
        if result is None:
            pretty = key if isinstance(key, tuple) else (key,)
            raise ModelNotFoundError(
                f"model {self.model_id} has no fitted parameters for group {pretty!r}"
            )
        return result

    def predict(
        self,
        inputs: Mapping[str, np.ndarray | float],
        group_key: tuple[Any, ...] | Any | None = None,
    ) -> np.ndarray:
        """Predict output values for the given inputs (and group, if grouped)."""
        arrays = {name: np.atleast_1d(np.asarray(value, dtype=np.float64)) for name, value in inputs.items()}
        if self.is_grouped:
            if group_key is None:
                raise ModelNotFoundError(
                    f"model {self.model_id} is grouped by {self.group_columns}; a group key is required"
                )
            return self.result_for_group(group_key).predict(arrays)
        return self.fit.predict(arrays)  # type: ignore[union-attr]

    def predict_rows(
        self,
        inputs: Mapping[str, np.ndarray],
        group_key_columns: Sequence[Column | Sequence[Any]] | None = None,
    ) -> np.ndarray:
        """Per-row predictions over aligned column arrays.

        For grouped models ``group_key_columns`` holds one column (or plain
        value sequence) per group column, aligned with the input arrays; rows
        whose group has no fitted parameters come back NaN instead of
        raising — callers scoring a model against data (revalidation, drift
        monitoring) skip them.
        """
        arrays = {
            name: np.asarray(values, dtype=np.float64) for name, values in inputs.items()
        }
        if not self.is_grouped:
            return np.asarray(self.fit.predict(arrays), dtype=np.float64)
        if group_key_columns is None:
            raise ModelNotFoundError(
                f"model {self.model_id} is grouped by {self.group_columns}; "
                "per-row group keys are required"
            )
        return self.fit.predict_rows(arrays, group_key_columns)  # type: ignore[union-attr]

    # -- storage accounting -----------------------------------------------------------

    def parameter_table(self) -> Table:
        """The stored parameter table (Table 1 of the paper for grouped models)."""
        if self.is_grouped:
            return self.fit.to_parameter_table(f"model_{self.model_id}_parameters")  # type: ignore[union-attr]
        fit: FitResult = self.fit  # type: ignore[assignment]
        data: dict[str, list[Any]] = {name: [float(value)] for name, value in fit.param_dict.items()}
        data["residual_se"] = [fit.residual_standard_error]
        data["r_squared"] = [fit.r_squared]
        data["n_obs"] = [fit.n_observations]
        return Table.from_dict(f"model_{self.model_id}_parameters", data)

    def stored_byte_size(self) -> int:
        """Nominal bytes needed to store the captured model's parameters."""
        return self.parameter_table().byte_size()

    # -- lifecycle ------------------------------------------------------------------------

    def mark_stale(self) -> None:
        self.status = "stale"

    def retire(self) -> None:
        self.status = "retired"

    @property
    def is_usable(self) -> bool:
        return self.accepted and self.status == "active"

    @property
    def is_servable(self) -> bool:
        """Usable *or* merely stale: still the best available answer while
        the maintenance loop catches up with appended data."""
        return self.accepted and self.status in ("active", "stale")

    def describe(self) -> str:
        grouped = f" per {list(self.group_columns)}" if self.is_grouped else ""
        return (
            f"model#{self.model_id} [{self.status}] {self.coverage.table_name}: "
            f"{self.output_column} ~ {self.family_name}({', '.join(self.input_columns)}){grouped} "
            f"({self.quality.summary()})"
        )


def residuals(model: CapturedModel, table: Table) -> np.ndarray:
    """Per-row ``y - ŷ`` of ``model`` over ``table``.

    NaN where an input or the output is NULL, and where the row's group has
    no fitted parameters (new entities appearing mid-stream): revalidation,
    the drift detectors and the change-point test all skip non-finite rows.
    """
    inputs = {name: table.column(name).float_numpy() for name in model.input_columns}
    keys = [table.column(name) for name in model.group_columns] or None
    return table.column(model.output_column).float_numpy() - model.predict_rows(inputs, keys)
