"""Parameter-space enumeration: regenerating tuples from a captured model.

§4.2 of the paper: a model can only replace a scan if every input the model
needs can be *enumerated* without reading the raw data.  Group keys come for
free (they are stored in the parameter table); other inputs are enumerable
when they are categorical / low-cardinality ("our telescope only creates
observations at a small set of frequencies, so ν would only assume values in
{0.12, 0.15, 0.16, 0.18}") or when the query itself pins them with equality
predicates.  This module decides enumerability, builds the value grid, and
materialises the model-generated ("gridded") virtual table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.captured_model import CapturedModel
from repro.db.column import Column
from repro.db.schema import ColumnDef, Schema
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import EnumerationError
from repro.fitting.grouped import GroupedFitResult, key_rows

__all__ = ["EnumerationPlan", "build_enumeration_plan", "domain_rows", "generate_virtual_table"]

#: Refuse to materialise virtual tables larger than this many rows unless the
#: caller raises the cap explicitly; protects against combinatorial blow-up.
DEFAULT_MAX_ROWS = 2_000_000


@dataclass
class EnumerationPlan:
    """Concrete value domains for every column the model needs."""

    model: CapturedModel
    #: The enumerated groups' rows of the stored parameter table.
    group_rows: np.ndarray
    #: input column name -> list of values to enumerate
    input_domains: dict[str, list[float]] = field(default_factory=dict)

    @property
    def group_keys(self) -> list[tuple[Any, ...]]:
        """The enumerated groups' keys as python tuples."""
        return [self.model.fit.keys[row] for row in self.group_rows]  # type: ignore[union-attr]

    @property
    def num_rows(self) -> int:
        rows = max(len(self.group_rows), 1) if self.model.group_columns else 1
        for values in self.input_domains.values():
            rows *= max(len(values), 1)
        return rows

    def describe(self) -> str:
        parts = []
        if self.model.group_columns:
            parts.append(f"{len(self.group_rows)} group keys")
        for name, values in self.input_domains.items():
            parts.append(f"{name}: {len(values)} values")
        return ", ".join(parts) or "(empty plan)"


def build_enumeration_plan(
    model: CapturedModel,
    table_stats: TableStats,
    pinned_values: Mapping[str, Sequence[Any]] | None = None,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> EnumerationPlan:
    """Work out how to enumerate every input the model requires.

    ``pinned_values`` carries values fixed by the query's equality / IN
    predicates; any remaining input column must be enumerable from the
    catalog statistics (a known small domain), otherwise
    :class:`~repro.errors.EnumerationError` is raised — the paper's "we
    might as well use the raw data directly" case.
    """
    pinned = {name: list(values) for name, values in (pinned_values or {}).items()}

    group_rows = _group_rows(model, pinned)
    _check_group_coverage(model, table_stats, pinned)
    input_domains: dict[str, list[float]] = {}
    for name in model.input_columns:
        if name in pinned:
            try:
                input_domains[name] = [float(v) for v in pinned[name]]
            except (TypeError, ValueError):
                raise EnumerationError(
                    f"input column {name!r} is pinned to a non-numeric value; "
                    "the model cannot be evaluated there"
                ) from None
            continue
        stats = table_stats.columns.get(name)
        if stats is None or not stats.is_enumerable or stats.domain is None:
            raise EnumerationError(
                f"input column {name!r} is not enumerable (unknown or high-cardinality domain) "
                "and the query does not pin its value"
            )
        input_domains[name] = [float(v) for v in stats.domain]

    plan = EnumerationPlan(model=model, group_rows=group_rows, input_domains=input_domains)
    if plan.num_rows > max_rows:
        raise EnumerationError(
            f"enumerating the parameter space would generate {plan.num_rows} rows "
            f"(> max_rows={max_rows}); refusing to materialise"
        )
    return plan


def domain_rows(
    stats: TableStats, column: str, keys: Column
) -> tuple[Column, np.ndarray, np.ndarray | None] | None:
    """Which catalog values of group column ``column`` have no row among
    ``keys`` (a parameter table's key column, or requested keys): the
    column's catalog domain as a typed column, where each value sits in
    ``keys`` (−1: nowhere, a group the capture never saw) and each value's
    live row count (None where uncounted).  None without a materialised domain.
    """
    column_stats = stats.columns.get(column)
    if column_stats is None or column_stats.domain is None:
        return None
    values = Column(column_stats.dtype, column_stats.domain)  # NULL-free by construction
    counts = column_stats.domain_counts
    return values, key_rows([keys], [values]), None if counts is None else np.asarray(counts)


def _check_group_coverage(
    model: CapturedModel, table_stats: TableStats, pinned: dict[str, list[Any]]
) -> None:
    """Refuse to enumerate when group values appeared after the capture.

    The parameter table can only regenerate tuples for groups it has
    parameters for; if the catalog's current domain of a group column holds
    values the capture never saw (e.g. a brand-new entity that streamed in
    while the model is stale), the model-generated table would silently drop
    those rows.
    """
    if not model.is_grouped:
        return
    for position, column in enumerate(model.group_columns):
        found = domain_rows(table_stats, column, model.fit.key_columns[position])  # type: ignore[union-attr]
        if found is None:
            continue
        allowed = pinned.get(column)
        unseen = found[0].take(np.flatnonzero(found[1] < 0)).to_pylist()
        new_values = [v for v in unseen if allowed is None or v in allowed]
        if new_values:
            raise EnumerationError(
                f"group column {column!r} holds values {new_values[:5]} that appeared "
                f"after model {model.model_id} was captured; their tuples cannot be "
                "regenerated from the stored parameters"
            )


def _group_rows(model: CapturedModel, pinned: dict[str, list[Any]]) -> np.ndarray:
    if not model.group_columns:
        return np.empty(0, dtype=np.int64)
    fit: GroupedFitResult = model.fit  # type: ignore[assignment]
    rows = np.flatnonzero(fit.succeeded)
    # Apply pinning on group columns (e.g. WHERE source = 42).
    for position, column in enumerate(model.group_columns):
        if column in pinned:
            allowed = pinned[column]
            values = fit.key_columns[position].take(rows).to_pylist()
            rows = rows[np.array([value in allowed for value in values], dtype=bool)]
    return rows


def generate_virtual_table(
    model: CapturedModel,
    plan: EnumerationPlan,
    table_name: str | None = None,
    include_error_column: bool = False,
) -> Table:
    """Materialise the model-generated table over the enumeration plan.

    The output has the model's group columns, input columns and predicted
    output column — the same shape as the raw table restricted to those
    columns, so the rest of the query plan can run against it unchanged.
    """
    input_columns = list(model.input_columns)
    input_values = [plan.input_domains[name] for name in input_columns]
    input_product = list(itertools.product(*input_values)) if input_values else [tuple()]
    points = len(input_product)
    inputs_arrays = {
        name: np.array([combo[i] for combo in input_product], dtype=np.float64)
        for i, name in enumerate(input_columns)
    }

    columns: dict[str, Column] = {}
    if model.group_columns:
        # Every key's row of the parameter table, each repeated over the grid:
        # one row-wise evaluation, no per-group loop.
        grouped: GroupedFitResult = model.fit  # type: ignore[assignment]
        rows = plan.group_rows.repeat(points)
        for column, keys in zip(model.group_columns, grouped.key_columns):
            columns[column] = keys.take(rows)
        tiled = {name: np.tile(values, len(plan.group_rows)) for name, values in inputs_arrays.items()}
        predictions = grouped.family.predict_rowwise(tiled, grouped.params[rows])
        errors = grouped.rse[rows]
    else:
        fit = model.fit  # type: ignore[assignment]
        tiled = inputs_arrays
        predictions = fit.predict(inputs_arrays) if points else np.array([])
        errors = np.full(points, fit.residual_standard_error)

    for name in input_columns:
        columns[name] = Column(DataType.FLOAT64, tiled[name])
    columns[model.output_column] = Column(DataType.FLOAT64, np.asarray(predictions, dtype=np.float64))
    if include_error_column:
        columns[f"{model.output_column}_error"] = Column(DataType.FLOAT64, errors)

    name = table_name or model.table_name
    return Table(name, Schema(ColumnDef(n, c.dtype) for n, c in columns.items()), columns)
