"""Grouped (per-key) model fitting.

The LOFAR example fits one power law *per source*: the result is a parameter
table with one row per group (source, p, alpha, residual SE) — the paper's
Table 1.  :class:`GroupedFitter` produces exactly that table, including the
cases the paper warns about (groups with too few observations, groups where
the optimiser fails), which keep their row rather than being silently
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.operators.codes import argsort_codes, dense_key_codes, factorize_keys
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import FittingError, InsufficientDataError, TypeMismatchError
from repro.fitting.fit import fit_model
from repro.fitting.model import FitResult, ModelFamily
from repro.lazy import lazy_attribute

__all__ = [
    "TABLE_COLUMNS",
    "GroupedFitResult",
    "GroupedFitter",
    "fit_grouped",
    "group_rows",
    "key_rows",
]


def group_rows(key_columns: Sequence[Column]) -> tuple[list[Column], list[np.ndarray]]:
    """Split row positions by composite group key, without a per-row loop.

    Returns ``(keys, rows)``: one column per key column holding the distinct
    keys in first-occurrence order, typed like the input, and, aligned with
    them, each group's row positions in ascending order.  Rows with a NULL in
    any key column belong to no group and appear nowhere.
    """
    num_rows = len(key_columns[0])
    group_ids, first_rows, num_groups = factorize_keys(list(key_columns), num_rows)
    order = argsort_codes(group_ids, num_groups)
    sizes = np.bincount(group_ids, minlength=num_groups)
    rows = np.split(order, np.cumsum(sizes)[:-1]) if num_groups else []
    # NULL is a key value of its own to ``factorize_keys``, so a group is
    # either wholly NULL-keyed or not at all.
    keys = [column.take(first_rows) for column in key_columns]
    kept = np.flatnonzero(~np.logical_or.reduce([key.null_mask() for key in keys]))
    return [key.take(kept) for key in keys], [rows[g] for g in kept]


def key_rows(table: Sequence[Column], keys: Sequence[Column]) -> np.ndarray:
    """Where each key of ``keys`` sits in ``table`` — both aligned columns, one
    per key column, ``table``'s without NULLs — as a row number, −1 where no
    row holds it (a NULL key included).  One factorisation of both sides, so
    values compare as python values do (:meth:`Column.stack`); duplicate keys
    in ``table`` yield one of their rows.
    """
    count, requested = len(table[0]), len(keys[0])
    try:
        stacked = [Column.stack(pair) for pair in zip(table, keys)]
    except TypeMismatchError:
        return np.full(requested, -1, dtype=np.int64)
    codes, _, space = dense_key_codes(stacked, count + requested)
    row_of = np.full(space, -1, dtype=np.int64)
    row_of[codes[:count]] = np.arange(count)
    return row_of[codes[count:]]


#: Rows :meth:`GroupedFitResult.predict_rows` evaluates per block.
PREDICT_BLOCK_ROWS = 16_384

#: The parameter table's per-group columns: name, the FitResult field each
#: row holds, dtype, and how many parameter-sized axes follow the group axis.
TABLE_COLUMNS = (
    ("params", "params", np.float64, 1),
    ("rse", "residual_standard_error", np.float64, 0),
    ("r_squared", "r_squared", np.float64, 0),
    ("adjusted_r_squared", "adjusted_r_squared", np.float64, 0),
    ("sse", "sum_squared_residuals", np.float64, 0),
    ("n_obs", "n_observations", np.int64, 0),
    ("covariance", "covariance", np.float64, 2),
    ("iterations", "iterations", np.int64, 0),
    ("converged", "converged", np.bool_, 0),
)


@dataclass(eq=False)
class GroupedFitResult:
    """A grouped fit as its parameter table: row ``g`` is group ``g``.

    Groups are numbered by first occurrence in the fitted table.  A group
    whose fit failed keeps its row, with NaN parameters, quality measures and
    covariance and the reason in :attr:`errors`, so anything computed from it
    is NaN rather than silently wrong.  :meth:`result_for` is one fitted
    row's :class:`FitResult` view.
    """

    family: ModelFamily
    group_columns: tuple[str, ...]
    input_columns: tuple[str, ...]
    output_column: str
    #: What every fitted row's FitResult records beside its numbers, as the fitter gave them.
    input_names: tuple[str, ...]
    extra: dict[str, Any]
    #: One column per group column, typed like the fitted table's.
    key_columns: tuple[Column, ...]
    #: ``(G, P)`` parameter estimates.
    params: np.ndarray
    #: Residual standard error, R², adjusted R² and sum of squared residuals.
    rse: np.ndarray
    r_squared: np.ndarray
    adjusted_r_squared: np.ndarray
    sse: np.ndarray
    #: The fit's observation count; for a failed group, its usable rows.
    n_obs: np.ndarray
    #: ``(G, P, P)`` covariance of the estimates; all NaN where none was estimated.
    covariance: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    #: Why a group has no fit; None where it was fitted.
    errors: tuple[str | None, ...]

    @lazy_attribute
    def keys(self) -> list[tuple[Any, ...]]:
        """Row ``g``'s group key as python values."""
        return list(zip(*(column.to_pylist() for column in self.key_columns)))

    @lazy_attribute
    def index(self) -> dict[tuple[Any, ...], int]:
        """Group key -> row, for the scalar lookup of :meth:`result_for`."""
        return {key: row for row, key in enumerate(self.keys)}

    def rows_of(self, key_columns: Sequence[Column]) -> np.ndarray:
        """Each key's row (−1: none), one column per group column: the one key
        -> row gather (:func:`key_rows`).  A failed group keeps its row."""
        return key_rows(self.key_columns, key_columns)

    @lazy_attribute
    def succeeded(self) -> np.ndarray:
        """Whether row ``g`` holds a fit."""
        return np.array([error is None for error in self.errors], dtype=bool)

    @property
    def num_groups(self) -> int:
        return len(self.errors)

    @lazy_attribute
    def _views(self) -> dict[int, FitResult]:
        """The :meth:`result_for` views built so far, by row (the table never changes)."""
        return {}

    def result_for(self, key: tuple[Any, ...] | Any) -> FitResult | None:
        """The FitResult view of one group key (scalar keys are auto-wrapped);
        None for a key without a fit."""
        row = self.index.get(key if isinstance(key, tuple) else (key,))
        if row is None or self.errors[row] is not None:
            return None
        if row not in self._views:
            cells = {field: getattr(self, name)[row] for name, field, _, _ in TABLE_COLUMNS}
            cells = {field: cell.item() if cell.ndim == 0 else cell for field, cell in cells.items()}
            if np.isnan(cells["covariance"]).all():
                cells["covariance"] = None
            self._views[row] = FitResult(
                family=self.family, input_names=self.input_names, output_name=self.output_column,
                extra=dict(self.extra), **cells,
            )  # fmt: skip
        return self._views[row]

    def predict_rows(
        self,
        inputs: Mapping[str, np.ndarray],
        key_columns: Sequence[Column | Sequence[Any]],
        fill: float = np.nan,
    ) -> np.ndarray:
        """Per-row predictions over column arrays aligned with ``key_columns``
        (plain value sequences are typed by inference).

        One key -> row gather (:meth:`rows_of`), then each row evaluated under
        its own group's parameter row; rows whose group has no fit (failed
        fit, unseen or NULL key) come back ``fill``.
        """
        rows = self.rows_of([c if isinstance(c, Column) else Column.infer(c) for c in key_columns])
        rows[~np.append(self.succeeded, False)[rows]] = -1  # -1 reads the appended False
        predictions = np.full(len(rows), fill, dtype=np.float64)
        # Row blocks bound the memory of the gathered parameters and design matrix.
        for start in range(0, len(rows), PREDICT_BLOCK_ROWS):
            served = np.flatnonzero(rows[start : start + PREDICT_BLOCK_ROWS] >= 0) + start
            if served.size:
                predictions[served] = self.family.predict_rowwise(
                    {name: np.asarray(inputs[name], dtype=np.float64)[served] for name in self.input_columns},
                    self.params[rows[served]],
                )
        return predictions

    def to_parameter_table(self, name: str = "model_parameters") -> Table:
        """The Table 1 style parameter table of the fitted groups.

        Columns: the group key columns, one column per model parameter, and
        the per-group quality measures (residual SE, R², #observations).
        """
        fitted = np.flatnonzero(self.succeeded)
        columns = {column: keys.take(fitted) for column, keys in zip(self.group_columns, self.key_columns)}
        for position, param in enumerate(self.family.param_names):
            columns[param] = Column(DataType.FLOAT64, self.params[fitted, position])
        columns["residual_se"] = Column(DataType.FLOAT64, self.rse[fitted])
        columns["r_squared"] = Column(DataType.FLOAT64, self.r_squared[fitted])
        columns["n_obs"] = Column(DataType.INT64, self.n_obs[fitted])
        return Table(name, Schema(ColumnDef(n, c.dtype) for n, c in columns.items()), columns)


class GroupedFitter:
    """Fits one model per group of a table."""

    def __init__(
        self,
        family: ModelFamily,
        input_columns: Iterable[str],
        output_column: str,
        group_columns: Iterable[str],
        min_observations: int | None = None,
        method: str = "lm",
    ) -> None:
        self.family = family
        self.input_columns = tuple(input_columns)
        self.output_column = output_column
        self.group_columns = tuple(group_columns)
        if not self.group_columns:
            raise FittingError("grouped fitting requires at least one group column")
        # The paper: "we need more observed input/output pairs than model parameters".
        self.min_observations = (
            min_observations if min_observations is not None else family.num_params + 1
        )
        self.method = method

    def fit(self, table: Table) -> GroupedFitResult:
        """Fit the model for every group of ``table`` into one parameter table."""
        key_columns, group_row_positions = group_rows(
            [table.column(name) for name in self.group_columns]
        )
        input_arrays = {name: table.column(name).float_numpy() for name in self.input_columns}
        input_validity = {name: table.column(name).validity for name in self.input_columns}
        output_array = table.column(self.output_column).float_numpy()
        output_validity = table.column(self.output_column).validity

        fits: list[FitResult | str] = []
        usable: list[int] = []
        for rows in group_row_positions:
            valid = output_validity[rows]
            for name in self.input_columns:
                valid &= input_validity[name][rows]
            rows = rows[valid]
            usable.append(len(rows))
            if len(rows) < self.min_observations:
                fits.append(f"only {len(rows)} usable observations (< {self.min_observations})")
                continue
            try:
                fits.append(fit_model(
                    self.family,
                    {name: input_arrays[name][rows] for name in self.input_columns},
                    output_array[rows],
                    output_name=self.output_column,
                    method=self.method,
                ))
            except (FittingError, InsufficientDataError, np.linalg.LinAlgError) as exc:
                fits.append(str(exc))
        return self.table(key_columns, fits, usable)

    def table(
        self, key_columns: Sequence[Column], fits: Sequence[FitResult | str], usable: Sequence[int]
    ) -> GroupedFitResult:
        """The parameter table of per-group outcomes, filled once: ``fits[g]``
        is group ``g``'s fit, or why it has none after ``usable[g]`` rows were
        left to fit."""
        num_params = self.family.num_params
        missing = np.full((num_params, num_params), np.nan)
        first = next((fit for fit in fits if not isinstance(fit, str)), None)
        rows = [
            FitResult(self.family, missing[0], (), "", count, *[np.nan] * 4, converged=False)
            if isinstance(fit, str) else fit
            for fit, count in zip(fits, usable)
        ]
        return GroupedFitResult(
            self.family, self.group_columns, self.input_columns, self.output_column,
            self.input_columns if first is None else first.input_names,
            {} if first is None else dict(first.extra),
            tuple(key_columns),
            errors=tuple(fit if isinstance(fit, str) else None for fit in fits),
            **{
                name: np.array(
                    [missing if value is None else value for value in (getattr(fit, field) for fit in rows)],
                    dtype=dtype,
                ).reshape(len(rows), *(num_params,) * axes)
                for name, field, dtype, axes in TABLE_COLUMNS
            },
        )


def fit_grouped(
    table: Table,
    family: ModelFamily,
    input_columns: Iterable[str],
    output_column: str,
    group_columns: Iterable[str],
    **kwargs: Any,
) -> GroupedFitResult:
    """Functional convenience wrapper around :class:`GroupedFitter`."""
    fitter = GroupedFitter(family, input_columns, output_column, group_columns, **kwargs)
    return fitter.fit(table)
