"""Grouped (per-key) model fitting.

The LOFAR example fits one power law *per source*: the result is a parameter
table with one row per group (source, p, alpha, residual SE) — the paper's
Table 1.  :class:`GroupedFitter` produces exactly that, including the cases
the paper warns about (groups with too few observations, groups where the
optimiser fails), which are recorded rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.operators.codes import argsort_codes, factorize_keys
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import FittingError, InsufficientDataError
from repro.fitting.fit import fit_model
from repro.fitting.model import FitResult, ModelFamily

__all__ = [
    "GroupFitRecord",
    "GroupedFitResult",
    "GroupedFitter",
    "StackedFits",
    "fit_grouped",
    "group_rows",
]


def group_rows(
    key_columns: Sequence[Column | Sequence[Any]],
) -> tuple[list[tuple[Any, ...]], list[np.ndarray]]:
    """Split row positions by composite group key, without a per-row loop.

    Returns ``(keys, rows)``: the distinct keys in first-occurrence order and,
    aligned with them, each group's row positions in ascending order.  Rows
    with a NULL in any key column belong to no group and appear nowhere.
    Key columns given as plain value sequences are typed by inference.
    """
    columns = [c if isinstance(c, Column) else Column.infer(c) for c in key_columns]
    num_rows = len(columns[0])
    if num_rows == 0:
        return [], []
    group_ids, first_rows, num_groups = factorize_keys(columns, num_rows)
    order = argsort_codes(group_ids, num_groups)
    sizes = np.bincount(group_ids, minlength=num_groups)
    rows = np.split(order, np.cumsum(sizes)[:-1])
    keys = list(zip(*(column.take(first_rows).to_pylist() for column in columns)))
    # NULL is a key value of its own to ``factorize_keys``, so a group is
    # either wholly NULL-keyed or not at all.
    kept = [g for g, key in enumerate(keys) if None not in key]
    if len(kept) == num_groups:
        return keys, rows
    return [keys[g] for g in kept], [rows[g] for g in kept]


@dataclass
class GroupFitRecord:
    """One group's fit outcome (or failure)."""

    key: tuple[Any, ...]
    result: FitResult | None
    error: str | None = None
    n_observations: int = 0

    @property
    def succeeded(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class StackedFits:
    """A grouped fit's records as aligned arrays — the parameter table.

    Row ``i`` describes ``records[i]``; records without a fit hold NaN
    parameters and a NaN residual standard error, so anything computed from
    their row is NaN rather than silently wrong.
    """

    #: group key -> record position.
    index: dict[tuple[Any, ...], int]
    #: Whether the record holds a fit at all.
    fitted: np.ndarray
    #: ``(records, parameters)`` matrix of fitted parameter values.
    params: np.ndarray
    #: Residual standard error and R² per record.
    rse: np.ndarray
    r_squared: np.ndarray
    #: Observations each record was fitted on (counted even when it failed).
    n_obs: np.ndarray

    @classmethod
    def of(cls, records: Sequence[GroupFitRecord], num_params: int) -> "StackedFits":
        fitted = np.zeros(len(records), dtype=bool)
        params = np.full((len(records), num_params), np.nan)
        rse = np.full(len(records), np.nan)
        r_squared = np.full(len(records), np.nan)
        n_obs = np.array([record.n_observations for record in records], dtype=np.float64)
        for position, record in enumerate(records):
            fit = record.result
            if fit is not None:
                fitted[position] = True
                params[position] = fit.params
                rse[position] = fit.residual_standard_error
                r_squared[position] = fit.r_squared
                n_obs[position] = fit.n_observations
        index = {record.key: position for position, record in enumerate(records)}
        return cls(index, fitted, params, rse, r_squared, n_obs)


@dataclass
class GroupedFitResult:
    """All per-group fits plus the derived parameter table.

    ``records`` is the source of truth (capture and the warehouse restore
    path append to it); :meth:`stacked` is its columnar view, built on first
    use and rebuilt when records were appended since.
    """

    family: ModelFamily
    group_columns: tuple[str, ...]
    input_columns: tuple[str, ...]
    output_column: str
    records: list[GroupFitRecord] = field(default_factory=list)
    _stacked: StackedFits | None = field(default=None, init=False, repr=False, compare=False)

    # -- access --------------------------------------------------------------

    def stacked(self) -> StackedFits:
        """The records as one parameter matrix plus a key -> row index."""
        view = self._stacked
        if view is None or len(view.fitted) != len(self.records):
            view = self._stacked = StackedFits.of(self.records, self.family.num_params)
        return view

    @property
    def fitted(self) -> list[GroupFitRecord]:
        return [record for record in self.records if record.succeeded]

    @property
    def failed(self) -> list[GroupFitRecord]:
        return [record for record in self.records if not record.succeeded]

    @property
    def num_groups(self) -> int:
        return len(self.records)

    def result_for(self, key: tuple[Any, ...] | Any) -> FitResult | None:
        """The FitResult for one group key (scalar keys are auto-wrapped)."""
        if not isinstance(key, tuple):
            key = (key,)
        position = self.stacked().index.get(key)
        return None if position is None else self.records[position].result

    def predict_rows(
        self,
        inputs: Mapping[str, np.ndarray],
        key_columns: Sequence[Column | Sequence[Any]],
        fill: float = np.nan,
    ) -> np.ndarray:
        """Per-row predictions over column arrays aligned with ``key_columns``.

        Each row is predicted by its own group's fit; rows whose group has no
        fitted parameters (failed fit, unseen or NULL key) come back ``fill``.
        """
        keys, group_row_positions = group_rows(key_columns)
        predictions = np.full(len(key_columns[0]), fill, dtype=np.float64)
        for key, rows in zip(keys, group_row_positions):
            fit = self.result_for(key)
            if fit is not None:
                predictions[rows] = fit.predict(
                    {name: values[rows] for name, values in inputs.items()}
                )
        return predictions

    def params_by_key(self) -> dict[tuple[Any, ...], dict[str, float]]:
        return {record.key: record.result.param_dict for record in self.records if record.result is not None}

    # -- the paper's parameter table ------------------------------------------

    def to_parameter_table(self, name: str = "model_parameters") -> Table:
        """Build the Table 1 style parameter table.

        Columns: the group key columns, one column per model parameter, and
        the per-group quality measures (residual SE, R², #observations).
        """
        defs: list[ColumnDef] = []
        data: dict[str, list[Any]] = {}

        sample_key = self.records[0].key if self.records else tuple()
        for index, column in enumerate(self.group_columns):
            key_value = sample_key[index] if index < len(sample_key) else None
            dtype = DataType.infer(key_value) if key_value is not None else DataType.INT64
            defs.append(ColumnDef(column, dtype))
            data[column] = []

        for param in self.family.param_names:
            defs.append(ColumnDef(param, DataType.FLOAT64))
            data[param] = []
        for metric in ("residual_se", "r_squared", "n_obs"):
            dtype = DataType.INT64 if metric == "n_obs" else DataType.FLOAT64
            defs.append(ColumnDef(metric, dtype))
            data[metric] = []

        for record in self.records:
            if record.result is None:
                continue
            for index, column in enumerate(self.group_columns):
                data[column].append(record.key[index])
            for param, value in zip(self.family.param_names, record.result.params):
                data[param].append(float(value))
            data["residual_se"].append(record.result.residual_standard_error)
            data["r_squared"].append(record.result.r_squared)
            data["n_obs"].append(record.result.n_observations)

        return Table(name, Schema(defs), {
            col_def.name: _column_from(col_def.dtype, data[col_def.name]) for col_def in defs
        })

    def byte_size(self) -> int:
        """Nominal size of the parameter table (for the compression ratio)."""
        return self.to_parameter_table().byte_size()

    def anomaly_ranking(self) -> list[tuple[tuple[Any, ...], float]]:
        """Groups ranked by residual standard error, worst fit first.

        §4.2: "observations that do not fit the model are of supreme
        interest ... showing large residual errors".
        """
        ranked = [
            (record.key, record.result.residual_standard_error)
            for record in self.records
            if record.result is not None
        ]
        return sorted(ranked, key=lambda pair: pair[1], reverse=True)


def _column_from(dtype: DataType, values: list[Any]):
    from repro.db.column import Column

    return Column.from_values(dtype, values)


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
        """Fit the model for every group of ``table``."""
        result = GroupedFitResult(
            family=self.family,
            group_columns=self.group_columns,
            input_columns=self.input_columns,
            output_column=self.output_column,
        )

        keys, group_row_positions = group_rows(
            [table.column(name) for name in self.group_columns]
        )
        input_arrays = {name: table.column(name).float_numpy() for name in self.input_columns}
        input_validity = {name: table.column(name).validity for name in self.input_columns}
        output_array = table.column(self.output_column).float_numpy()
        output_validity = table.column(self.output_column).validity

        for key, rows in zip(keys, group_row_positions):
            valid = output_validity[rows]
            for name in self.input_columns:
                valid &= input_validity[name][rows]
            rows = rows[valid]

            if len(rows) < self.min_observations:
                result.records.append(
                    GroupFitRecord(
                        key=key,
                        result=None,
                        error=f"only {len(rows)} usable observations (< {self.min_observations})",
                        n_observations=len(rows),
                    )
                )
                continue

            inputs = {name: input_arrays[name][rows] for name in self.input_columns}
            y = output_array[rows]
            try:
                fit = fit_model(
                    self.family,
                    inputs,
                    y,
                    output_name=self.output_column,
                    method=self.method,
                )
                result.records.append(GroupFitRecord(key=key, result=fit, n_observations=len(rows)))
            except (FittingError, InsufficientDataError, np.linalg.LinAlgError) as exc:
                result.records.append(
                    GroupFitRecord(key=key, result=None, error=str(exc), n_observations=len(rows))
                )
        return result

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
