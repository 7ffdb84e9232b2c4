"""Grouped (per-key) model fitting.

The LOFAR example fits one power law *per source*: the result is a parameter
table with one row per group (source, p, alpha, residual SE) — the paper's
Table 1.  :class:`GroupedFitter` produces exactly that table, including the
cases the paper warns about (groups with too few observations, groups where
the optimiser fails), which keep their row rather than being silently
dropped.

Capture is one batched solve, not one fit per group.  The groups are
numbered once (:func:`dense_key_codes`).  For a family linear in its
parameters (``linear``, ``polynomial``, ``constant``) two passes over the
rows accumulate every group's means and its group-centred cross-products
with ``np.bincount``; one batched ``np.linalg.solve`` / ``inv`` over the
``(G, P, P)`` Gram blocks gives every group's parameters and covariance
(§3's β̂ = (XᵀX)⁻¹Xᵀy); a third pass over the residuals gives SSE, residual
SE, R² and adjusted R².  ``powerlaw`` and ``exponential`` take their
log-linear start (``initial_guess``'s straight line through ``log y``) from
the same solve, then run Levenberg-Marquardt for all groups at once: one
pass over the rows of the groups still iterating per round, each group with
its own damping and the scalar optimiser's accept / reject and stopping
rules.

*The straggler rule.*  A group goes through the scalar :func:`fit_model`,
exactly as every group did before, when it has

- fewer usable rows (no NULL input or output) than ``min_observations``, or
  no more than the family has parameters;
- a non-finite value in a usable row (what
  :func:`repro.fitting.fit.clean_observations` drops), or a non-positive
  one where the log-linear start takes a log;
- a rank-deficient Gram block, or one whose condition number, scaled to a
  unit diagonal, exceeds :data:`CONDITION_BOUND`; or an output too close to
  constant for R² (:data:`OUTPUT_SPREAD_FLOOR`);
- a Levenberg-Marquardt run that did not converge, met a non-finite
  Jacobian or ended on a singular JᵀJ;

and every group does under ``method="gn"`` or a family the batched solver
does not cover.  So a straggler's outcome is exactly the scalar fit's, and
a batched group's is the scalar fit's to rounding (error texts, row counts
and convergence flags alike; ``tests/fitting/test_grouped_batched_parity.py``).

*Memory.*  The passes read the table a morsel (``MORSEL_ROWS`` rows) at a
time, so no per-row temporary outgrows one morsel.  The table-sized arrays
are the group codes and, under Levenberg-Marquardt, the rows of the groups
still iterating, compacted as groups finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.operators.codes import argsort_codes, dense_key_codes
from repro.db.operators.morsel import MORSEL_ROWS, morsels
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import FittingError, InsufficientDataError, TypeMismatchError
from repro.fitting.families import Exponential, PowerLaw
from repro.fitting.fit import fit_model
from repro.fitting.model import FitResult, ModelFamily
from repro.lazy import lazy_attribute

__all__ = [
    "CONDITION_BOUND",
    "TABLE_COLUMNS",
    "GroupedFitResult",
    "GroupedFitter",
    "fit_grouped",
    "key_rows",
]


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


#: Largest condition number of a group's Gram block XᵀX, scaled to a unit
#: diagonal, that the batched solve takes: below it the normal equations agree
#: with the scalar ``lstsq`` to about 1e-10 relative.  A group above it is a
#: straggler.
CONDITION_BOUND = 1e6

#: An output whose spread is below this fraction of its mean is numerically
#: constant: R²'s ``SST == 0`` branch is then decided by rounding, so the
#: scalar fit takes the group.
OUTPUT_SPREAD_FLOOR = 1e-8

#: :func:`repro.fitting.nonlinear.levenberg_marquardt`'s rules, with the
#: iteration cap :func:`repro.fitting.nonlinear.fit_nonlinear_family` gives it.
LM_MAX_ITERATIONS = 200
LM_TOLERANCE = 1e-12
LM_INITIAL_DAMPING = 1e-3
LM_DAMPING_TRIALS = 50

#: Families the batched Levenberg-Marquardt covers, with the input transform
#: their ``initial_guess`` draws its straight line through ``log y`` over.
LOG_LINEAR_STARTS: Mapping[type, Callable[[np.ndarray], np.ndarray]] = MappingProxyType({
    PowerLaw: np.log,
    Exponential: np.asarray,
})

#: ``(codes, inputs, y)``: group codes, float64 inputs by name and output of some rows.
Rows = tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]


def _intercept_column(family: ModelFamily, inputs: Sequence[str]) -> int | None | bool:
    """The design column of a linear family that is 1 whatever the input —
    the intercept the batched solve centres on — None when there is none,
    False when the design matrix cannot be built from ``inputs``."""
    try:
        probes = [family.design_columns({name: np.array(values) for name in inputs})
                  for values in ([2.0, 3.0], [5.0, 7.0])]
    except Exception:  # noqa: BLE001 - the scalar fit reports what is wrong
        return False
    ones = [p for p, columns in enumerate(zip(*probes)) if all((column == 1.0).all() for column in columns)]
    return ones[0] if ones else None


def _number_groups(table: Table, group_columns: Sequence[str]) -> tuple[np.ndarray, list[Column], np.ndarray]:
    """Each row's group code (:func:`dense_key_codes`: numbered by key
    value), each code's key (one column per group column), and the codes of
    the groups to fit in first-occurrence order.  NULL is a key value of its
    own to ``dense_key_codes``; a group with a NULL key is not fitted."""
    key_columns = [table.column(name) for name in group_columns]
    codes, first_rows, _ = dense_key_codes(key_columns, table.num_rows)
    keys = [column.take(first_rows) for column in key_columns]
    kept = ~np.logical_or.reduce([key.null_mask() for key in keys], axis=0)
    order = np.argsort(first_rows)
    return codes, keys, order[kept[order]]


def _blank(num_groups: int, num_params: int) -> dict[str, np.ndarray]:
    """The parameter-table columns of ``num_groups`` groups without a fit."""
    blank = {"n_obs": 0, "iterations": 0, "converged": False}
    return {
        name: np.full((num_groups, *(num_params,) * axes), blank.get(name, np.nan), dtype=dtype)
        for name, _, dtype, axes in TABLE_COLUMNS
    }


def _record(columns: dict[str, np.ndarray], row: int, fit: FitResult) -> None:
    """Write one scalar fit into row ``row`` of the parameter-table columns."""
    for name, field, _, _ in TABLE_COLUMNS:
        value = getattr(fit, field)
        if value is not None:
            columns[name][row] = value


def _centred_moments(
    read: Callable[[], Iterator[Rows]], size: int, width: int,
    columns_of: Callable[[dict[str, np.ndarray], np.ndarray], list[np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per group code: the row count, the means of the ``width`` columns
    ``columns_of`` derives from a morsel, and their cross-products about
    those means — ``(size,)``, ``(width, size)``, ``(width, width, size)``.
    Two passes: the means, then the products of the group-centred columns,
    formed in buffers one morsel long."""
    count, sums = np.zeros(size), np.zeros((width, size))
    cross = np.zeros((width, width, size))
    centred, product = np.empty((width, MORSEL_ROWS)), np.empty(MORSEL_ROWS)
    with np.errstate(all="ignore"):
        for codes, inputs, y in read():
            count += np.bincount(codes, minlength=size)
            for k, values in enumerate(columns_of(inputs, y)):
                sums[k] += np.bincount(codes, values, minlength=size)
        means = sums / count
        for codes, inputs, y in read():
            rows = len(codes)
            for k, values in enumerate(columns_of(inputs, y)):
                np.subtract(values, np.take(means[k], codes, out=product[:rows], mode="clip"), out=centred[k, :rows])
            for i in range(width):
                for j in range(i + 1):
                    np.multiply(centred[i, :rows], centred[j, :rows], out=product[:rows])
                    cross[i, j] += np.bincount(codes, product[:rows], minlength=size)
                    cross[j, i] = cross[i, j]
    return count, means, cross


def _spread(count: np.ndarray, mean: np.ndarray, centred_squares: np.ndarray) -> np.ndarray:
    """Where an output varies enough for R² to be more than rounding."""
    with np.errstate(all="ignore"):
        return centred_squares > count * (OUTPUT_SPREAD_FLOOR * mean) ** 2


def _well_conditioned(gram: np.ndarray) -> np.ndarray:
    """Per ``(P, P)`` block: positive definite with a condition number, scaled
    to a unit diagonal, of at most :data:`CONDITION_BOUND`."""
    diagonal = np.diagonal(gram, axis1=1, axis2=2)
    positive = (diagonal > 0).all(axis=1) & np.isfinite(gram).all(axis=(1, 2))
    with np.errstate(all="ignore"):
        scale = 1.0 / np.sqrt(np.where(positive[:, None], diagonal, 1.0))
        eigenvalues = np.linalg.eigvalsh(np.where(positive[:, None, None], gram, 1.0) * scale[:, :, None] * scale[:, None, :])
    return positive & (eigenvalues[:, 0] * CONDITION_BOUND >= eigenvalues[:, -1]) & (eigenvalues[:, 0] > 0)


def _solve_and_invert(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``gram⁻¹ rhs`` and ``gram⁻¹`` for every block, solved scaled to a unit diagonal."""
    scale = 1.0 / np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    outer = scale[:, :, None] * scale[:, None, :]
    scaled = gram * outer
    solution = np.linalg.solve(scaled, (rhs * scale)[..., None])[..., 0] * scale
    return solution, np.linalg.inv(scaled) * outer


def _rows_of(read: Callable[[], Iterator[Rows]], groups: np.ndarray, total: int) -> Rows:
    """The rows of the ``groups`` (a mask over codes), ``total`` of them, in table order."""
    codes_out, y_out, inputs_out, at = np.empty(total, dtype=np.int64), np.empty(total), None, 0
    for codes, inputs, y in read():
        keep = np.flatnonzero(groups[codes])
        if inputs_out is None:
            inputs_out = {name: np.empty(total) for name in inputs}
        stop = at + len(keep)
        codes_out[at:stop], y_out[at:stop] = codes[keep], y[keep]
        for name, values in inputs.items():
            inputs_out[name][at:stop] = values[keep]
        at = stop
    return codes_out, inputs_out or {}, y_out


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
        """Fit the model for every group of ``table`` into one parameter table.

        The groups are numbered once (:func:`dense_key_codes`).  A family
        linear in its parameters is fitted for all of them by one batched
        solve (:meth:`_solve_linear`), ``powerlaw`` and ``exponential`` under
        ``method="lm"`` by one batched Levenberg-Marquardt
        (:meth:`_solve_levenberg_marquardt`).  The groups they leave — the
        straggler rule of the module docstring — and every group of another
        family or method go through the scalar :func:`fit_model`, in
        :meth:`_fit_stragglers`.  Per-row temporaries stay within one morsel
        (``MORSEL_ROWS`` rows); the table-sized arrays are the group codes
        and, under Levenberg-Marquardt, the rows of the groups still iterating.
        """
        codes, keys, fitted = _number_groups(table, self.group_columns)
        # Code ``num_groups`` is spare: it takes the rows with a NULL input or
        # output, which no fit reads.
        num_groups = len(keys[0])
        candidates = np.zeros(num_groups + 1, dtype=bool)
        candidates[fitted] = True
        columns = _blank(num_groups + 1, self.family.num_params)
        errors = np.full(num_groups + 1, None, dtype=object)
        intercept = _intercept_column(self.family, self.input_columns) if self.family.is_linear else False
        if type(self.family) in LOG_LINEAR_STARTS and self.method == "lm" and len(self.input_columns) == 1:
            solved = self._solve_levenberg_marquardt(table, codes, candidates, columns)
        elif intercept is not False:
            solved = self._solve_linear(table, codes, candidates, columns, intercept)
        else:
            solved = np.zeros(num_groups + 1, dtype=bool)
        self._fit_stragglers(table, codes, np.flatnonzero(candidates & ~solved), columns, errors)
        return self._result(keys, fitted, columns, errors)

    def _result(
        self, keys: Sequence[Column], rows: np.ndarray, columns: dict[str, np.ndarray], errors: np.ndarray,
        recorded: tuple[tuple[str, ...], dict[str, Any]] | None = None,
    ) -> GroupedFitResult:
        """The parameter table of groups ``rows``.  ``recorded`` is what every
        fit records beside its numbers (input names, ``extra``); by default
        what the scalar fit records, or the input columns and nothing when no
        group has a fit."""
        errors = tuple(errors[rows].tolist())
        if recorded is None:
            fitted = None in errors
            if fitted and not self.family.is_linear:
                recorded = self.input_columns, {"method": self.method}
            elif fitted and set(self.family.input_names) <= set(self.input_columns):
                recorded = tuple(self.family.input_names), {}
            else:
                recorded = self.input_columns, {}
        return GroupedFitResult(
            self.family, self.group_columns, self.input_columns, self.output_column, *recorded,
            tuple(key.take(rows) for key in keys),
            errors=errors,
            **{name: column[rows] for name, column in columns.items()},
        )

    def _morsels(self, table: Table, codes: np.ndarray, spare: int) -> Iterator[Rows]:
        """The fitted columns a morsel at a time: the rows' group codes —
        ``spare`` where an input or the output is NULL — then the inputs by
        name and the output, as read-only float64 arrays."""
        fitted = [table.column(name) for name in (*self.input_columns, self.output_column)]
        complete = all(column.null_free() for column in fitted)
        for start, stop in morsels([(0, len(codes))]):
            parts = [column.slice(start, stop) for column in fitted]
            group = codes[start:stop]
            if not complete:
                group = np.where(np.logical_and.reduce([part.validity for part in parts]), group, spare)
            # A FLOAT64 column is read in place; a NULL's slot is never read.
            values = [part.stored if part.dtype is DataType.FLOAT64 else part.float_numpy() for part in parts]
            yield group, dict(zip(self.input_columns, values)), values[-1]

    def _solve_linear(
        self, table: Table, codes: np.ndarray, candidates: np.ndarray, columns: dict[str, np.ndarray],
        intercept: int | None,
    ) -> np.ndarray:
        """Least squares for every group of a family linear in its parameters
        at once; returns which groups it fitted (into ``columns``).

        The design columns but the ``intercept`` one and the output are
        centred on their group means, so the solve is the centred ``(Q, Q)``
        block and the intercept follows from the means; a family without an
        intercept solves the raw Gram block XᵀX.  The condition rule reads
        XᵀX itself.
        """
        family, size, num_params = self.family, len(candidates), self.family.num_params
        slopes = np.array([p for p in range(num_params) if p != intercept], dtype=np.int64)
        q = len(slopes)
        read = lambda: self._morsels(table, codes, size - 1)  # noqa: E731

        def design_and_output(inputs: dict[str, np.ndarray], y: np.ndarray) -> list[np.ndarray]:
            design = family.design_columns(inputs)
            return [*(design[p] for p in slopes), y]

        count, means, cross = _centred_moments(read, size, q + 1, design_and_output)
        gram = np.empty((size, num_params, num_params))
        with np.errstate(all="ignore"):
            block = np.moveaxis(cross[:q, :q] + count * means[:q, None] * means[None, :q], -1, 0)
            gram[:, slopes[:, None], slopes] = block
            if intercept is not None:
                gram[:, intercept, intercept] = count
                gram[:, intercept, slopes] = gram[:, slopes, intercept] = (count * means[:q]).T
        solved = (
            candidates & (count >= self.min_observations) & (count > num_params)
            & np.isfinite(means).all(axis=0) & np.isfinite(cross).all(axis=(0, 1))
            & _spread(count, means[q], cross[q, q])
        )
        solved[solved] = _well_conditioned(gram[solved])
        groups = np.flatnonzero(solved)
        n, mean_z, mean_y = count[groups], means[:q, groups].T, means[q, groups]
        if intercept is None:
            system, rhs = gram[groups], (cross[:q, q, groups] + n * means[:q, groups] * mean_y).T
        else:
            system, rhs = np.moveaxis(cross[:q, :q, groups], -1, 0), cross[:q, q, groups].T
        params, inverse = np.empty((len(groups), num_params)), np.empty((len(groups), num_params, num_params))
        slope, slope_inverse = (
            _solve_and_invert(system, rhs) if q else (np.zeros((len(groups), 0)), np.zeros((len(groups), 0, 0)))
        )
        params[:, slopes] = slope
        inverse[:, slopes[:, None], slopes] = slope_inverse
        if intercept is not None:
            # (XᵀX)⁻¹ of [1, Z] from the centred block C⁻¹: 1/n + z̄ᵀC⁻¹z̄ and −C⁻¹z̄.
            covary = -(slope_inverse @ mean_z[..., None])[..., 0]
            params[:, intercept] = mean_y - (mean_z * slope).sum(axis=1)
            inverse[:, intercept, slopes] = inverse[:, slopes, intercept] = covary
            inverse[:, intercept, intercept] = 1.0 / n - (mean_z * covary).sum(axis=1)

        # Second pass: the residuals under the solved parameters, y − Xβ.
        by_param = np.full((num_params, size), np.nan)
        by_param[:, groups] = params.T
        sse, residual, term = np.zeros(size), np.empty(MORSEL_ROWS), np.empty(MORSEL_ROWS)
        with np.errstate(all="ignore"):
            for group, inputs, y in read():
                rows = len(group)
                design = family.design_columns(inputs)
                residual[:rows] = y
                for p in range(num_params):
                    np.take(by_param[p], group, out=term[:rows], mode="clip")
                    if p != intercept:
                        term[:rows] *= design[p]
                    residual[:rows] -= term[:rows]
                residual[:rows] *= residual[:rows]
                sse += np.bincount(group, residual[:rows], minlength=size)
        self._write(columns, groups, params, inverse, sse[groups], cross[q, q, groups], n)
        return solved

    def _solve_levenberg_marquardt(
        self, table: Table, codes: np.ndarray, candidates: np.ndarray, columns: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Levenberg-Marquardt for every group of a power law or exponential
        at once; returns which groups it fitted (into ``columns``).

        The start is ``initial_guess``'s straight line through ``log y``,
        solved for all groups from centred moments.  Each round then tries one
        damped step per iterating group and takes one pass over their rows for
        the cost, gradient and Gram at the trial point: a group accepts or
        raises its damping, converges or moves on, as the scalar optimiser
        does.  A group that would end the scalar run without convergence, or
        in an error, stops iterating and is left to the straggler path.
        """
        family, size, num_params = self.family, len(candidates), self.family.num_params
        transform, (name,) = LOG_LINEAR_STARTS[type(family)], self.input_columns
        read = lambda: self._morsels(table, codes, size - 1)  # noqa: E731
        count, means, cross = _centred_moments(
            read, size, 3, lambda inputs, y: [transform(inputs[name]), np.log(y), y]
        )
        start_gram = np.empty((size, 2, 2))
        start_gram[:, 0, 0] = count
        start_gram[:, 0, 1] = start_gram[:, 1, 0] = count * means[0]
        start_gram[:, 1, 1] = cross[0, 0] + count * means[0] ** 2
        active = (
            candidates & (count >= self.min_observations) & (count > num_params)
            & np.isfinite(means).all(axis=0) & np.isfinite(cross).all(axis=(0, 1))
            & _spread(count, means[2], cross[2, 2])
        )
        active[active] = _well_conditioned(start_gram[active])
        params = np.full((num_params, size), np.nan)
        with np.errstate(all="ignore"):
            slope = cross[0, 1] / cross[0, 0]
            params[0, active], params[1, active] = np.exp(means[1] - slope * means[0])[active], slope[active]

        rows = _rows_of(read, active, int(count[active].sum()))
        cost, gradient, gram = self._trial(rows, params, size)
        active &= np.isfinite(cost) & np.isfinite(gradient).all(axis=0) & np.isfinite(gram).all(axis=(0, 1))
        finished = np.zeros(size, dtype=bool)
        damping = np.full(size, LM_INITIAL_DAMPING)
        iteration, trials = np.ones(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
        while active.any():
            if count[active].sum() * 2 <= len(rows[0]):
                keep = active[rows[0]]
                rows = rows[0][keep], {key: values[keep] for key, values in rows[1].items()}, rows[2][keep]
            iterating = np.flatnonzero(active)
            damped = np.moveaxis(gram[..., iterating], -1, 0).copy()
            diagonal = np.clip(np.diagonal(damped, axis1=1, axis2=2), 1e-12, None)
            damped[:, np.arange(num_params), np.arange(num_params)] += damping[iterating, None] * diagonal
            # np.linalg.solve raises on an exactly singular block; the scalar
            # loop then raises its damping, as it does for a rejected step.
            solvable = np.linalg.det(damped) != 0
            candidate = params.copy()
            candidate[:, iterating[solvable]] -= np.linalg.solve(
                damped[solvable], gradient[:, iterating[solvable]].T[..., None]
            )[..., 0].T
            trial_cost, trial_gradient, trial_gram = self._trial(rows, candidate, size)
            accept = np.zeros(size, dtype=bool)
            accept[iterating[solvable]] = trial_cost[iterating[solvable]] < cost[iterating[solvable]]
            with np.errstate(all="ignore"):
                improvement = cost - trial_cost
            params[:, accept], cost[accept] = candidate[:, accept], trial_cost[accept]
            gradient[:, accept], gram[..., accept] = trial_gradient[:, accept], trial_gram[..., accept]
            damping[accept] = np.maximum(damping[accept] / 10.0, 1e-12)
            converged = accept & (improvement <= LM_TOLERANCE * np.maximum(cost, 1e-30))
            reject = active & ~accept
            damping[reject] *= 10.0
            trials[reject] += 1
            moving = accept & ~converged
            iteration[moving] += 1
            trials[moving] = 0
            broken = moving & (
                (iteration > LM_MAX_ITERATIONS)
                | ~np.isfinite(gradient).all(axis=0) | ~np.isfinite(gram).all(axis=(0, 1))
            )
            finished |= converged | (reject & (trials == LM_DAMPING_TRIALS))
            active &= ~(finished | broken)

        groups = np.flatnonzero(finished)
        blocks = np.moveaxis(gram[..., groups], -1, 0)
        invertible = np.linalg.det(blocks) != 0
        groups, blocks = groups[invertible], blocks[invertible]
        columns["iterations"][groups] = iteration[groups]
        self._write(columns, groups, params[:, groups].T, np.linalg.inv(blocks), cost[groups],
                    cross[2, 2, groups], count[groups])
        solved = np.zeros(size, dtype=bool)
        solved[groups] = True
        return solved

    def _trial(self, rows: Rows, params: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every group's cost Σr², gradient Jᵀr and Gram JᵀJ at ``params``
        (one row per parameter, one column per group code), r = prediction − y:
        one pass over ``rows`` a morsel at a time."""
        family, num_params = self.family, len(params)
        codes_all, inputs_all, y_all = rows
        cost, gradient = np.zeros(size), np.zeros((num_params, size))
        gram = np.zeros((num_params, num_params, size))
        with np.errstate(all="ignore"):
            for start in range(0, len(codes_all), MORSEL_ROWS):
                codes = codes_all[start : start + MORSEL_ROWS]
                inputs = {key: values[start : start + MORSEL_ROWS] for key, values in inputs_all.items()}
                at = [row[codes] for row in params]
                residual = family.predict(inputs, at) - y_all[start : start + MORSEL_ROWS]
                jacobian = family.jacobian(inputs, at)
                cost += np.bincount(codes, residual * residual, minlength=size)
                for i in range(num_params):
                    gradient[i] += np.bincount(codes, jacobian[:, i] * residual, minlength=size)
                    for j in range(i + 1):
                        gram[i, j] += np.bincount(codes, jacobian[:, i] * jacobian[:, j], minlength=size)
                        gram[j, i] = gram[i, j]
        return cost, gradient, gram

    def _write(
        self, columns: dict[str, np.ndarray], groups: np.ndarray, params: np.ndarray,
        inverse: np.ndarray, sse: np.ndarray, sst: np.ndarray, n: np.ndarray,
    ) -> None:
        """Write batched fits into rows ``groups``: parameters, (XᵀX)⁻¹ or
        (JᵀJ)⁻¹, SSE, the output's centred sum of squares and the row count —
        the quality measures as :mod:`repro.fitting.metrics` defines them."""
        dof = n - self.family.num_params
        r_squared = 1.0 - sse / sst
        columns["params"][groups] = params
        columns["covariance"][groups] = (sse / dof)[:, None, None] * inverse
        columns["sse"][groups] = sse
        columns["rse"][groups] = np.sqrt(sse / dof)
        columns["r_squared"][groups] = r_squared
        columns["adjusted_r_squared"][groups] = 1.0 - (1.0 - r_squared) * (n - 1) / dof
        columns["n_obs"][groups] = n
        columns["converged"][groups] = True

    def _fit_stragglers(
        self, table: Table, codes: np.ndarray, groups: np.ndarray,
        columns: dict[str, np.ndarray], errors: np.ndarray,
    ) -> None:
        """The scalar fit of each group in ``groups`` (ascending codes), into
        ``columns`` / ``errors``: its rows in table order less those with a
        NULL input or output, at least ``min_observations`` of them, then
        :func:`fit_model` — what every group went through before the
        batched solve."""
        if not len(groups):
            return
        wanted = np.zeros(len(errors), dtype=bool)
        wanted[groups] = True
        positions = np.flatnonzero(wanted[codes])
        positions = positions[argsort_codes(codes[positions], len(errors))]
        sizes = np.bincount(codes[positions], minlength=len(errors))[groups]
        parts = [table.column(name).take(positions) for name in (*self.input_columns, self.output_column)]
        valid = np.logical_and.reduce([part.validity for part in parts])
        values = [part.float_numpy() for part in parts]
        for group, stop, rows in zip(groups.tolist(), np.cumsum(sizes).tolist(), sizes.tolist()):
            usable = np.flatnonzero(valid[stop - rows : stop]) + (stop - rows)
            columns["n_obs"][group] = len(usable)
            if len(usable) < self.min_observations:
                errors[group] = f"only {len(usable)} usable observations (< {self.min_observations})"
                continue
            try:
                fit = fit_model(
                    self.family,
                    {name: array[usable] for name, array in zip(self.input_columns, values)},
                    values[-1][usable],
                    output_name=self.output_column,
                    method=self.method,
                )
            except (FittingError, InsufficientDataError, np.linalg.LinAlgError) as exc:
                errors[group] = str(exc)
                continue
            _record(columns, group, fit)

    def table(
        self, key_columns: Sequence[Column], fits: Sequence[FitResult | str], usable: Sequence[int]
    ) -> GroupedFitResult:
        """The parameter table of per-group outcomes: ``fits[g]`` is group
        ``g``'s fit, or why it has none after ``usable[g]`` rows were left to
        fit (how a format-1 warehouse entry stored its groups)."""
        columns = _blank(len(fits), self.family.num_params)
        columns["n_obs"][:] = usable
        errors = np.full(len(fits), None, dtype=object)
        for row, fit in enumerate(fits):
            if isinstance(fit, str):
                errors[row] = fit
            else:
                _record(columns, row, fit)
        first = next((fit for fit in fits if not isinstance(fit, str)), None)
        recorded = (self.input_columns, {}) if first is None else (first.input_names, dict(first.extra))
        return self._result(key_columns, np.arange(len(fits)), columns, errors, recorded)


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
