"""The batched grouped fit against the per-group loop it replaced.

``LoopFitter`` keeps that loop verbatim — one ``fit_model`` per group — as
the oracle.  Every covered family (and ``method="gn"`` / uncovered families,
which go through the scalar fit wholesale) is run over LOFAR data and over
adversarial groups: one row, exactly ``min_observations`` rows, constant
input, constant output, duplicated inputs, NULL / NaN / ±inf inputs and
outputs, non-positive values under a log, and rank-deficient and
ill-conditioned designs.  Error texts, row counts and convergence flags must
be identical; the numbers agree within 1e-10 relative for linear families
and 1e-6 for Levenberg-Marquardt.  NumPy-seeded, so it runs without the dev
extras.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from repro.datasets import lofar
from repro.db.column import Column
from repro.db.operators.codes import argsort_codes, factorize_keys
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import FittingError, InsufficientDataError
from repro.fitting.families import Constant, Exponential, LinearModel, Logistic, Polynomial, PowerLaw
from repro.fitting.fit import fit_model
from repro.fitting.grouped import TABLE_COLUMNS, GroupedFitResult, GroupedFitter
from repro.fitting.model import FitResult


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


class LoopFitter(GroupedFitter):
    """The grouped fit as one scalar ``fit_model`` per group (the oracle)."""

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


def scalar_fits(fitter: GroupedFitter, table: Table, monkeypatch) -> int:
    """How many groups the batched fit of ``table`` hands to the scalar ``fit_model``."""
    calls = []
    monkeypatch.setattr("repro.fitting.grouped.fit_model", lambda *a, **k: calls.append(1) or fit_model(*a, **k))
    fitter.fit(table)
    monkeypatch.undo()
    return len(calls)


def assert_parity(
    fitter: GroupedFitter, table: Table, rtol: float, covariance_rtol: float | None = None
) -> GroupedFitResult:
    """The batched fit of ``table`` against the loop's.  Parameters and
    covariance are compared per group in the max norm (a near-zero
    coefficient beside large ones carries the solve's rounding at the scale
    of the large ones); SSE and residual SE elementwise; R² and adjusted R²,
    1 − SSE/SST, by their distance from 1."""
    tolerance = {"covariance": rtol if covariance_rtol is None else covariance_rtol}
    loop = LoopFitter(
        fitter.family, fitter.input_columns, fitter.output_column, fitter.group_columns,
        min_observations=fitter.min_observations, method=fitter.method,
    ).fit(table)
    batched = fitter.fit(table)
    assert [c.to_pylist() for c in batched.key_columns] == [c.to_pylist() for c in loop.key_columns]
    assert batched.errors == loop.errors
    assert batched.input_names == loop.input_names and batched.extra == loop.extra
    np.testing.assert_array_equal(batched.n_obs, loop.n_obs)
    np.testing.assert_array_equal(batched.converged, loop.converged)
    for name in ("params", "covariance", "rse", "sse", "r_squared", "adjusted_r_squared"):
        got, want = getattr(batched, name), getattr(loop, name)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
        if name in ("params", "covariance"):
            axes = tuple(range(1, want.ndim))
            with np.errstate(invalid="ignore"):  # inf − inf where the loop's covariance is inf
                scale = np.nan_to_num(np.abs(want).max(axis=axes), nan=np.inf)
                distance = np.nan_to_num(np.abs(got - want).max(axis=axes))
                bound = tolerance.get(name, rtol) * scale
            assert ((distance == 0) | (distance <= bound)).all(), (name, np.flatnonzero(distance > bound))
        else:
            atol = rtol if name.endswith("r_squared") else 0.0
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol, err_msg=name)
    return batched


def adversarial_table(seed: int = 7) -> Table:
    """Groups ``g`` of every awkward kind beside ordinary ones.  ``x`` / ``z``
    are inputs, ``y`` a noisy positive output; NULLs are validity bits, NaN
    and ±inf are valid values."""
    rng = np.random.default_rng(seed)
    g, x, z, y, y_valid, x_valid = [], [], [], [], [], []

    def group(key, xs, ys=None, zs=None, x_null=(), y_null=()):
        xs = np.asarray(xs, dtype=np.float64)
        if ys is None:
            ys = 2.0 * xs ** 0.8 * np.exp(rng.normal(0.0, 0.05, len(xs))) + rng.normal(0.0, 0.05, len(xs))
        zs = rng.uniform(1.0, 4.0, len(xs)) if zs is None else np.asarray(zs, dtype=np.float64)
        g.extend([key] * len(xs)), x.extend(xs), y.extend(ys), z.extend(zs)
        x_valid.extend(i not in x_null for i in range(len(xs)))
        y_valid.extend(i not in y_null for i in range(len(xs)))

    for key in range(8):  # ordinary groups of assorted sizes
        group(key, rng.uniform(0.5, 6.0, 5 + 3 * key))
    group(10, [2.0])  # one row
    group(11, rng.uniform(1.0, 3.0, 2))  # two rows
    group(12, rng.uniform(1.0, 3.0, 4))  # exactly min_observations for three parameters
    group(13, [2.5] * 6)  # constant input
    group(14, rng.uniform(1.0, 3.0, 6), ys=[3.0] * 6)  # constant output
    group(15, [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0])  # duplicated inputs
    group(16, rng.uniform(1.0, 3.0, 8), x_null=(1,), y_null=(4, 5))  # NULL input and outputs
    group(17, rng.uniform(1.0, 3.0, 6), y_null=(0, 1, 2, 3))  # NULLs leave too few rows
    group(18, [1.0, np.nan, 2.0, 3.0, 4.0, 5.0])  # NaN input
    group(19, [1.0, 2.0, 3.0, 4.0, 5.0], ys=[1.0, 2.0, np.inf, 4.0, 5.0])  # +inf output
    group(20, [1.0, 2.0, -np.inf, 4.0, 5.0, 6.0])  # -inf input
    group(21, 1e6 + rng.uniform(0.0, 1e-3, 8))  # ill-conditioned design
    group(22, rng.uniform(1.0, 3.0, 6), ys=-rng.uniform(1.0, 2.0, 6))  # non-positive output
    group(23, [0.0, 1.0, 2.0, 3.0, 4.0])  # a zero input under a log
    group(24, rng.uniform(1.0, 3.0, 6), ys=[np.nan] * 6)  # NaN outputs only
    xs = rng.uniform(1.0, 3.0, 7)
    group(25, xs, zs=2.0 * xs)  # second input collinear with the first
    group(26, xs, zs=2.0 * xs + rng.normal(0.0, 1e-7, 7))  # nearly collinear
    group(27, rng.uniform(0.5, 6.0, 30), ys=np.linspace(1.0, 9.0, 30) ** 2)  # no noise

    keys = np.array(g, dtype=np.int64)
    null_key = np.zeros(len(keys), dtype=bool)
    null_key[keys == 5] = True  # group 5's rows carry a NULL key
    columns = {
        "g": Column(DataType.INT64, keys, ~null_key),
        "x": Column(DataType.FLOAT64, np.array(x), np.array(x_valid)),
        "z": Column(DataType.FLOAT64, np.array(z)),
        "y": Column(DataType.FLOAT64, np.array(y), np.array(y_valid)),
    }
    schema = Schema(ColumnDef(name, column.dtype) for name, column in columns.items())
    return Table("adversarial", schema, columns)


LINEAR_FAMILIES = {
    "linear": (LinearModel(("x",)), ["x"]),
    "linear-no-intercept": (LinearModel(("x",), intercept=False), ["x"]),
    "linear-two-inputs": (LinearModel(("x", "z")), ["x", "z"]),
    "polynomial": (Polynomial(2), ["x"]),
    "polynomial-0": (Polynomial(0), ["x"]),
    "constant": (Constant(), ["x"]),
}


@pytest.mark.parametrize("name", list(LINEAR_FAMILIES))
def test_linear_families_match_the_loop_on_adversarial_groups(name, monkeypatch):
    family, inputs = LINEAR_FAMILIES[name]
    fitter = GroupedFitter(family, inputs, "y", ["g"])
    batched = assert_parity(fitter, adversarial_table(), rtol=1e-10)
    assert batched.succeeded.sum() >= 8
    # The ordinary groups are solved in the batch; only awkward ones go scalar.
    assert scalar_fits(fitter, adversarial_table(), monkeypatch) <= batched.num_groups - 7


@pytest.mark.parametrize("family", [PowerLaw(), Exponential()], ids=["powerlaw", "exponential"])
def test_levenberg_marquardt_matches_the_loop_on_adversarial_groups(family, monkeypatch):
    table = adversarial_table()
    if isinstance(family, Exponential):  # keep exp(b x) in range
        table = Table("adversarial", table.schema, {
            **{name: table.column(name) for name in ("g", "z", "y")},
            "x": Column(DataType.FLOAT64, table.column("x").float_numpy() / 3.0, table.column("x").validity),
        })
    fitter = GroupedFitter(family, ["x"], "y", ["g"])
    batched = assert_parity(fitter, table, rtol=1e-6)
    assert batched.succeeded.sum() >= 8
    assert scalar_fits(fitter, table, monkeypatch) <= batched.num_groups - 7


@pytest.mark.parametrize("min_observations", [1, 2, 6])
def test_min_observations_matches_the_loop(min_observations):
    fitter = GroupedFitter(LinearModel(("x",)), ["x"], "y", ["g"], min_observations=min_observations)
    assert_parity(fitter, adversarial_table(), rtol=1e-10)


@pytest.fixture(scope="module")
def lofar_table() -> Table:
    return lofar.generate(num_sources=400, observations_per_source=24, seed=11, anomaly_fraction=0.05).to_table()


@pytest.mark.parametrize("family,rtol", [
    (PowerLaw(), 1e-6), (LinearModel(("frequency",)), 1e-10), (Polynomial(2), 1e-10), (Constant(), 1e-10),
], ids=["powerlaw", "linear", "polynomial", "constant"])
def test_lofar_matches_the_loop(lofar_table, family, rtol, monkeypatch):
    # Levenberg-Marquardt stops once a step improves the cost by at most
    # 1e-12 of it.  On one pure-noise source here the scalar run's sixth step
    # improves it by 0.99996 of that threshold, so the summation order of the
    # cost decides whether a seventh step is taken: the parameters then move
    # by 7e-7 and the covariance, (JᵀJ)⁻¹ at them, by 1.1e-6.
    covariance_rtol = 2e-6 if rtol == 1e-6 else None
    fitter = GroupedFitter(family, ["frequency"], "intensity", ["source"])
    batched = assert_parity(fitter, lofar_table, rtol, covariance_rtol)
    assert batched.succeeded.all()
    assert scalar_fits(fitter, lofar_table, monkeypatch) <= batched.num_groups // 20


@pytest.mark.parametrize("family,method", [(PowerLaw(), "gn"), (Logistic(), "lm")], ids=["gn", "logistic"])
def test_scalar_only_fits_match_the_loop_exactly(lofar_table, family, method):
    table = Table("few", lofar_table.schema, {
        name: lofar_table.column(name).slice(0, 24 * 20) for name in lofar_table.schema.names
    })
    assert_parity(GroupedFitter(family, ["frequency"], "intensity", ["source"], method=method), table, rtol=0.0)
