"""Aggregate semantics locked in before the vectorized rewrite.

Covers the group-key dtype contract (keys keep their real dtypes in the
output schema — the old ``_output_schema`` declared every key FLOAT64), the
NULL-group behavior (NULL keys form their own group), and empty inputs.
"""

import pytest

from repro.db.column import Column
from repro.db.expressions import col
from repro.db.operators.aggregate import Aggregate, AggregateSpec
from repro.db.operators.scan import MaterializedInput
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType


def _table(name, spec):
    schema = Schema(ColumnDef(n, dtype) for n, (dtype, _) in spec.items())
    columns = {n: Column.from_values(dtype, values) for n, (dtype, values) in spec.items()}
    return Table(name, schema, columns)


def _aggregate(table, group_by, aggregates):
    return Aggregate(MaterializedInput(table), group_by, aggregates)


class TestKeyDtypes:
    @pytest.fixture()
    def table(self):
        return _table(
            "t",
            {
                "city": (DataType.STRING, ["ams", "ber", "ams", "ber"]),
                "year": (DataType.INT64, [2014, 2014, 2015, 2015]),
                "temp": (DataType.FLOAT64, [5.0, 3.0, 7.0, 9.0]),
            },
        )

    def test_string_and_integer_keys_survive_into_result_schema(self, table):
        agg = _aggregate(
            table,
            [col("city"), col("year")],
            [AggregateSpec("avg", col("temp"))],
        )
        result = agg.execute()
        dtypes = {c.name: c.dtype for c in result.schema}
        assert dtypes["city"] is DataType.STRING
        assert dtypes["year"] is DataType.INT64
        assert dtypes["avg(temp)"] is DataType.FLOAT64
        assert sorted(result.column("city").to_pylist()) == ["ams", "ams", "ber", "ber"]

    def test_declared_output_schema_resolves_real_key_dtypes(self, table):
        """The statically declared schema must match the executed schema."""
        agg = _aggregate(
            table,
            [col("city"), col("year")],
            [AggregateSpec("count", None, alias="n"), AggregateSpec("sum", col("temp"))],
        )
        declared = agg.output_schema(table.schema)
        executed = agg.execute().schema
        assert [(c.name, c.dtype) for c in declared] == [
            (c.name, c.dtype) for c in executed
        ]
        dtypes = {c.name: c.dtype for c in declared}
        assert dtypes["city"] is DataType.STRING
        assert dtypes["year"] is DataType.INT64
        assert dtypes["n"] is DataType.INT64

    def test_computed_group_key_declares_float(self, table):
        agg = _aggregate(
            table,
            [col("year") + 1],
            [AggregateSpec("count", None, alias="n")],
        )
        declared = agg.output_schema(table.schema)
        executed = agg.execute().schema
        assert [(c.name, c.dtype) for c in declared] == [
            (c.name, c.dtype) for c in executed
        ]


class TestNullGroups:
    def test_null_key_forms_its_own_group(self):
        table = _table(
            "t",
            {
                "g": (DataType.INT64, [1, None, 1, None, 2]),
                "v": (DataType.FLOAT64, [1.0, 2.0, 3.0, 4.0, 5.0]),
            },
        )
        result = _aggregate(
            table, [col("g")], [AggregateSpec("sum", col("v"), alias="s")]
        ).execute()
        rows = {row[0]: row[1] for row in result.to_rows()}
        assert rows == {1: 4.0, None: 6.0, 2: 5.0}

    def test_groups_emitted_in_first_occurrence_order(self):
        table = _table(
            "t",
            {
                "g": (DataType.INT64, [3, 1, None, 3, 2, 1]),
                "v": (DataType.INT64, [1, 1, 1, 1, 1, 1]),
            },
        )
        result = _aggregate(
            table, [col("g")], [AggregateSpec("count", None, alias="n")]
        ).execute()
        assert [row[0] for row in result.to_rows()] == [3, 1, None, 2]

    def test_null_values_excluded_from_aggregates_but_counted_by_star(self):
        table = _table(
            "t",
            {
                "g": (DataType.STRING, ["a", "a", "b"]),
                "v": (DataType.FLOAT64, [1.0, None, None]),
            },
        )
        result = _aggregate(
            table,
            [col("g")],
            [
                AggregateSpec("count", None, alias="star"),
                AggregateSpec("count", col("v"), alias="nv"),
                AggregateSpec("avg", col("v"), alias="m"),
            ],
        ).execute()
        rows = {row[0]: row[1:] for row in result.to_rows()}
        assert rows["a"] == (2, 1, 1.0)
        assert rows["b"] == (1, 0, None)


class TestEdges:
    def test_empty_input_grouped(self):
        table = _table(
            "t",
            {"g": (DataType.STRING, []), "v": (DataType.FLOAT64, [])},
        )
        result = _aggregate(
            table, [col("g")], [AggregateSpec("sum", col("v"), alias="s")]
        ).execute()
        assert result.num_rows == 0
        dtypes = {c.name: c.dtype for c in result.schema}
        assert dtypes["g"] is DataType.STRING

    def test_single_row_stddev_is_zero_and_empty_group_is_null(self):
        table = _table(
            "t",
            {
                "g": (DataType.INT64, [1, 2, 2]),
                "v": (DataType.FLOAT64, [4.0, None, None]),
            },
        )
        result = _aggregate(
            table,
            [col("g")],
            [AggregateSpec("stddev", col("v"), alias="sd")],
        ).execute()
        rows = {row[0]: row[1] for row in result.to_rows()}
        assert rows == {1: 0.0, 2: None}

    def test_packed_key_space_overflow_keeps_groups_distinct(self):
        """Key tuples that collide modulo 2**64 under naive packing stay apart.

        With 4 key columns of cardinality 65536 each, the naive product of
        per-column widths (65537**4) exceeds int64, and the tuples
        ``(65533, 5, 65533, 1)`` and ``(0, 0, 0, 0)`` pack to the *same*
        wrapped code.  The factorizer must re-densify instead of wrapping.
        """
        diag = list(range(65536))
        crafted = (65533, 5, 65533, 1)
        columns = {
            f"k{i}": (DataType.INT64, diag + [crafted[i]]) for i in range(4)
        }
        table = _table("t", columns)
        result = _aggregate(
            table,
            [col(f"k{i}") for i in range(4)],
            [AggregateSpec("count", None, alias="n")],
        ).execute()
        assert result.num_rows == 65537  # 65536 diagonal groups + the crafted tuple
        rows = {row[:4]: row[4] for row in result.to_rows()}
        assert rows[crafted] == 1
        assert rows[(0, 0, 0, 0)] == 1

    def test_float_nan_key_groups_with_nulls(self):
        """A NaN float key reads back as NULL and must group with NULLs."""
        table = _table(
            "t",
            {
                "g": (DataType.FLOAT64, [float("nan"), None, 1.0]),
                "v": (DataType.INT64, [1, 1, 1]),
            },
        )
        result = _aggregate(
            table, [col("g")], [AggregateSpec("count", None, alias="n")]
        ).execute()
        rows = {row[0]: row[1] for row in result.to_rows()}
        assert rows == {None: 2, 1.0: 1}


class TestHugeMagnitudes:
    """VAR / STDDEV square deviations scaled by the group's max |x|: forty
    copies of 1e200 have variance 0 grouped as globally, not ``inf`` (their
    bincount mean is an ulp off, and squaring that offset overflowed)."""

    @pytest.fixture()
    def table(self):
        return _table(
            "t",
            {
                "g": (DataType.INT64, [1] * 40 + [2] * 40),
                "x": (DataType.FLOAT64, [1e200] * 40 + [1.0] * 40),
            },
        )

    @staticmethod
    def _bits(table, name):
        return table.column(name).values.tobytes()

    def test_grouped_equals_global_bit_for_bit(self, table):
        specs = [AggregateSpec("stddev", col("x")), AggregateSpec("var", col("x"))]
        grouped = _aggregate(table, [col("g")], specs).execute()
        assert grouped.column("g").to_pylist() == [1, 2]
        assert grouped.column("stddev(x)").to_pylist() == [0.0, 0.0]
        assert grouped.column("var(x)").to_pylist() == [0.0, 0.0]
        for group, rows in ((0, slice(0, 40)), (1, slice(40, 80))):
            single = _aggregate(table.slice(rows.start, rows.stop), [], specs).execute()
            for name in ("stddev(x)", "var(x)"):
                assert grouped.column(name).values[group].tobytes() == self._bits(single, name)

    def test_merged_states_stay_finite(self, table):
        """Chan's merge term is scaled too: halves reduced apart, then merged."""
        specs = [AggregateSpec("stddev", col("x")), AggregateSpec("var", col("x"))]
        for group_by in ([col("g")], []):
            aggregate = _aggregate(table, group_by, specs)
            halves = [table.take(list(range(0, 80, 2))), table.take(list(range(1, 80, 2)))]
            merged = aggregate.finalize(aggregate.merge([aggregate.reduce(half) for half in halves]))
            if group_by:
                assert merged.column("var(x)").to_pylist() == [0.0, 0.0]
            else:
                # 1e200 and 1.0 forty times each: var = 1e400 / (4 * 79 / 80)
                # overflows, the standard deviation 1e200 / 2 * sqrt(80 / 79) does not.
                assert merged.column("stddev(x)").to_pylist()[0] == pytest.approx(0.5e200 * (80 / 79) ** 0.5)
