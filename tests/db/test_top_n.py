"""``ORDER BY ... LIMIT n`` as a bounded top-N: bounded == sorted, and the page count stays honest.

Two references nobody optimised: a list-of-rows stable sort for the
:class:`Table` kernels, and a hand-built ``Limit(Sort(...))`` over the whole,
unpruned table for the planned query.  Selecting instead of sorting, and
skipping the blocks whose synopsis says they hold no winner, has to return the
same rows in the same order — ties in row order, NULLs last.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from test_scan_pushdown import _rows, _ScanAudit, _validity  # the PR 13 audit, same helper

from repro import Database, LawsDatabase
from repro.core.planner import AccuracyContract
from repro.db import table as table_module
from repro.db.column import BLOCK_ROWS, Column
from repro.db.expressions import ColumnRef
from repro.db.operators import Limit, MaterializedInput, Project, Projection, Sort, TableScan, TopN
from repro.db.operators import scan as scan_module
from repro.db.operators.sort import render_sort_keys
from repro.db.schema import ColumnDef, Schema
from repro.db.sql.parser import parse
from repro.db.sql.planner import plan_select
from repro.db.table import Table
from repro.db.types import DataType

SETTINGS = settings(max_examples=200, deadline=None)
EXACT = AccuracyContract(mode="exact")

LENGTHS = [5 * BLOCK_ROWS + 100, 20 * BLOCK_ROWS + 50, BLOCK_ROWS + 1, BLOCK_ROWS, BLOCK_ROWS - 1, 1, 0]
LAYOUTS = ["sorted", "reversed", "clustered", "random", "flat"]
NULLS = ["none", "random", "blocks"]
INT64 = np.iinfo(np.int64)


# ---------------------------------------------------------------------------
# Random tables
# ---------------------------------------------------------------------------


def _codes(rng: np.random.Generator, n: int, layout: str) -> np.ndarray:
    """Small integers in [0, 50): every value ties, at thresholds and block extremes alike."""
    if layout == "sorted":
        return np.sort(rng.integers(0, 50, n))
    if layout == "reversed":
        return np.sort(rng.integers(0, 50, n))[::-1]
    if layout == "clustered":  # runs of ~700 rows around a level, straddling blocks
        return (np.arange(n) // 700 * 7 + rng.integers(0, 3, n)) % 50
    if layout == "flat":  # one value nearly everywhere: every block extreme ties
        return np.where(rng.random(n) < 0.002, rng.integers(0, 50, n), 25)
    return rng.integers(0, 50, n)


def _column(rng: np.random.Generator, dtype: DataType, n: int, layout: str, nulls: str) -> Column:
    codes = _codes(rng, n, layout)
    valid = _validity(rng, n, nulls)
    if dtype is DataType.INT64:
        values = codes.astype(np.int64)
        if nulls != "none":
            # The ends of the domain: INT64 max is a value, a stored INT64 min reads as NULL.
            values[codes == 49] = INT64.max
            values[codes == 0] = INT64.min
    elif dtype is DataType.FLOAT64:
        values = codes + 0.5
        if nulls != "none":
            # NaN-as-NULL: valid positions holding NaN, scattered and one whole block.
            values[rng.random(n) < 0.05] = np.nan
            values[: BLOCK_ROWS if rng.random() < 0.3 else 0] = np.nan
    elif dtype is DataType.BOOL:
        values = codes >= 25
    else:
        values = np.array([f"s{code:02d}" for code in codes], dtype=object)
        values[~valid] = None
    return Column(dtype, values, valid)


COLUMNS = [("i", DataType.INT64), ("f", DataType.FLOAT64), ("b", DataType.BOOL), ("s", DataType.STRING)]


def _table(seed: int, n: int, shapes: dict[str, tuple[str, str]]) -> Table:
    """``i f b s`` as drawn, plus ``r``: the row number, which tells tied rows apart."""
    rng = np.random.default_rng(seed)
    defs = [ColumnDef("r", DataType.INT64)] + [ColumnDef(name, dtype) for name, dtype in COLUMNS]
    columns = {name: _column(rng, dtype, n, *shapes[name]) for name, dtype in COLUMNS}
    columns["r"] = Column(DataType.INT64, np.arange(n))
    return Table("t", Schema(defs), columns)


tables = st.builds(
    lambda seed, n, shapes: _table(seed, n, dict(zip("ifbs", shapes))),
    st.integers(0, 2**32 - 1),
    st.sampled_from(LENGTHS[:2] * 4 + LENGTHS[2:]),  # mostly tables with blocks to skip
    st.tuples(*[st.tuples(st.sampled_from(LAYOUTS), st.sampled_from(NULLS))] * 4),
)
sort_keys = st.lists(
    st.tuples(st.sampled_from("ifbs"), st.booleans()), min_size=1, max_size=3, unique_by=lambda key: key[0]
)
counts = st.sampled_from([1, 2, 10, 0, BLOCK_ROWS, 30 * BLOCK_ROWS])
offsets = st.sampled_from([0, 0, 3, 30 * BLOCK_ROWS])


def _sorted_order(table: Table, keys: list[tuple[str, bool]]) -> list[int]:
    """The list-of-rows oracle: row numbers after one stable pass per key, least
    significant first, NULLs (NaN and the INT64 sentinel read back as None) last."""
    order = list(range(table.num_rows))
    for name, ascending in reversed(keys):
        values = table.column(name).to_pylist()
        present = [row for row in order if values[row] is not None]
        absent = [row for row in order if values[row] is None]
        # ``reverse=True`` keeps equal rows in their original order too.
        order = sorted(present, key=values.__getitem__, reverse=not ascending) + absent
    return order


def _scan_of(db: Database, sql: str) -> TableScan:
    """The base-table scan of ``sql``'s plan."""
    node = plan_select(parse(sql), db.catalog).root
    while not isinstance(node, TableScan):
        node = node.children()[0]
    return node


# ---------------------------------------------------------------------------
# (a) bounded == sorted
# ---------------------------------------------------------------------------


class TestBoundedEqualsSorted:
    @SETTINGS
    @given(tables, sort_keys, counts, offsets)
    def test_kernels_match_the_row_list(self, table: Table, keys, count: int, offset: int) -> None:
        expected = _sorted_order(table, keys)
        ordered = table.sort_by(keys)
        assert ordered.column("r").to_pylist() == expected
        # Whole rows moved, not just the row numbers.
        assert _rows(ordered.head(5)) == _rows(table.take(np.array(expected[:5], dtype=np.int64)))
        wanted = count + offset
        assert table.top_n(keys, wanted).column("r").to_pylist() == expected[:wanted]
        best = TopN(MaterializedInput(table), keys, count, offset).execute()
        assert best.column("r").to_pylist() == expected[offset:wanted]
        assert _rows(best.head(5)) == _rows(ordered.slice(offset, wanted).head(5))

    @SETTINGS
    @given(tables, sort_keys, counts, offsets)
    def test_planned_query_matches_limit_over_sort(self, table: Table, keys, count: int, offset: int) -> None:
        db = Database()
        db.register_table(table)
        sql = f"SELECT r, s, f FROM t ORDER BY {render_sort_keys(keys)} LIMIT {count} OFFSET {offset}"
        # The plan nobody optimised, hidden sort columns included, over every row.
        reference = Project(
            Limit(Sort(MaterializedInput(table), keys), count, offset),
            [Projection(ColumnRef(name), alias=name) for name in "rsf"],
        )
        with _ScanAudit(db) as audit, db.io_model.scope() as scope:
            result = db.query(sql)
        assert _rows(result) == _rows(reference.execute())

        # (c) what was charged is exactly what the scan handed on.
        (scanned,), (charged,) = audit.scanned, audit.charged
        assert charged is scanned
        page = db.io_model.parameters.page_size_bytes
        assert scope.snapshot()["pages_read"] == -(-scanned.byte_size() // page)
        event(f"{table.num_rows // BLOCK_ROWS} complete blocks, pruned some: {scanned.num_rows < table.num_rows}")

    @pytest.mark.parametrize("nulls", NULLS)
    @pytest.mark.parametrize("layout", ["sorted", "reversed", "clustered"])
    def test_prunable_layouts_grid(self, layout: str, nulls: str) -> None:
        """Every length x a fixed ORDER BY list, on layouts where blocks do go."""
        orderings = [
            ("i DESC", 1, 0), ("i ASC", 10, 0), ("f DESC, r DESC", 10, 3), ("f ASC, s DESC", 1, 0),
            ("s DESC", 3, 0), ("s ASC, i DESC", 10, 3), ("b DESC", 2, 0), ("b ASC, f ASC", 1, 3),
            ("2 DESC", 5, 0), ("k ASC", 5, 2), ("i DESC", BLOCK_ROWS, 0), ("f DESC", 0, 0),
        ]  # fmt: skip
        pruned = 0
        for seed, n in enumerate(LENGTHS):
            table = _table(seed, n, dict.fromkeys("ifbs", (layout, nulls)))
            db = Database()
            db.register_table(table)
            for order_by, count, offset in orderings:
                sql = f"SELECT r, f, i AS k, i, s, b FROM t ORDER BY {order_by} LIMIT {count} OFFSET {offset}"
                keys = [
                    ({"2": "f", "k": "i"}.get(part.split()[0], part.split()[0]), part.endswith("ASC"))
                    for part in order_by.split(", ")
                ]
                wanted = np.array(_sorted_order(table, keys)[offset : offset + count], dtype=np.int64)
                expected = [(r, f, i, i, s, b) for r, i, f, b, s in _rows(table.take(wanted))]
                with _ScanAudit(db) as audit:
                    result = db.query(sql)
                assert _rows(result) == expected, (n, order_by, count, offset)
                (scanned,), (charged,) = audit.scanned, audit.charged
                assert charged is scanned
                pruned += scanned.num_rows < n
        assert pruned >= len(orderings) // 2, pruned  # the grid does exercise pruning

    def test_int64_sentinel_blocks_prove_nothing(self) -> None:
        """A stored INT64 min is the synopsis's smallest value but the sort's NULL."""
        sentinel_block = np.full(BLOCK_ROWS, 100, dtype=np.int64)
        sentinel_block[7] = INT64.min
        values = np.concatenate([sentinel_block, np.arange(5, 5 + BLOCK_ROWS), np.full(BLOCK_ROWS, 50)])
        db = Database()
        db.register_table(
            Table("t", Schema([ColumnDef("i", DataType.INT64)]), {"i": Column(DataType.INT64, values)})
        )
        assert db.query("SELECT i FROM t ORDER BY i LIMIT 1").to_rows() == [(5,)]
        assert db.query("SELECT i FROM t ORDER BY i DESC LIMIT 1").to_rows() == [(5 + BLOCK_ROWS - 1,)]
        # The block of 50s goes; the sentinel's block is neither counted nor skipped.
        assert "top=i ASC 1, blocks=2/3" in db.explain("SELECT i FROM t ORDER BY i LIMIT 1")

    def test_ties_with_the_threshold_block_stay(self) -> None:
        """Four blocks share the best maximum: all are kept, and row order breaks the tie."""
        n = 6 * BLOCK_ROWS
        values = np.zeros(n)
        values[[10, BLOCK_ROWS + 5, 3 * BLOCK_ROWS, 5 * BLOCK_ROWS + 1]] = 9.0
        db = Database()
        db.register_table(
            Table(
                "t",
                Schema([ColumnDef("r", DataType.INT64), ColumnDef("x", DataType.FLOAT64)]),
                {"r": Column(DataType.INT64, np.arange(n)), "x": Column(DataType.FLOAT64, values)},
            )
        )
        sql = "SELECT r FROM t ORDER BY x DESC LIMIT 3"
        assert db.query(sql).to_rows() == [(10,), (BLOCK_ROWS + 5,), (3 * BLOCK_ROWS,)]
        assert "top=x DESC 3, blocks=4/6" in db.explain(sql)


# ---------------------------------------------------------------------------
# (b) the bound is only handed over when it is sound
# ---------------------------------------------------------------------------


class TestBoundIsOnlyHandedOverWhenSound:
    @pytest.fixture(scope="class")
    def db(self) -> Database:
        rng = np.random.default_rng(3)
        n = 4 * BLOCK_ROWS + 50
        db = Database()
        db.load_dict(
            "t",
            {
                "k": (np.arange(n) % 7).tolist(),
                "x": np.sort(rng.normal(0.0, 1.0, n)).tolist(),
                "y": rng.normal(0.0, 1.0, n).tolist(),
            },
        )
        db.load_dict("d", {"k2": list(range(7)), "w": [float(7 - i) for i in range(7)]})
        return db

    @pytest.mark.parametrize(
        "sql, top",
        [
            ("SELECT k, x FROM t ORDER BY x DESC LIMIT 5", ("x", False, 5)),
            ("SELECT k, x AS v FROM t ORDER BY v LIMIT 5 OFFSET 2", ("x", True, 7)),
            ("SELECT k, x FROM t ORDER BY 2 DESC, k LIMIT 5", ("x", False, 5)),
            ("SELECT k FROM t ORDER BY t.x DESC LIMIT 5", ("x", False, 5)),  # hidden sort column
            ("SELECT y AS x, x AS y FROM t ORDER BY x LIMIT 5", ("y", True, 5)),  # the alias wins
            ("SELECT k, x * 2 AS z, x FROM t ORDER BY x DESC LIMIT 5", ("x", False, 5)),
            ("SELECT * FROM t ORDER BY y LIMIT 1", ("y", True, 1)),
            ("SELECT k, x FROM t ORDER BY x DESC LIMIT 0", None),
            ("SELECT k, x FROM t WHERE y > 0 ORDER BY x DESC LIMIT 5", None),
            ("SELECT k, x FROM t WHERE x > -1e9 ORDER BY x DESC LIMIT 5", None),
            ("SELECT k, x, w FROM t JOIN d ON k = k2 ORDER BY x DESC LIMIT 5", None),
            ("SELECT k, x, w FROM t JOIN d ON k = k2 ORDER BY w DESC, x LIMIT 5", None),  # right-side key
            ("SELECT k, max(x) AS x FROM t GROUP BY k ORDER BY x DESC LIMIT 5", None),
            ("SELECT max(x) AS x FROM t ORDER BY x DESC LIMIT 5", None),
            ("SELECT DISTINCT k FROM t ORDER BY k DESC LIMIT 5", None),
            ("SELECT k, x + 1 AS z FROM t ORDER BY z DESC LIMIT 5", None),  # an expression key
            ("SELECT k, x + 1 AS x FROM t ORDER BY x DESC LIMIT 5", None),
            ("SELECT k, x FROM t ORDER BY x DESC", None),
            ("SELECT k, x FROM t LIMIT 5", None),
        ],
    )
    def test_plan_shape_and_answer(self, db: Database, sql: str, top) -> None:
        assert _scan_of(db, sql).top == top
        plan = db.explain(sql)
        has_order, has_limit = "ORDER BY" in sql, "LIMIT" in sql
        # One plan shape per clause combination, never a choice.
        assert ("TopN(" in plan) == (has_order and has_limit)
        assert ("Sort(" in plan) == (has_order and not has_limit)
        assert ("Limit(" in plan) == (has_limit and not has_order)
        answer = _rows(db.query(sql))
        nothing = lambda table, top: np.zeros(table.num_rows // BLOCK_ROWS, dtype=bool)  # noqa: E731
        with mock.patch.object(scan_module, "_cannot_win", nothing), _ScanAudit(db) as audit:
            assert _rows(db.query(sql)) == answer
        assert audit.scanned[0].num_rows == db.table("t").num_rows

    def test_residual_where_reads_every_page_but_still_selects(self, db: Database) -> None:
        """The unbounded kernel on its own: full scan, no sort of every row."""
        sql = "SELECT k, x FROM t WHERE x > -1e9 ORDER BY x DESC LIMIT 5"
        table = db.table("t")
        with db.io_model.scope() as scope, mock.patch.object(
            table_module.np, "lexsort", side_effect=np.lexsort
        ) as lexsort:
            rows = db.query(sql).to_rows()
        assert [x for _, x in rows] == sorted(table.column("x").to_pylist(), reverse=True)[:5]
        assert scope.snapshot()["pages_read"] == -(-table.select(["k", "x"]).byte_size() // 8192)
        assert [len(call.args[0][0]) for call in lexsort.call_args_list] == [5]


# ---------------------------------------------------------------------------
# (d) MVCC: synopses are shared by every snapshot of an append chain
# ---------------------------------------------------------------------------


class TestTopBoundUnderMVCC:
    def test_newer_snapshots_synopsis_never_hides_an_older_snapshots_winner(self) -> None:
        rows = BLOCK_ROWS + 476  # the old snapshot's winners sit in its partial tail block
        db = LawsDatabase(observability=False)
        db.load_dict("t", {"ts": list(range(rows)), "v": [float(i) for i in range(rows)]})
        old = db.snapshot()
        # The append completes block 1 and adds blocks that beat every old row.
        db.ingest("t", [(10_000 + i, 1e6 + i) for i in range(3 * BLOCK_ROWS)], flush=True)
        total = rows + 3 * BLOCK_ROWS

        latest = "SELECT ts FROM t ORDER BY ts DESC LIMIT 10"
        largest = "SELECT ts, v FROM t ORDER BY v DESC LIMIT 10 OFFSET 5"
        # Build the synopses through the *new* snapshot first ...
        assert db.query(latest, EXACT).rows() == [(10_000 + 3 * BLOCK_ROWS - 1 - i,) for i in range(10)]
        assert db.query(largest, EXACT).rows() == [
            (10_000 + 3 * BLOCK_ROWS - 6 - i, 1e6 + 3 * BLOCK_ROWS - 6 - i) for i in range(10)
        ]
        assert f"blocks=10/{-(-total // BLOCK_ROWS)}" not in db.database.explain(latest)  # 5 blocks in all
        # ... then the pinned reader: its own winners, none of the appended rows.
        assert db.query(latest, EXACT, snapshot=old).rows() == [(rows - 1 - i,) for i in range(10)]
        assert db.query(largest, EXACT, snapshot=old).rows() == [
            (rows - 6 - i, float(rows - 6 - i)) for i in range(10)
        ]
        assert db.query("SELECT ts FROM t ORDER BY v LIMIT 2", EXACT, snapshot=old).rows() == [(0,), (1,)]

    def test_older_snapshots_synopsis_is_extended_not_trusted_by_newer_ones(self) -> None:
        db = LawsDatabase(observability=False)
        db.load_dict("t", {"ts": list(range(2 * BLOCK_ROWS))})
        old = db.snapshot()
        sql = "SELECT ts FROM t ORDER BY ts DESC LIMIT 1"
        assert db.query(sql, EXACT, snapshot=old).rows() == [(2 * BLOCK_ROWS - 1,)]  # synopsis: 2 blocks
        db.ingest("t", [(5000 + i,) for i in range(2 * BLOCK_ROWS)], flush=True)
        assert db.query(sql, EXACT).rows() == [(5000 + 2 * BLOCK_ROWS - 1,)]
        assert db.query(sql, EXACT, snapshot=old).rows() == [(2 * BLOCK_ROWS - 1,)]


# ---------------------------------------------------------------------------
# (e) the benchmark's top-N text: no rank codes, a dozen blocks sorted
# ---------------------------------------------------------------------------


def test_scan_exact_topn_text_ranks_nothing_and_sorts_a_dozen_blocks() -> None:
    n = 200 * BLOCK_ROWS + 288
    rng = np.random.default_rng(7)
    db = LawsDatabase(observability=False)
    db.database.register_table(
        Table(
            "fact",
            Schema(
                [ColumnDef("x", DataType.FLOAT64), ColumnDef("ts", DataType.INT64), ColumnDef("g", DataType.INT64)]
            ),
            {
                "x": Column(DataType.FLOAT64, rng.normal(0.0, 1.0, n)),
                "ts": Column(DataType.INT64, np.arange(n)),
                "g": Column(DataType.INT64, rng.integers(0, 64, n)),
            },
        )
    )
    sql = "SELECT ts, x FROM fact ORDER BY x DESC LIMIT 10"
    x = db.table("fact").column("x").values
    order = np.argsort(-x, kind="stable")[:10]
    expected = [(int(ts), float(x[ts])) for ts in order]
    assert db.query(sql, EXACT).rows() == expected  # warm: parse, plan, synopsis

    with mock.patch.object(table_module.np, "unique", side_effect=np.unique) as unique, mock.patch.object(
        table_module.np, "lexsort", side_effect=np.lexsort
    ) as lexsort, db.database.io_model.scope() as scope:
        assert db.query(sql, EXACT).rows() == expected
    assert unique.call_count == 0
    sorted_rows = [len(call.args[0][0]) for call in lexsort.call_args_list]
    assert len(sorted_rows) == 1 and sorted_rows[0] <= 12 * BLOCK_ROWS
    # Ten blocks hold the ten largest block maxima (continuous x: no ties), plus the tail.
    assert scope.snapshot()["pages_read"] == -(-(10 * BLOCK_ROWS + 288) * 16 // 8192)


# ---------------------------------------------------------------------------
# Partitioned tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fan_out", [False, True])
def test_top_bounded_scan_on_a_partitioned_table(fan_out: bool) -> None:
    """No WHERE, so no shard goes: the few kept blocks run serially — or, were
    the cost model to say otherwise, fan out with ``TopN`` as one more upper."""
    n = 16 * BLOCK_ROWS + 300
    rng = np.random.default_rng(11)
    db = LawsDatabase()
    db.load_dict("t", {"ts": list(range(n)), "v": rng.normal(0.0, 1.0, n).tolist()})
    sql = "SELECT ts, v FROM t ORDER BY v DESC, ts LIMIT 10 OFFSET 5"
    expected = db.query(sql, EXACT).rows()
    values = db.table("t").column("v").values
    assert [ts for ts, _ in expected] == np.argsort(-values, kind="stable")[5:15].tolist()

    db.partition_table("t", partitions=4)
    db.planner.cost_model.parallel_fanout = lambda rows, partitions: 2 if fan_out else None
    tasks = db.obs.metrics.counter_total("partition_tasks_total")
    pruned = db.obs.metrics.counter_total("scan_blocks_pruned_total")
    with db.database.io_model.scope() as scope:
        assert db.query(sql, EXACT).rows() == expected
    assert db.obs.metrics.counter_total("partition_tasks_total") - tasks == (4 if fan_out else 0)
    # Either way the same fifteen blocks and the tail are read, charged once, and the rest counted as skipped.
    assert db.obs.metrics.counter_total("scan_blocks_pruned_total") - pruned == 1
    assert scope.snapshot()["pages_read"] == -(-(15 * BLOCK_ROWS + 300) * 16 // 8192)
