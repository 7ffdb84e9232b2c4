"""Scan pushdown: pruning blocks never changes a result, and the page count stays honest.

The reference for every query is the plan nobody optimised: ``Filter`` (over
``HashJoin``, for joins) evaluated on the whole, unpruned tables.  The SQL
path — block synopses, constraints handed to the scans, right-table conjuncts
pushed below the join — has to return the same rows in the same order.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro import Database, LawsDatabase
from repro.core.planner import AccuracyContract
from repro.db import column as column_module
from repro.db.column import BLOCK_ROWS, Column
from repro.db.operators import filter as filter_module
from repro.db.operators.filter import Filter
from repro.db.operators.join import HashJoin
from repro.db.operators.scan import MaterializedInput, TableScan
from repro.db.schema import ColumnDef, Schema
from repro.db.sql.parser import parse_expression
from repro.db.table import Table
from repro.db.types import DataType

SETTINGS = settings(max_examples=200, deadline=None)
EXACT = AccuracyContract(mode="exact")

# Multi-block lengths first: hypothesis favours (and shrinks towards) early entries.
LENGTHS = [3 * BLOCK_ROWS + 7, 2 * BLOCK_ROWS, 5 * BLOCK_ROWS + 100, BLOCK_ROWS + 1, BLOCK_ROWS, BLOCK_ROWS - 1, 40, 1, 0]
LAYOUTS = ["sorted", "clustered", "sorted", "clustered", "random"]  # mostly prunable
NULLS = ["none", "random", "blocks"]


# ---------------------------------------------------------------------------
# Random tables
# ---------------------------------------------------------------------------


def _codes(rng: np.random.Generator, n: int, layout: str) -> np.ndarray:
    """Small integers in [0, 50): the value domain every column is derived from."""
    if layout == "sorted":
        return np.sort(rng.integers(0, 50, n))
    if layout == "clustered":  # runs of ~700 rows around a level, straddling blocks
        return (np.arange(n) // 700 * 7 + rng.integers(0, 3, n)) % 50
    return rng.integers(0, 50, n)


def _validity(rng: np.random.Generator, n: int, nulls: str) -> np.ndarray:
    valid = np.ones(n, dtype=bool)
    if nulls == "random":
        valid &= rng.random(n) > 0.15
    elif nulls == "blocks":  # whole blocks (and the tail) of NULLs
        for block in range(-(-n // BLOCK_ROWS)):
            if rng.random() < 0.5:
                valid[block * BLOCK_ROWS : (block + 1) * BLOCK_ROWS] = False
    return valid


def _column(rng: np.random.Generator, dtype: DataType, n: int, layout: str, nulls: str) -> Column:
    codes = _codes(rng, n, layout)
    valid = _validity(rng, n, nulls)
    if dtype is DataType.INT64:
        values = codes.astype(np.int64)
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


def _table(name: str, seed: int, n: int, shapes: dict[str, tuple[str, str]]) -> Table:
    rng = np.random.default_rng(seed)
    defs = [ColumnDef(column, dtype) for column, dtype in COLUMNS if column in shapes]
    return Table(
        name,
        Schema(defs),
        {d.name: _column(rng, d.dtype, n, *shapes[d.name]) for d in defs},
    )


tables = st.builds(
    lambda seed, n, shapes: _table("t", seed, n, dict(zip("ifbs", shapes))),
    st.integers(0, 2**32 - 1),
    st.sampled_from(LENGTHS),
    st.tuples(*[st.tuples(st.sampled_from(LAYOUTS), st.sampled_from(NULLS))] * 4),
)


# ---------------------------------------------------------------------------
# Random predicates
# ---------------------------------------------------------------------------

INT_LITERALS = ["0", "5", "12", "25", "49", "50", "-1", "1000"]
FLOAT_LITERALS = ["0.5", "12.0", "12.5", "25.5", "49.5", "-3.25", "1e9"]
STRING_LITERALS = ["'s00'", "'s12'", "'s25'", "'s49'", "'zz'", "''"]
BOOL_LITERALS = ["true", "false"]

#: column -> the literals it is compared with: its own type first, then the
#: cross-type ones the kernels coerce (or reject: ``s = 5`` raises).
LITERALS = {
    "i": INT_LITERALS * 2 + FLOAT_LITERALS + BOOL_LITERALS,
    "f": FLOAT_LITERALS * 2 + INT_LITERALS,
    "b": BOOL_LITERALS * 4 + ["0", "1", "2", "1.5"],
    "s": STRING_LITERALS * 3 + ["5"],
}


def _conjunct(column: str) -> st.SearchStrategy[str]:
    literal = st.sampled_from(LITERALS[column])
    # Ordering a STRING column with NULLs raises in the kernel (None < str),
    # pruned or not; keep those to equality so most examples compare results.
    ops = ["=", "!="] if column == "s" else ["=", "!=", "<", "<=", ">", ">="]
    forms = [
        st.builds(lambda op, lit: f"{column} {op} {lit}", st.sampled_from(ops), literal),
        st.builds(lambda op, lit: f"{lit} {op} {column}", st.sampled_from(ops), literal),
        st.builds(lambda lits: f"{column} IN ({', '.join(lits)})", st.lists(literal, min_size=1, max_size=4)),
    ]
    if column != "s":
        forms.append(st.builds(lambda lo, hi: f"{column} BETWEEN {lo} AND {hi}", literal, literal))
    return st.one_of(forms)


def _predicates(columns: str) -> st.SearchStrategy[str]:
    conjunct = st.sampled_from(list(columns)).flatmap(_conjunct)
    residual = st.one_of(
        st.builds(lambda a, b: f"({a} OR {b})", conjunct, conjunct),
        st.builds(
            lambda column, negated: f"{column} IS {'NOT ' if negated else ''}NULL",
            st.sampled_from(list(columns)),
            st.booleans(),
        ),
        st.builds(lambda lit: f"i + 1 > {lit}", st.sampled_from(INT_LITERALS)),
        st.builds(lambda c: f"NOT ({c})", conjunct),
    )
    return st.lists(st.one_of(conjunct, conjunct, residual), min_size=1, max_size=4).map(" AND ".join)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _rows(table: Table) -> list[tuple]:
    """Rows with NaN made comparable (NaN != NaN would fail equal results)."""
    return [
        tuple("NaN" if isinstance(v, float) and v != v else v for v in row)
        for row in table.to_rows()
    ]


def _agree(run_sql, run_reference) -> bool:
    """The SQL path returns the reference's rows — or fails the way it fails.

    True when there was a result to compare.
    """
    try:
        expected = run_reference()
    except Exception as exc:  # noqa: BLE001 - whatever the kernels reject
        # A predicate the kernels reject (``s = 5``, ``None < 's'``) only
        # raises where it is evaluated; the pruned scan may have left no such
        # row.  It must not fail in any *other* way.
        try:
            run_sql()
        except type(exc):
            pass
        return False
    assert _rows(run_sql()) == _rows(expected)
    return True


class _ScanAudit:
    """Records what every scan charged, handed on, and what the predicate saw."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.charged: list[Table] = []
        self.scanned: list[Table] = []
        self.evaluated_rows: list[int] = []

    def __enter__(self) -> "_ScanAudit":
        charge_scan = self.db.io_model.charge_scan
        scan_execute = TableScan.execute
        truthy_mask = filter_module.truthy_mask

        def charge(table, column_names=None):
            assert column_names is None  # the handed-on table *is* the projection
            self.charged.append(table)
            return charge_scan(table)

        def execute(scan):
            table = scan_execute(scan)
            self.scanned.append(table)
            return table

        def mask(column):
            self.evaluated_rows.append(len(column))
            return truthy_mask(column)

        self._patches = [
            mock.patch.object(self.db.io_model, "charge_scan", charge),
            mock.patch.object(TableScan, "execute", execute),
            mock.patch.object(filter_module, "truthy_mask", mask),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info) -> None:
        for patch in reversed(self._patches):
            patch.stop()


# ---------------------------------------------------------------------------
# (a) + (c): pruned == unpruned, rows charged == rows evaluated
# ---------------------------------------------------------------------------


#: The join test's SQL spelling -> name in the join output, and each output
#: column's kind (the ``_conjunct`` stand-in column it is drawn over).
_JOIN_SPELLINGS = {
    "i": "i", "t.i": "i", "f": "f", "t.f": "f", "b": "b", "s": "s",
    "u.f": "u.f", "w": "w", "u.w": "w", "j": "j", "u.j": "j",
}  # fmt: skip
_JOIN_KINDS = {"i": "i", "f": "f", "b": "b", "s": "s", "w": "i", "j": "i"}
_join_parts = st.lists(
    st.sampled_from(sorted(_JOIN_SPELLINGS)).flatmap(
        lambda name: _conjunct(_JOIN_KINDS[_JOIN_SPELLINGS[name].split(".")[-1]]).map(
            lambda text: (name, text)
        )
    ),
    min_size=1,
    max_size=4,
)


class TestPrunedEqualsUnpruned:
    @SETTINGS
    @given(tables, _predicates("ifbs"))
    def test_single_table(self, table: Table, where: str) -> None:
        db = Database()
        db.register_table(table)
        sql = f"SELECT * FROM t WHERE {where}"
        reference = Filter(MaterializedInput(table), parse_expression(where))

        def run_sql() -> Table:
            with audit, db.io_model.scope() as scope:
                result = db.query(sql)
            pages.append(scope.snapshot()["pages_read"])
            return result

        audit, pages = _ScanAudit(db), []
        if not _agree(run_sql, reference.execute):
            return

        # What was charged is exactly what the scan handed to the predicate.
        assert len(audit.charged) == len(audit.scanned) <= 1
        for charged, scanned in zip(audit.charged, audit.scanned):
            event(f"{table.num_rows // BLOCK_ROWS} complete blocks, pruned some: {scanned.num_rows < table.num_rows}")
            assert charged is scanned
            assert sum(audit.evaluated_rows) == scanned.num_rows
            assert pages == [-(-scanned.byte_size() // db.io_model.parameters.page_size_bytes)]

    @SETTINGS
    @given(
        tables,
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 3, 60, BLOCK_ROWS + 5]),
        st.tuples(*[st.tuples(st.sampled_from(LAYOUTS), st.sampled_from(NULLS))] * 2),
        _join_parts,
    )
    # ROADMAP item 0 (PR 16): the kernel truncated 1.5 to ``true`` while the
    # merged pins ``{true} & {1.5}`` pruned every complete block.
    @example(
        table=_table("t", 0, 3 * BLOCK_ROWS + 7, dict(zip("ifbs", [("sorted", "none")] * 4))),
        seed=0,
        right_rows=60,
        shapes=(("sorted", "none"), ("sorted", "none")),
        parts=[("b", "b = true"), ("b", "b = 1.5")],
    )
    def test_join_with_colliding_names(self, table, seed, right_rows, shapes, parts) -> None:
        # ``u`` shares ``f`` with ``t`` (the join output calls it ``u.f``) and
        # owns ``j`` and ``w``.
        right = _table("r", seed, right_rows, dict(zip("if", shapes)))
        u = Table(
            "u",
            Schema([ColumnDef("j", DataType.INT64), ColumnDef("f", DataType.FLOAT64), ColumnDef("w", DataType.INT64)]),
            {"j": right.column("i"), "f": right.column("f"), "w": Column(DataType.INT64, np.arange(right_rows) % 7)},
        )
        # ``_conjunct`` wrote the predicate over the kind's stand-in column
        # (i / f / b / s); substitute the SQL spelling and the output name.
        sql_parts, reference_parts = [], []
        for name, text in parts:
            stand_in = _JOIN_KINDS[_JOIN_SPELLINGS[name].split(".")[-1]]
            tokens = text.split(" ")
            sql_parts.append(" ".join(name if token == stand_in else token for token in tokens))
            reference_parts.append(
                " ".join(_JOIN_SPELLINGS[name] if token == stand_in else token for token in tokens)
            )
        db = Database()
        db.register_table(table)
        db.register_table(u)
        # (``SELECT *`` cannot name the two ``f`` apart; this is the join output in order.)
        sql = f"SELECT i, t.f AS tf, b, s, j, u.f AS uf, w FROM t JOIN u ON t.i = u.j WHERE {' AND '.join(sql_parts)}"
        reference = Filter(
            HashJoin(MaterializedInput(table), MaterializedInput(u), ["i"], ["j"]),
            parse_expression(" AND ".join(reference_parts)),
        )
        def run_sql() -> Table:
            with audit:
                return db.query(sql)

        audit = _ScanAudit(db)
        if not _agree(run_sql, reference.execute):
            return
        assert len(audit.charged) == len(audit.scanned)
        assert all(charged is scanned for charged, scanned in zip(audit.charged, audit.scanned))

    @pytest.mark.parametrize("nulls", NULLS)
    @pytest.mark.parametrize("layout", ["sorted", "clustered"])
    def test_prunable_layouts_grid(self, layout: str, nulls: str) -> None:
        """Every length x a fixed predicate list, on layouts where blocks do go."""
        predicates = [
            "i < 5", "i <= 12 AND i > 5", "i = 25", "i BETWEEN 12 AND 25", "i IN (0, 49)", "i > 49",
            "i >= 12.5 AND f < 25.5", "f BETWEEN 12 AND 12.5", "f = 49.5", "f > 1e9", "25.5 <= f",
            "b = true", "b = false AND i < 12", "b IN (true)", "s = 's12'", "s IN ('s00', 's49')",
            "s = 'zz'", "i < 12 AND (f > 5 OR s IS NULL)", "i = 5 AND f IS NOT NULL", "i < 25 AND i + 1 > 5",
            "i BETWEEN 25 AND 12", "i = 12 AND i = 25", "i IN (5) AND i IN (5, 12)", "NOT (i < 25) AND f < 49.5",
        ]  # fmt: skip
        pruned = 0
        for seed, n in enumerate(LENGTHS):
            table = _table("t", seed, n, dict.fromkeys("ifbs", (layout, nulls)))
            db = Database()
            db.register_table(table)
            for where in predicates:
                expected = Filter(MaterializedInput(table), parse_expression(where)).execute()
                with _ScanAudit(db) as audit:
                    result = db.query(f"SELECT * FROM t WHERE {where}")
                assert _rows(result) == _rows(expected), (n, where)
                (scanned,) = audit.scanned
                assert audit.charged == [scanned] and sum(audit.evaluated_rows) == scanned.num_rows
                pruned += scanned.num_rows < n
        assert pruned > len(predicates)  # the grid does exercise pruning

    def test_unconstrained_scan_hands_the_columns_on_uncopied(self) -> None:
        db = Database()
        table = db.load_dict("t", {"i": list(range(3 * BLOCK_ROWS)), "f": [0.5] * (3 * BLOCK_ROWS)})
        for sql in ("SELECT i FROM t", "SELECT i FROM t WHERE i + 1 > 5", "SELECT i FROM t WHERE i >= 0"):
            with _ScanAudit(db) as audit:
                db.query(sql)
            (scanned,) = audit.scanned
            assert np.shares_memory(scanned.column("i").values, table.column("i").values), sql
            assert scanned.num_rows == table.num_rows

    def test_contiguous_kept_blocks_are_a_view_not_a_copy(self) -> None:
        db = Database()
        table = db.load_dict("t", {"i": list(range(8 * BLOCK_ROWS))})
        with _ScanAudit(db) as audit:
            result = db.query(f"SELECT i FROM t WHERE i BETWEEN {2 * BLOCK_ROWS} AND {4 * BLOCK_ROWS - 1}")
        (scanned,) = audit.scanned
        assert scanned.num_rows == 2 * BLOCK_ROWS == result.num_rows
        assert np.shares_memory(scanned.column("i").values, table.column("i").values)


# ---------------------------------------------------------------------------
# (b) MVCC: synopses are shared by every snapshot of an append chain
# ---------------------------------------------------------------------------


class TestSynopsisUnderMVCC:
    def test_newer_snapshots_synopsis_never_prunes_an_older_snapshots_rows(self) -> None:
        rows = BLOCK_ROWS + 476  # the old snapshot's second block is a partial tail
        db = LawsDatabase(observability=False)
        db.load_dict("t", {"ts": list(range(rows)), "v": [float(i) for i in range(rows)]})
        old = db.snapshot()
        # The append completes block 1 and adds blocks with a disjoint range.
        db.ingest("t", [(10_000 + i, 0.0) for i in range(3 * BLOCK_ROWS)], flush=True)

        tail = "SELECT count(*), sum(v) FROM t WHERE ts BETWEEN 1100 AND 1400"
        appended = "SELECT count(*) FROM t WHERE ts >= 10000"
        # Build the synopsis through the *new* snapshot first ...
        assert db.query(appended, EXACT).rows() == [(3 * BLOCK_ROWS,)]
        assert db.query(tail, EXACT).rows() == [(301, float(sum(range(1100, 1401))))]
        # ... then the pinned reader: same tail rows, none of the appended ones.
        assert db.query(tail, EXACT, snapshot=old).rows() == [(301, float(sum(range(1100, 1401))))]
        assert db.query(appended, EXACT, snapshot=old).rows() == [(0,)]
        assert db.query("SELECT count(*) FROM t WHERE ts < 5", EXACT, snapshot=old).rows() == [(5,)]

    def test_older_snapshots_synopsis_is_extended_not_trusted_by_newer_ones(self) -> None:
        db = LawsDatabase(observability=False)
        db.load_dict("t", {"ts": list(range(2 * BLOCK_ROWS))})
        old = db.snapshot()
        sql = "SELECT count(*) FROM t WHERE ts >= 5000"
        assert db.query(sql, EXACT, snapshot=old).rows() == [(0,)]  # synopsis: 2 blocks
        db.ingest("t", [(5000 + i,) for i in range(2 * BLOCK_ROWS)], flush=True)
        assert db.query(sql, EXACT).rows() == [(2 * BLOCK_ROWS,)]
        assert db.query(sql, EXACT, snapshot=old).rows() == [(0,)]

    def test_flushed_appends_summarise_every_complete_block_once(self) -> None:
        batch, batches = 300, 100
        db = LawsDatabase(observability=False, ingest_batch_size=batch)
        db.load_dict("t", {"ts": list(range(batch)), "v": [1.0] * batch})
        summarised: list[int] = []
        summarise = column_module._summarise_blocks

        def spy(dtype, data, valid):
            summarised.append(len(data) // BLOCK_ROWS)
            return summarise(dtype, data, valid)

        with mock.patch.object(column_module, "_summarise_blocks", spy):
            for step in range(1, batches + 1):
                start = step * batch
                db.ingest("t", [(start + i, 1.0) for i in range(batch)], flush=True)
                low = start - 50
                count = db.query(f"SELECT count(*) FROM t WHERE ts BETWEEN {low} AND {low + 99}", EXACT)
                assert count.rows() == [(100,)]
        total_rows = (batches + 1) * batch
        # Only ``ts`` is constrained; each of its complete blocks was
        # summarised exactly once although the buffer reallocated on the way.
        assert sum(summarised) == total_rows // BLOCK_ROWS
        assert max(summarised) <= 1


# ---------------------------------------------------------------------------
# (d) No per-execution O(N) Python objects
# ---------------------------------------------------------------------------


def test_filtered_scan_builds_no_literal_columns() -> None:
    n = 200_000
    rng = np.random.default_rng(5)
    db = Database()
    db.register_table(
        Table(
            "t",
            Schema([ColumnDef("k", DataType.INT64), ColumnDef("x", DataType.FLOAT64)]),
            {
                "k": Column(DataType.INT64, rng.integers(0, 1000, n)),
                "x": Column(DataType.FLOAT64, rng.normal(10.0, 5.0, n)),
            },
        )
    )
    sql = "SELECT k, x FROM t WHERE x > 24.0 AND k BETWEEN 100 AND 899 AND k IN (150, 250, 350) AND x * 2 > 1"
    expected = db.query(sql).num_rows  # warm: parse, plan, synopses
    assert 0 < expected < n // 100

    from_values = Column.from_values.__func__
    calls: list[int] = []

    def spy(cls, dtype, values):
        calls.append(len(values))
        return from_values(cls, dtype, values)

    with mock.patch.object(Column, "from_values", classmethod(spy)):
        tracemalloc.start()
        try:
            result = db.query(sql)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.num_rows == expected
    assert calls == []
    # A materialised literal alone is N pointers plus N boxed values.
    assert peak < 4 * n * 8, f"peak {peak} B for {n} rows"


# ---------------------------------------------------------------------------
# Planner satellites
# ---------------------------------------------------------------------------


class TestPlannerSatellites:
    def test_count_star_projects_the_narrowest_column(self) -> None:
        db = Database()
        db.load_dict("t", {"g": [1, 2, 3] * 4096, "flag": [True, False, True] * 4096, "x": [0.5] * 12288})
        with db.io_model.scope() as scope:
            assert db.sql("SELECT count(*) FROM t").rows() == [(12288,)]
        assert scope.snapshot()["pages_read"] == -(-12288 // db.io_model.parameters.page_size_bytes)  # BOOL: 1 B/row
        assert "columns=[flag]" in db.explain("SELECT count(*) FROM t")

    def test_right_table_conjunct_filters_the_build_side(self) -> None:
        db = Database()
        db.load_dict("fact", {"k": [i % 10 for i in range(1000)], "x": [float(i) for i in range(1000)]})
        db.load_dict("dim", {"k2": list(range(10)), "w": [i % 2 for i in range(10)], "x": [0.0] * 10})
        plan = db.explain("SELECT count(*) FROM fact JOIN dim ON k = k2 WHERE w > 0 AND fact.x >= 0 AND dim.x < 1")
        lines = [line.strip() for line in plan.splitlines()]
        join = lines.index("HashJoin(k = k2)")
        # Above the join only the base-table conjunct is left; both right-only
        # conjuncts (one through the collision prefix) sit on the build side.
        assert lines[join - 1] == "Filter((x >= 0))"
        assert lines[join + 2] == "Filter(((w > 0) and (x < 1)))"
        assert lines[join + 3].startswith("TableScan(dim, columns=[k2, w, x]")
        assert db.sql(
            "SELECT count(*) FROM fact JOIN dim ON k = k2 WHERE w > 0 AND fact.x >= 0 AND dim.x < 1"
        ).rows() == [(500,)]

    def test_explain_shows_blocks_kept(self) -> None:
        db = Database()
        db.load_dict("t", {"ts": list(range(10 * BLOCK_ROWS + 3))})
        plan = db.explain(f"SELECT count(*) FROM t WHERE ts < {BLOCK_ROWS}")
        assert "TableScan(t, columns=[ts], blocks=2/11)" in plan  # block 0 and the tail
        assert "blocks=" not in db.explain("SELECT count(*) FROM t")


@pytest.mark.parametrize("partitions", [None, 4])
def test_pruned_blocks_are_counted_and_traced(partitions) -> None:
    db = LawsDatabase()
    db.load_dict("t", {"ts": list(range(16 * BLOCK_ROWS)), "v": [1.0] * (16 * BLOCK_ROWS)})
    if partitions:
        db.partition_table("t", partitions=partitions, by="ts", scheme="range")
    before = db.obs.metrics.counter_total("scan_blocks_pruned_total")
    answer = db.query(f"SELECT sum(v) FROM t WHERE ts BETWEEN {BLOCK_ROWS} AND {2 * BLOCK_ROWS - 1}", EXACT)
    assert answer.rows() == [(float(BLOCK_ROWS),)]
    pruned = db.obs.metrics.counter_total("scan_blocks_pruned_total") - before
    # 15 of 16 blocks, partitioned or not: one kept block reaches one shard,
    # which is nothing to fan out, so the serial scan runs — and skips the same.
    assert pruned == 15
    scan = db.last_trace().find("op:TableScan")
    assert scan.attributes["blocks_pruned"] == 15
    assert "blocks=1/16" in scan.attributes["operator"]
