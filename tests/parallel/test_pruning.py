"""Partition pruning: never drops rows, and actually saves simulated IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LawsDatabase
from repro.db.constraints import extract_constraints
from repro.db.sql.parser import parse
from repro.parallel.partition import build_partition_map, partition_entries
from repro.parallel.pruning import prune_partitions


def _constraints(where_sql: str):
    statement = parse(f"SELECT * FROM t WHERE {where_sql}")
    return extract_constraints(statement.where)


PREDICATES = [
    "y < 50",
    "y >= 990",
    "y BETWEEN 300 AND 310",
    "y > 1000000",
    "y IN (5, 500, 995)",
    "y = 123",
    "y < 100 AND x > 0.0",
    "y >= 10 AND y <= 20 AND k = 3",
]


class TestPruningProperty:
    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize("partitions", [2, 7, 16])
    def test_pruning_never_drops_rows(self, predicate: str, partitions: int) -> None:
        """Kept partitions contain every row the full scan would return."""
        rng = np.random.default_rng(42)
        rows = 5000
        db = LawsDatabase(observability=False)
        db.load_dict(
            "t",
            {
                "k": rng.integers(0, 8, rows).tolist(),
                "x": rng.normal(0, 1, rows).tolist(),
                "y": np.sort(rng.integers(0, 1000, rows)).tolist(),
            },
        )
        sql = f"SELECT count(*), sum(x) FROM t WHERE {predicate}"
        db.parallel.enabled = False
        oracle = db.database.sql(sql).rows()
        db.parallel.enabled = True
        db.partition_table("t", partitions=partitions)
        result = db.database.sql(sql).rows()
        assert result[0][0] == oracle[0][0], f"pruning dropped rows for {predicate!r}"
        assert result[0][1] == pytest.approx(oracle[0][1], rel=1e-9, nan_ok=True) or (
            result[0][1] is None and oracle[0][1] is None
        )

    def test_prune_unit_semantics(self) -> None:
        """Direct unit checks of the prune decision table."""
        db = LawsDatabase(observability=False)
        table = db.load_dict(
            "t", {"y": list(range(100)), "s": [None] * 100}
        )
        payload = build_partition_map(table.pinned(), 4)
        entries = partition_entries(payload, table.num_rows)

        kept, pruned = prune_partitions(entries, _constraints("y < 10").by_column, {"y", "s"})
        assert pruned == 3 and [e["id"] for e in kept] == [0]

        # All-NULL column: every extracted constraint rejects NULL.
        kept, pruned = prune_partitions(entries, _constraints("s = 1").by_column, {"y", "s"})
        assert pruned == 4 and kept == []

        # Column not prunable (e.g. shadowed by a join right table): kept.
        kept, pruned = prune_partitions(entries, _constraints("y < 10").by_column, {"s"})
        assert pruned == 0 and len(kept) == 4

        # Residual-only predicates prune nothing.
        kept, pruned = prune_partitions(entries, _constraints("y + y < 10").by_column, {"y"})
        assert pruned == 0

    def test_tail_partition_is_never_pruned(self) -> None:
        db = LawsDatabase(observability=False)
        table = db.load_dict("t", {"y": list(range(100))})
        payload = build_partition_map(table.pinned(), 4)
        db.database.insert_rows("t", [(5,)] * 10)  # appended past built_rows
        entries = partition_entries(payload, db.table("t").num_rows)
        assert len(entries) == 5 and entries[-1]["columns"] == {}
        kept, pruned = prune_partitions(entries, _constraints("y = 5").by_column, {"y"})
        assert pruned == 3
        assert entries[-1] in kept  # the tail survives any predicate


class TestPageIOReduction:
    def test_selective_range_predicate_saves_5x_pages(self) -> None:
        """ISSUE acceptance: >=5x page-IO reduction on a selective range scan."""
        rng = np.random.default_rng(3)
        rows = 200_000
        db = LawsDatabase(observability=False)
        db.load_dict(
            "t",
            {
                "y": np.sort(rng.integers(0, 1000, rows)).tolist(),
                "x": rng.normal(0, 1, rows).tolist(),
            },
        )
        db.partition_table("t", partitions=16)
        sql = "SELECT count(*), sum(x) FROM t WHERE y BETWEEN 100 AND 140"

        # The unpruned baseline is a scan that reads every block of both
        # columns.  Disabling the parallel engine no longer gives one: a
        # serial scan skips blocks on its own synopses, so on this clustered
        # column it must show the same >=5x saving by itself.
        db.parallel.enabled = False
        with db.database.io_model.scope() as unpruned_scope:
            db.database.sql("SELECT count(y), sum(x) FROM t")
        with db.database.io_model.scope() as serial_scope:
            oracle = db.database.sql(sql).rows()
        db.parallel.enabled = True
        with db.database.io_model.scope() as pruned_scope:
            result = db.database.sql(sql).rows()

        assert result[0][0] == oracle[0][0]
        unpruned_pages = unpruned_scope.snapshot()["pages_read"]
        for label, scope in (("partitioned", pruned_scope), ("serial", serial_scope)):
            pruned_pages = scope.snapshot()["pages_read"]
            assert pruned_pages > 0
            assert unpruned_pages / pruned_pages >= 5.0, (
                f"{label} page-IO reduction {unpruned_pages}/{pruned_pages} below 5x"
            )
