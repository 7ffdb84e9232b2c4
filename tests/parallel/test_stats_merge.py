"""Mergeable column statistics: per-partition stats fold into table stats."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import LawsDatabase
from repro.db.stats import compute_column_stats, compute_table_stats, merge_table_stats
from repro.db.table import Table


def _table(seed: int, rows: int) -> Table:
    rng = np.random.default_rng(seed)
    db = LawsDatabase(observability=False)
    x = rng.normal(5.0, 3.0, rows)
    return db.load_dict(
        "t",
        {
            "k": rng.integers(0, 6, rows).tolist(),
            "x": [None if rng.random() < 0.1 else float(v) for v in x],
            "s": [f"tag{int(v) % 4}" for v in rng.integers(0, 100, rows)],
        },
    ).pinned()


def _assert_stats_equal(merged, whole) -> None:
    assert merged.row_count == whole.row_count
    assert merged.null_count == whole.null_count
    assert merged.min_value == whole.min_value
    assert merged.max_value == whole.max_value
    assert merged.distinct_count == whole.distinct_count
    assert merged.domain == whole.domain
    assert merged.domain_counts == whole.domain_counts
    if whole.mean is None:
        assert merged.mean is None
    else:
        assert merged.mean == pytest.approx(whole.mean, rel=1e-9)
        assert merged.std == pytest.approx(whole.std, rel=1e-9, abs=1e-12)


class TestColumnStatsMerge:
    @pytest.mark.parametrize("column", ["k", "x", "s"])
    def test_merge_of_halves_equals_whole_scan(self, column: str) -> None:
        table = _table(seed=9, rows=3001)
        split = 1200
        whole = compute_column_stats(column, table.column(column))
        left = compute_column_stats(column, table.slice(0, split).column(column))
        right = compute_column_stats(column, table.slice(split, table.num_rows).column(column))
        _assert_stats_equal(left.merge(right), whole)

    def test_merge_is_associative_over_many_shards(self) -> None:
        table = _table(seed=4, rows=2048)
        whole = compute_column_stats("x", table.column("x"))
        bounds = [0, 100, 777, 1024, 2048]
        shards = [
            compute_column_stats("x", table.slice(a, b).column("x"))
            for a, b in zip(bounds, bounds[1:])
        ]
        left_fold = functools.reduce(lambda a, b: a.merge(b), shards)
        right_fold = functools.reduce(lambda a, b: b.merge(a), reversed(shards))
        _assert_stats_equal(left_fold, whole)
        _assert_stats_equal(right_fold, whole)

    def test_merge_with_empty_and_all_null_shards(self) -> None:
        table = _table(seed=2, rows=500)
        whole = compute_column_stats("x", table.column("x"))
        empty = compute_column_stats("x", table.slice(0, 0).column("x"))
        merged = empty.merge(compute_column_stats("x", table.column("x")))
        _assert_stats_equal(merged, whole)

    def test_merge_rejects_mismatched_columns(self) -> None:
        table = _table(seed=2, rows=100)
        k = compute_column_stats("k", table.column("k"))
        x = compute_column_stats("x", table.column("x"))
        with pytest.raises(ValueError):
            k.merge(x)


class TestTableStatsMerge:
    def test_merge_table_stats_matches_whole_table(self) -> None:
        table = _table(seed=13, rows=1500)
        whole = compute_table_stats(table)
        left = compute_table_stats(table.slice(0, 600))
        right = compute_table_stats(table.slice(600, table.num_rows))
        merged = merge_table_stats(left, right)
        assert merged.row_count == whole.row_count
        for name in table.schema.names:
            _assert_stats_equal(merged.column(name), whole.column(name))


class TestIngestStatsMerge:
    def test_flush_merges_batch_stats_without_rescan(self) -> None:
        """Warm stats + batched appends keep catalog stats exact via merge."""
        rng = np.random.default_rng(21)
        db = LawsDatabase(ingest_batch_size=64, observability=False)
        db.load_dict("t", {"k": rng.integers(0, 6, 512).tolist()})
        catalog = db.database.catalog

        catalog.stats("t")  # warm the cache so the flush path can merge
        assert catalog.stats_clean("t")

        db.ingest("t", [(int(v),) for v in rng.integers(0, 6, 256)], flush=True)
        assert catalog.stats_clean("t"), "flush should merge the delta, not dirty stats"

        merged = catalog.stats("t").column("k")
        fresh = compute_table_stats(db.table("t").pinned()).column("k")
        _assert_stats_equal(merged, fresh)


class TestArchiveOverlayMerge:
    def test_overlay_over_k_segments_equals_stats_of_the_union(self, tmp_path) -> None:
        """Live rows + k archived segments: the overlay the planner reads is
        what one scan of the whole logical table would report."""
        table = _table(seed=17, rows=1200)
        whole = compute_table_stats(table)
        with LawsDatabase.open(tmp_path / "db", observability=False) as db:
            db.register_table(table)
            for bound in (1, 3, 5):  # three segments, carved by key
                db.archive("t", f"k < {bound}")
            assert len(db.archive_tier.to_payload()["tables"]["t"]) == 3
            merged = db.database.stats("t")
            assert db.table("t").num_rows < merged.row_count == whole.row_count
            for name in table.schema.names:
                _assert_stats_equal(merged.column(name), whole.column(name))
