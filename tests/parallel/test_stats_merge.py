"""Mergeable column statistics: per-partition stats fold into table stats."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import LawsDatabase
from repro.db.archived import archived_segments
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

    def test_merge_keeps_std_where_the_mean_dwarfs_the_spread(self) -> None:
        """Eight 512-row batches of ``1e8 + N(0, 1)``: a pooled ``E[x²] − mean²``
        cancels to std 1.414; the pairwise sums of squared deviations give
        the whole column's 0.980."""
        from repro.db.column import Column
        from repro.db.types import DataType

        values = 1e8 + np.random.default_rng(20260928).normal(0.0, 1.0, 8 * 512)
        whole = compute_column_stats("x", Column(DataType.FLOAT64, values))
        batches = [
            compute_column_stats("x", Column(DataType.FLOAT64, values[start : start + 512]))
            for start in range(0, len(values), 512)
        ]
        merged = functools.reduce(lambda a, b: a.merge(b), batches)
        assert merged.mean == pytest.approx(whole.mean, rel=1e-9)
        assert merged.std == pytest.approx(whole.std, rel=1e-9)

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

    def test_merge_keeps_nan_as_one_value_sorted_last(self) -> None:
        """``[1, NaN, 2]`` merged with ``[NaN, 3]``: NaN is one domain value
        counted twice and sorted last, as the whole column's scan has it —
        not two values, one of them between 2.0 and 3.0."""
        nan = float("nan")
        table = Table.from_dict("t", {"x": [1.0, nan, 2.0, nan, 3.0]})
        assert table.column("x").null_count == 0
        whole = compute_column_stats("x", table.column("x"))
        merged = compute_column_stats("x", table.slice(0, 3).column("x")).merge(
            compute_column_stats("x", table.slice(3, 5).column("x"))
        )
        for stats in (whole, merged):
            assert stats.distinct_count == 4
            assert stats.domain[:3] == [1.0, 2.0, 3.0] and np.isnan(stats.domain[3])
            assert stats.domain_counts == [1, 1, 1, 2]
            assert stats.min_value is None and stats.max_value is None


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
        assert catalog.fresh_stats("t") is not None

        db.ingest("t", [(int(v),) for v in rng.integers(0, 6, 256)], flush=True)
        assert catalog.fresh_stats("t") is not None, "flush should merge the delta, not dirty stats"

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
            assert len(archived_segments(db.database.catalog, "t")) == 3
            merged = db.database.stats("t")
            assert db.table("t").num_rows < merged.row_count == whole.row_count
            for name in table.schema.names:
                _assert_stats_equal(merged.column(name), whole.column(name))
