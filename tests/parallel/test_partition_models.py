"""Per-partition models: fitting, shard-scoped staleness, refit, round-trip."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LawsDatabase
from repro.errors import HarvestError
from repro.persist.warehouse import deserialize_model, serialize_model


def _make_db(rows: int = 2048, partitions: int = 4) -> LawsDatabase:
    rng = np.random.default_rng(23)
    db = LawsDatabase(observability=False)
    t = np.arange(rows, dtype=np.float64)
    v = 3.0 * t + 7.0 + rng.normal(0, 0.05, rows)
    db.load_dict("readings", {"t": t.tolist(), "v": v.tolist()})
    db.partition_table("readings", partitions=partitions)
    return db


class TestFitPartitioned:
    def test_fits_one_model_per_partition(self) -> None:
        db = _make_db(partitions=4)
        reports = db.fit_partitioned("readings", "v ~ linear(t)")
        assert len(reports) == 4
        assert all(report.accepted for report in reports)
        ids = sorted(report.model.metadata["partition_id"] for report in reports)
        assert ids == [0, 1, 2, 3]
        ranges = sorted(report.model.coverage.row_range for report in reports)
        assert ranges == [(0, 512), (512, 1024), (1024, 1536), (1536, 2048)]
        assert all(not report.model.coverage.covers_whole_table for report in reports)

    def test_requires_partition_map(self) -> None:
        db = LawsDatabase(observability=False)
        db.load_dict("t", {"a": [1.0, 2.0], "b": [2.0, 4.0]})
        with pytest.raises(HarvestError, match="partition map"):
            db.fit_partitioned("t", "b ~ linear(a)")


class TestShardScopedStaleness:
    def test_append_past_shard_keeps_lower_shards_active(self) -> None:
        """A batch landing in the tail stales only shards it touches."""
        db = _make_db(partitions=4)
        reports = db.fit_partitioned("readings", "v ~ linear(t)")
        by_partition = {report.model.metadata["partition_id"]: report.model for report in reports}

        db.insert_rows("readings", [(3000.0 + i, 3.0 * (3000.0 + i) + 7.0) for i in range(16)])

        for partition_id, model in by_partition.items():
            refreshed = db.models.get(model.model_id)
            assert refreshed.status == "active", (
                f"partition {partition_id} model went {refreshed.status!r} though its "
                f"rows {refreshed.coverage.row_range} are below the append boundary"
            )

    def test_sql_insert_and_insert_rows_share_one_lifecycle_contract(self, tmp_path) -> None:
        """The same row through either write path — and through a WAL replay
        of what that path logged — leaves identical per-shard statuses."""

        def statuses(db: LawsDatabase) -> dict[int, str]:
            return {
                model.metadata["partition_id"]: model.status
                for model in db.captured_models("readings")
            }

        observed = {}
        for path in ("sql", "rows"):
            rng = np.random.default_rng(23)
            t = np.arange(2048, dtype=np.float64)
            db = LawsDatabase.open(tmp_path / path, observability=False)
            db.load_dict(
                "readings", {"t": t.tolist(), "v": (3.0 * t + 7.0 + rng.normal(0, 0.05, 2048)).tolist()}
            )
            db.partition_table("readings", partitions=4)
            assert all(r.accepted for r in db.fit_partitioned("readings", "v ~ linear(t)"))
            db.checkpoint()  # the warehouse persists models at checkpoints only
            if path == "sql":
                db.query("INSERT INTO readings VALUES (3000.0, 9007.0)")
            else:
                db.insert_rows("readings", [(3000.0, 9007.0)])
            live = statuses(db)
            db.close()  # no checkpoint: the write survives in the WAL alone
            reopened = LawsDatabase.open(tmp_path / path, observability=False)
            assert reopened.table("readings").num_rows == 2049
            observed[path] = (live, statuses(reopened))
            reopened.close()

        assert observed["sql"] == observed["rows"]
        live, recovered = observed["sql"]
        assert recovered == live == {0: "active", 1: "active", 2: "active", 3: "active"}

    def test_whole_table_model_still_goes_stale_on_append(self) -> None:
        db = _make_db()
        report = db.fit("readings", "v ~ linear(t)")
        db.insert_rows("readings", [(9000.0, 27007.0)])
        assert db.models.get(report.model.model_id).status == "stale"


class TestWarehouseRoundTrip:
    def test_row_range_and_partition_id_survive_serialization(self) -> None:
        db = _make_db(partitions=4)
        model = db.fit_partitioned("readings", "v ~ linear(t)")[2].model
        restored = deserialize_model(serialize_model(model))
        assert restored.coverage.row_range == model.coverage.row_range == (1024, 1536)
        assert restored.metadata["partition_id"] == 2
        assert not restored.coverage.covers_whole_table

    def test_old_payload_without_row_range_loads(self) -> None:
        db = _make_db()
        model = db.fit("readings", "v ~ linear(t)").model
        payload = serialize_model(model)
        payload["coverage"].pop("row_range", None)  # pre-partitioning payload
        restored = deserialize_model(payload)
        assert restored.coverage.row_range is None


class TestMaintenanceRefit:
    def test_refit_rescopes_to_current_partition_bounds(self) -> None:
        """Maintenance refits a shard model against its *current* row range."""
        db = _make_db(partitions=4)
        reports = db.fit_partitioned("readings", "v ~ linear(t)")
        tail_model = max(reports, key=lambda r: r.model.coverage.row_range[1]).model

        # Appends land in (and past) the tail shard; rebuilding the map and
        # maintaining must refit the stale tail model over the new bounds.
        db.insert_rows(
            "readings", [(2048.0 + i, 3.0 * (2048.0 + i) + 7.0) for i in range(512)]
        )
        db.partition_table("readings", partitions=4)
        db.maintain()

        refreshed = db.models.get(tail_model.model_id)
        candidates = [
            model
            for model in db.models.models_for_table("readings")
            if model.status == "active" and model.coverage.row_range is not None
        ]
        assert refreshed.status in ("active", "stale")
        assert candidates, "maintenance left no active partition model"


class TestRangePartitionInKeyOrder:
    def test_rows_already_in_key_order_are_not_rewritten(self) -> None:
        """A range partition over a column that never decreases and holds no
        NULL commits its map over the live table: no row moves, the table is
        the same object and a model captured before stays active."""
        db = _make_db(partitions=1)
        model = db.fit("readings", "v ~ linear(t)").model
        before = db.table("readings")
        payload = db.partition_table("readings", partitions=4, by="t", scheme="range")
        assert db.table("readings") is before
        assert db.models.get(model.model_id).status == "active"
        assert [entry["rows"] for entry in payload["partitions"]] == [512] * 4

    @pytest.mark.parametrize("values", [[3.0, 1.0, 2.0, 4.0], [1.0, None, 2.0, 3.0], [1.0, float("nan"), 2.0, 3.0]])
    def test_rows_out_of_key_order_are_re_clustered(self, values) -> None:
        db = LawsDatabase(observability=False)
        db.load_dict("t", {"k": values, "i": list(range(len(values)))})
        before = db.table("t")
        db.partition_table("t", partitions=2, by="k", scheme="range")
        assert db.table("t") is not before
