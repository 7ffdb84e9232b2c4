"""Unit tests for the metrics registry: counters, gauges, histograms,
the disabled no-op path, and the JSON / Prometheus exporters."""

import json

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry


class TestCounters:
    def test_inc_accumulates(self):
        m = MetricsRegistry()
        m.inc("queries_total", route="exact")
        m.inc("queries_total", route="exact")
        m.inc("queries_total", 3.0, route="grouped-model")
        assert m.counter_value("queries_total", route="exact") == 2.0
        assert m.counter_value("queries_total", route="grouped-model") == 3.0
        assert m.counter_total("queries_total") == 5.0

    def test_missing_counter_is_zero(self):
        m = MetricsRegistry()
        assert m.counter_value("nope") == 0.0
        assert m.counter_total("nope") == 0.0

    def test_label_order_does_not_matter(self):
        m = MetricsRegistry()
        m.inc("c", a="1", b="2")
        m.inc("c", b="2", a="1")
        assert m.counter_value("c", b="2", a="1") == 2.0


class TestGauges:
    def test_set_overwrites(self):
        m = MetricsRegistry()
        m.set_gauge("models", 3, status="active")
        m.set_gauge("models", 5, status="active")
        assert m.gauge_value("models", status="active") == 5.0

    def test_missing_gauge_is_none(self):
        assert MetricsRegistry().gauge_value("nope") is None


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)
        # Cumulative: ≤0.1 → 1, ≤1.0 → 3, ≤10.0 → 4, +Inf → 5.
        assert snap["buckets"] == [[0.1, 1], [1.0, 3], [10.0, 4], ["+Inf", 5]]

    def test_boundary_value_falls_in_bucket(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.snapshot()["buckets"][0] == [1.0, 1]

    def test_registry_observe_uses_default_buckets(self):
        m = MetricsRegistry()
        m.observe("query_seconds", 0.002)
        snap = m.snapshot()["histograms"]["query_seconds"]
        assert snap["count"] == 1
        assert len(snap["buckets"]) == len(DEFAULT_LATENCY_BUCKETS) + 1


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        m = MetricsRegistry(enabled=False)
        m.inc("c")
        m.set_gauge("g", 1.0)
        m.observe("h", 0.5)
        snap = m.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset_clears_everything(self):
        m = MetricsRegistry()
        m.inc("c")
        m.set_gauge("g", 1.0)
        m.observe("h", 0.5)
        m.reset()
        assert m.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestExporters:
    def _registry(self):
        m = MetricsRegistry()
        m.inc("queries_total", 2, route="exact")
        m.set_gauge("models", 4, status="active")
        m.observe("query_seconds", 0.002)
        return m

    def test_json_round_trips(self):
        payload = json.loads(self._registry().to_json())
        assert payload["counters"]["queries_total"] == [
            {"labels": {"route": "exact"}, "value": 2.0}
        ]
        assert payload["gauges"]["models"] == [
            {"labels": {"status": "active"}, "value": 4.0}
        ]
        assert payload["histograms"]["query_seconds"]["count"] == 1

    def test_prometheus_text_exposition(self):
        text = self._registry().to_prometheus_text()
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{route="exact"} 2' in text
        assert "# TYPE repro_models gauge" in text
        assert 'repro_models{status="active"} 4' in text
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'repro_query_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_query_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        m = MetricsRegistry()
        m.inc("c", reason='say "hi"\nbye\\')
        text = m.to_prometheus_text()
        assert 'reason="say \\"hi\\"\\nbye\\\\"' in text

    def test_prometheus_emits_help_before_every_type(self):
        """Exposition conformance: every # TYPE line is preceded by a # HELP
        line for the same metric (what promtool check metrics expects)."""
        lines = self._registry().to_prometheus_text().splitlines()
        type_indices = [i for i, line in enumerate(lines) if line.startswith("# TYPE ")]
        assert type_indices  # the fixture registry has metrics of every kind
        for i in type_indices:
            metric = lines[i].split()[2]
            assert lines[i - 1].startswith(f"# HELP {metric} "), lines[i - 1]

    def test_prometheus_help_text_for_known_metrics(self):
        m = MetricsRegistry()
        m.inc("queries_total", route="exact")
        text = m.to_prometheus_text()
        assert "# HELP repro_queries_total Queries served, by route taken." in text

    def test_pruning_counters_are_emitted_under_their_registered_names(self):
        """Name audit: the counters the scan and the partitioned engine bump
        are the ones ``_METRIC_HELP`` describes (a typo on either side would
        export the generic help text)."""
        from repro import AccuracyContract, LawsDatabase
        from repro.obs.metrics import _GENERIC_HELP, _help_text

        from repro.core.planner.cost import CostModel, OperatorCosts

        rows = 8 * 1024
        db = LawsDatabase()
        db.load_dict("t", {"ts": list(range(rows)), "v": [1.0] * rows})
        db.partition_table("t", partitions=4, by="ts", scheme="range")
        # Free dispatch, so a table this small fans out: three kept blocks
        # reach the first two shards, the other two shards get no task.
        db.planner.set_cost_model(CostModel(OperatorCosts(parallel_task_overhead_seconds=0.0)))
        db.query("SELECT count(*) FROM t WHERE ts < 3000", AccuracyContract(mode="exact"))
        assert db.obs.metrics.counter_total("partitions_pruned_total") == 2

        text = db.obs.metrics.to_prometheus_text()
        for name in ("scan_blocks_pruned_total", "partitions_pruned_total"):
            assert db.obs.metrics.counter_total(name) > 0, name
            assert _help_text(name) != _GENERIC_HELP, name
            assert f"# HELP repro_{name} {_help_text(name)}" in text

    def test_prometheus_help_falls_back_for_unknown_metrics(self):
        m = MetricsRegistry()
        m.inc("made_up_metric_total")
        text = m.to_prometheus_text()
        assert "# HELP repro_made_up_metric_total " in text
        assert "# TYPE repro_made_up_metric_total counter" in text

    def test_prometheus_help_escapes_newlines(self):
        # HELP escaping: backslash and newline only (quotes are legal).
        from repro.obs.metrics import _help_text

        assert _help_text("x") == "repro metric (no description registered)."
        assert "\n" not in _help_text("queries_total")
