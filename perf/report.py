"""Metrics from a measured pass: what ``run.py`` prints and BENCHMARK.json names."""

from __future__ import annotations

import resource

import calibrate
from stats import median, percentile, summary
from trace import SpanRecorder
from workloads import USER_BYTES_PER_ROW, Measured, Round


def latency_percentiles(rounds: list[Round], quantiles: tuple[float, ...]) -> tuple[dict[float, float], dict]:
    """Per-round percentiles then the median over rounds when a round has >= 100
    ops; otherwise percentiles of the pooled ops of the run."""
    pooled = [latency for r in rounds for latency in r.latencies]
    per_round = min(len(r.latencies) for r in rounds)
    if per_round >= 100:
        values = {q: median([percentile(r.latencies, q) for r in rounds]) for q in quantiles}
        rule = {"rule": "per-round percentile, median over rounds", "samples": per_round,
                "rounds": len(rounds), "beyond_p90": per_round // 10}
    else:
        values = {q: percentile(pooled, q) for q in quantiles}
        rule = {"rule": "percentile of the pooled ops of the run", "samples": len(pooled),
                "rounds": len(rounds), "beyond_p90": len(pooled) // 10}
    return {q: value * 1e3 for q, value in values.items()}, rule


def timings(rounds: list[Round]) -> tuple[dict[str, float], dict]:
    """The four timed end-to-end metrics over untraced rounds, and the detail
    behind the medians."""
    ops = [len(r.latencies) for r in rounds]
    throughput = [n / r.wall for n, r in zip(ops, rounds)]
    cpu = [r.cpu * 1e3 / n for n, r in zip(ops, rounds)]
    latency, rule = latency_percentiles(rounds, (50, 90))
    values = {
        "ops_per_s": median(throughput),
        "latency_p50_ms": latency[50],
        "latency_p90_ms": latency[90],
        "cpu_ms_per_op": median(cpu),
    }
    detail = {
        "ops_per_s": summary(throughput),
        "cpu_ms_per_op": summary(cpu),
        "latency": rule,
        "timed_seconds": sum(r.wall for r in rounds),
    }
    return values, detail


def end_to_end(measured: Measured, setup_seconds: list[float], durable: bool) -> tuple[dict[str, float], dict]:
    """All end-to-end metrics of an untraced pass (the listed ones and, where
    they apply, the unlisted ones), and the detail behind the medians."""
    rounds, tally = measured.rounds, measured.tally
    values, detail = timings(rounds)
    values.update({
        "setup_s": median(setup_seconds),
        "pages_per_op": sum(r.pages for r in rounds) / sum(len(r.latencies) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": tally.failed / tally.attempted,
        "answer_rel_err_max": tally.rel_err_max,
    })
    if durable:
        values.update(write_side(measured))
    detail["setup_s"] = summary(setup_seconds)
    detail["machine_speed_factor"] = calibrate.speed_factor(measured.calibration)
    return values, detail


def write_side(measured: Measured) -> dict[str, float]:
    """The metrics only a durable store has, from ``measure_cycles`` samples."""
    extra = measured.extra
    user_bytes = extra["acked_rows"] * USER_BYTES_PER_ROW
    reopen = [a + b for a, b in zip(extra["recover_ms"], extra["first_query_ms"])]
    return {
        "ingest_rows_per_s": median([n / s for n, s in zip(extra["ingest_rows"], extra["ingest_s"])]),
        "checkpoint_p50_ms": median(extra["checkpoint_ms"]),
        "reopen_first_answer_ms": median(reopen),
        "disk_bytes_per_user_byte": extra["disk_bytes"] / user_bytes,
        "streaming.maintenance.maintain_ms": median(extra["maintain_ms"]),
        "streaming.maintenance.refits": float(extra["refits"]),
        "persist.store.bytes_written_per_ingested_byte":
            extra["bytes_written"] / (extra["ingested_rows"] * USER_BYTES_PER_ROW),
        "persist.store.recover_ms": median(extra["recover_ms"]),
        "persist.store.first_query_ms": median(extra["first_query_ms"]),
    }


LAYER_SPANS = ("db.sql.parse", "core.snapshot.pin", "core.planner.plan", "core.approx.answer",
               "db.sql.execute")
SELF_FRAC_NAMES = dict(zip(LAYER_SPANS, (
    "db.sql.parse_self_frac", "core.snapshot.pin_self_frac", "core.planner.plan_self_frac",
    "core.approx.answer_self_frac", "db.sql.execute_self_frac")))


def workload_layers(measured: Measured, recorder: SpanRecorder) -> dict[str, float]:
    """The per-layer metrics that are a property of this workload's own ops."""
    tally, cache = measured.tally, measured.cache
    values = {
        **timings(measured.rounds)[0],
        "failed_frac": tally.failed / tally.attempted,
        "answer_rel_err_max": tally.rel_err_max,
        "core.planner.model_route_frac": tally.model_served / tally.attempted,
        "core.planner.verified_frac": tally.verified / max(tally.model_served, 1),
        "core.approx.fallback_frac": tally.fallbacks / max(tally.eligible, 1),
    }
    pooled = [latency for r in measured.rounds for latency in r.latencies]
    values["core.system.query_p99_ms"] = percentile(pooled, 99) * 1e3
    for layer, name in (("sql", "db.sql.plan_cache_hit_frac"), ("planner", "core.planner.plan_cache_hit_frac")):
        lookups = cache[layer]["hits"] + cache[layer]["misses"]
        values[name] = cache[layer]["hits"] / lookups if lookups else 0.0
    untraced_ops = len(pooled)
    values["obs.plan_cache_invalidations"] = (
        (cache["sql"]["invalidations"] + cache["planner"]["misses"]) * 1000.0 / untraced_ops)
    total_ops = untraced_ops + sum(len(r.latencies) for r in measured.traced_rounds)
    values["obs.flight.rows_per_query"] = measured.telemetry_rows / total_ops
    values["perf.machine_speed_factor"] = calibrate.speed_factor(measured.calibration)
    values["perf.trace_overhead_frac"] = (
        median([r.wall for r in measured.traced_rounds]) / median([r.wall for r in measured.rounds]) - 1.0)

    # Layer separation from the spans.  Audit ops (the ones with a verify
    # span) are left out of the shares: they are 5 % of ops but most of the
    # time, and would hide where a normal op spends its own.
    spans = recorder.spans
    audited = {s[4] for s in spans if s[0] == "core.planner.verify"}
    normal = {s[4] for s in spans if s[0] == "op"} - audited
    own = recorder.self_time_by_name(normal)
    layered = sum(own.get(name, 0.0) for name in LAYER_SPANS)
    for span_name, metric in SELF_FRAC_NAMES.items():
        values[metric] = own.get(span_name, 0.0) / layered
    durations = recorder.duration_by_name()
    replayed = sum(sum(durations.get(name, ())) for name in LAYER_SPANS + ("core.planner.verify",))
    queried = sum(durations["query"])
    values["core.system.unattributed_frac"] = (queried - replayed) / queried
    return values
