"""The benchmark's fixed vocabulary: workloads, metrics, bounds, and who moves what.

Everything a later PR may cite by name lives here.  ``BENCHMARK.json`` at the
repository root is generated from this module (``python3 perf/spec.py`` prints
it; ``perf/test_perf.py`` checks the committed file against it), so the names
exist in exactly one place.

``BENCHMARK.json`` can carry only name/unit/better/bound per metric, and the
driver wants *every* listed metric from *every* workload.  The richer tables
here add the end-to-end metrics that cannot be listed there and, per layer
metric, the module it belongs to, the public call that is timed and the
end-to-end metric @ workload it is expected to move.
"""

from __future__ import annotations

import fnmatch
import json
import sys
from dataclasses import dataclass

DEFAULT_SEED = 20260928
#: Seconds one driver run measures.  The driver makes 4 + 22 x 6 runs inside
#: 3420 s, i.e. ~25 s per run *including* interpreter start (~1.7 s of
#: imports) and 2.5 s of timed set-ups, which is what caps this at 10.
RUN_SECONDS = 10
#: Flush policy of the durable store under test (the library default).
FSYNC = False
#: A served value further than this from the oracle fails the op
#: (the AccuracyContract every model-eligible op carries).
ERROR_BUDGET = 0.05
#: Exact workloads must match the oracle to this relative tolerance
#: (float summation order differs between NumPy, the engine and Chan merges).
EXACT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "serve_model",
        "42 repeated texts, smaller than the three 128-entry caches: model routes with warm "
        "caches; fixed parse/pin/plan/route overhead sets p50, model evaluation sets p90",
    ),
    Workload(
        "serve_adhoc",
        "same data and model but 200 distinct texts per round, larger than every 128-entry "
        "cache: each op pays cold parse and cold plan; where folding the caches wins or loses",
    ),
    Workload(
        "scan_exact",
        "exact contract over a fact table and a dimension: SQL executor and operators do all "
        "the work, the serving path is bypassed; distance to the NumPy floor is measured here",
    ),
    Workload(
        "scan_partitioned",
        "byte-identical data and ops to scan_exact after an 8-way range partition: isolates "
        "pruning, fan-out, partial aggregates and merges; wall and CPU time diverge here",
    ),
    Workload(
        "serve_obs_on",
        "the serve_model op list byte for byte with the library default observability=True: "
        "the pair is the price of leaving tracer, ledger, SLOs and flight recorder on",
    ),
    Workload(
        "ingest_durable",
        "writes beside reads on a durable store: every flush bumps the catalog version so "
        "queries pay cold pin and plan; the only workload touching WAL, checkpoint and recovery",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: relative worsening of the median that counts as a regression.
    bound: float
    meaning: str
    #: the workloads that report it (a glob over the workload names).
    applies: str = "*"
    #: a count, or a value the seeded inputs fix: it repeats exactly for a
    #: seed, so compare.py pairs the runs by seed and looks at no spread.
    exact: bool = False

    def workloads(self) -> list[str]:
        return fnmatch.filter(WORKLOAD_NAMES, self.applies)


#: The end-to-end metrics BENCHMARK.json lists and the driver bounds: the ones
#: every workload reports, that are never 0, and that hold their bound on this
#: machine (the two ten-run sets in perf/README.md).  ``setup_s`` is required
#: by the driver and carries the bound its observed spread supports.
#: ``pages_per_op`` repeats exactly and its bound is the issue's 0, which is
#: what compare.py holds it to; BENCHMARK.json lists LEAST_LISTED_BOUND for it.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "register tables, fit, partition/open store, one warm-up pass; median of 5-9 set-ups"),
    EndToEnd("pages_per_op", "pages", "lower", 0.0,
             "simulated pages_read / ops over the timed part, audits included; the zero-IO economics",
             exact=True),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "ru_maxrss when the untraced pass ends; each workload runs in a fresh process"),
)

#: A bound of 0 might be refused as no bound at all, so the file never lists less.
LEAST_LISTED_BOUND = 0.01

#: The issue's other ten end-to-end metrics, with the issue's bounds.  The
#: untraced pass reports them under ``extra``, the full run prints them with
#: the workload's end-to-end block and compare.py gives each a verdict, but
#: BENCHMARK.json cannot list them, so the driver sees them as per-layer
#: metrics of the traced pass (PER_LAYER below):
#: * the four timings are raw wall-clock and CPU time, and on this 2-vCPU
#:   sandbox no number of rounds brings ten runs within 0.10 (the machine runs
#:   1.3-1.5x slower for minutes at a time), which by the issue's rule demotes
#:   them;
#: * ``failed_frac`` is 0 by acceptance and the error max is 0 on exact
#:   workloads, and a listed metric may never be 0;
#: * the write side exists only where there is a durable store, and a listed
#:   metric must come from every workload.
UNLISTED_END_TO_END = (
    EndToEnd("ops_per_s", "1/s", "higher", 0.10,
             "completed ops / round wall time, closed loop, one client; median over rounds"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.10,
             "median op latency (per-round percentile, median over rounds, when a round has >= 100 ops)"),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.10,
             "90th percentile op latency, same pooling rule"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.10,
             "process CPU time / ops over the timed part; shows fan-out that buys wall time with CPU"),
    EndToEnd("failed_frac", "ratio", "lower", 0.0,
             "ops that raised, were refused or failed the oracle check / ops attempted", exact=True),
    EndToEnd("answer_rel_err_max", "ratio", "lower", 0.10,
             "max relative error of any served value vs the oracle", exact=True),
    EndToEnd("ingest_rows_per_s", "rows/s", "higher", 0.10,
             "acknowledged rows / time inside ingest()+flush_ingest(); median over cycles", "ingest_durable"),
    EndToEnd("checkpoint_p50_ms", "ms", "lower", 0.10,
             "median checkpoint() wall time over the cycles", "ingest_durable"),
    EndToEnd("reopen_first_answer_ms", "ms", "lower", 0.10,
             "open() on checkpoint + WAL tail through the first answered query; median over cycles",
             "ingest_durable"),
    EndToEnd("disk_bytes_per_user_byte", "ratio", "lower", 0.10,
             "bytes under the store directory at the end / (rows x 24 B)", "ingest_durable", exact=True),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: "workload" = measured on the workload's own database and op list;
    #: "fixture" = timed against the shared probe fixture (perf/probes.py):
    #: the same generators and builders at the same seed, in every workload.
    source: str
    #: the public call that is timed (or the counter that is read).
    call: str
    #: which end-to-end metric it should move, on which workloads, written
    #: "metric @ workload, workload; metric @ workload" (globs allowed).  It
    #: should move nothing anywhere else.  Empty = moves nothing (see note).
    moves: str
    note: str = ""

    def targets(self) -> list[tuple[str, str]]:
        """``moves`` expanded to (end-to-end metric, workload) pairs."""
        pairs = []
        for clause in filter(None, (c.strip() for c in self.moves.split(";"))):
            metrics, _, where = clause.partition("@")
            for metric in (m.strip() for m in metrics.split(",")):
                for pattern in (w.strip() for w in where.split(",")):
                    matched = fnmatch.filter(WORKLOAD_NAMES, pattern)
                    if not matched:
                        raise ValueError(f"{self.name}: no workload matches {pattern!r}")
                    pairs.extend((metric, workload) for workload in matched)
        return pairs


W, F = "workload", "fixture"
PER_LAYER = (
    # -- the unlisted end-to-end metrics (see UNLISTED_END_TO_END) ----------------
    Layer("ops_per_s", "1/s", "higher", W, "LawsDatabase.query, ops / round wall time", "",
          "end to end; from the untraced rounds of the traced pass"),
    Layer("latency_p50_ms", "ms", "lower", W, "LawsDatabase.query, median latency", "", "end to end"),
    Layer("latency_p90_ms", "ms", "lower", W, "LawsDatabase.query, 90th percentile latency", "", "end to end"),
    Layer("cpu_ms_per_op", "ms", "lower", W, "time.process_time() delta / ops", "", "end to end"),
    Layer("failed_frac", "ratio", "lower", W, "oracle check of every answer", "",
          "must be 0 on every workload"),
    Layer("answer_rel_err_max", "ratio", "lower", W, "max relative error vs the oracle", "",
          "<= 0.05 on serve_* and ingest_durable, <= 1e-9 on scan_*"),
    Layer("ingest_rows_per_s", "rows/s", "higher", W, "ingest()+flush_ingest() with WAL framing",
          "cpu_ms_per_op @ ingest_durable"),
    Layer("checkpoint_p50_ms", "ms", "lower", W, "LawsDatabase.checkpoint()",
          "cpu_ms_per_op @ ingest_durable"),
    Layer("reopen_first_answer_ms", "ms", "lower", W, "LawsDatabase.open() through the first answer",
          "cpu_ms_per_op @ ingest_durable"),
    Layer("disk_bytes_per_user_byte", "ratio", "lower", W, "bytes under the store / (rows x 24 B)", "",
          "space; trades against reopen_first_answer_ms and write amplification"),
    # -- core.system -----------------------------------------------------------------
    Layer("core.system.import_ms", "ms", "lower", W, "import repro (numpy and scipy included)", "",
          "cold-start cost a process pays before setup_s starts"),
    Layer("core.system.query_p99_ms", "ms", "lower", W, "LawsDatabase.query", "",
          "informational tail; p99 has too few samples beyond it to bound"),
    Layer("core.system.unattributed_frac", "ratio", "lower", W,
          "(query span - sum of replayed layer spans) / query span", "",
          "sanity: > 0.15 @ serve_model means the replay misses a stage"),
    # -- self-time shares of the replayed lifecycle (non-audit ops; sum to 1) ---------
    Layer("db.sql.parse_self_frac", "ratio", "lower", W, "Database.parse_sql",
          "latency_p50_ms @ serve_adhoc"),
    Layer("core.snapshot.pin_self_frac", "ratio", "lower", W, "LawsDatabase.snapshot",
          "latency_p50_ms @ serve_model, ingest_durable"),
    Layer("core.planner.plan_self_frac", "ratio", "lower", W, "UnifiedPlanner.plan",
          "latency_p50_ms @ serve_adhoc, ingest_durable"),
    Layer("core.approx.answer_self_frac", "ratio", "lower", W, "ApproximateQueryEngine.answer",
          "latency_p50_ms, latency_p90_ms @ serve_*"),
    Layer("db.sql.execute_self_frac", "ratio", "lower", W, "Database.sql",
          "ops_per_s @ scan_*", ">= 0.8 on scan_exact, <= 0.05 on serve_model"),
    # -- db.sql ------------------------------------------------------------------------
    Layer("db.sql.parse_warm_us", "us", "lower", F, "Database.parse_sql on a cached text",
          "latency_p50_ms @ serve_model, serve_obs_on"),
    Layer("db.sql.parse_cold_us", "us", "lower", F, "repro.db.sql.parse",
          "latency_p50_ms @ serve_adhoc"),
    Layer("db.sql.plan_cold_us", "us", "lower", F, "SQLExecutor.plan_statement after clear_plan_cache()",
          "latency_p90_ms @ serve_adhoc; latency_p50_ms @ ingest_durable"),
    Layer("db.sql.plan_cache_hit_frac", "ratio", "higher", W, "Database.plan_cache_info() delta",
          "ops_per_s @ serve_model, serve_adhoc", "only audits and exact ops reach the SQL plan cache"),
    # -- core.snapshot / core.planner ------------------------------------------------------
    Layer("core.snapshot.pin_warm_us", "us", "lower", F, "LawsDatabase.snapshot() memo hit",
          "latency_p50_ms @ serve_model"),
    Layer("core.snapshot.pin_cold_us", "us", "lower", F, "snapshot() right after a flushed batch",
          "latency_p50_ms @ ingest_durable"),
    Layer("core.planner.plan_warm_us", "us", "lower", F, "UnifiedPlanner.plan(for_execution=True), cached",
          "latency_p50_ms @ serve_model"),
    Layer("core.planner.plan_cold_us", "us", "lower", F, "UnifiedPlanner.plan, new text",
          "latency_p50_ms @ serve_adhoc, ingest_durable"),
    Layer("core.planner.plan_cache_hit_frac", "ratio", "higher", W, "UnifiedPlanner.plan_cache_info() delta",
          "latency_p50_ms @ serve_*",
          ">= 0.95 on serve_model, <= 0.05 on serve_adhoc; low on serve_obs_on is a finding"),
    Layer("core.planner.model_route_frac", "ratio", "higher", W, "ops with a model route_taken / ops",
          "pages_per_op @ serve_*", "exact repeat"),
    Layer("core.planner.verify_ms", "ms", "lower", F, "ObservedErrorFeedback.verify",
          "ops_per_s @ serve_model", "not p50/p90: audits are 5 % of ops"),
    Layer("core.planner.verified_frac", "ratio", "lower", W, "audits run / model-served ops",
          "ops_per_s, pages_per_op @ serve_*", "must equal 0.05 there"),
    # -- core.approx / model store / fitting / harvester -------------------------------------
    Layer("core.approx.point_us", "us", "lower", F, "ApproximateQueryEngine.answer, point route",
          "latency_p50_ms @ serve_*"),
    Layer("core.approx.range_ms", "ms", "lower", F, "ApproximateQueryEngine.answer, range-aggregate route",
          "latency_p90_ms @ serve_*"),
    Layer("core.approx.grouped_ms", "ms", "lower", F, "ApproximateQueryEngine.answer, grouped-model route",
          "ops_per_s @ serve_model"),
    Layer("core.approx.fallback_frac", "ratio", "lower", W, "exact-fallback answers / model-eligible ops",
          "pages_per_op @ serve_*", "wasted route attempts"),
    Layer("core.model_store.lookup_us", "us", "lower", F, "ModelStore.grouped_candidates + candidates",
          "latency_p50_ms @ serve_model"),
    Layer("fitting.predict_rows_per_s", "rows/s", "higher", F, "CapturedModel.predict_rows on 16384 rows",
          "latency_p90_ms @ serve_model"),
    Layer("core.harvester.fit_ms", "ms", "lower", F, "LawsDatabase.fit, 64 groups",
          "setup_s @ serve_*; latency_p90_ms @ ingest_durable", "the latter only when maintain() refits"),
    # -- db.operators -----------------------------------------------------------------------
    Layer("db.operators.scan_filter_ms", "ms", "lower", F, "Database.sql, scan_filter class",
          "ops_per_s, latency_p50_ms @ scan_exact; ops_per_s @ serve_model", "also inside every audit"),
    Layer("db.operators.group_by_ms", "ms", "lower", F, "Database.sql, group_by class",
          "ops_per_s, latency_p50_ms @ scan_exact"),
    Layer("db.operators.join_ms", "ms", "lower", F, "Database.sql, join class",
          "ops_per_s, latency_p90_ms @ scan_exact"),
    Layer("db.operators.range_count_ms", "ms", "lower", F, "Database.sql, range_count class",
          "ops_per_s @ scan_exact"),
    Layer("db.operators.topn_ms", "ms", "lower", F, "Database.sql, topn class",
          "latency_p90_ms @ scan_exact"),
    Layer("db.operators.scan_filter_floor_ratio", "ratio", "lower", F, "class time / flatnonzero+sum floor",
          "ops_per_s @ scan_exact", "remaining headroom; replaces speedup_vs_seed"),
    Layer("db.operators.group_by_floor_ratio", "ratio", "lower", F, "class time / bincount+reduceat floor",
          "ops_per_s @ scan_exact", "remaining headroom"),
    Layer("db.operators.join_floor_ratio", "ratio", "lower", F, "class time / searchsorted floor",
          "ops_per_s @ scan_exact", "remaining headroom"),
    # -- parallel --------------------------------------------------------------------------------
    Layer("parallel.pruned_pages_frac", "ratio", "higher", F,
          "1 - pages(partitioned)/pages(unpartitioned) on range_count",
          "pages_per_op, latency_p50_ms @ scan_partitioned"),
    Layer("parallel.fanout_speedup.scan_filter", "ratio", "higher", F, "unpartitioned ms / partitioned ms",
          "ops_per_s, cpu_ms_per_op @ scan_partitioned", "cpu_ms_per_op moves the other way"),
    Layer("parallel.fanout_speedup.group_by", "ratio", "higher", F, "unpartitioned ms / partitioned ms",
          "ops_per_s, cpu_ms_per_op @ scan_partitioned"),
    Layer("parallel.fanout_speedup.join", "ratio", "higher", F, "unpartitioned ms / partitioned ms",
          "ops_per_s, latency_p90_ms @ scan_partitioned"),
    Layer("parallel.dispatch_us_per_task", "us", "lower", F, "WorkerPool.run_tasks over no-op tasks",
          "latency_p50_ms @ scan_partitioned"),
    Layer("parallel.degraded_count", "count", "lower", F, "parallel-degraded journal events", "",
          "must be 0"),
    # -- streaming -----------------------------------------------------------------------------------
    Layer("streaming.ingest.rows_per_s_mem", "rows/s", "higher", F,
          "ingest()+flush_ingest() on an in-memory database, same batches",
          "cpu_ms_per_op @ ingest_durable", "upper bound for ingest_rows_per_s"),
    Layer("streaming.maintenance.maintain_ms", "ms", "lower", W, "LawsDatabase.maintain()",
          "cpu_ms_per_op @ ingest_durable"),
    Layer("streaming.maintenance.refits", "count", "lower", W, "refit actions reported by maintain()",
          "latency_p90_ms @ ingest_durable"),
    # -- persist ---------------------------------------------------------------------------------------
    Layer("persist.wal.append_us_per_batch", "us", "lower", F, "WriteAheadLog.append of one 2048-row record",
          "cpu_ms_per_op @ ingest_durable", "via ingest_rows_per_s"),
    Layer("persist.wal.bytes_per_user_byte", "ratio", "lower", F, "WriteAheadLog.size_bytes / user bytes", "",
          "space: feeds disk_bytes_per_user_byte"),
    Layer("persist.wal.replay_rows_per_s", "rows/s", "higher", F, "WriteAheadLog.replay()",
          "cpu_ms_per_op @ ingest_durable", "via reopen_first_answer_ms"),
    Layer("persist.snapshot.write_mb_per_s", "MB/s", "higher", F, "write_table_segments",
          "cpu_ms_per_op @ ingest_durable", "via checkpoint_p50_ms"),
    Layer("persist.snapshot.read_mb_per_s", "MB/s", "higher", F, "read_table_segments",
          "cpu_ms_per_op @ ingest_durable", "via reopen_first_answer_ms"),
    Layer("persist.store.bytes_written_per_ingested_byte", "ratio", "lower", W,
          "(WAL bytes + every checkpoint's bytes) / ingested bytes", "",
          "write amplification; trades against reopen_first_answer_ms and disk_bytes_per_user_byte"),
    Layer("persist.store.recover_ms", "ms", "lower", W, "LawsDatabase.open() alone",
          "cpu_ms_per_op @ ingest_durable", "via reopen_first_answer_ms"),
    Layer("persist.store.first_query_ms", "ms", "lower", W, "first query() after open()",
          "cpu_ms_per_op @ ingest_durable", "via reopen_first_answer_ms"),
    Layer("persist.warehouse.restore_ms_per_model.10", "ms", "lower", F, "restore_store, 10 models",
          "cpu_ms_per_op @ ingest_durable", "is open() linear in warehouse size?"),
    Layer("persist.warehouse.restore_ms_per_model.100", "ms", "lower", F, "restore_store, 100 models",
          "cpu_ms_per_op @ ingest_durable"),
    Layer("persist.warehouse.restore_ms_per_model.1000", "ms", "lower", F, "restore_store, 1000 models",
          "cpu_ms_per_op @ ingest_durable"),
    # -- obs ---------------------------------------------------------------------------------------------
    Layer("obs.overhead_frac", "ratio", "lower", F,
          "obs-on / obs-off round time - 1 on the serve op list, rounds interleaved",
          "ops_per_s @ serve_obs_on", "base: serve_model; moves nothing there"),
    Layer("obs.tracer.span_us", "us", "lower", F, "empty Tracer.trace + span pair",
          "latency_p50_ms @ serve_obs_on"),
    Layer("obs.flight.flush_ms", "ms", "lower", F, "LawsDatabase.flush_telemetry()",
          "latency_p90_ms @ serve_obs_on"),
    Layer("obs.flight.rows_per_query", "ratio", "lower", W, "telemetry rows minted / query",
          "latency_p90_ms, peak_rss_mb @ serve_obs_on", "0 where observability is off"),
    Layer("obs.plan_cache_invalidations", "1/1000ops", "lower", W,
          "SQL plan-cache invalidations + unified plan-cache misses, per 1000 ops",
          "latency_p50_ms @ serve_obs_on", "wasted planning"),
    # -- the harness itself ---------------------------------------------------------------------------------
    Layer("perf.machine_speed_factor", "ratio", "lower", W, "calibrate.sample() median / nominal", "",
          "how slow the machine was during the run; informational, no metric is scaled by it"),
    Layer("perf.trace_overhead_frac", "ratio", "lower", W, "traced round time / untraced round time - 1", "",
          "the harness's own cost; end-to-end numbers always come from the untraced run"),
)

#: What a full-scale traced run must show for the layers to count as
#: separated: (workload, per-layer metric, comparison, threshold).  The full
#: run prints each as held/VIOLATED; they say nothing at ``--smoke`` scale,
#: where a whole round fits in every cache.
LAYER_CHECKS = (
    ("scan_exact", "db.sql.execute_self_frac", ">=", 0.80),
    ("serve_model", "db.sql.execute_self_frac", "<=", 0.05),
    ("serve_model", "core.system.unattributed_frac", "<=", 0.15),
    ("serve_model", "core.planner.plan_cache_hit_frac", ">=", 0.95),
    ("serve_adhoc", "core.planner.plan_cache_hit_frac", "<=", 0.05),
    ("serve_model", "core.planner.verified_frac", "==", 0.05),
    ("scan_partitioned", "parallel.degraded_count", "==", 0.0),
)

def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json`` (keys fixed by the driver)."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": max(m.bound, LEAST_LISTED_BOUND)}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
