"""The six workloads: how each is set up, driven and checked.

One process, one closed-loop client thread: the next op is issued when the
previous one returned.  Library defaults only — no environment overrides and
no constructor knobs beyond the ones each workload is defined by.  Every
answer is kept and checked against the oracle after the round's clock stopped.
"""

from __future__ import annotations

import gc
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

import numpy as np

import calibrate
import datagen
import oracle
from datagen import Op, Scale
from spec import ERROR_BUDGET, FSYNC
from trace import SpanRecorder

from repro import AccuracyContract, LawsDatabase
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import DataType

CONTRACTS = {
    "budget": AccuracyContract(max_relative_error=ERROR_BUDGET),
    "audit": AccuracyContract(max_relative_error=ERROR_BUDGET, verify_fraction=1.0),
    "exact": AccuracyContract(mode="exact"),
}

_INT, _FLOAT = DataType.INT64, DataType.FLOAT64
SERVE_SCHEMA = Schema.of(g=_INT, x=_INT, y=_FLOAT)
FACT_SCHEMA = Schema.of(k=_INT, x=_FLOAT, ts=_INT)
DIM_SCHEMA = Schema.of(k2=_INT, w=_FLOAT)
STREAM_OPTIONS = {"observability": False, "verify_sample_fraction": 0.0}
#: Bytes of user data per ``stream``/``readings`` row (two int64 and a float64).
USER_BYTES_PER_ROW = 24


# -- building the databases ---------------------------------------------------------


def build_serve(data: dict[str, np.ndarray], observability: bool) -> LawsDatabase:
    """``readings`` plus its grouped linear model.  The 5 % audit is driven by
    the op list (``verify_fraction=1.0`` on every 20th op) so counts repeat."""
    if observability:
        db = LawsDatabase(verify_sample_fraction=0.0)  # observability: library default (on)
    else:
        db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    db.register_table(Table.from_numpy("readings", SERVE_SCHEMA, data))
    db.fit("readings", "y ~ linear(x)", group_by="g")
    return db


def build_scan(data: dict[str, np.ndarray], partitions: int | None) -> LawsDatabase:
    db = LawsDatabase(observability=False)
    db.register_table(Table.from_numpy("fact", FACT_SCHEMA, data))
    db.register_table(Table.from_numpy("dim", DIM_SCHEMA, data))
    if partitions:
        db.partition_table("fact", partitions, by="ts", scheme="range")
    return db


def build_stream(base: dict[str, np.ndarray], path: Path | None) -> LawsDatabase:
    """``stream`` with its watched grouped model; durable when ``path`` is given.
    No sampled audits: the library's 5 % sample is random, and page counts
    must repeat exactly."""
    if path is None:
        db = LawsDatabase(**STREAM_OPTIONS)
    else:
        db = LawsDatabase.open(path, fsync=FSYNC, **STREAM_OPTIONS)
    db.register_table(Table.from_numpy("stream", SERVE_SCHEMA, base))
    db.fit("stream", "y ~ linear(x)", group_by="g")
    db.watch("stream", "y")
    return db


# -- one round of queries -------------------------------------------------------------


@dataclass
class Round:
    wall: float
    cpu: float
    pages: float
    latencies: list[float]
    answers: list[Any]


def _pages(db: LawsDatabase) -> float:
    # One client thread, so the global accountant's delta is this round's IO
    # (audit scans and worker-pool shards included).
    return db.database.io_snapshot()["pages_read"]


def run_round(db: LawsDatabase, ops: list[Op]) -> Round:
    calls = [(op.sql, CONTRACTS[op.contract]) for op in ops]
    answers: list[Any] = [None] * len(calls)
    latencies = [0.0] * len(calls)
    query = db.query
    pages = _pages(db)
    cpu = process_time()
    started = perf_counter()
    for i, (sql, contract) in enumerate(calls):
        begin = perf_counter()
        try:
            answers[i] = query(sql, contract)
        except Exception as exc:  # noqa: BLE001 - a raised or refused op is a failed op
            answers[i] = exc
        latencies[i] = perf_counter() - begin
    wall = perf_counter() - started
    return Round(wall, process_time() - cpu, _pages(db) - pages, latencies, answers)


def run_traced_round(db: LawsDatabase, ops: list[Op], recorder: SpanRecorder, first_op_id: int) -> Round:
    """The same ops, each replayed layer by layer and then issued for real.

    The replay walks the public layer calls in the order
    ``UnifiedPlanner._execute_scoped`` uses them; the real ``query`` runs as
    a sibling span, so what the replay cannot see shows as unattributed time.
    """
    answers: list[Any] = [None] * len(ops)
    latencies = [0.0] * len(ops)
    planner, database = db.planner, db.database
    pages = _pages(db)
    cpu = process_time()
    started = perf_counter()
    for i, op in enumerate(ops):
        sql, contract = op.sql, CONTRACTS[op.contract]
        span = None
        with recorder.span("op", first_op_id + i):
            try:
                with recorder.span("replay"):
                    with recorder.span("db.sql.parse"):
                        statement = database.parse_sql(sql)
                    with recorder.span("core.snapshot.pin"):
                        pinned = db.snapshot()
                    with pinned.reading(database.catalog, db.models):
                        with recorder.span("core.planner.plan"):
                            plan = planner.plan(sql, contract, for_execution=True)
                        if plan.is_model_route or contract.mode == "approx":
                            with recorder.span("core.approx.answer"):
                                approx = db.approx.answer(
                                    sql,
                                    allow_fallback=contract.allow_exact_fallback,
                                    statement=statement,
                                    grouped_route_plan=plan.sketch.grouped_plan if plan.sketch else None,
                                )
                            if approx.used_model_ids and planner.feedback.should_verify(contract):
                                with recorder.span("core.planner.verify"):
                                    planner.feedback.verify(sql, approx)
                        else:
                            with recorder.span("db.sql.execute"):
                                database.sql(sql)
                with recorder.span("query") as span:
                    answers[i] = db.query(sql, contract)
            except Exception as exc:  # noqa: BLE001
                answers[i] = exc
        if span is not None:
            begin, end = recorder.spans[span.index][1:3]
            latencies[i] = end - begin
    wall = perf_counter() - started
    return Round(wall, process_time() - cpu, _pages(db) - pages, latencies, answers)


# -- checking answers ---------------------------------------------------------------------


@dataclass
class Tally:
    """Failure and route accounting over every checked answer."""

    attempted: int = 0
    failed: int = 0
    rel_err_max: float = 0.0
    model_served: int = 0
    verified: int = 0
    eligible: int = 0
    fallbacks: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, op: Op, answer: Any, truth: Any) -> None:
        ok, error = oracle.check(op, answer, truth)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.sql}: {answer!r:.200}" if isinstance(answer, BaseException)
                                     else f"{op.sql}: relative error {error:.3g}")
        elif error > self.rel_err_max:
            self.rel_err_max = error
        if op.contract != "exact":
            self.eligible += 1
        if isinstance(answer, BaseException) or answer is None:
            return
        if not answer.is_exact:
            self.model_served += 1
        if answer.feedback is not None:
            self.verified += 1
        if answer.route_taken == "exact-fallback":
            self.fallbacks += 1

    def add_round(self, ops: list[Op], answers: list[Any], truths: dict[str, Any]) -> None:
        for op, answer in zip(ops, answers):
            self.add(op, answer, truths[op.sql])


# -- prepared inputs -------------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything generated from the seed before a clock starts."""

    workload: str
    data: dict[str, np.ndarray]
    ops: list[Op]
    truths: Any
    digest: str
    plan: datagen.StreamPlan | None = None


def stream_cycles(scale: Scale, seconds: float) -> int:
    return min(scale.max_rounds, max(scale.min_rounds, round(seconds * scale.cycles_per_second)))


def prepare(workload: str, seed: int, scale: Scale, seconds: float) -> Inputs:
    if workload in ("serve_model", "serve_obs_on", "serve_adhoc"):
        data = datagen.serve_data(seed, scale)
        ops = datagen.serve_ops(seed, scale, adhoc=workload == "serve_adhoc")
        truths = oracle.serve_truths(data, ops, scale.serve_xs, scale.serve_groups)
        return Inputs(workload, data, ops, truths, datagen.ops_hash(ops))
    if workload in ("scan_exact", "scan_partitioned"):
        data = datagen.scan_data(seed, scale)
        ops = datagen.scan_ops(seed, scale)
        return Inputs(workload, data, ops, oracle.scan_truths(data, ops), datagen.ops_hash(ops))
    if workload == "ingest_durable":
        plan = datagen.stream_plan(seed, scale, stream_cycles(scale, seconds))
        warm_up = plan.cycles[0][0].queries
        return Inputs(workload, plan.base, warm_up, oracle.StreamTruths(plan), plan.digest, plan)
    raise KeyError(f"unknown workload {workload!r}")


def store_path(workdir: Path) -> Path:
    return workdir / "perf.lawsdb"


def setup(inputs: Inputs, scale: Scale, workdir: Path) -> LawsDatabase:
    """Everything before the first timed op: build, then one warm-up pass."""
    name = inputs.workload
    if name in ("serve_model", "serve_adhoc"):
        db = build_serve(inputs.data, observability=False)
    elif name == "serve_obs_on":
        db = build_serve(inputs.data, observability=True)
    elif name == "scan_exact":
        db = build_scan(inputs.data, None)
    elif name == "scan_partitioned":
        db = build_scan(inputs.data, scale.partitions)
    else:
        shutil.rmtree(workdir, ignore_errors=True)
        db = build_stream(inputs.data, store_path(workdir))
    run_round(db, inputs.ops)
    return db


# -- measuring ---------------------------------------------------------------------------------


@dataclass
class Measured:
    #: untraced rounds (query workloads) or cycles (ingest_durable).
    rounds: list[Round]
    #: the same ops replayed under the span recorder (traced runs only).
    traced_rounds: list[Round]
    tally: Tally
    #: hits/misses/invalidations of both plan caches over the untraced rounds.
    cache: dict[str, dict[str, int]]
    #: reference-kernel timings, one before each round (see calibrate.py).
    calibration: list[float]
    telemetry_rows: int = 0
    #: write-side samples of ingest_durable (empty elsewhere).
    extra: dict[str, Any] = field(default_factory=dict)


def _cache_info(db: LawsDatabase) -> dict[str, dict[str, int]]:
    return {"sql": db.database.plan_cache_info(), "planner": db.planner.plan_cache_info()}


class _CacheDelta:
    """Accumulates plan-cache counter movement across the untraced rounds only."""

    def __init__(self) -> None:
        self.total = {"sql": {"hits": 0, "misses": 0, "invalidations": 0},
                      "planner": {"hits": 0, "misses": 0}}

    def run_round(self, db: LawsDatabase, ops: list[Op]) -> Round:
        before = _cache_info(db)
        result = run_round(db, ops)
        after = _cache_info(db)
        for layer, counters in self.total.items():
            for key in counters:
                counters[key] += after[layer][key] - before[layer][key]
        return result


def telemetry_rows(db: LawsDatabase) -> int:
    db.flush_telemetry()
    return sum(db.table(name).num_rows for name in db.table_names() if name.startswith("_telemetry_"))


def measure_queries(
    db: LawsDatabase,
    inputs: Inputs,
    scale: Scale,
    seconds: float,
    recorder: SpanRecorder | None = None,
) -> Measured:
    """Rounds over the same op list until ``seconds`` of timed work are done.

    With a ``recorder`` every untraced round is followed by a traced one over
    the same ops, so both sets of numbers come from one process and one
    database and the difference between them is the tracing overhead.
    """
    tally = Tally()
    rounds: list[Round] = []
    traced: list[Round] = []
    cache = _CacheDelta()
    calibration: list[float] = []
    rows_before = telemetry_rows(db)
    spent = 0.0
    while len(rounds) < scale.max_rounds and (spent < seconds or len(rounds) < scale.min_rounds):
        gc.collect()
        calibration.append(calibrate.sample())
        rounds.append(cache.run_round(db, inputs.ops))
        if recorder is not None:
            gc.collect()
            traced.append(run_traced_round(db, inputs.ops, recorder, len(traced) * len(inputs.ops)))
        for done in (rounds[-1], traced[-1]) if recorder is not None else (rounds[-1],):
            spent += done.wall
            tally.add_round(inputs.ops, done.answers, inputs.truths)
            done.answers = []
    return Measured(rounds, traced, tally, cache.total, calibration, telemetry_rows(db) - rows_before)


def timed_ingest(db: LawsDatabase, batch: datagen.Batch) -> float:
    begin = perf_counter()
    db.ingest("stream", batch.rows)
    db.flush_ingest()
    return perf_counter() - begin


def tree_bytes(path: Path) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def measure_cycles(
    db: LawsDatabase,
    inputs: Inputs,
    scale: Scale,
    workdir: Path,
    recorder: SpanRecorder | None = None,
) -> tuple[Measured, LawsDatabase]:
    """Write-beside-read cycles on the durable store.

    Per cycle: ``batches_per_cycle`` x [ingest + flush, then 4 queries],
    ``maintain()``, ``checkpoint()``, a WAL tail of more batches, ``close()``
    without checkpoint, ``open()``, first query, and an exact ``count(*)``
    that must equal the rows acknowledged so far (the oracle's truth for that
    op).  A cycle is one "round":
    wall time and latencies cover its query ops, CPU time the whole cycle.
    With a ``recorder`` every second cycle is traced.  Returns the database
    of the last reopen so the caller can close it.
    """
    plan = inputs.plan
    path = store_path(workdir)
    truths: oracle.StreamTruths = inputs.truths
    tally = Tally()
    rounds: list[Round] = []
    traced: list[Round] = []
    cache = _CacheDelta()
    samples: dict[str, list[float]] = {
        key: [] for key in ("ingest_s", "ingest_rows", "maintain_ms", "checkpoint_ms", "recover_ms",
                            "first_query_ms", "pin_cold_us")
    }
    acked = scale.stream_rows
    refits = written = op_id = 0
    calibration: list[float] = []

    for index, cycle in enumerate(plan.cycles):
        trace_this = recorder is not None and index % 2 == 1
        calibration.append(calibrate.sample())
        cpu = process_time()
        wall = pages = ingest_s = 0.0
        latencies: list[float] = []

        for batch in cycle[: scale.batches_per_cycle]:
            ingest_s += timed_ingest(db, batch)
            acked += len(batch.rows)
            if trace_this:
                first_span = len(recorder.spans)
                result = run_traced_round(db, batch.queries, recorder, op_id)
                op_id += len(batch.queries)
                pin = next(s for s in recorder.spans[first_span:] if s[0] == "core.snapshot.pin")
                samples["pin_cold_us"].append((pin[2] - pin[1]) * 1e6)
            else:
                result = cache.run_round(db, batch.queries)
            wall += result.wall
            pages += result.pages
            latencies.extend(result.latencies)
            for op, answer in zip(batch.queries, result.answers):
                tally.add(op, answer, truths.truth(op, acked))

        begin = perf_counter()
        report = db.maintain()
        samples["maintain_ms"].append((perf_counter() - begin) * 1e3)
        refits += sum(action.kind in ("refit", "segmented") for action in report.actions)
        written += db.durable.wal.size_bytes
        begin = perf_counter()
        db.checkpoint()
        samples["checkpoint_ms"].append((perf_counter() - begin) * 1e3)
        written += tree_bytes(path)

        for batch in cycle[scale.batches_per_cycle:]:
            ingest_s += timed_ingest(db, batch)
            acked += len(batch.rows)
        samples["ingest_s"].append(ingest_s)
        samples["ingest_rows"].append(sum(len(batch.rows) for batch in cycle))
        written += db.durable.wal.size_bytes
        db.close()  # no checkpoint: the next open() replays the WAL tail

        begin = perf_counter()
        db = LawsDatabase.open(path, fsync=FSYNC, **STREAM_OPTIONS)
        samples["recover_ms"].append((perf_counter() - begin) * 1e3)
        reopened = run_round(db, plan.reopen_queries)
        samples["first_query_ms"].append(reopened.latencies[0] * 1e3)
        for op, answer in zip(plan.reopen_queries, reopened.answers):
            tally.add(op, answer, truths.truth(op, acked))
        (traced if trace_this else rounds).append(Round(wall, process_time() - cpu, pages, latencies, []))

    ingested = acked - scale.stream_rows
    extra = {
        **samples,
        "refits": refits,
        "acked_rows": acked,
        "ingested_rows": ingested,
        "bytes_written": written,
        "disk_bytes": tree_bytes(path),
    }
    return Measured(rounds, traced, tally, cache.total, calibration, extra=extra), db
