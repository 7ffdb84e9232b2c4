"""Per-layer probes against a shared fixture, timed from outside the program.

The driver wants every per-layer metric from every workload's traced run, so
the metrics that are not a property of one workload's op list (spec source
``fixture``) are timed here, against databases built by the very generators
and builders the workloads use, at the same seed.  Each probe times one named
public call; nothing here reaches into private state.
"""

from __future__ import annotations

import copy
import gc
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import datagen
import floor
import oracle
import workloads
from datagen import Scale
from spec import EXACT_TOLERANCE, FSYNC
from stats import median
from trace import SpanRecorder
from workloads import CONTRACTS, USER_BYTES_PER_ROW

from repro import LawsDatabase
from repro.core.model_store import ModelStore
from repro.db.sql import parse
from repro.db.table import Table
from repro.obs import Tracer
from repro.persist import WriteAheadLog, read_table_segments, write_table_segments
from repro.persist.warehouse import restore_store, serialize_store


def per_call(fn: Callable[[], Any], number: int, repeat: int = 5) -> float:
    """Median over ``repeat`` of the mean seconds of ``number`` back-to-back calls."""
    samples = []
    for _ in range(repeat):
        begin = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - begin) / number)
    return median(samples)


def _first(ops: list[datagen.Op], kind: str, contract: str = "budget") -> datagen.Op:
    return next(op for op in ops if op.kind == kind and op.contract == contract)


def serving_layers(seed: int, scale: Scale, out: dict[str, float]) -> None:
    """parse / pin / plan / route / model evaluation on the ``serve_model`` fixture,
    then the obs-on twin for the observability price."""
    data = datagen.serve_data(seed, scale)
    ops = datagen.serve_ops(seed, scale, adhoc=False)
    db = workloads.build_serve(data, observability=False)
    fits = []
    for _ in range(3):
        trial = LawsDatabase(observability=False)
        trial.register_table(Table.from_numpy("readings", workloads.SERVE_SCHEMA, data))
        begin = perf_counter()
        trial.fit("readings", "y ~ linear(x)", group_by="g")
        fits.append(perf_counter() - begin)
    del trial
    out["core.harvester.fit_ms"] = median(fits) * 1e3
    workloads.run_round(db, ops)

    texts = sorted({op.sql for op in ops})
    point, rng_op, grouped = _first(ops, "point"), _first(ops, "range"), _first(ops, "grouped")
    budget = CONTRACTS["budget"]
    database, planner = db.database, db.planner

    out["db.sql.parse_warm_us"] = per_call(lambda: database.parse_sql(point.sql), 2000) * 1e6
    out["db.sql.parse_cold_us"] = per_call(lambda: [parse(text) for text in texts], 1, repeat=3) / len(texts) * 1e6

    statements = [(text, database.parse_sql(text)) for text in texts]
    samples = []
    for _ in range(3):
        database.clear_plan_cache()
        begin = perf_counter()
        for text, statement in statements:
            database.executor.plan_statement(text, statement)
        samples.append((perf_counter() - begin) / len(statements))
    out["db.sql.plan_cold_us"] = median(samples) * 1e6

    out["core.snapshot.pin_warm_us"] = per_call(db.snapshot, 2000) * 1e6
    planner.plan(point.sql, budget, for_execution=True)
    out["core.planner.plan_warm_us"] = per_call(
        lambda: planner.plan(point.sql, budget, for_execution=True), 2000) * 1e6
    fresh = [op.sql for op in datagen.serve_ops(seed + 1, scale, adhoc=True)]
    begin = perf_counter()
    for text in fresh:
        planner.plan(text, budget, for_execution=True)
    out["core.planner.plan_cold_us"] = (perf_counter() - begin) / len(fresh) * 1e6

    engine = db.approx
    out["core.approx.point_us"] = per_call(lambda: engine.answer(point.sql, allow_fallback=False), 200) * 1e6
    out["core.approx.range_ms"] = per_call(lambda: engine.answer(rng_op.sql, allow_fallback=False), 10) * 1e3
    out["core.approx.grouped_ms"] = per_call(lambda: engine.answer(grouped.sql, allow_fallback=False), 5) * 1e3
    answer = engine.answer(rng_op.sql, allow_fallback=False)
    out["core.planner.verify_ms"] = per_call(lambda: planner.feedback.verify(rng_op.sql, answer), 3) * 1e3

    store = db.models

    def lookup() -> None:
        store.grouped_candidates("readings", "y", ("g",))
        store.candidates("readings", "y", required_inputs=("g", "x"))

    out["core.model_store.lookup_us"] = per_call(lookup, 1000) * 1e6
    model = store.best_model("readings", "y")
    rows = min(16_384, scale.serve_rows)
    inputs = {"x": data["x"][:rows]}
    keys = [data["g"][:rows].tolist()]
    out["fitting.predict_rows_per_s"] = rows / per_call(lambda: model.predict_rows(inputs, keys), 1, repeat=3)

    # Warehouse restore at three populations: the one captured model's
    # payload replicated under fresh ids, so only the count varies.
    payload = serialize_store(store)
    entry = payload["models"][0]
    for population in (10, 100, 1000):
        models = []
        for offset in range(population):
            clone = copy.deepcopy(entry) if offset < 2 else dict(entry)
            clone["model_id"] = 1_000_000 + offset
            models.append(clone)
        crowd = {**payload, "models": models}
        begin = perf_counter()
        restored = restore_store(crowd, ModelStore())
        elapsed = perf_counter() - begin
        if len(restored) != population:
            raise RuntimeError(f"warehouse restore returned {len(restored)} of {population} models")
        out[f"persist.warehouse.restore_ms_per_model.{population}"] = elapsed / population * 1e3

    # The price of observability: the same op list on the obs-on twin,
    # rounds interleaved so drift in machine speed hits both sides.
    twin = workloads.build_serve(data, observability=True)
    part = ops[: max(len(ops) // 2, 1)]
    workloads.run_round(twin, part)
    ratios = []
    for _ in range(3):
        gc.collect()
        off = workloads.run_round(db, part).wall
        gc.collect()
        on = workloads.run_round(twin, part).wall
        ratios.append(on / off)
    out["obs.overhead_frac"] = median(ratios) - 1.0
    begin = perf_counter()
    twin.flush_telemetry()
    out["obs.flight.flush_ms"] = (perf_counter() - begin) * 1e3

    tracer = Tracer()

    def span_pair() -> None:
        with tracer.trace("probe"):
            with tracer.span("child"):
                pass

    out["obs.tracer.span_us"] = per_call(span_pair, 2000) * 1e6


def operator_layers(seed: int, scale: Scale, out: dict[str, float]) -> None:
    """Operator classes on ``fact``/``dim``, their NumPy floors, and the same
    classes after partitioning (pruning, fan-out, dispatch)."""
    data = datagen.scan_data(seed, scale)
    ops = datagen.scan_ops(seed, scale)
    truths = oracle.scan_truths(data, ops)
    serial = workloads.build_scan(data, None)
    sharded = workloads.build_scan(data, scale.partitions)
    sharded.obs.journal.enabled = True  # the only place degraded shards are counted
    classes = {op.kind: op for op in ops}
    for db in (serial, sharded):
        workloads.run_round(db, list(classes.values()))

    serial_ms: dict[str, float] = {}
    for kind, op in classes.items():
        serial_ms[kind] = per_call(lambda: serial.database.sql(op.sql), 1, repeat=3) * 1e3
        out[f"db.operators.{kind}_ms"] = serial_ms[kind]
    for kind in floor.FLOORS:
        op = classes[kind]
        result = floor.run(kind, data, op.params)
        if not floor.matches(result, truths[op.sql], EXACT_TOLERANCE):
            raise RuntimeError(f"NumPy floor for {kind} disagrees with the oracle")
        floor_ms = per_call(lambda: floor.run(kind, data, op.params), 1, repeat=3) * 1e3
        out[f"db.operators.{kind}_floor_ratio"] = serial_ms[kind] / floor_ms
        sharded_ms = per_call(lambda: sharded.database.sql(op.sql), 1, repeat=3) * 1e3
        out[f"parallel.fanout_speedup.{kind}"] = serial_ms[kind] / sharded_ms

    ranged = classes["range_count"].sql
    pages = [db.database.sql(ranged).io["pages_read"] for db in (serial, sharded)]
    out["parallel.pruned_pages_frac"] = 1.0 - pages[1] / pages[0]
    tasks = [lambda: None] * scale.partitions
    pool = sharded.parallel.pool
    out["parallel.dispatch_us_per_task"] = per_call(lambda: pool.run_tasks(tasks), 20) / len(tasks) * 1e6
    out["parallel.degraded_count"] = float(len(sharded.events(kind="parallel-degraded")))


def storage_layers(seed: int, scale: Scale, workdir: Path, out: dict[str, float]) -> workloads.Measured:
    """WAL, snapshot segments and in-memory ingest on the ``stream`` fixture;
    returns a short traced ``ingest_durable`` run for the write-side metrics."""
    cycles = 3
    plan = datagen.stream_plan(seed, scale, cycles)
    inputs = workloads.Inputs("ingest_durable", plan.base, plan.cycles[0][0].queries,
                              oracle.StreamTruths(plan), plan.digest, plan)
    batches = [batch for cycle in plan.cycles for batch in cycle]
    rows = sum(len(batch.rows) for batch in batches)

    memory = workloads.build_stream(plan.base, None)
    begin = perf_counter()
    for batch in batches:
        memory.ingest("stream", batch.rows)
        memory.flush_ingest()
    out["streaming.ingest.rows_per_s_mem"] = rows / (perf_counter() - begin)

    shutil.rmtree(workdir, ignore_errors=True)
    wal = WriteAheadLog(workdir / "probe.wal", fsync=FSYNC)
    try:
        records = [{"op": "append", "table": "stream", "rows": [list(row) for row in batch.rows]}
                   for batch in batches[:8]]
        begin = perf_counter()
        for record in records:
            wal.append(record)
        out["persist.wal.append_us_per_batch"] = (perf_counter() - begin) / len(records) * 1e6
        logged = sum(len(record["rows"]) for record in records)
        out["persist.wal.bytes_per_user_byte"] = wal.size_bytes / (logged * USER_BYTES_PER_ROW)
        begin = perf_counter()
        replay = wal.replay()
        elapsed = perf_counter() - begin
        if len(replay.records) != len(records):
            raise RuntimeError(f"WAL replay returned {len(replay.records)} of {len(records)} records")
        out["persist.wal.replay_rows_per_s"] = logged / elapsed
    finally:
        wal.close()

    table = memory.table("stream")
    megabytes = table.byte_size() / 1e6
    begin = perf_counter()
    entries = write_table_segments(workdir / "segments", table)
    out["persist.snapshot.write_mb_per_s"] = megabytes / (perf_counter() - begin)
    begin = perf_counter()
    loaded = read_table_segments(workdir / "segments", "stream", table.schema, entries)
    out["persist.snapshot.read_mb_per_s"] = megabytes / (perf_counter() - begin)
    if loaded.num_rows != table.num_rows:
        raise RuntimeError("snapshot segments lost rows")

    store_dir = workdir / "cycles"
    db = workloads.setup(inputs, scale, store_dir)
    measured, db = workloads.measure_cycles(db, inputs, scale, store_dir, SpanRecorder())
    db.close()
    out["core.snapshot.pin_cold_us"] = median(measured.extra["pin_cold_us"])
    return measured


def run(seed: int, scale: Scale, workdir: Path) -> tuple[dict[str, float], workloads.Measured]:
    """Every ``fixture`` metric, plus the short durable run other workloads
    report their write-side metrics from."""
    out: dict[str, float] = {}
    serving_layers(seed, scale, out)
    gc.collect()
    operator_layers(seed, scale, out)
    gc.collect()
    durable = storage_layers(seed, scale, workdir, out)
    return out, durable
