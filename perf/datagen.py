"""Seeded inputs: the arrays loaded into the program and the op lists run on it.

Everything is generated from ``--seed`` before any clock starts; the program
under test only ever sees the generated arrays, row tuples and SQL text.
The seed moves data values, which texts are drawn and the op order — never
the number of ops per class, so cost per round is the same for every seed
and runs at different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  ``FULL`` is what BENCHMARK.json measures."""

    serve_rows: int = 200_000
    serve_groups: int = 64
    serve_xs: int = 16
    #: class -> (ops per round, of which audited).  10 audits in 200 ops is
    #: the deterministic stand-in for the library's 5 % verify sample.  The
    #: shares put both percentiles inside a class and away from its noisy
    #: upper tail: p50 is a point lookup (77 % of ops), and with 5 % audits
    #: and 7.5 % unaudited grouped ops above everything else, p90 is the
    #: lower third of the grouped class — not the knee between two classes,
    #: where one delayed op would move it by a factor of two.
    serve_mix: dict = field(default_factory=lambda: {"point": (154, 7), "range": (30, 2), "grouped": (16, 1)})
    #: distinct texts per class on the repeated-text workloads (42 < 128).
    serve_pool: dict = field(default_factory=lambda: {"point": 32, "range": 8, "grouped": 2})
    scan_rows: int = 500_000
    dim_rows: int = 1_000
    #: ops of each of the five scan classes per round.
    scan_per_class: int = 2
    partitions: int = 8
    stream_rows: int = 100_000
    stream_groups: int = 16
    stream_xs: int = 8
    batch_rows: int = 2_048
    batches_per_cycle: int = 10
    tail_batches: int = 2
    #: ingest_durable does a fixed number of cycles per requested second (the
    #: table grows with every cycle, so a time-bounded loop would make page
    #: counts and medians depend on machine speed).
    cycles_per_second: float = 1.25
    min_rounds: int = 3
    max_rounds: int = 10_000


FULL = Scale()
SMOKE = Scale(
    serve_rows=4_000, serve_groups=8, serve_xs=8,
    serve_mix={"point": (40, 2), "range": (8, 1), "grouped": (2, 1)},
    serve_pool={"point": 8, "range": 4, "grouped": 2},
    scan_rows=20_000, dim_rows=100, scan_per_class=1, partitions=4,
    stream_rows=4_000, stream_groups=4, stream_xs=4, batch_rows=256,
    batches_per_cycle=2, tail_batches=1, cycles_per_second=1.0,
    min_rounds=2, max_rounds=2,
)


class Op(NamedTuple):
    kind: str
    sql: str
    #: key into ``workloads.CONTRACTS``: "budget", "audit" or "exact".
    contract: str
    #: what the oracle needs to compute the truth (never shown to the program).
    params: tuple


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def ops_hash(ops: list[Op]) -> str:
    payload = json.dumps([[op.kind, op.sql, op.contract] for op in ops], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- serve_* -------------------------------------------------------------------


def serve_data(seed: int, scale: Scale) -> dict[str, np.ndarray]:
    """``readings``: y = 1 + 2g + 0.7x + N(0, 0.1), one linear law per group."""
    rng = _rng(seed, 10)
    g = rng.integers(0, scale.serve_groups, scale.serve_rows)
    x = rng.integers(0, scale.serve_xs, scale.serve_rows)
    y = 1.0 + 2.0 * g + 0.7 * x + rng.normal(0.0, 0.1, scale.serve_rows)
    return {"g": g, "x": x, "y": y}


def serve_ops(seed: int, scale: Scale, adhoc: bool) -> list[Op]:
    """One round of the serving mix.

    ``adhoc=False``: texts cycle through a small pool, so every cache is
    warm after the first pass.  ``adhoc=True``: every op of the round has its
    own text (distinct (g, x) pairs; a per-op perturbed range literal), so a
    round is a sequential flood of 200 keys through 128-entry LRUs — always
    cold, round after round.
    """
    rng = _rng(seed, 11 if adhoc else 12)
    xs = scale.serve_xs
    ops: list[Op] = []

    count, audited = scale.serve_mix["point"]
    distinct = count if adhoc else scale.serve_pool["point"]
    pairs = rng.permutation(scale.serve_groups * xs)[:distinct]
    for i in range(count):
        g, x = divmod(int(pairs[i % distinct]), xs)
        ops.append(Op("point", f"SELECT y FROM readings WHERE g = {g} AND x = {x}",
                      "audit" if i < audited else "budget", (g, x)))

    count, audited = scale.serve_mix["range"]
    starts = rng.permutation(xs - 2)[: scale.serve_pool["range"]]
    for i in range(count):
        lo = int(starts[i % len(starts)])
        hi = f"{lo + 2 + 1e-4 * (i + 1):.4f}" if adhoc else str(lo + 2)
        ops.append(Op("range", f"SELECT avg(y) FROM readings WHERE x BETWEEN {lo} AND {hi}",
                      "audit" if i < audited else "budget", (lo, lo + 2)))

    count, audited = scale.serve_mix["grouped"]
    for i in range(count):
        if adhoc:
            lo, where = 0, f" WHERE x BETWEEN 0 AND {xs - 1 + 1e-4 * (i + 1):.4f}"
        else:
            lo = i % scale.serve_pool["grouped"]
            where = f" WHERE x BETWEEN {lo} AND {xs - 1}" if lo else ""
        ops.append(Op("grouped", f"SELECT g, avg(y) FROM readings{where} GROUP BY g",
                      "audit" if i < audited else "budget", (lo, xs - 1)))

    return [ops[i] for i in rng.permutation(len(ops))]


# -- scan_* ----------------------------------------------------------------------


def scan_data(seed: int, scale: Scale) -> dict[str, np.ndarray]:
    """``fact`` (k, x, ts = row number) and ``dim`` (k2, w)."""
    rng = _rng(seed, 20)
    return {
        "k": rng.integers(0, scale.dim_rows, scale.scan_rows),
        "x": rng.normal(10.0, 5.0, scale.scan_rows),
        "ts": np.arange(scale.scan_rows, dtype=np.int64),
        "k2": np.arange(scale.dim_rows, dtype=np.int64),
        "w": rng.normal(0.0, 1.0, scale.dim_rows),
    }


def scan_ops(seed: int, scale: Scale) -> list[Op]:
    """One round: the five exact classes in equal shares, order from the seed."""
    lo, hi = scale.scan_rows // 5, scale.scan_rows // 5 + scale.scan_rows * 2 // 25
    classes = [
        Op("scan_filter", "SELECT count(*), sum(x) FROM fact WHERE x > 10.0", "exact", (10.0,)),
        Op("group_by", "SELECT k, count(*), sum(x), avg(x), min(x), max(x) FROM fact GROUP BY k",
           "exact", ()),
        Op("join", "SELECT count(*), sum(x) FROM fact JOIN dim ON k = k2 WHERE w > 0", "exact", ()),
        Op("range_count", f"SELECT count(*) FROM fact WHERE ts BETWEEN {lo} AND {hi}", "exact", (lo, hi)),
        Op("topn", "SELECT ts, x FROM fact ORDER BY x DESC LIMIT 10", "exact", (10,)),
    ]
    ops = classes * scale.scan_per_class
    return [ops[i] for i in _rng(seed, 21).permutation(len(ops))]


# -- ingest_durable -----------------------------------------------------------------


class Batch(NamedTuple):
    rows: list[tuple]
    #: the queries issued right after this batch is flushed.
    queries: list[Op]


class StreamPlan(NamedTuple):
    base: dict[str, np.ndarray]
    #: all rows in arrival order (base first), for the oracle.
    arrays: dict[str, np.ndarray]
    #: per cycle: the ``batches_per_cycle`` query-bearing batches, then the WAL-tail batches.
    cycles: list[list[Batch]]
    #: issued right after every reopen: a point lookup (the first answer) and
    #: the exact row count, which must equal the rows acknowledged so far.
    reopen_queries: list[Op]
    digest: str


def stream_plan(seed: int, scale: Scale, cycles: int) -> StreamPlan:
    """``stream`` seeded with a stationary grouped linear law, then batches.

    After every flushed batch: two point lookups, one range aggregate (all
    under the 0.05 budget) and one exact ``count(*)``.
    """
    rng = _rng(seed, 30)
    per_cycle = scale.batches_per_cycle + scale.tail_batches
    total = scale.stream_rows + cycles * per_cycle * scale.batch_rows
    g = rng.integers(0, scale.stream_groups, total)
    x = rng.integers(0, scale.stream_xs, total)
    y = 1.0 + 2.0 * g + 0.7 * x + rng.normal(0.0, 0.1, total)
    arrays = {"g": g, "x": x, "y": y}
    base = {name: values[: scale.stream_rows] for name, values in arrays.items()}

    xs = scale.stream_xs
    points = [
        Op("point", f"SELECT y FROM stream WHERE g = {gg} AND x = {xx}", "budget", (gg, xx))
        for gg, xx in (divmod(int(p), xs) for p in rng.permutation(scale.stream_groups * xs)[:8])
    ]
    ranges = [
        Op("range", f"SELECT avg(y) FROM stream WHERE x BETWEEN {lo} AND {lo + 2}", "budget", (lo, lo + 2))
        for lo in range(xs - 2)
    ]
    count = Op("count", "SELECT count(*) FROM stream", "exact", ())

    digest = hashlib.sha256()
    plan: list[list[Batch]] = []
    cursor = scale.stream_rows
    serial = 0
    for _ in range(cycles):
        batches = []
        for b in range(per_cycle):
            stop = cursor + scale.batch_rows
            rows = list(zip(g[cursor:stop].tolist(), x[cursor:stop].tolist(), y[cursor:stop].tolist()))
            digest.update(y[cursor:stop].tobytes())
            cursor = stop
            queries: list[Op] = []
            if b < scale.batches_per_cycle:
                queries = [
                    points[(2 * serial) % len(points)],
                    points[(2 * serial + 1) % len(points)],
                    ranges[serial % len(ranges)],
                    count,
                ]
                queries = [queries[i] for i in rng.permutation(4)]
                serial += 1
            digest.update(ops_hash(queries).encode("ascii"))
            batches.append(Batch(rows, queries))
        plan.append(batches)
    return StreamPlan(base, arrays, plan, [points[0], count], digest.hexdigest())
