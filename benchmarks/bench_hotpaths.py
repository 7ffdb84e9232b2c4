"""Hot-path micro-benchmarks for the vectorized execution core.

Measures the five hot paths the vectorization PR targets — scan+filter,
grouped aggregation, hash join, streaming ingest and repeated (plan-cached)
queries — and emits ``BENCH_hotpaths.json`` with rows/sec plus the speedup
against a faithfully reconstructed *seed* implementation (the row-at-a-time
code this PR replaced: per-element ``python_value`` column materialisation,
dict-of-python-values grouping/hashing, per-batch column re-concatenation,
and re-parse/re-plan on every query).

Usage::

    python benchmarks/bench_hotpaths.py [--rows 100000] [--output BENCH_hotpaths.json]

The emitted JSON is the committed perf baseline; CI re-runs this script and
fails when any hot path regresses more than 2x against it (see
``benchmarks/check_hotpath_regression.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.db.column import Column  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.types import python_value  # noqa: E402
from repro.streaming.ingest import StreamIngestor  # noqa: E402

ROUNDS = 3


def _best(fn, rounds: int = ROUNDS) -> float:
    """Best-of-N wall time of ``fn()`` (the least-noise estimator)."""
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best


def _seed_aggregate(function: str, values: np.ndarray):
    """The seed's one aggregate over a group's non-NULL float values."""
    if len(values) == 0:
        return None
    if function == "sum":
        return float(np.sum(values))
    if function == "avg":
        return float(np.mean(values))
    if function == "min":
        return float(np.min(values))
    if function == "max":
        return float(np.max(values))
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _seed_to_pylist(column) -> list:
    """The seed's per-element column materialisation."""
    values, validity, dtype = column.values, column.validity, column.dtype
    return [python_value(dtype, values[i], bool(validity[i])) for i in range(len(column))]


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def _build_db(rows: int, seed: int = 42) -> Database:
    rng = np.random.default_rng(seed)
    db = Database()
    db.load_dict(
        "t",
        {
            "g": [int(v) for v in rng.integers(0, 100, rows)],
            "x": [float(v) for v in rng.normal(10.0, 3.0, rows)],
        },
    )
    db.load_dict(
        "probe",
        {
            "k": [int(v) for v in rng.integers(0, rows // 2, rows)],
            "lv": [float(v) for v in rng.normal(size=rows)],
        },
    )
    build_rows = rows // 5
    db.load_dict(
        "build",
        {
            "k2": [int(v) for v in rng.integers(0, rows // 2, build_rows)],
            "rv": [float(v) for v in rng.normal(size=build_rows)],
        },
    )
    return db


# ---------------------------------------------------------------------------
# Hot paths
# ---------------------------------------------------------------------------


def bench_scan_filter(db: Database, rows: int) -> dict:
    sql = "SELECT x FROM t WHERE x > 10.0"
    result = db.query(sql)
    seconds = _best(lambda: db.query(sql))

    table = db.table("t")

    def seed_scan_filter():
        kept = []
        for value in _seed_to_pylist(table.column("x")):
            if value is not None and value > 10.0:
                kept.append(value)
        return kept

    assert len(seed_scan_filter()) == result.num_rows
    reference_seconds = _best(seed_scan_filter)
    return {
        "sql": sql,
        "rows_in": rows,
        "rows_out": result.num_rows,
        "seconds": seconds,
        "rows_per_second": rows / seconds,
        "reference": "seed row-loop scan+filter (per-element python_value)",
        "reference_seconds": reference_seconds,
        "speedup_vs_seed": reference_seconds / seconds,
    }


def bench_group_by(db: Database, rows: int) -> dict:
    sql = (
        "SELECT g, count(*) AS n, sum(x) AS s, avg(x) AS m, "
        "min(x) AS lo, max(x) AS hi, stddev(x) AS sd FROM t GROUP BY g"
    )
    result = db.query(sql)
    seconds = _best(lambda: db.query(sql))

    table = db.table("t")

    def seed_group_by():
        groups: dict = {}
        keys = _seed_to_pylist(table.column("g"))
        for i in range(table.num_rows):
            groups.setdefault(keys[i], []).append(i)
        x = table.column("x")
        out = {"g": [], "n": [], "s": [], "m": [], "lo": [], "hi": [], "sd": []}
        for key, indices in groups.items():
            subset = x.take(np.array(indices, dtype=np.int64))
            vals = subset.nonnull_numpy().astype(np.float64)
            out["g"].append(key)
            out["n"].append(len(indices))
            for name, fn in (("s", "sum"), ("m", "avg"), ("lo", "min"), ("hi", "max"), ("sd", "stddev")):
                out[name].append(_seed_aggregate(fn, vals))
        return out

    assert len(seed_group_by()["g"]) == result.num_rows
    reference_seconds = _best(seed_group_by)
    return {
        "sql": sql,
        "rows_in": rows,
        "groups": result.num_rows,
        "seconds": seconds,
        "rows_per_second": rows / seconds,
        "reference": "seed dict-loop grouped aggregate (python-value keys, per-group take)",
        "reference_seconds": reference_seconds,
        "speedup_vs_seed": reference_seconds / seconds,
    }


def bench_join(db: Database, rows: int) -> dict:
    sql = "SELECT count(*) AS n FROM probe JOIN build ON k = k2"
    matches = int(db.sql(sql).scalar())
    seconds = _best(lambda: db.query(sql))

    probe, build = db.table("probe"), db.table("build")

    def seed_join():
        hashed: dict = {}
        for i, value in enumerate(_seed_to_pylist(build.column("k2"))):
            if value is None:
                continue
            hashed.setdefault(value, []).append(i)
        left_indices, right_indices = [], []
        for i, value in enumerate(_seed_to_pylist(probe.column("k"))):
            if value is None:
                continue
            for match in hashed.get(value, ()):
                left_indices.append(i)
                right_indices.append(match)
        probe.take(np.array(left_indices, dtype=np.int64))
        build.take(np.array(right_indices, dtype=np.int64))
        return len(left_indices)

    assert seed_join() == matches
    reference_seconds = _best(seed_join)
    return {
        "sql": sql,
        "probe_rows": rows,
        "build_rows": build.num_rows,
        "matches": matches,
        "seconds": seconds,
        "rows_per_second": rows / seconds,
        "reference": "seed per-row build/probe loops (python-value keys)",
        "reference_seconds": reference_seconds,
        "speedup_vs_seed": reference_seconds / seconds,
    }


def bench_ingest(rows: int, batch_size: int = 512, seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)

    def make_rows(n):
        return list(zip(rng.normal(size=n).tolist(), rng.normal(size=n).tolist()))

    def run_ingest(row_tuples):
        db = Database()
        db.load_dict("s", {"a": [0.0], "b": [0.0]})
        ingestor = StreamIngestor(db, batch_size=batch_size)
        ingestor.submit("s", row_tuples)
        ingestor.flush("s")

    half = make_rows(rows // 2)
    full = make_rows(rows)
    t_half = _best(lambda: run_ingest(half))
    t_full = _best(lambda: run_ingest(full))

    def seed_ingest(row_tuples):
        """Seed append path: per-batch coerce loop + full re-concatenation."""
        from repro.db.types import DataType

        arrays = {
            "a": np.empty(0, dtype=np.float64),
            "b": np.empty(0, dtype=np.float64),
        }
        for start in range(0, len(row_tuples), batch_size):
            chunk = row_tuples[start : start + batch_size]
            for index, name in enumerate(("a", "b")):
                packed = [DataType.FLOAT64.coerce(row[index]) for row in chunk]
                arrays[name] = np.concatenate([arrays[name], np.array(packed, dtype=np.float64)])
        return arrays

    reference_seconds = _best(lambda: seed_ingest(full))
    return {
        "rows": rows,
        "batch_size": batch_size,
        "seconds": t_full,
        "rows_per_second": rows / t_full,
        "seconds_half_size": t_half,
        "scaling_time_ratio_2x_rows": t_full / t_half,
        "scaling_note": "O(n) amortised appends: doubling the input should at most ~double the time",
        "reference": "seed per-batch coerce loop + full column re-concatenation (O(n^2))",
        "reference_seconds": reference_seconds,
        "speedup_vs_seed": reference_seconds / t_full,
    }


def bench_repeated_query(repeats: int = 100, seed: int = 3) -> dict:
    rng = np.random.default_rng(seed)
    db = Database()
    db.load_dict(
        "small",
        {
            "g": [int(v) for v in rng.integers(0, 10, 2_000)],
            "x": [float(v) for v in rng.normal(size=2_000)],
        },
    )
    sql = "SELECT g, avg(x) AS m, count(*) AS n FROM small WHERE x > -1.0 GROUP BY g ORDER BY g"
    db.query(sql)

    def cached():
        for _ in range(repeats):
            db.query(sql)

    def uncached():
        """The seed path: every execution re-lexes, re-parses and re-plans."""
        for _ in range(repeats):
            db.clear_plan_cache()
            db.query(sql)

    seconds = _best(cached)
    reference_seconds = _best(uncached)
    info = db.plan_cache_info()
    return {
        "sql": sql,
        "repeats": repeats,
        "seconds": seconds,
        "queries_per_second": repeats / seconds,
        "rows_per_second": repeats * 2_000 / seconds,
        "plan_cache": {"hits": info["hits"], "misses": info["misses"]},
        "reference": "plan cache disabled (re-parse + re-plan per query, as in the seed)",
        "reference_seconds": reference_seconds,
        "speedup_vs_seed": reference_seconds / seconds,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(rows: int) -> dict:
    db = _build_db(rows)
    report = {
        "benchmark": "bench_hotpaths",
        "generated_by": "benchmarks/bench_hotpaths.py",
        "schema_version": 1,
        "rows": rows,
        "rounds": ROUNDS,
        "hot_paths": {
            "scan_filter": bench_scan_filter(db, rows),
            "group_by": bench_group_by(db, rows),
            "join": bench_join(db, rows),
            "ingest": bench_ingest(rows),
            "repeated_query": bench_repeated_query(),
        },
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=100_000, help="base row count (default 100k)")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    report = run(args.rows)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {args.output}")
    print(f"{'hot path':<16} {'rows/sec':>14} {'speedup vs seed':>16}")
    for name, entry in report["hot_paths"].items():
        rate = entry.get("rows_per_second", 0.0)
        print(f"{name:<16} {rate:>14,.0f} {entry['speedup_vs_seed']:>15.1f}x")
    ratio = report["hot_paths"]["ingest"]["scaling_time_ratio_2x_rows"]
    print(f"ingest scaling: 2x rows -> {ratio:.2f}x time (O(n) target ~2.0)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
