"""One end-to-end benchmark for ``LawsDatabase``.

``python3 perf/run.py [--seed N] [--workload NAME] [--smoke] [--runs N] [--out FILE]``
    The full run: every workload (or the one named), untraced then traced,
    each workload in a fresh subprocess, printing every metric by name with
    its unit and writing ``perf/out/results.json`` (``--out``).  ``--runs N``
    repeats it at seeds ``seed .. seed+N-1`` so ``perf/compare.py`` has
    medians and quartiles.  Exits non-zero if any op failed.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One pass of one workload in this process (the form BENCHMARK.json's
    driver uses; the full run starts its subprocesses this way).  The last
    line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
    and ``metrics`` - the listed end-to-end metrics with ``--trace 0``, the
    per-layer metrics with ``--trace 1``.  Given both, in that order, it runs
    both passes and prints the line of the last.  ``--out FILE`` also writes
    the full results there.  Exits non-zero if any op failed.

Run from the repository root; the program under test is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
#: setup_s is the median of at least five set-ups, and of as many more (up to
#: nine) as it takes to spend 4.5 s on them: six of the 0.75 s ones, nine of
#: the 0.2 s ones.  With three or four the median itself moved by 5-28 %
#: inside one run.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 9, 4.5

sys.path.insert(0, str(PERF_DIR))

import spec  # noqa: E402


def load_program() -> float:
    """Import the program under test from ``src/``; returns the import time in ms."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perf/run.py: nothing to measure, {package} does not exist")
    sys.path.insert(0, str(ROOT / "src"))
    begin = perf_counter()
    import repro  # noqa: F401

    return (perf_counter() - begin) * 1e3


# -- one workload in this process ------------------------------------------------------------


def enough_setups(seconds: list[float], trace: int) -> bool:
    if trace:
        return len(seconds) >= 1
    if len(seconds) < MIN_SETUPS:
        return False
    return sum(seconds) >= SETUP_BUDGET_S or len(seconds) >= MAX_SETUPS


def run_pass(args: argparse.Namespace, trace: int, import_ms: float) -> dict[str, Any]:
    """Set up, measure and check one workload: untraced (``trace=0``, the
    end-to-end metrics) or traced (``trace=1``, the per-layer metrics)."""
    import datagen
    import probes
    import report
    import workloads
    from trace import SpanRecorder

    scale = datagen.SMOKE if args.smoke else datagen.FULL
    name = args.workload
    durable = name == "ingest_durable"
    workdir = OUT_DIR / f"tmp-{name}-{os.getpid()}"
    # The traced pass also runs the fixture probes, so it replays for half the time.
    seconds = args.seconds / 2 if trace else args.seconds
    inputs = workloads.prepare(name, args.seed, scale, seconds)
    db = None
    try:
        setup_seconds: list[float] = []
        while not enough_setups(setup_seconds, trace):
            if db is not None:
                db.close()
                db = None
            gc.collect()
            begin = perf_counter()
            db = workloads.setup(inputs, scale, workdir / "store")
            setup_seconds.append(perf_counter() - begin)

        recorder = SpanRecorder() if trace else None
        if durable:
            measured, db = workloads.measure_cycles(db, inputs, scale, workdir / "store", recorder)
        else:
            measured = workloads.measure_queries(db, inputs, scale, seconds, recorder)
        db.close()
        db = None

        tally = measured.tally
        detail: dict[str, Any] = {"failures": tally.failures, "rounds": len(measured.rounds)}
        extra: tuple[spec.EndToEnd, ...] = ()
        if trace:
            fixture, short_durable = probes.run(args.seed, scale, workdir / "fixture")
            values = {
                "core.system.import_ms": import_ms,
                **fixture,
                **report.write_side(measured if durable else short_durable),
                **report.workload_layers(measured, recorder),
            }
            recorder.write(OUT_DIR / f"trace_{name}.json")
            listed = spec.PER_LAYER
            if set(values) != {m.name for m in listed}:
                raise SystemExit(f"perf/run.py: metric names drifted from spec.py: "
                                 f"{sorted(set(values) ^ {m.name for m in listed})}")
        else:
            values, timing = report.end_to_end(measured, setup_seconds, durable)
            detail.update(timing)
            listed = spec.END_TO_END
            extra = tuple(m for m in spec.UNLISTED_END_TO_END if name in m.workloads())
    finally:
        if db is not None:
            db.close()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "smoke": bool(args.smoke),
        "digest": inputs.digest,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in listed},
        "detail": detail,
    }
    if not trace:
        result["extra"] = {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in extra}
    return result


# -- the full run -------------------------------------------------------------------------------


def print_metrics(result: dict[str, Any]) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end (untraced)"
    print(f"\n== {result['workload']}  seed {result['seed']}  {kind}  ops {result['digest'][:12]}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, metric in {**result["metrics"], **result.get("extra", {})}.items():
        print(f"  {name:<52} {metric['value']:>16.6g} {metric['unit']}")
    detail = result["detail"]
    if "latency" in detail:
        rule = detail["latency"]
        print(f"  latency rule: {rule['rule']}; {rule['samples']} samples, "
              f"{rule['beyond_p90']} beyond p90, {rule['rounds']} rounds, "
              f"{detail['timed_seconds']:.1f} s inside timed queries; "
              f"machine speed factor {detail['machine_speed_factor']:.3f}")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")


def print_layer_checks(runs: list[dict[str, Any]]) -> None:
    holds = {">=": lambda v, t: v >= t, "<=": lambda v, t: v <= t, "==": lambda v, t: abs(v - t) < 1e-9}
    traced = {run["workload"]: run["metrics"] for run in runs if run["trace"]}
    print("\n== layer separation (full scale only)")
    for workload, metric, relation, threshold in spec.LAYER_CHECKS:
        if workload in traced:
            value = traced[workload][metric]["value"]
            word = "held" if holds[relation](value, threshold) else "VIOLATED"
            print(f"  {metric} @ {workload} = {value:.4g}, wanted {relation} {threshold:g}: {word}")


def launch(args: argparse.Namespace, name: str, seed: int) -> tuple[subprocess.Popen, Path]:
    """One workload, both passes, in a fresh process (peak RSS is per workload:
    it is read when the untraced pass ends, before the traced one starts)."""
    results_path = OUT_DIR / f"run-{os.getpid()}-{name}-{seed}.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0", "--trace", "1", "--out", str(results_path)]
    if args.smoke:
        command.append("--smoke")
    return subprocess.Popen(command, stdout=subprocess.DEVNULL, cwd=ROOT), results_path


def run_all(args: argparse.Namespace) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    jobs = [(name, args.seed + offset) for offset in range(args.runs) for name in names]
    # Workloads run one after another; only --smoke, which checks plumbing
    # and whose timings mean nothing, starts all of its processes at once.
    started = [launch(args, *job) for job in jobs] if args.smoke else None
    runs = []
    for index, job in enumerate(jobs):
        process, results_path = started[index] if started else launch(args, *job)
        code = process.wait()
        if not results_path.exists():  # a workload with failed ops still writes its results
            print(f"perf/run.py: {job[0]} exited with {code} and no result", file=sys.stderr)
            for other, _ in (started or [])[index + 1:]:
                other.wait()
            return code or 1
        results = json.loads(results_path.read_text())
        results_path.unlink()
        for result in results:
            print_metrics(result)
        runs.extend(results)
    payload = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
        "flush_policy": f"fsync={spec.FSYNC}",
        "client": "one process, one closed-loop client thread",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "runs": runs,
    }
    if not args.smoke:
        print_layer_checks(runs)
    out = Path(args.out or OUT_DIR / "results.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1))
    failed = sum(result["failed"] for result in runs)
    print(f"\nwrote {out}; {len(runs)} passes, {failed} failed ops")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, help="only this workload")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), action="append",
                        help="with --workload: run this pass here and print the driver's result line "
                             "(--trace 0 --trace 1 runs both)")
    parser.add_argument("--smoke", action="store_true", help="tiny tables, two rounds")
    parser.add_argument("--runs", type=int, default=1, help="full run: repeat at seed, seed+1, ...")
    parser.add_argument("--out", help="results file (full run: default perf/out/results.json)")
    args = parser.parse_args(argv)
    if not args.trace:
        return run_all(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    import_ms = load_program()
    results = [run_pass(args, trace, import_ms) for trace in args.trace]
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    for failure in (f for result in results for f in result["detail"]["failures"]):
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({key: results[-1][key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 1 if any(result["failed"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
