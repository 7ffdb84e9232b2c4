"""Self-tests of the benchmark harness: ``python -m pytest perf -q``.

Not collected by the repository's tier-1 suite (its ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import datagen  # noqa: E402
import floor  # noqa: E402
import oracle  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


# -- op lists ---------------------------------------------------------------------------


def test_equal_seeds_give_identical_op_lists_and_data():
    for name in spec.WORKLOAD_NAMES:
        first = workloads.prepare(name, 7, datagen.SMOKE, 2.0)
        again = workloads.prepare(name, 7, datagen.SMOKE, 2.0)
        other = workloads.prepare(name, 8, datagen.SMOKE, 2.0)
        assert first.digest == again.digest, name
        assert first.ops == again.ops, name
        assert all((first.data[key] == again.data[key]).all() for key in first.data), name
        assert any((first.data[key] != other.data[key]).any() for key in first.data), name
        if not name.startswith("scan_"):  # scan texts are fixed; the seed moves data and op order
            assert first.digest != other.digest, name


def test_paired_workloads_share_one_op_list():
    digest = {name: workloads.prepare(name, 7, datagen.SMOKE, 2.0).digest for name in spec.WORKLOAD_NAMES}
    assert digest["scan_exact"] == digest["scan_partitioned"]
    assert digest["serve_model"] == digest["serve_obs_on"]
    assert digest["serve_model"] != digest["serve_adhoc"]


def test_serve_mix_is_the_same_for_every_seed():
    def shape(seed, adhoc):
        ops = datagen.serve_ops(seed, datagen.FULL, adhoc)
        return sorted((op.kind, op.contract) for op in ops), len({op.sql for op in ops})

    assert shape(1, False)[0] == shape(2, False)[0] == shape(1, True)[0]
    pool = sum(datagen.FULL.serve_pool.values())
    assert shape(1, False)[1] == pool < 128 < shape(1, True)[1] == len(datagen.serve_ops(1, datagen.FULL, True))
    audits = sum(audited for _, audited in datagen.FULL.serve_mix.values())
    assert audits * 20 == sum(count for count, _ in datagen.FULL.serve_mix.values())


# -- oracle and failure accounting ---------------------------------------------------------


def _one_round(name: str, spoil=None) -> workloads.Tally:
    inputs = workloads.prepare(name, 7, datagen.SMOKE, 2.0)
    db = workloads.setup(inputs, datagen.SMOKE, PERF_DIR / "out" / "tmp-test")
    truths = dict(inputs.truths)
    if spoil is not None:
        for sql in truths:
            truths[sql] = spoil(truths[sql])
    tally = workloads.Tally()
    tally.add_round(inputs.ops, workloads.run_round(db, inputs.ops).answers, truths)
    return tally


def test_correct_answers_pass_the_oracle():
    for name in ("serve_model", "serve_adhoc", "scan_exact", "scan_partitioned"):
        tally = _one_round(name)
        assert tally.failed == 0 and tally.attempted > 0, (name, tally.failures)
    assert _one_round("scan_exact").rel_err_max <= spec.EXACT_TOLERANCE
    assert 0 < _one_round("serve_model").rel_err_max <= spec.ERROR_BUDGET


def test_a_wrong_oracle_fails_ops():
    off_by_budget = _one_round("serve_model", spoil=lambda truth: truth * (1 + 2 * spec.ERROR_BUDGET))
    assert off_by_budget.failed == off_by_budget.attempted > 0
    off_by_one = _one_round("scan_exact", spoil=lambda truth: tuple(column + 1 for column in truth))
    assert off_by_one.failed == off_by_one.attempted > 0


def test_raised_and_refused_ops_count_as_failed():
    tally = workloads.Tally()
    op = datagen.Op("point", "SELECT y FROM nowhere WHERE g = 1 AND x = 1", "budget", (1, 1))
    tally.add(op, RuntimeError("refused"), 1.0)
    tally.add(op, None, 1.0)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_floor_agrees_with_the_oracle_and_cannot_skip_work():
    data = datagen.scan_data(7, datagen.SMOKE)
    ops = datagen.scan_ops(7, datagen.SMOKE)
    truths = oracle.scan_truths(data, ops)
    for op in ops:
        if op.kind in floor.FLOORS:
            assert floor.matches(floor.run(op.kind, data, op.params), truths[op.sql], spec.EXACT_TOLERANCE)
    half = {key: values[: len(values) // 2] for key, values in data.items()}
    scan = next(op for op in ops if op.kind == "scan_filter")
    assert not floor.matches(floor.run("scan_filter", half, scan.params), truths[scan.sql], spec.EXACT_TOLERANCE)


# -- BENCHMARK.json --------------------------------------------------------------------------


def test_benchmark_json_is_generated_from_the_spec_and_valid():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    assert isinstance(committed["run_seconds"], int) and 1 <= committed["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in committed[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in committed["workloads"]:
        assert set(workload) == {"name", "why"} and 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in committed["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] <= 0.10 or metric["name"] == "setup_s"  # the issue's bound, or demoted
    for metric in committed["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])


def test_every_layer_metric_names_what_it_moves():
    end_to_end = {m.name for m in spec.END_TO_END + spec.UNLISTED_END_TO_END}
    assert len(end_to_end) == 13
    for metric in spec.PER_LAYER:
        targets = metric.targets()
        assert targets or metric.note, f"{metric.name} neither moves a metric nor says why not"
        for moved, workload in targets:
            assert moved in end_to_end, (metric.name, moved)
            assert workload in spec.WORKLOAD_NAMES, (metric.name, workload)
        assert metric.source in ("workload", "fixture")
    for metric in spec.UNLISTED_END_TO_END:  # the driver sees them as per-layer metrics
        assert metric.name in {m.name for m in spec.PER_LAYER} and metric.workloads()


def test_readme_is_a_glossary_of_every_name():
    readme = (PERF_DIR / "README.md").read_text()
    for name in [m.name for m in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOAD_NAMES):  # PER_LAYER holds the unlisted six
        assert f"`{name}`" in readme, f"perf/README.md does not explain {name}"
    assert "fsync=False" in readme


# -- compare ------------------------------------------------------------------------------------


def _results(tmp_path, name, throughput, pages=1.0, checkpoint_ms=1.0):
    """A results file of ``ingest_durable`` runs (the workload with all 13 metrics)."""
    moved = {"ops_per_s": None, "pages_per_op": pages, "checkpoint_p50_ms": checkpoint_ms}

    def block(metrics, value):
        return {m.name: {"value": moved.get(m.name, 1.0) or value, "unit": m.unit} for m in metrics}

    runs = [{"workload": "ingest_durable", "trace": 0, "seed": seed, "digest": "d", "failed": 0,
             "metrics": block(spec.END_TO_END, value), "extra": block(spec.UNLISTED_END_TO_END, value)}
            for seed, value in enumerate(throughput)]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = _results(tmp_path, "a.json", steady)
    assert compare.main([base, _results(tmp_path, "same.json", steady), "--strict"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("ingest_durable") for line in rows) == 13
    assert compare.main([base, _results(tmp_path, "slow.json", [v * 0.7 for v in steady])]) == 1
    assert "regressed" in capsys.readouterr().out
    noisy = _results(tmp_path, "noisy.json", [60.0, 140.0, 80.0, 120.0, 100.0])
    assert compare.main([base, noisy]) == 0
    assert compare.main([base, noisy, "--strict"]) == 1
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([base, _results(tmp_path, "fast.json", [v * 2 for v in steady]), "--strict"]) == 0


def test_compare_covers_the_write_side_and_pairs_exact_metrics_by_seed(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = _results(tmp_path, "a.json", steady)
    assert compare.main([base, _results(tmp_path, "ckpt.json", steady, checkpoint_ms=1.2)]) == 1
    assert "checkpoint_p50_ms" in [line.split()[1] for line in capsys.readouterr().out.splitlines()
                                   if line.endswith("regressed")]
    assert compare.main([base, _results(tmp_path, "pages.json", steady, pages=1.001)]) == 1
    assert compare.main([base, _results(tmp_path, "fewer.json", steady, pages=0.5), "--strict"]) == 0


# -- the command itself ----------------------------------------------------------------------------


def test_smoke_run_prints_every_metric_and_finishes_in_time(tmp_path):
    out = tmp_path / "smoke.json"
    begin = time.perf_counter()
    done = subprocess.run([sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - begin
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 30, f"--smoke took {elapsed:.1f} s"
    runs = json.loads(out.read_text())["runs"]
    assert [(r["workload"], r["trace"]) for r in runs] == [(n, t) for n in spec.WORKLOAD_NAMES for t in (0, 1)]
    for run in runs:
        wanted = spec.PER_LAYER if run["trace"] else spec.END_TO_END
        assert list(run["metrics"]) == [m.name for m in wanted]
        assert run["failed"] == 0 and run["correct"] and run["attempted"] >= 1
        for metric in wanted:
            assert metric.name in done.stdout and run["metrics"][metric.name]["unit"] == metric.unit
    for run in (r for r in runs if not r["trace"]):
        assert all(run["metrics"][m.name]["value"] > 0 for m in spec.END_TO_END), run["workload"]
        assert list(run["extra"]) == [m.name for m in spec.UNLISTED_END_TO_END
                                      if run["workload"] in m.workloads()]
        assert run["detail"]["rounds"] == datagen.SMOKE.max_rounds


def test_driver_form_exits_non_zero_when_an_op_failed(monkeypatch, capsys):
    import run

    failed = {"correct": False, "attempted": 2, "failed": 1, "metrics": {}, "detail": {"failures": ["SELECT 1: refused"]}}
    monkeypatch.setattr(run, "load_program", lambda: 0.0)
    monkeypatch.setattr(run, "run_pass", lambda args, trace, import_ms: failed)
    assert run.main(["--workload", "serve_model", "--trace", "0"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 1


def test_driver_form_prints_one_json_object_last():
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "ingest_durable", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    assert not any((PERF_DIR / "out").glob("tmp-*")), "the run left its scratch directory behind"
