"""Compare two result files of ``perf/run.py``: ``python3 perf/compare.py A.json B.json``.

One row per workload x end-to-end metric - the ones BENCHMARK.json lists and
the unlisted ones (``spec.UNLISTED_END_TO_END``) on the workloads they apply
to: both medians with their quartiles over the runs in each file, the
relative change (positive = B is worse), the run-to-run spread, and a verdict
against the metric's bound:

``ok``          B's median is not worse than A's by more than the bound.
``regressed``   it is, and the spread is narrow enough to say so.
``unresolved``  the spread (interquartile distance / median, the wider of the
                two sides) exceeds the bound, so the files cannot tell - unless
                every run of B reads better than every run of A.

Counts and values the seeded inputs fix (``exact`` in spec.py) repeat exactly
for a seed, so their runs are paired by seed instead: "B worse by" is the
largest worsening on any seed, the spread column is empty, and the verdict is
``ok`` or ``regressed``.

Op-list digests must match run for run, and ``failed`` must be 0 on both
sides.  Exits non-zero on any ``regressed``, digest mismatch or failed op;
``--strict`` also on ``unresolved`` (the A/A acceptance check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
from stats import median, quartiles, spread  # noqa: E402


def load(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a results file, grouped by workload, in seed order."""
    grouped: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    for runs in grouped.values():
        runs.sort(key=lambda run: run["seed"])
    return grouped


def worsening(metric: spec.EndToEnd, base: float, new: float) -> float:
    """Relative worsening of ``new`` against ``base`` (negative = better)."""
    if base == new:
        return 0.0
    worse = (new - base) if metric.better == "lower" else (base - new)
    return worse / abs(base) if base else math.copysign(math.inf, worse)


def verdict(metric: spec.EndToEnd, a: list[float], b: list[float]) -> tuple[str, float, float | None]:
    """``(verdict, relative worsening of B, wider spread)`` for one metric."""
    if metric.exact:  # ``a`` and ``b`` are paired by seed
        worse_by = max(worsening(metric, base, new) for base, new in zip(a, b))
        return ("regressed" if worse_by > metric.bound else "ok"), worse_by, None
    worse_by = worsening(metric, median(a), median(b))
    wide = max(spread(a), spread(b))
    if wide > metric.bound:
        all_better = max(b) < min(a) if metric.better == "lower" else min(b) > max(a)
        return ("ok" if all_better else "unresolved"), worse_by, wide
    return ("regressed" if worse_by > metric.bound else "ok"), worse_by, wide


def compare(a_path: str, b_path: str) -> dict[str, int]:
    a_runs, b_runs = load(a_path), load(b_path)
    counts = {"ok": 0, "regressed": 0, "unresolved": 0, "mismatch": 0}
    header = f"{'workload':<17}{'metric':<25}{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}" \
             f"{'B worse by':>12}{'spread':>9}{'bound':>7}  verdict"
    print(header)
    for name in spec.WORKLOAD_NAMES:
        if name not in a_runs or name not in b_runs:
            continue
        a_side, b_side = a_runs[name], b_runs[name]
        digests_a = [(r["seed"], r["digest"]) for r in a_side]
        digests_b = [(r["seed"], r["digest"]) for r in b_side]
        failed = sum(r["failed"] for r in a_side + b_side)
        if digests_a != digests_b or failed:
            counts["mismatch"] += 1
            print(f"{name:<17}op lists differ or ops failed: digests equal={digests_a == digests_b}, "
                  f"failed ops={failed}")
        for metric in spec.END_TO_END + spec.UNLISTED_END_TO_END:
            if name not in metric.workloads():
                continue
            a = [{**r["metrics"], **r["extra"]}[metric.name]["value"] for r in a_side]
            b = [{**r["metrics"], **r["extra"]}[metric.name]["value"] for r in b_side]
            word, worse_by, wide = verdict(metric, a, b)
            counts[word] += 1
            cells = []
            for values in (a, b):
                q1, q3 = quartiles(values)
                cells.append(f"{median(values):.5g} [{q1:.5g}, {q3:.5g}]")
            shown = "by seed" if wide is None else f"{wide:.2%}"
            print(f"{name:<17}{metric.name:<25}{cells[0]:>36}{cells[1]:>36}{worse_by:>+12.2%}"
                  f"{shown:>9}{metric.bound:>7.0%}  {word}")
    print(f"\n{counts['ok']} ok, {counts['regressed']} regressed, {counts['unresolved']} unresolved, "
          f"{counts['mismatch']} workloads with differing op lists or failed ops")
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="results file of the parent (or the first A/A set)")
    parser.add_argument("b", help="results file of the change (or the second A/A set)")
    parser.add_argument("--strict", action="store_true", help="also fail on unresolved rows")
    args = parser.parse_args(argv)
    counts = compare(args.a, args.b)
    bad = counts["regressed"] + counts["mismatch"] + (counts["unresolved"] if args.strict else 0)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
