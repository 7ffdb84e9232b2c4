"""Truths computed with NumPy on the generated arrays, outside any timed region.

Exact classes must match to ``EXACT_TOLERANCE``; model-served classes must be
within the contract's ``ERROR_BUDGET`` of the exact answer over the raw rows.
A mismatch, a wrong shape, an exception or a refusal is a failed op.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from datagen import Op, StreamPlan
from spec import ERROR_BUDGET, EXACT_TOLERANCE


def _columns(answer: Any) -> list[np.ndarray]:
    table = answer.table
    return [table.column(name).to_numpy() for name in table.schema.names]


def _rel_err(got: np.ndarray | float, want: np.ndarray | float) -> float:
    got = np.atleast_1d(np.asarray(got, dtype=np.float64))
    want = np.atleast_1d(np.asarray(want, dtype=np.float64))
    if got.shape != want.shape:
        return float("inf")
    if got.size == 0:
        return 0.0
    scale = np.maximum(np.abs(want), 1e-300)
    error = np.abs(got - want) / scale
    return float(np.max(np.where(got == want, 0.0, error)))


class GroupedMeans:
    """Per-(g, x) sums and counts of ``y``: every serve truth is a slice of it."""

    def __init__(self, g: np.ndarray, x: np.ndarray, y: np.ndarray, xs: int, groups: int) -> None:
        cell = g * xs + x
        self.sums = np.bincount(cell, weights=y, minlength=groups * xs).reshape(groups, xs)
        self.counts = np.bincount(cell, minlength=groups * xs).reshape(groups, xs)

    def truth(self, op: Op) -> Any:
        if op.kind == "point":
            g, x = op.params
            return self.sums[g, x] / self.counts[g, x]
        lo, hi = op.params
        sums, counts = self.sums[:, lo : hi + 1], self.counts[:, lo : hi + 1]
        if op.kind == "range":
            return sums.sum() / counts.sum()
        if op.kind == "grouped":
            return sums.sum(axis=1) / counts.sum(axis=1)
        raise KeyError(op.kind)


def serve_truths(data: dict[str, np.ndarray], ops: list[Op], xs: int, groups: int) -> dict[str, Any]:
    means = GroupedMeans(data["g"], data["x"], data["y"], xs, groups)
    return {op.sql: means.truth(op) for op in ops}


def scan_truths(data: dict[str, np.ndarray], ops: list[Op]) -> dict[str, Any]:
    k, x, ts = data["k"], data["x"], data["ts"]
    truths: dict[str, Any] = {}
    for op in ops:
        if op.sql in truths:
            continue
        if op.kind == "scan_filter":
            mask = x > op.params[0]
            truth = (int(mask.sum()), float(x[mask].sum()))
        elif op.kind == "group_by":
            order = np.argsort(k, kind="stable")
            keys, starts = np.unique(k[order], return_index=True)
            sorted_x = x[order]
            counts = np.diff(np.append(starts, len(k)))
            sums = np.add.reduceat(sorted_x, starts)
            truth = (keys, counts, sums, sums / counts,
                     np.minimum.reduceat(sorted_x, starts), np.maximum.reduceat(sorted_x, starts))
        elif op.kind == "join":
            mask = np.isin(k, data["k2"][data["w"] > 0])
            truth = (int(mask.sum()), float(x[mask].sum()))
        elif op.kind == "range_count":
            lo, hi = op.params
            truth = (int(((ts >= lo) & (ts <= hi)).sum()),)
        elif op.kind == "topn":
            top = np.argsort(-x, kind="stable")[: op.params[0]]
            truth = (ts[top], x[top])
        else:
            raise KeyError(op.kind)
        truths[op.sql] = truth
    return truths


class StreamTruths:
    """Truth of a stream query as of the first ``n`` acknowledged rows."""

    def __init__(self, plan: StreamPlan) -> None:
        self.arrays = plan.arrays
        self._prefix: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def truth(self, op: Op, rows: int) -> float:
        if op.kind == "count":
            return float(rows)
        if op.sql not in self._prefix:
            g, x, y = self.arrays["g"], self.arrays["x"], self.arrays["y"]
            if op.kind == "point":
                mask = (g == op.params[0]) & (x == op.params[1])
            else:
                mask = (x >= op.params[0]) & (x <= op.params[1])
            self._prefix[op.sql] = (np.cumsum(np.where(mask, y, 0.0)), np.cumsum(mask))
        sums, counts = self._prefix[op.sql]
        return float(sums[rows - 1] / counts[rows - 1])


def check(op: Op, answer: Any, truth: Any) -> tuple[bool, float]:
    """``(ok, relative error)`` of one answer against its truth."""
    if isinstance(answer, BaseException) or answer is None:
        return False, float("inf")
    try:
        columns = _columns(answer)
        if op.kind in ("point", "range", "count"):
            error = _rel_err(columns[0], truth)
        elif op.kind == "grouped":
            order = np.argsort(columns[0], kind="stable")
            keys_ok = np.array_equal(columns[0][order], np.arange(len(truth)))
            error = _rel_err(columns[1][order], truth) if keys_ok else float("inf")
        elif op.kind == "group_by":
            order = np.argsort(columns[0], kind="stable")
            error = max(_rel_err(col[order], want) for col, want in zip(columns, truth))
        else:  # scan_filter, join, range_count, topn: positional
            error = max(_rel_err(col, want) for col, want in zip(columns, truth))
            if len(columns) != len(truth):
                error = float("inf")
    except Exception:  # noqa: BLE001 - a malformed answer is a failed op, not a crash
        return False, float("inf")
    budget = EXACT_TOLERANCE if op.contract == "exact" else ERROR_BUDGET
    return bool(error <= budget), error
