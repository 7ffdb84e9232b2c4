"""Sampling-based approximate query answering (BlinkDB-style baseline).

§1 of the paper names sampling as one of the two established approaches to
approximate query answering: "only a subset of data is used to answer a
time-critical query ... predicting the extent of these errors is well
understood."  This baseline implements uniform and stratified row sampling
with the classic scale-up estimators and central-limit error bounds, so the
benchmarks can compare captured models against the approach they claim to
beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approx.error_bounds import ErrorEstimate
from repro.db.table import Table
from repro.errors import ApproximationError

__all__ = ["SampleEstimate", "UniformSampler", "StratifiedSampler"]


@dataclass(frozen=True)
class SampleEstimate:
    """An aggregate estimated from a sample, with its standard error."""

    function: str
    value: float
    standard_error: float
    sample_rows: int
    total_rows: int

    @property
    def error(self) -> ErrorEstimate:
        return ErrorEstimate(value=self.value, standard_error=self.standard_error)


class UniformSampler:
    """Uniform row sampling over a table."""

    def __init__(self, table: Table, fraction: float, seed: int = 0) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ApproximationError("sampling fraction must be in (0, 1]")
        self.table = table
        self.fraction = fraction
        self.seed = seed
        self._sample = self._draw()

    def _draw(self) -> Table:
        rng = np.random.default_rng(self.seed)
        n = self.table.num_rows
        size = max(1, int(round(n * self.fraction)))
        indices = rng.choice(n, size=min(size, n), replace=False)
        return self.table.take(np.sort(indices))

    @property
    def sample(self) -> Table:
        return self._sample

    def sample_bytes(self) -> int:
        """Storage footprint of the materialised sample (the budget knob)."""
        return self._sample.byte_size()

    # -- estimators -----------------------------------------------------------------

    def estimate(self, function: str, column: str, predicate_mask: np.ndarray | None = None) -> SampleEstimate:
        """Estimate ``function(column)`` over the full table from the sample.

        ``predicate_mask`` optionally restricts the sample rows (the caller
        evaluates the predicate on the sample table).
        """
        function = function.lower()
        values = self._sample.column(column).nonnull_numpy().astype(np.float64)
        validity = self._sample.column(column).validity
        if predicate_mask is not None:
            mask = np.asarray(predicate_mask, dtype=bool)
            values = self._sample.column(column).to_numpy().astype(np.float64)[mask & validity]
        n_sample = len(values)
        n_total = self.table.num_rows
        scale = 1.0 / self.fraction

        if n_sample == 0:
            return SampleEstimate(function, float("nan"), float("inf"), 0, n_total)

        std = float(np.std(values, ddof=1)) if n_sample > 1 else 0.0
        if function == "avg":
            return SampleEstimate(function, float(np.mean(values)), std / np.sqrt(n_sample), n_sample, n_total)
        if function == "sum":
            estimate = float(np.sum(values)) * scale
            se = std * np.sqrt(n_sample) * scale
            return SampleEstimate(function, estimate, se, n_sample, n_total)
        if function == "count":
            estimate = n_sample * scale
            # Binomial standard error on the matching fraction, scaled up.
            p = n_sample / max(len(self._sample.column(column).to_pylist()), 1)
            se = float(np.sqrt(max(p * (1 - p), 0.0) * self.table.num_rows / self.fraction))
            return SampleEstimate(function, estimate, se, n_sample, n_total)
        if function == "min":
            return SampleEstimate(function, float(np.min(values)), std, n_sample, n_total)
        if function == "max":
            return SampleEstimate(function, float(np.max(values)), std, n_sample, n_total)
        raise ApproximationError(f"unsupported sample estimator {function!r}")


class StratifiedSampler:
    """Stratified sampling: a fixed number of rows per group (BlinkDB's trick
    for making rare groups answerable)."""

    def __init__(self, table: Table, group_column: str, rows_per_group: int, seed: int = 0) -> None:
        if rows_per_group < 1:
            raise ApproximationError("rows_per_group must be at least 1")
        self.table = table
        self.group_column = group_column
        self.rows_per_group = rows_per_group
        self.seed = seed
        self._sample, self._group_sizes = self._draw()

    def _draw(self) -> tuple[Table, dict]:
        rng = np.random.default_rng(self.seed)
        keys = self.table.column(self.group_column).to_pylist()
        by_group: dict = {}
        for index, key in enumerate(keys):
            by_group.setdefault(key, []).append(index)
        chosen: list[int] = []
        group_sizes: dict = {}
        for key, indices in by_group.items():
            group_sizes[key] = len(indices)
            if len(indices) <= self.rows_per_group:
                chosen.extend(indices)
            else:
                chosen.extend(rng.choice(indices, size=self.rows_per_group, replace=False).tolist())
        return self.table.take(np.array(sorted(chosen), dtype=np.int64)), group_sizes

    @property
    def sample(self) -> Table:
        return self._sample

    def sample_bytes(self) -> int:
        return self._sample.byte_size()

    def estimate_group_avg(self, value_column: str) -> dict:
        """Per-group AVG estimates (each group estimated from its own rows)."""
        keys = self._sample.column(self.group_column).to_pylist()
        values = self._sample.column(value_column).to_numpy().astype(np.float64)
        validity = self._sample.column(value_column).validity
        sums: dict = {}
        counts: dict = {}
        for key, value, valid in zip(keys, values, validity):
            if not valid:
                continue
            sums[key] = sums.get(key, 0.0) + float(value)
            counts[key] = counts.get(key, 0) + 1
        return {key: sums[key] / counts[key] for key in sums if counts.get(key)}
