"""Adaptive cost calibration: the planner's cost model tracks live hardware.

The planner ships with the constants of :mod:`repro.core.planner.cost` —
rates measured once on the machine the benchmarks ran on, frozen in code.
They are the calibrator's prior; it closes that gap online: every traced
exact execution leaves per-operator spans (``op:TableScan``,
``op:Aggregate``, ``op:HashJoin``) whose self time and row counts yield
observed seconds-per-row rates.  Those are folded into
bounded EWMA estimates, and when an operator's observed rate has shifted
materially away from what the planner is costing with, a fresh
:class:`~repro.core.planner.cost.CostModel` is installed through
:meth:`UnifiedPlanner.set_cost_model` — the cost model is part of the
plan-cache key, so every cached route decision costed against the stale
rates is invalidated at once.  Each recalibration is journaled
(``cost-recalibration``) and the new model carries ``adaptive:`` provenance
that ``explain()`` renders.

Bounding discipline: rates are only sampled from operators that processed
at least ``min_rows`` rows (tiny inputs measure fixed overhead, not
throughput), the EWMA needs ``min_samples`` observations before it may
recalibrate, and observed rates are clamped to a sane band so one absurd
span (a GC pause, a suspended laptop) cannot poison the planner.
"""

from __future__ import annotations

import threading
from typing import Any

from .events import EventJournal
from .metrics import MetricsRegistry

__all__ = ["CostCalibrator"]

#: Operator span-name fragments -> cost-model rate field.  A tuple of pairs
#: (not a dict) so the module stays free of mutable module-level state.
_OPERATOR_RATES = (
    ("Scan", "scan_seconds_per_row"),
    ("Aggregate", "group_by_seconds_per_row"),
    ("Join", "join_seconds_per_row"),
)

#: Clamp band for observed seconds-per-row: from "faster than any memory
#: bandwidth" to "one second per row" — anything outside is a measurement
#: artefact, not a throughput.
_MIN_RATE = 1e-10
_MAX_RATE = 1.0


class _RateEstimate:
    """Bounded EWMA of one operator's observed seconds-per-row."""

    __slots__ = ("value", "samples", "rows_seen")

    def __init__(self) -> None:
        self.value: float | None = None
        self.samples = 0
        self.rows_seen = 0.0

    def update(self, rate: float, rows: float, alpha: float) -> None:
        rate = min(max(rate, _MIN_RATE), _MAX_RATE)
        if self.value is None:
            self.value = rate
        else:
            self.value += alpha * (rate - self.value)
        self.samples += 1
        self.rows_seen += rows


class CostCalibrator:
    """Aggregates observed operator timings and recalibrates the planner."""

    def __init__(
        self,
        planner: Any,
        journal: EventJournal | None = None,
        metrics: MetricsRegistry | None = None,
        alpha: float = 0.25,
        min_rows: int = 256,
        min_samples: int = 5,
        drift_threshold: float = 0.25,
        enabled: bool = True,
    ) -> None:
        self.planner = planner
        self.journal = journal or EventJournal(enabled=False)
        self.metrics = metrics or MetricsRegistry(enabled=False)
        self.enabled = enabled
        self.alpha = alpha
        self.min_rows = min_rows
        self.min_samples = min_samples
        #: Relative shift (|observed/planned - 1|) that triggers a
        #: recalibration.  Below it the planner keeps its current model —
        #: constant re-churn would invalidate the plan cache for noise.
        self.drift_threshold = drift_threshold
        self._estimates: dict[str, _RateEstimate] = {
            field: _RateEstimate() for _, field in _OPERATOR_RATES
        }
        self._recalibrations = 0
        self._observed_traces = 0
        self._lock = threading.Lock()

    # -- observation ----------------------------------------------------------

    def observe_trace(self, root: Any) -> None:
        """Harvest per-operator rates from one completed query trace.

        Row accounting: a scan's throughput is over the rows it produced;
        blocking operators (aggregate, join) are charged per *input* row —
        the sum of their operator children's output — matching how the cost
        model predicts them.  Self time (net of children) is used so a
        parent never pays for the scan nested inside it.
        """
        if not self.enabled:
            return
        updates: list[tuple[str, float, float]] = []
        for span in root.walk():
            if not span.name.startswith("op:"):
                continue
            field = self._rate_field(span.name[3:])
            if field is None:
                continue
            rows = self._span_rows(span, field)
            if rows < self.min_rows:
                continue
            seconds = span.self_seconds
            if seconds <= 0.0:
                continue
            updates.append((field, seconds / rows, rows))
        if not updates:
            return
        with self._lock:
            self._observed_traces += 1
            for field, rate, rows in updates:
                self._estimates[field].update(rate, rows, self.alpha)
        self.maybe_recalibrate()

    @staticmethod
    def _rate_field(operator_name: str) -> str | None:
        for fragment, field in _OPERATOR_RATES:
            if fragment in operator_name:
                return field
        return None

    @staticmethod
    def _span_rows(span: Any, field: str) -> float:
        if field == "scan_seconds_per_row":
            return float(span.attributes.get("rows_out", 0) or 0)
        input_rows = sum(
            float(child.attributes.get("rows_out", 0) or 0)
            for child in span.children
            if child.name.startswith("op:")
        )
        if input_rows > 0:
            return input_rows
        return float(span.attributes.get("rows_out", 0) or 0)

    # -- recalibration --------------------------------------------------------

    def maybe_recalibrate(self) -> bool:
        """Install a fresh cost model when observed rates shifted materially.

        Returns True when a recalibration happened.  Journals the event with
        the old and new rates, increments ``cost_recalibrations_total``, and
        — through ``set_cost_model`` — invalidates every cached plan costed
        against the superseded rates.
        """
        if not self.enabled:
            return False
        # Imported lazily: ``repro.obs`` must stay importable without
        # ``repro.core`` (the planner itself imports ``repro.obs.flight``,
        # and a module-level import here would close that cycle).
        from repro.core.planner.cost import CostModel, OperatorCosts

        with self._lock:
            current = self.planner.cost_model.costs
            shifted: dict[str, tuple[float, float]] = {}
            for field, estimate in self._estimates.items():
                if estimate.value is None or estimate.samples < self.min_samples:
                    continue
                planned = getattr(current, field)
                if planned <= 0:
                    continue
                shift = abs(estimate.value / planned - 1.0)
                if shift > self.drift_threshold:
                    shifted[field] = (planned, estimate.value)
            if not shifted:
                return False
            replacements = {field: observed for field, (_, observed) in shifted.items()}
            new_costs = OperatorCosts(
                **{
                    field: replacements.get(field, getattr(current, field))
                    for field in OperatorCosts.__dataclass_fields__
                }
            )
            self._recalibrations += 1
            generation = self._recalibrations
            traces = self._observed_traces
        source = f"adaptive:gen{generation} ({traces} traced queries)"
        self.planner.set_cost_model(CostModel(new_costs, source=source))
        self.metrics.inc("cost_recalibrations_total")
        self.journal.record(
            "cost-recalibration",
            generation=generation,
            source=source,
            shifted={
                field: {"planned": planned, "observed": observed}
                for field, (planned, observed) in shifted.items()
            },
        )
        return True

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Calibration provenance and the current EWMA estimates."""
        with self._lock:
            return {
                "source": self.planner.cost_model.source,
                "recalibrations": self._recalibrations,
                "observed_traces": self._observed_traces,
                "estimates": {
                    field: {
                        "ewma_seconds_per_row": estimate.value,
                        "samples": estimate.samples,
                        "rows_seen": estimate.rows_seen,
                        "planned_seconds_per_row": getattr(
                            self.planner.cost_model.costs, field
                        ),
                    }
                    for field, estimate in self._estimates.items()
                },
            }
