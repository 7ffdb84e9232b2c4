"""Adaptive cost calibration: observed operator timings retune the planner.

The convergence test is the PR's acceptance scenario: the static BENCH
calibration believes exact execution is fast, an (injected) slow clock
makes the *observed* per-row rates hundreds of times worse, and after
enough traced queries the calibrator installs an adaptive cost model that
flips the AUTO route decision from exact to model serving — with the
recalibration journaled and the provenance visible in ``explain()``.
"""

import pytest

from repro import LawsDatabase
from repro.core.planner.cost import CostModel, OperatorCosts
from repro.obs.calibration import CostCalibrator
from repro.obs.trace import Span


class SkewedClock:
    """A monotonic clock advancing a fixed step per reading.

    Span timing does ``start = clock(); ...; elapsed = clock() - start``,
    so every span appears to take at least one step — orders of magnitude
    above the microseconds the BENCH calibration predicts per row.
    """

    def __init__(self, step: float) -> None:
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _build_db(groups: int = 200, rows_per_group: int = 10) -> LawsDatabase:
    db = LawsDatabase(verify_sample_fraction=0.0)
    n = groups * rows_per_group
    db.load_dict(
        "t",
        {
            "g": [i % groups for i in range(n)],
            "x": [float(i // groups) for i in range(n)],
            "y": [10.0 * (i % groups) + 2.0 * (i // groups) for i in range(n)],
        },
    )
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted
    return db


SQL = "SELECT g, avg(y) AS m FROM t GROUP BY g"


class TestConvergence:
    def test_skewed_timings_flip_the_route_decision(self):
        db = _build_db()
        # Under AUTO with no error budget the decision is pure predicted
        # cost: ~200 model evaluations cost more than a 2000-row exact
        # pipeline under the built-in rates, so exact wins.
        first = db.query(SQL)
        assert first.plan.cost_source == "builtin-defaults"
        assert first.route_taken == "exact"

        # Skew the observed world: every span reading advances 50ms, so the
        # traced scan/aggregate rates come out ~350x worse than planned.
        db.obs.tracer.clock = SkewedClock(step=0.05)
        calibrator = db.obs.calibration
        for _ in range(calibrator.min_samples + 2):
            db.query(SQL)

        report = calibrator.report()
        assert report["recalibrations"] >= 1
        assert report["source"].startswith("adaptive:gen")

        # The journal carries the planned-vs-observed shift per rate field.
        events = db.events(kind="cost-recalibration")
        assert events
        shifted = events[-1].fields["shifted"]
        assert "scan_seconds_per_row" in shifted
        assert (
            shifted["scan_seconds_per_row"]["observed"]
            > shifted["scan_seconds_per_row"]["planned"]
        )

        # The recalibrated model makes exact look as slow as it measured —
        # the same query now routes to model serving, and the plan (and its
        # EXPLAIN rendering) disclose the adaptive provenance.
        flipped = db.query(SQL)
        assert flipped.plan.is_model_route
        assert flipped.plan.cost_source.startswith("adaptive:gen")
        assert "Cost model: adaptive:gen" in db.explain(SQL)
        assert db.obs.metrics.counter_total("cost_recalibrations_total") >= 1

    def test_static_model_would_keep_routing_exact(self):
        """The control: without recalibration the BENCH rates keep choosing
        exact — the flip in the test above is the calibrator's doing."""
        db = _build_db()
        db.obs.tracer.clock = SkewedClock(step=0.05)
        db.obs.calibration.enabled = False
        for _ in range(8):
            answer = db.query(SQL)
        assert answer.route_taken == "exact"
        assert db.obs.metrics.counter_total("cost_recalibrations_total") == 0


class TestSetCostModel:
    def test_swap_invalidates_cached_plans(self):
        db = _build_db()
        plan_before = db.plan(SQL)
        assert not plan_before.is_model_route
        # An adaptive model claiming exact execution costs 1s/row must flip
        # every cached decision immediately, not at the next catalog bump.
        slow = OperatorCosts(scan_seconds_per_row=0.9, group_by_seconds_per_row=0.1)
        db.planner.set_cost_model(CostModel(slow, source="adaptive:test"))
        plan_after = db.plan(SQL)
        assert plan_after.is_model_route
        assert plan_after.cost_source == "adaptive:test"

    def test_version_is_part_of_the_cache_key(self):
        db = _build_db()
        db.plan(SQL)
        before = db.planner.plan_cache_info()
        db.planner.set_cost_model(CostModel(OperatorCosts(), source="adaptive:v2"))
        db.plan(SQL)
        after = db.planner.plan_cache_info()
        assert after["misses"] == before["misses"] + 1


class TestObservationDiscipline:
    def _span(self, name: str, elapsed: float, rows: int, children=()) -> Span:
        span = Span(name=name, elapsed_seconds=elapsed)
        span.attributes["rows_out"] = rows
        span.children = list(children)
        return span

    def _calibrator(self, **kwargs) -> tuple[CostCalibrator, "_PlannerStub"]:
        planner = _PlannerStub()
        return CostCalibrator(planner, **kwargs), planner

    def test_small_inputs_are_ignored(self):
        calibrator, planner = self._calibrator(min_rows=256, min_samples=1)
        tiny = self._span("op:TableScan", elapsed=10.0, rows=8)
        root = Span(name="query", children=[tiny])
        for _ in range(5):
            calibrator.observe_trace(root)
        assert planner.installed is None  # fixed overhead, not throughput

    def test_rates_are_clamped_against_absurd_spans(self):
        calibrator, planner = self._calibrator(min_rows=1, min_samples=1)
        absurd = self._span("op:TableScan", elapsed=1e9, rows=1000)
        calibrator.observe_trace(Span(name="query", children=[absurd]))
        installed = planner.installed
        assert installed is not None
        assert installed.costs.scan_seconds_per_row <= 1.0

    def test_blocking_operators_are_charged_per_input_row(self):
        calibrator, _ = self._calibrator(min_rows=1, min_samples=10)
        scan = self._span("op:TableScan", elapsed=1.0, rows=1000)
        # Aggregate emitted 10 groups but consumed 1000 rows; its rate must
        # divide by the input, matching how the cost model predicts it.
        agg = self._span("op:Aggregate", elapsed=3.0, rows=10, children=[scan])
        calibrator.observe_trace(Span(name="query", children=[agg]))
        estimate = calibrator.report()["estimates"]["group_by_seconds_per_row"]
        # Self time (3.0 - 1.0 nested scan) over 1000 input rows.
        assert estimate["ewma_seconds_per_row"] == pytest.approx(2.0 / 1000.0)

    def test_stable_rates_do_not_churn_the_plan_cache(self):
        calibrator, planner = self._calibrator(min_rows=1, min_samples=1)
        planned = planner.cost_model.costs.scan_seconds_per_row
        steady = self._span("op:TableScan", elapsed=planned * 1000, rows=1000)
        for _ in range(10):
            calibrator.observe_trace(Span(name="query", children=[steady]))
        assert planner.installed is None  # within drift_threshold: no swap


class _PlannerStub:
    def __init__(self) -> None:
        self.cost_model = CostModel()
        self.installed: CostModel | None = None

    def set_cost_model(self, model: CostModel) -> None:
        self.cost_model = model
        self.installed = model
