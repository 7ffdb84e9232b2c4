"""Tracer/span unit tests plus golden trace trees for the three routes.

The golden fixture follows ``tests/planner/test_explain_golden.py``: the
data obeys an exact per-group linear law, so the route decisions (and
therefore the span trees) are deterministic.  Wall times and IO counts
are volatile; the golden assertions cover the *shape* — span names in
pre-order — and the decision attributes.
"""

import pytest

from repro import AccuracyContract, LawsDatabase
from repro.db.io_model import IOAccountant
from repro.obs import Span, Tracer


class TestSpan:
    def test_find_and_walk(self):
        root = Span(name="query")
        child = Span(name="plan")
        grandchild = Span(name="op:Sort")
        child.children.append(grandchild)
        root.children.append(child)
        assert root.find("op:Sort") is grandchild
        assert root.find("nope") is None
        assert [s.name for s in root.walk()] == ["query", "plan", "op:Sort"]
        assert root.span_names() == ["query", "plan", "op:Sort"]

    def test_render_shows_attributes_and_io(self):
        root = Span(name="query", elapsed_seconds=0.0012)
        root.io = {"pages_read": 3.0, "virtual_io_seconds": 0.001}
        root.annotate(sql="SELECT 1", candidates=["chosen — a", "rejected — b"])
        text = root.to_text()
        assert "query  [1.200ms, io=3 page(s)]" in text
        assert "· sql: SELECT 1" in text
        assert "· candidates: chosen — a" in text
        assert "· candidates: rejected — b" in text


class TestTracer:
    def test_disabled_tracer_discards(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("query") as root:
            with tracer.span("child") as child:
                child.annotate(x=1)
        assert not tracer.active
        assert tracer.last_trace() is None
        assert root.name == "discarded"

    def test_span_outside_trace_discards(self):
        tracer = Tracer()
        with tracer.span("orphan") as span:
            pass
        assert span.name == "discarded"
        assert tracer.last_trace() is None

    def test_nested_trace_becomes_child_span(self):
        tracer = Tracer()
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                with tracer.span("leaf"):
                    pass
        trace = tracer.last_trace()
        assert trace.span_names() == ["outer", "inner", "leaf"]
        assert len(tracer.traces()) == 1

    def test_keep_traces_ring(self):
        tracer = Tracer(keep_traces=2)
        for i in range(4):
            with tracer.trace(f"q{i}"):
                pass
        assert [t.name for t in tracer.traces()] == ["q2", "q3"]
        assert tracer.last_trace().name == "q3"

    def test_span_io_is_what_was_charged_while_it_was_open(self):
        accountant = IOAccountant()
        tracer = Tracer(io_scope=accountant.scope)
        page = accountant.parameters.page_size_bytes
        accountant.charge_sequential(page)  # before the trace: nobody's
        with tracer.trace("query"):
            with tracer.span("parse"):
                pass
            with tracer.span("execute"):
                accountant.charge_sequential(4 * page)
            accountant.charge_sequential(page)  # the root's own
        trace = tracer.last_trace()
        assert trace.pages_read == 5
        assert trace.find("execute").pages_read == 4
        assert trace.find("parse").io == {}


@pytest.fixture(scope="module")
def golden_db():
    db = LawsDatabase(verify_sample_fraction=0.0)
    rows = [
        (g, float(x), 10.0 * g + 2.0 * x)
        for g in range(2)
        for x in range(4)
        for _ in range(6)
    ]
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted
    return db


CONTRACT = AccuracyContract(max_relative_error=0.05)


def test_exact_trace_tree(golden_db):
    golden_db.query("SELECT count(*) AS n FROM t")
    trace = golden_db.last_trace()
    assert trace.span_names() == [
        "query",
        "parse",
        "plan",
        "execute",
        "op:Project",
        "op:Aggregate",
        "op:TableScan",
    ]
    plan = trace.find("plan")
    assert plan.attributes["decision"] == "exact"
    candidates = plan.attributes["candidates"]
    assert len(candidates) == 1
    assert candidates[0].startswith("chosen — exact [cost≈")
    scan = trace.find("op:TableScan")
    assert scan.attributes["rows_out"] == 48
    assert scan.attributes["operator"].startswith("TableScan(t")


def test_grouped_model_trace_tree(golden_db):
    golden_db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", CONTRACT)
    trace = golden_db.last_trace()
    assert trace.span_names() == ["query", "parse", "plan", "execute", "route:grouped"]
    plan = trace.find("plan")
    assert plan.attributes["decision"] == "grouped-model"
    candidates = plan.attributes["candidates"]
    assert any(c.startswith("chosen — grouped-model") for c in candidates)
    assert any(c.startswith("rejected — exact") for c in candidates)
    execute = trace.find("execute")
    assert execute.attributes["route_taken"] == "grouped-model"
    assert execute.attributes["rows"] == 2
    route = trace.find("route:grouped")
    assert route.attributes["model_groups"] == 2
    assert route.attributes["exact_groups"] == 0


def test_hybrid_trace_tree_has_exact_fill_in():
    db = LawsDatabase(verify_sample_fraction=0.0)
    rows = [
        (g, float(x), 10.0 * g + 2.0 * x)
        for g in range(2)
        for x in range(4)
        for _ in range(6)
    ]
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
    # A group the model never saw forces the hybrid route's exact fill-in.
    db.insert_rows("t", [(2, float(x), 77.0 + 2.0 * x) for x in range(4)])
    answer = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", CONTRACT)
    assert answer.route_taken == "grouped-hybrid"
    trace = db.last_trace()
    names = trace.span_names()
    assert names[:5] == ["query", "parse", "plan", "execute", "route:grouped"]
    assert "exact-fill-in" in names
    # The fill-in runs traced operators under the route span.
    fill_in = trace.find("exact-fill-in")
    assert any(s.name.startswith("op:") for s in fill_in.walk())
    route = trace.find("route:grouped")
    assert route.attributes["exact_groups"] == 1


def test_feedback_verify_span_nests_not_new_trace():
    db = LawsDatabase(verify_sample_fraction=1.0)
    rows = [
        (g, float(x), 10.0 * g + 2.0 * x)
        for g in range(2)
        for x in range(4)
        for _ in range(6)
    ]
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
    db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", CONTRACT)
    trace = db.last_trace()
    verify = trace.find("verify-sample")
    assert verify is not None
    assert verify.attributes["within_budget"] is True
    assert "predicted_relative_error" in verify.attributes
    assert "observed_relative_error" in verify.attributes
    # The feedback re-execution traces inside the same tree, not a new one.
    assert len(db.obs.tracer.traces()) == 1


def test_last_trace_survives_next_query(golden_db):
    golden_db.query("SELECT count(*) AS n FROM t")
    first = golden_db.last_trace()
    golden_db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", CONTRACT)
    second = golden_db.last_trace()
    assert first is not second
    assert second.attributes["sql"].startswith("SELECT g")
