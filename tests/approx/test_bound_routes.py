"""The plan is the program: one parse and one plan per statement shape.

A SELECT's WHERE comparison literals are typed slots of its *shape*; texts of
one shape share a parsed template and a planned :class:`BoundRoute`, and each
statement binds its own literals.  What holds the line:

* (a) shapes separate what a plan may not share (literal types, IN-list
  lengths, every literal outside a comparison) and a bound statement is
  exactly the one ``parse`` returns;
* (b) a rebound plan answers and explains bit for bit what a cold one does,
  over the differential harness's generator and a matrix of statements whose
  literals change what a gate decides;
* (c) a model-served statement builds no exact plan, and a plan-cache hit
  selects no model and walks no gate — not even to fall back;
* the plan never names a model route that does not run, and a probe's lazy
  statistics never hold another thread's first read.
"""

from __future__ import annotations

import importlib.util
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.db.sql.executor as executor_module
from repro import AccuracyContract, LawsDatabase
from repro.core.approx.protocol import Probe
from repro.db.database import Database
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse
from repro.db.sql.shape import select_shape
from repro.errors import ApproximationError

from query_gen import TableProfile, generate_queries
from tests.conftest import APPROX, STRICT, per_group

ROOT = Path(__file__).resolve().parents[2]
AUTO = AccuracyContract(verify_fraction=0.0)

GROUPS = tuple(range(10))
X_DOMAIN = tuple(float(v) for v in range(6))
READINGS = TableProfile(
    name="readings",
    group_column="g",
    input_column="x",
    output_column="y",
    group_values=GROUPS,
    input_domain=X_DOMAIN,
    input_low=min(X_DOMAIN),
    input_high=max(X_DOMAIN),
)
TICKS = TableProfile(
    name="ticks",
    group_column=None,
    input_column="x",
    output_column="y",
    group_values=(),
    input_domain=(),
    input_low=0.0,
    input_high=10.0,
    continuous_input=True,
)


def _shape(sql: str) -> str:
    return select_shape(tokenize(sql)).key


def _generated() -> list[str]:
    rng = np.random.default_rng(26)
    queries = generate_queries(rng, READINGS, count=80)
    queries += generate_queries(rng, TICKS, count=40, shapes=("range",))
    return [query.sql for query in queries]


def _perf_op_texts() -> list[str]:
    """Every op text the end-to-end benchmark sends, at both of its scales."""
    spec = importlib.util.spec_from_file_location("perf_datagen", ROOT / "perf" / "datagen.py")
    datagen = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(datagen)
    texts = []
    for scale in (datagen.SMOKE, datagen.FULL):
        for seed in (1, 2):
            for adhoc in (False, True):
                texts += [op.sql for op in datagen.serve_ops(seed, scale, adhoc)]
            texts += [op.sql for op in datagen.scan_ops(seed, scale)]
        plan = datagen.stream_plan(1, datagen.SMOKE, 1)
        texts += [op.sql for cycle in plan.cycles for batch in cycle for op in batch.queries]
        texts += [op.sql for op in plan.reopen_queries]
    return list(dict.fromkeys(texts))


# -- (a) shapes ------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "texts",
    [
        ("x = 1", "x = 1.0", "x = 'a'", "x = NULL", "x = true"),
        ("x IN (1, 2)", "x IN (1, 2, 3)"),
        ("x = -1", "x > -1"),
    ],
    ids=["literal-type", "in-list-length", "sign-and-operator"],
)
def test_a_slot_keeps_its_type_and_its_place(texts):
    shapes = {_shape(f"SELECT y FROM t WHERE {text}") for text in texts}
    assert len(shapes) == len(texts)


@pytest.mark.parametrize(
    "first,second",
    [
        ("SELECT y FROM t WHERE x > 1 LIMIT 5", "SELECT y FROM t WHERE x > 1 LIMIT 6"),
        ("SELECT y + 1 FROM t WHERE x > 1", "SELECT y + 2 FROM t WHERE x > 1"),
        ("SELECT g FROM t GROUP BY g HAVING count(*) > 1", "SELECT g FROM t GROUP BY g HAVING count(*) > 2"),
        ("SELECT y FROM t WHERE power(x, 2) > 1", "SELECT y FROM t WHERE power(x, 3) > 1"),
        ("SELECT y FROM t WHERE x + 1 > 4", "SELECT y FROM t WHERE x + 2 > 4"),
    ],
    ids=["limit", "select-arithmetic", "having", "function-argument", "where-arithmetic"],
)
def test_a_literal_outside_a_comparison_stays_in_the_shape(first, second):
    assert _shape(first) != _shape(second)


def test_texts_that_differ_in_compared_literals_share_a_shape():
    first = select_shape(tokenize("SELECT y FROM t WHERE g = 1 AND x = 2"))
    second = select_shape(tokenize("SELECT y FROM t WHERE g = 7 AND x = 9"))
    assert first.key == second.key
    assert (first.values, second.values) == ((1, 2), (7, 9))
    spaced = select_shape(tokenize("select  y from t where g=7 and x =  -9"))
    assert spaced.key == second.key and spaced.values == (7, -9)  # the sign is the slot's


def test_a_bound_statement_is_the_one_parse_returns():
    texts = _generated() + _perf_op_texts() + [
        "SELECT x FROM t WHERE x IN (1, -2, 3) AND y > -1.5 AND NOT z = 3 AND w IS NOT NULL",
        "SELECT x FROM t WHERE 5 < q AND (3 >= r) AND s BETWEEN -1 AND 1e3",
        "SELECT x FROM t WHERE x - 1 > 2 * 3 AND abs(x) = -4 AND x = - -5 LIMIT 5",
        "SELECT x FROM t WHERE x = NULL OR x = true OR x = 'it''s'",
    ]
    executor = Database().executor
    for sql in texts:
        executor.prepare(sql)
    shapes = {executor.prepare(sql).shape for sql in texts}
    assert len(shapes) < len(texts) / 3, "the corpus must exercise binding, not only parsing"
    executor.clear_plan_cache()
    for sql in texts:
        assert executor.prepare(sql).statement == parse(sql), sql


# -- (b) bound ≡ unbound -------------------------------------------------------------------------

#: Statements whose literals change what a gate or a sketch decides, each next
#: to siblings of its shape: pins on fitted and unfitted groups, pins outside
#: the fitted domain, IN lists of pins, ranges clipped to nothing, and one
#: shape whose enumeration exceeds ``MAX_VIRTUAL_ROWS`` for some literals only.
MATRIX = [
    "SELECT y FROM readings WHERE g = 3 AND x = 2",
    "SELECT y FROM readings WHERE g = 42 AND x = 2",
    "SELECT y FROM readings WHERE g = 4 AND x = 50",
    "SELECT y FROM readings WHERE g = 3 AND g = 4 AND x = 2",
    "SELECT y FROM readings WHERE g = 3 AND g = 3 AND x = 2",
    "SELECT y FROM readings WHERE g = 3 AND x = '2'",
    "SELECT y FROM readings WHERE g = 3 AND x = 'two'",
    "SELECT g, avg(y) AS m FROM readings WHERE g IN (1, 2) GROUP BY g",
    "SELECT g, avg(y) AS m FROM readings WHERE g IN (3, 99) GROUP BY g",
    "SELECT g, avg(y) AS m FROM readings WHERE g IN (98, 99) GROUP BY g",
    "SELECT g, count(*) AS n FROM readings WHERE x BETWEEN 1 AND 2 GROUP BY g",
    "SELECT g, count(*) AS n FROM readings WHERE x BETWEEN 10 AND 20 GROUP BY g",
    "SELECT avg(y) AS m FROM readings WHERE x IN (1, 2)",
    "SELECT avg(y) AS m FROM readings WHERE x IN (4, 4)",
    "SELECT avg(y) AS m FROM readings WHERE x IN (7, 9)",
    "SELECT avg(y) AS m FROM readings WHERE x BETWEEN 1 AND 3",
    "SELECT avg(y) AS m FROM readings WHERE x BETWEEN 50 AND 60",
    "SELECT sum(y) AS s, count(*) AS n FROM ticks WHERE x BETWEEN 2.0 AND 4.0",
    "SELECT sum(y) AS s, count(*) AS n FROM ticks WHERE x BETWEEN 20.0 AND 30.0",
    "SELECT g, x, y FROM readings WHERE g IN (1, 2) AND y > 3.0",
    "SELECT g, x, y FROM readings WHERE g IN (5, 77) AND y > 3.0",
    "SELECT g, x, y FROM readings WHERE g IN (6, 7) AND y > 3.0",
    "SELECT g, x, y FROM readings WHERE g IN (88, 8) AND y > 3.0",
    # Only a group-column literal differs; group 3's fit failed, and a
    # combined answer must not leave its rows out.
    "SELECT avg(y) AS m FROM sparse WHERE g IN (1, 2) AND x >= 1",
    "SELECT avg(y) AS m FROM sparse WHERE g IN (1, 3) AND x >= 1",
]
#: 2 groups x 6 input values = 12 rows enumerate past it, one group does not.
MAX_VIRTUAL_ROWS = 10


def _harness_db() -> LawsDatabase:
    rng = np.random.default_rng(2026)
    rows = [
        (g, x, 2.0 + 0.8 * g + (0.4 + 0.15 * g) * x + rng.normal(0.0, 0.3))
        for g in GROUPS
        for x in X_DOMAIN
        for _ in range(6)
    ]
    db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    db.load_dict("readings", {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]})
    assert db.fit("readings", "y ~ linear(x)", group_by="g").accepted
    x = rng.uniform(0.0, 10.0, size=3000)
    db.load_dict("ticks", {"x": x.tolist(), "y": (2.0 + 1.5 * x + rng.normal(0.0, 0.4, size=3000)).tolist()})
    assert db.fit("ticks", "y ~ linear(x)").accepted
    # ``sparse``: group 3 holds too few rows for its per-group fit.
    cells = [(g, x) for g in range(3) for x in X_DOMAIN for _ in range(5)] + [(3, 0.0), (3, 0.0), (3, 1.0), (3, 1.0)]
    db.load_dict(
        "sparse",
        {
            "g": [g for g, _ in cells],
            "x": [x for _, x in cells],
            "y": [1.0 + g + 0.5 * x + rng.normal(0.0, 0.1) for g, x in cells],
        },
    )
    assert db.fit("sparse", "y ~ linear(x)", group_by="g", min_observations=5).accepted
    db.approx.max_virtual_rows = MAX_VIRTUAL_ROWS
    return db


def _outcome(db: LawsDatabase, sql: str, contract: AccuracyContract) -> tuple:
    """Everything an answer states, in a form compared bit for bit.

    Model ids count captures process-wide, so each database's ids are written
    as their position in its own capture order.
    """
    try:
        answer = db.query(sql, contract)
    except Exception as exc:  # noqa: BLE001 - a refusal must be the same refusal
        return ("raised", type(exc).__name__, str(exc))
    position = {model.model_id: n for n, model in enumerate(db.models.all_models())}

    def ids(match: re.Match) -> str:
        return re.sub(r"\d+", lambda n: f"m{position[int(n.group())]}", match.group())

    def local(text: str) -> str:
        return re.sub(r"#\d+|model\(s\) \[[\d, ]*\]", ids, text)

    approx = answer.approx
    groups = None if approx is None else per_group(approx)
    return (
        answer.route_taken,
        answer.table.schema.names,
        repr(answer.table.to_rows()),
        repr(answer.column_errors),
        {name: repr(answer.error_estimate(name)) for name in answer.column_errors},
        None if groups is None else repr({key: (position.get(m, m), *rest) for key, (m, *rest) in groups.items()}),
        None if approx is None else [position[i] for i in approx.used_model_ids],
        local(answer.plan.explain()),
    )


@pytest.mark.parametrize("contract", [APPROX, AUTO], ids=["approx", "auto"])
def test_a_rebound_plan_answers_and_explains_what_a_cold_one_does(contract):
    statements = _generated() + MATRIX
    bound, cold = _harness_db(), _harness_db()
    hits_before = bound.planner.plan_cache_info()["hits"]
    routes = set()
    # The second pass rebinds every shape's entry, most of them resolved for
    # another statement of the shape.
    for sql in statements * 2:
        warm = _outcome(bound, sql, contract)
        cold.planner.clear_plan_cache()
        cold.database.clear_plan_cache()
        assert warm == _outcome(cold, sql, contract), sql
        routes.add(warm[0])
    hits = bound.planner.plan_cache_info()["hits"] - hits_before
    assert hits > len(statements), "most statements must be served by a rebound plan"
    if contract is APPROX:
        assert {"grouped-model", "point", "range-aggregate", "virtual-table", "exact-fallback"} <= routes


def test_the_matrix_decides_differently_inside_one_shape():
    db = _harness_db()
    expected = {
        "SELECT y FROM readings WHERE g = 3 AND x = 2": "point",
        "SELECT y FROM readings WHERE g = 42 AND x = 2": "exact-fallback",
        "SELECT y FROM readings WHERE g = 3 AND g = 4 AND x = 2": "virtual-table",
        "SELECT g, x, y FROM readings WHERE g IN (1, 2) AND y > 3.0": "exact-fallback",
        "SELECT g, x, y FROM readings WHERE g IN (5, 77) AND y > 3.0": "virtual-table",
        "SELECT g, x, y FROM readings WHERE g IN (6, 7) AND y > 3.0": "exact-fallback",
        "SELECT g, x, y FROM readings WHERE g IN (88, 8) AND y > 3.0": "virtual-table",
        "SELECT avg(y) AS m FROM sparse WHERE g IN (1, 2) AND x >= 1": "range-aggregate",
        "SELECT avg(y) AS m FROM sparse WHERE g IN (1, 3) AND x >= 1": "exact-fallback",
    }
    assert {sql: db.query(sql, APPROX).route_taken for sql in expected} == expected


# -- (c) deterministic counts ----------------------------------------------------------------------


@pytest.fixture()
def serving_db() -> LawsDatabase:
    rng = np.random.default_rng(11)
    g = rng.integers(0, 8, 4000)
    x = rng.integers(0, 8, 4000)
    db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    db.load_dict("readings", {"g": g.tolist(), "x": x.tolist(), "y": (1.0 + 2.0 * g + 0.7 * x).tolist()})
    db.fit("readings", "y ~ linear(x)", group_by="g")
    return db


def test_a_model_served_plan_builds_no_exact_plan_until_explain_reads_it(serving_db, monkeypatch):
    calls = []
    real = executor_module.plan_select
    monkeypatch.setattr(executor_module, "plan_select", lambda *a, **k: calls.append(1) or real(*a, **k))
    plan = serving_db.planner.plan("SELECT y FROM readings WHERE g = 1 AND x = 2", APPROX, for_execution=True)
    assert plan.chosen.route == "point" and calls == []
    assert serving_db.query("SELECT y FROM readings WHERE g = 2 AND x = 3", APPROX).route_taken == "point"
    assert calls == []
    assert "TableScan(readings" in plan.explain()
    assert calls == [1]


def _count_calls(monkeypatch, obj, name: str) -> list:
    calls = []
    real = getattr(obj, name)
    monkeypatch.setattr(obj, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_a_plan_cache_hit_selects_no_model(serving_db, monkeypatch):
    selections = _count_calls(monkeypatch, serving_db.approx, "_select_model")
    probes = _count_calls(monkeypatch, serving_db.approx, "_probe")
    serving_db.query("SELECT y FROM readings WHERE g = 1 AND x = 2", APPROX)
    assert (len(selections), len(probes)) == (1, 1)  # the miss resolves the shape once
    hits = serving_db.planner.plan_cache_info()["hits"]
    for g, x in ((2, 3), (4, 5), (1, 2)):
        answer = serving_db.query(f"SELECT y FROM readings WHERE g = {g} AND x = {x}", APPROX)
        assert answer.route_taken == "point"
        assert answer.scalar() == pytest.approx(1.0 + 2.0 * g + 0.7 * x)
    assert serving_db.planner.plan_cache_info()["hits"] == hits + 3
    assert (len(selections), len(probes)) == (1, 1)


def test_a_repeated_text_gets_its_plan_back_while_the_cache_holds_its_entry(serving_db):
    planner, sql = serving_db.planner, "SELECT y FROM readings WHERE g = 1 AND x = 2"
    first = planner.plan(sql, APPROX, for_execution=True)
    assert planner.plan(sql, APPROX, for_execution=True) is first
    assert planner.plan(sql, AUTO, for_execution=True) is not first  # another contract
    planner.clear_plan_cache()
    again = planner.plan(sql, APPROX, for_execution=True)
    assert again is not first and again.explain() == first.explain()


def test_a_plan_cache_hit_falls_back_without_walking_the_routes(serving_db, monkeypatch):
    probes = _count_calls(monkeypatch, serving_db.approx, "_probe")
    first = serving_db.query("SELECT * FROM readings WHERE g = 1", APPROX)
    second = serving_db.query("SELECT * FROM readings WHERE g = 2", APPROX)
    assert first.route_taken == second.route_taken == "exact-fallback"
    assert second.approx.reason == first.approx.reason
    assert "SELECT *" in second.approx.reason
    assert len(probes) == 1
    with pytest.raises(ApproximationError, match="SELECT"):
        serving_db.query("SELECT * FROM readings WHERE g = 3", STRICT)


# -- the plan names the route that runs --------------------------------------------------------------


def test_a_chosen_model_route_is_the_route_that_runs():
    """A per-group law over a continuous input: no gate may admit what its
    answer then declines ("input column 'x' is not enumerable")."""
    rng = np.random.default_rng(10)
    g = np.repeat(np.arange(50), 400)
    x = rng.uniform(0.0, 10.0, g.size)
    db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    db.load_dict("t", {"g": g.tolist(), "x": x.tolist(), "y": (1.0 + 0.1 * g + 2.0 * x + rng.normal(0, 0.2, g.size)).tolist()})
    db.fit("t", "y ~ linear(x)", group_by=["g"])
    for sql in (
        "SELECT g, avg(y) FROM t GROUP BY g",
        "SELECT g, avg(y) FROM t WHERE x BETWEEN 2 AND 4 GROUP BY g",
        "SELECT avg(y) FROM t",
        "SELECT avg(y) FROM t WHERE x BETWEEN 2 AND 4",
    ):
        chosen = db.plan(sql, APPROX).chosen
        taken = db.query(sql, APPROX).route_taken
        if chosen.kind == "model-route":
            assert taken == chosen.route, sql
        else:
            assert taken in ("exact", "exact-fallback"), sql


# -- lazy attributes take no lock -------------------------------------------------------------------


class _SlowStats:
    """A database whose first statistics read of table ``a`` waits for a signal."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def stats(self, name: str):
        if name == "a":
            self.entered.set()
            self.release.wait(10.0)
        return name


def test_one_probes_first_statistics_read_never_blocks_anothers():
    database = _SlowStats()
    statement = parse("SELECT y FROM a")
    probe_a = Probe("", statement, "a", {"y"}, database, None, False)
    probe_b = Probe("", statement, "b", {"y"}, database, None, False)
    reader = threading.Thread(target=lambda: probe_a.stats)
    reader.start()
    try:
        assert database.entered.wait(5.0)
        seen = []
        other = threading.Thread(target=lambda: seen.append(probe_b.stats))
        other.start()
        other.join(2.0)
        assert seen == ["b"], "probe b waited for probe a's statistics"
    finally:
        database.release.set()
        reader.join(10.0)
    assert not reader.is_alive() and not other.is_alive()
    assert probe_a.stats == "a"
