"""A component is born with what it reports to.

``LawsDatabase.__init__`` creates the collectors first and passes them — with
the resilience equipment and the guards — to the constructor of every layer;
nothing is assigned into a component afterwards, and "telemetry is off" has
one representation: the collector's own ``enabled`` flag.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.core.planner.cost import CostModel, OperatorCosts
from repro.resilience import FaultInjector, FaultSpec

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CELLS = pytest.mark.parametrize("observability", [True, False], ids=["obs_on", "obs_off"])
STORES = pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])


def _build(tmp_path, durable: bool, **kwargs) -> LawsDatabase:
    if durable:
        return LawsDatabase.open(tmp_path / "store", **kwargs)
    return LawsDatabase(**kwargs)


# -- (a) identity -------------------------------------------------------------------


@STORES
@CELLS
def test_every_reporter_holds_the_hubs_own_collectors(tmp_path, durable, observability):
    db = _build(tmp_path, durable, observability=observability)
    obs, executor = db.obs, db.database.executor
    db.resilience.breaker("planner.verify")
    db.resilience.breaker("refit:t.y")

    journals = {
        "harvester": db.harvester,
        "models": db.models,
        "maintenance": db.maintenance,
        "parallel.pool": db.parallel.pool,
        "resilience": db.resilience,
        "resilience.health": db.resilience.health,
        "resilience.retrier": db.resilience.retrier,
        "obs.calibration": obs.calibration,
        "obs.slo": obs.slo,
        **{f"breaker:{name}": b for name, b in db.resilience._breakers.items()},
    }
    registries = {
        "parallel": db.parallel,
        "parallel.pool": db.parallel.pool,
        "database.io_model": db.database.io_model,
        "obs.calibration": obs.calibration,
        "obs.slo": obs.slo,
    }
    tracers = {
        "database.executor": executor,
        "database.io_model": db.database.io_model,
        "approx": db.approx,
        "parallel": db.parallel,
    }
    if durable:
        journals |= {"durable": db.durable, "durable.quarantine": db.durable.quarantine}
        registries |= {"durable": db.durable, "durable.quarantine": db.durable.quarantine}
        assert db.resilience.quarantine is db.durable.quarantine
        assert db.durable.wal.retrier is db.resilience.retrier
        assert db.archive_tier.store is db.durable
    assert [name for name, holder in journals.items() if holder.journal is not obs.journal] == []
    assert [name for name, holder in registries.items() if holder.metrics is not obs.metrics] == []
    assert [name for name, holder in tracers.items() if holder.tracer is not obs.tracer] == []
    assert executor.io_model is db.database.io_model
    assert obs.slo.health is db.resilience.health
    assert db.maintenance.resilience is db.resilience

    # "Off" is the collector's own flag — on every part, fixed by one argument.
    parts = (obs.metrics, obs.journal, obs.tracer, obs.slow_log, obs.calibration, obs.slo, obs.flight)
    assert {part.enabled for part in parts} == {observability} == {obs.enabled}
    with pytest.raises(AttributeError):
        obs.enabled = not observability
    db.close()


@STORES
def test_every_fault_point_holder_sees_the_injector(tmp_path, durable):
    injector = FaultInjector([])
    db = _build(tmp_path, durable, fault_injector=injector)
    holders = {
        "resilience": db.resilience,
        "ingestor": db.ingestor,
        "harvester": db.harvester,
        "planner.feedback": db.planner.feedback,
        "parallel.pool": db.parallel.pool,
        "maintenance.resilience": db.maintenance.resilience,
    }
    if durable:
        holders |= {"durable": db.durable, "durable.wal": db.durable.wal, "archive_tier": db.archive_tier}
    assert [name for name, holder in holders.items() if holder.faults is not injector] == []
    db.close()

    unarmed = _build(tmp_path / "unarmed", durable)
    assert {name for name in holders if _resolve(unarmed, name).faults is not None} == set()
    unarmed.close()


def _resolve(db: LawsDatabase, dotted: str):
    target = db
    for part in dotted.split("."):
        target = getattr(target, part)
    return target


# -- (b) one switch -------------------------------------------------------------------


def test_enabling_the_hubs_collectors_is_the_only_wiring_an_obs_off_database_needs():
    """What ``perf/probes.py`` does to count degraded shards: flip the flag on
    the hub's journal / registry, and every layer — each holding that same
    object — starts reporting."""
    # Eight partition tasks arrive as hits 1-8; the fault on hit 2 forces one
    # retry, which arrives as hit 9 and faults again: the pool degrades.
    injector = FaultInjector(
        [
            FaultSpec("parallel.worker.task", "exception", hit=2),
            FaultSpec("parallel.worker.task", "exception", hit=9),
        ]
    )
    db = LawsDatabase(observability=False, fault_injector=injector)
    db.planner.set_cost_model(CostModel(OperatorCosts(parallel_task_overhead_seconds=0.0)))
    rng = np.random.default_rng(4)
    x = rng.integers(0, 10, 4000)
    db.load_dict("t", {"x": x.tolist(), "y": (3.0 * x + rng.normal(0, 0.05, 4000)).tolist()})
    db.partition_table("t", partitions=8)
    sql = "SELECT x, count(*) FROM t GROUP BY x ORDER BY x"
    assert db.events() == [] and db.metrics()["counters"] == {}

    db.obs.journal.enabled = True
    db.obs.metrics.enabled = True
    assert db.fit("t", "y ~ linear(x)").accepted
    rows = db.query(sql, AccuracyContract(mode="exact")).rows()
    assert rows == [(k, int(n)) for k, n in enumerate(np.bincount(x))]

    assert len(db.events(kind="model-capture")) == 1
    assert len(db.events(kind="parallel-degraded")) == 1
    metrics = db.obs.metrics
    assert metrics.counter_value("partition_tasks_total") == 8
    assert metrics.counter_value("parallel_retries_total") == 1
    assert metrics.counter_value("parallel_degraded_total") == 1
    assert metrics.counter_value("events_total", kind="parallel-degraded") == 1
    # The hub itself stays off: the query above was neither traced nor accounted.
    assert db.last_trace() is None and metrics.counter_total("queries_total") == 0


# -- (c) structure -------------------------------------------------------------------

COLLABORATORS = {
    "journal", "metrics", "tracer", "resilience", "calibration", "slo", "flight",
    "grouped_model_provider",
}  # fmt: skip
#: May be ``None`` (unarmed / nobody listening) but arrive the same way.
ARGUMENT_ONLY = {"faults", "retrier", "on_transition", "on_record"}
#: Out of scope, by name: a strategy hook whose cycle is ROADMAP item 2(a)'s
#: to dissolve, and a manager rooted at a store that may never exist.
ASSIGNED_AFTER_CONSTRUCTION = {
    ("db/sql/executor.py", "self.parallel", "born None"),
    ("resilience/runtime.py", "self.quarantine", "born None"),
    ("core/system.py", "self.database.executor.parallel", "assigned into"),
    ("persist/store.py", "resilience.quarantine", "assigned into"),
}


def _is_collaborator(name: str) -> bool:
    return name in COLLABORATORS or name.endswith("_guard")


def _dotted(node: ast.expr) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _attribute_assignments(tree: ast.AST):
    """``(dotted target, value)`` of every assignment to an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            for element in target.elts if isinstance(target, ast.Tuple) else [target]:
                dotted = _dotted(element) if isinstance(element, ast.Attribute) else None
                if dotted is not None:
                    yield dotted, value


def test_no_collaborator_is_born_none_or_assigned_into_another_object():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for dotted, value in _attribute_assignments(ast.parse(path.read_text())):
            owner, _, name = dotted.rpartition(".")
            tracked = _is_collaborator(name) or name in ("parallel", "quarantine")
            is_none = isinstance(value, ast.Constant) and value.value is None
            if owner == "self" and tracked and is_none:
                found.add((relative, dotted, "born None"))
            if owner != "self" and (tracked or name in ARGUMENT_ONLY):
                found.add((relative, dotted, "assigned into"))
    assert found == ASSIGNED_AFTER_CONSTRUCTION


# -- (d) one walk per tree ---------------------------------------------------------------

COMPOSITE_EXPRESSIONS = {"BinaryOp", "UnaryOp", "FunctionCall", "Between", "InList", "IsNull"}
#: Not a walk, by name: each arm reads a different *meaning* off a conjunct's
#: class (comparison → bound, BETWEEN → interval, IN → pin) and none recurses.
READS_A_PREDICATE_SHAPE = {"db/constraints.py:_apply_conjunct"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _base_names(node: ast.ClassDef) -> set[str]:
    return {base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "") for base in node.bases}


def test_operator_execute_is_defined_once_and_nothing_reaches_through_dunder_dict():
    """The plan walk lives in ``Operator.execute``; a node type adds ``apply``.

    Tracing used to patch ``execute`` into node ``__dict__``s on a per-run
    plan clone; with the tracer handed down the one walk there is nothing
    left to patch, so no module touches ``__dict__`` at all.
    """
    classes = [
        (relative, node)
        for relative, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    operators = {"Operator"}
    while True:
        grown = operators | {node.name for _, node in classes if _base_names(node) & operators}
        if grown == operators:
            break
        operators = grown
    assert {"TableScan", "HashJoin", "_Distinct"} <= operators
    defines_execute = {
        (relative, node.name)
        for relative, node in classes
        if node.name in operators
        and any(isinstance(item, ast.FunctionDef) and item.name == "execute" for item in node.body)
    }
    assert defines_execute == {("db/operators/base.py", "Operator")}
    reaches_through = [
        f"{relative}:{node.lineno}"
        for relative, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    ]
    assert reaches_through == []


def test_no_function_outside_expressions_switches_over_the_composite_classes():
    """A walk over expressions goes through ``map_children`` / ``children()``.

    A function may single out a class or two (the aggregate call, the
    conjunction); three or more ``isinstance`` arms over the composites is
    the hand-rolled traversal a new node type would have to be added to.
    """
    switches = set()
    for relative, tree in _modules():
        if relative == "db/expressions.py":
            continue
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tested = set()
            for call in ast.walk(function):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "isinstance"
                    and len(call.args) == 2
                ):
                    tested |= {
                        node.id for node in ast.walk(call.args[1]) if isinstance(node, ast.Name)
                    } & COMPOSITE_EXPRESSIONS
            if len(tested) >= 3:
                switches.add(f"{relative}:{function.name}")
    assert switches == READS_A_PREDICATE_SHAPE


# -- (e) one route, one module, one answer type ---------------------------------------


def test_the_engine_is_the_walk_and_every_route_hands_back_the_one_answer_type():
    """``core/approx/engine.py`` walks ``ROUTES`` and holds no route: gates,
    sketches and answers live in the route's own module under ``routes/``,
    and all of them return :class:`ApproximateAnswer` — there is no second
    result type to re-wrap field by field."""
    approx = {relative: tree for relative, tree in _modules() if relative.startswith("core/approx/")}
    route_parts = [
        node.name
        for node in ast.walk(approx["core/approx/engine.py"])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith(("_gate", "_sketch", "_answer"))
    ]
    assert route_parts == []
    answer_types = {
        (relative, node.name)
        for relative, tree in approx.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Answer")
    }
    assert answer_types == {("core/approx/protocol.py", "ApproximateAnswer")}


def test_no_module_imports_a_private_name_from_the_approx_package():
    """What another module needs of ``repro.core.approx`` has a public name,
    or lives with its one caller."""
    private = [
        f"{relative}:{node.lineno} {node.module}.{alias.name}"
        for relative, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.core.approx")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# -- (f) one answer per lifecycle question ----------------------------------------------

#: Capture settings a refit re-applies; ``metadata`` holds them for the warehouse.
CAPTURE_SETTINGS = {"robust", "method", "partition_id", "min_observations", "policy"}
#: Where numeric reads must go through ``Column.float_numpy`` (NULL -> NaN).
NUMERIC_READERS = ("core/harvester.py", "core/storage/model_switching.py", "core/planner/feedback.py", "streaming/")


def _functions():
    for relative, tree in _modules():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield relative, function


def _is_metadata(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "metadata") or (
        isinstance(node, ast.Attribute) and node.attr == "metadata"
    )


def _reads_a_capture_setting(node: ast.AST) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
        receiver, keys = node.func.value, node.args[:1]
    elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        receiver, keys = node.value, [node.slice]
    else:
        return False
    return _is_metadata(receiver) and any(
        isinstance(key, ast.Constant) and key.value in CAPTURE_SETTINGS for key in keys
    )


def test_capture_settings_are_read_back_in_one_function():
    """How a model was captured is re-read by ``capture_settings`` alone: the
    refit, the on-demand grouped capture and revalidation's gate ask it."""
    readers = {
        f"{relative}:{function.name}"
        for relative, function in _functions()
        if any(_reads_a_capture_setting(node) for node in ast.walk(function))
    }
    assert readers == {"core/harvester.py:capture_settings"}


def _literal_parts(node: ast.JoinedStr) -> list[str | None]:
    """The f-string's literal text, with None for each ``{…}`` field."""
    return [part.value if isinstance(part, ast.Constant) else None for part in node.values]


def test_covered_rows_are_never_selected_by_sql_text_and_predicates_are_narrowed_once():
    """Rows come from ``covered_rows``: no f-string builds ``SELECT … WHERE {…}``,
    and the ``({a}) AND ({b})`` conjunction is ``narrow`` alone."""
    selects, conjunctions = [], []
    for relative, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.JoinedStr):
                continue
            parts = _literal_parts(node)
            for before, after in zip(parts, parts[1:]):
                if after is None and isinstance(before, str) and before.rstrip().endswith("WHERE"):
                    if any(isinstance(p, str) and "SELECT" in p for p in parts):
                        selects.append(f"{relative}:{node.lineno}")
            for i, part in enumerate(parts[1:-1], start=1):
                if part is not None and part.strip() == ") AND (" and parts[i - 1] is None and parts[i + 1] is None:
                    conjunctions.append(relative)
    assert selects == []
    assert conjunctions == ["core/captured_model.py"]


def test_lifecycle_numeric_reads_never_cast_the_null_sentinel():
    """``to_numpy()`` keeps the INT64 NULL sentinel; a float cast of it is
    −9.2·10¹⁸, not a missing value.  Fitting, scoring and verification read
    ``float_numpy()`` instead."""
    casts = []
    for relative, tree in _modules():
        if not relative.startswith(NUMERIC_READERS):
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "astype":
                operands = [node.func.value]
            elif node.func.attr in ("asarray", "array"):
                operands = node.args
            else:
                continue
            if any(
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "to_numpy"
                for operand in operands
                for inner in ast.walk(operand)
            ):
                casts.append(f"{relative}:{node.lineno}")
    assert casts == []
