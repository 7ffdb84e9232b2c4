"""A component is born with what it reports to.

``LawsDatabase.__init__`` creates the collectors first and passes them — with
the resilience equipment and the guards — to the constructor of every layer;
nothing is assigned into a component afterwards, and "telemetry is off" has
one representation: the collector's own ``enabled`` flag.
"""

from __future__ import annotations

import ast
import re
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
        # The archive tier holds no injector: it writes through the store's.
        holders |= {"durable": db.durable, "durable.wal": db.durable.wal}
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
#: to dissolve.
ASSIGNED_AFTER_CONSTRUCTION = {
    ("db/sql/executor.py", "self.parallel", "born None"),
    ("core/system.py", "self.database.executor.parallel", "assigned into"),
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


def test_what_a_table_archived_has_one_record_and_every_reader_asks_it():
    """The archive record is catalog metadata (``repro.db.archived``): no
    component is handed a ``*_guard`` callback to ask on its behalf, the
    façade never asks whether a tier exists, and the tier keeps no per-table
    copy of the record."""
    guards = [
        f"{relative}:{node.lineno} {arg.arg}"
        for relative, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg.endswith("_guard")
    ]
    assert guards == []
    trees = dict(_modules())
    tier_tests = [
        node.lineno
        for node in ast.walk(trees["core/system.py"])
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "archive_tier"
            for side in (node.left, *node.comparators)
        )
    ]
    assert tier_tests == []
    segments = [
        node.lineno
        for node in ast.walk(trees["persist/archive.py"])
        if isinstance(node, ast.Attribute) and _dotted(node) == "self._segments"
    ]
    assert segments == []


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


def test_no_lazy_attribute_takes_a_lock():
    """``functools.cached_property`` holds a class-wide lock while it computes
    on Python < 3.12: one query's first statistics read would block every
    other query's.  Lazy attributes are :class:`repro.lazy.lazy_attribute`."""
    found = [
        f"{relative}:{node.lineno}"
        for relative, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (isinstance(node, ast.alias) and node.name == "cached_property")
    ]
    assert found == []


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


def _called_name(node: ast.Call) -> str | None:
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def test_aggregates_are_evaluated_by_the_one_kernel_and_every_admitted_route_answers():
    """``predict_many`` and ``evaluate_over_domains`` are called from the
    aggregate kernel alone; the aggregate rung does not fork on whether its
    model is grouped (the kernel's parameter rows are); and no route's
    ``answer`` returns None — a refusal is its gate's, so a sketch that names
    a route is followed by that route."""
    routes = {relative: tree for relative, tree in _modules() if relative.startswith("core/approx/routes/")}
    evaluators = {
        relative
        for relative, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) in ("predict_many", "evaluate_over_domains")
    }
    assert evaluators == {"core/approx/routes/aggcalc.py"}
    forks = [
        node.lineno
        for node in ast.walk(routes["core/approx/routes/range_agg.py"])
        if (isinstance(node, ast.Attribute) and node.attr == "is_grouped")
        or (isinstance(node, ast.Name) and node.id == "is_grouped")
    ]
    assert forks == []
    answers = []
    for relative, tree in routes.items():
        functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "Route":
                answers.append((relative, functions[node.args[2].id]))
    assert len(answers) == 4
    returns_none = [
        f"{relative}:{function.name}"
        for relative, function in answers
        if (function.returns is not None and "None" in ast.unparse(function.returns))
        or any(
            isinstance(node, ast.Return) and (node.value is None or ast.unparse(node.value) == "None")
            for node in ast.walk(function)
        )
    ]
    assert returns_none == []


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


# -- (g) one way to write and read a durable byte ----------------------------------------

#: Fault arrival, retry and sync: ``persist/files.py`` is the only caller under ``persist/``.
DISK_DISCIPLINE = {"fsync", "hit", "filter_bytes", "apply", "retry", "is_transient"}


def test_persist_files_are_written_and_read_through_one_module():
    """Every persist file goes through ``persist/files.py``: no other module
    under ``persist/`` arrives at a fault point, enacts a cooperative fault,
    retries or fsyncs on its own."""
    found = [
        f"{relative}:{node.lineno} {ast.unparse(node.func)}"
        for relative, tree in _modules()
        if relative.startswith("persist/") and relative != "persist/files.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) in DISK_DISCIPLINE
    ]
    assert found == []


#: The two segment functions: ``persist/store.py`` is their only caller under ``src/``.
SEGMENT_IO = {"write_table_segments", "read_table_segments"}


def test_segments_are_written_and_read_by_the_store_alone():
    """Every segment file lands in the store's one pool under its one name
    sequence: checkpoints, bulk loads and the archive tier all go through
    ``DurableStore.write_segments`` / ``read_segments``."""
    found = [
        f"{relative}:{node.lineno} {ast.unparse(node.func)}"
        for relative, tree in _modules()
        if relative != "persist/store.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) in SEGMENT_IO
    ]
    assert found == []


def test_rows_are_made_durable_as_one_segment():
    """A redo record carries the rows it writes as one segment, in one frame:
    nothing under ``persist/`` walks a table back into rows (``to_rows`` /
    ``iter_rows``), ``WriteAheadLog`` has no multi-frame ``append_all``, and
    exactly one function of ``persist/store.py`` calls ``self.wal.append``."""
    row_walks, wal_methods, appenders = [], set(), set()
    for relative, tree in _modules():
        if not relative.startswith("persist/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in ("to_rows", "iter_rows"):
                row_walks.append(f"{relative}:{node.lineno} {ast.unparse(node.func)}")
            elif isinstance(node, ast.ClassDef) and node.name == "WriteAheadLog":
                wal_methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
    for relative, function in _functions():
        if relative == "persist/store.py" and any(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "self.wal.append"
            for node in ast.walk(function)
        ):
            appenders.add(function.name)
    assert row_walks == []
    assert "append" in wal_methods and "append_all" not in wal_methods
    assert len(appenders) == 1, appenders


#: What a fit's per-group record layer was called: a grouped fit is its
#: parameter table now, and nothing may reach for a record again.
RECORD_LAYER = {"GroupFitRecord", "StackedFits"}
RECORD_ACCESSORS = {"records", "stacked", "fitted", "failed"}
#: Capture and the warehouse are the two writers of a ``GroupedFitResult``.
TABLE_BUILDERS = {"fitting/grouped.py", "persist/warehouse.py"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_a_grouped_fit_is_its_parameter_table():
    """No fit-record walk outside ``fitting/grouped.py``: nothing under
    ``src/`` names the record layer or reads ``.records`` / ``.stacked`` /
    ``.fitted`` / ``.failed`` off a fit, no loop elsewhere builds one
    ``result_for`` view per group (routes read the table's columns), and
    only capture and the warehouse construct a ``GroupedFitResult``."""
    walks, builders = [], set()
    for relative, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in RECORD_LAYER:
                walks.append(f"{relative}:{node.lineno} {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in RECORD_ACCESSORS:
                owner = _dotted(node.value) or ""
                if owner.split(".")[-1] in ("fit", "grouped"):
                    walks.append(f"{relative}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and _called_name(node) == "GroupedFitResult":
                builders.add(relative)
            elif isinstance(node, LOOPS) and relative != "fitting/grouped.py":
                walks.extend(
                    f"{relative}:{inner.lineno} {ast.unparse(inner.func)} in a loop"
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.Call) and _called_name(inner) in ("result_for", "result_for_group")
                )
    assert walks == []
    assert builders == TABLE_BUILDERS


def test_block_synopses_are_read_by_the_scan_alone():
    """``db/operators/scan.py`` is the only caller of ``block_synopsis()``
    under ``src/``: pruning, the top-N bound and the blocks answered from
    synopses all come out of its one classifier, ``kept_rows``."""
    found = [
        f"{relative}:{node.lineno} {ast.unparse(node.func)}"
        for relative, tree in _modules()
        if relative != "db/operators/scan.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "block_synopsis"
    ]
    assert found == []


def test_a_buffer_is_read_by_its_column_alone_and_a_scan_charges_stored_widths():
    """Only ``db/column.py`` touches a ``_Buffer`` or its ``data``: every other
    module reads a column through ``stored`` (the physical, possibly narrow
    array) or ``values`` (int64 / float64).  And ``db/operators/scan.py``
    never reads a ``byte_width``: a scan is charged each column's
    ``stored_width``, the nominal width is the cost model's."""
    found = [
        f"{relative}:{node.lineno} {ast.unparse(node)}"
        for relative, tree in _modules()
        if relative != "db/column.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_Buffer")
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "data"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_buffer"
        )
    ]
    scan = ast.parse((SRC / "db/operators/scan.py").read_text())
    found += [
        f"db/operators/scan.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(scan)
        if isinstance(node, ast.Attribute) and node.attr == "byte_width"
    ]
    assert found == []


def test_the_where_clause_is_evaluated_by_the_scans_and_the_filter_above_the_joins():
    """``db/sql/planner.py`` builds a ``Filter`` for two things only: HAVING,
    and the rest of the WHERE clause that ``_build_from_clause`` could not
    hand to one table's scan.  Every other conjunct runs inside the scan,
    which hands ``ScannedRows`` straight to the ``Aggregate`` — nothing
    filters them, so they define no ``filter``."""
    trees = dict(_modules())
    build = next(
        node
        for node in ast.walk(trees["db/sql/planner.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "build"
    )
    filters = [
        (function.name, ast.unparse(node.args[1]))
        for function in ast.walk(trees["db/sql/planner.py"])
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and _called_name(node) == "Filter"
    ]
    assert sorted(filters) == [
        ("build", "rest"),
        ("build", "self._resolve(rewritten_having, post_available)"),
    ]
    binds_rest = [
        ast.unparse(node.value)
        for node in ast.walk(build)
        if isinstance(node, ast.Assign) and "rest" in set().union(*map(_bound_names, node.targets))
    ]
    assert len(binds_rest) == 1 and binds_rest[0].startswith("self._build_from_clause(")
    scanned_rows = next(
        node
        for node in ast.walk(trees["db/operators/scan.py"])
        if isinstance(node, ast.ClassDef) and node.name == "ScannedRows"
    )
    assert [item.name for item in scanned_rows.body if isinstance(item, ast.FunctionDef)] == ["__init__"]


def test_no_operator_writes_to_itself_after_it_is_built():
    """Plans are cached and shared across executions and threads: an operator
    assigns to ``self.*`` in ``__init__`` alone, so what one execution works
    out (a scan's survivors, a join's matches) stays in its locals."""
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
    writes = []
    for relative, node in classes:
        if node.name not in operators:
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                continue
            for inner in ast.walk(method):
                if isinstance(inner, ast.Assign):
                    targets = inner.targets
                elif isinstance(inner, (ast.AugAssign, ast.AnnAssign)):
                    targets = [inner.target]
                elif isinstance(inner, ast.Call) and _called_name(inner) in ("setattr", "delattr"):
                    targets = inner.args[:1]
                else:
                    continue
                writes.extend(
                    f"{relative}:{inner.lineno} {node.name}.{method.name}"
                    for target in targets
                    if any(isinstance(part, ast.Name) and part.id == "self" for part in ast.walk(target))
                )
    assert writes == []


def _reads_keys(node: ast.AST, tainted: set[str]) -> bool:
    return any(
        (isinstance(inner, ast.Attribute) and inner.attr == "key_columns")
        or (isinstance(inner, ast.Name) and inner.id in tainted)
        for inner in ast.walk(node)
    )


def _bound_names(target: ast.expr) -> set[str]:
    return {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}


def test_a_fits_keys_map_to_rows_in_one_module():
    """``GroupedFitResult.index`` — the scalar key -> row dict behind
    ``result_for`` — is read only in ``fitting/grouped.py``, and no function
    under ``core/approx/`` builds a dict from a fit's ``key_columns`` or
    anything derived from them: a key -> row mapping there is ``rows_of`` /
    ``key_rows``, one factorisation."""
    found = []
    for relative, tree in _modules():
        if relative == "fitting/grouped.py":
            continue
        methods = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        found.extend(
            f"{relative}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "index" and id(node) not in methods
            and (_dotted(node.value) or "").split(".")[-1] in ("fit", "grouped")
        )  # fmt: skip
    for relative, function in _functions():
        if not relative.startswith("core/approx/"):
            continue
        # Names bound from the keys, to a fixed point: ``aligned = zip(*keys)``.
        tainted = {"key_columns"}
        while True:
            bound = set()
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                elif isinstance(node, (ast.For, ast.comprehension)):
                    targets, value = [node.target], node.iter
                else:
                    continue
                if _reads_keys(value, tainted):
                    bound |= set().union(*map(_bound_names, targets))
            if bound <= tainted:
                break
            tainted |= bound
        found.extend(
            f"{relative}:{node.lineno} {ast.unparse(node)[:60]}"
            for node in ast.walk(function)
            if (
                isinstance(node, (ast.Dict, ast.DictComp))
                or (isinstance(node, ast.Call) and _dotted(node.func) in ("dict", "dict.fromkeys"))
            )
            and _reads_keys(node, tainted)
        )
    assert found == []


#: The per-key dicts a grouped answer no longer carries, per class.
PER_KEY_FIELDS = {"ApproximateAnswer": {"group_values", "group_errors", "group_routes"}, "ModelBatch": {"route"}}


def _zips_pylists(node: ast.AST, tainted: set[str]) -> bool:
    """Whether ``node`` reads ``zip(*(… .to_pylist() …))`` or a name bound from one."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and inner.id in tainted:
            return True
        if isinstance(inner, ast.Call) and _called_name(inner) == "zip":
            starred = [call for arg in inner.args if isinstance(arg, ast.Starred) for call in ast.walk(arg)]
            if any(isinstance(call, ast.Call) and _called_name(call) == "to_pylist" for call in starred):
                return True
    return False


def test_a_grouped_answer_is_verified_from_its_vectors():
    """A grouped answer carries its routing's vectors and verification reads
    them: ``core/planner/feedback.py`` imports no ``re`` and turns no result
    into rows, ``ApproximateAnswer`` declares no per-key dicts and
    ``ModelBatch`` no route string, and no function under
    ``core/approx/routes/`` builds a dict keyed by python key tuples
    (``zip(*(… .to_pylist() …))``)."""
    found = []
    feedback = ast.parse((SRC / "core/planner/feedback.py").read_text())
    for node in ast.walk(feedback):
        if isinstance(node, ast.Import) and any(alias.name == "re" for alias in node.names):
            found.append(f"core/planner/feedback.py:{node.lineno} import re")
        elif isinstance(node, ast.ImportFrom) and node.module == "re":
            found.append(f"core/planner/feedback.py:{node.lineno} from re import")
        elif isinstance(node, ast.Call) and _called_name(node) in ("to_rows", "iter_rows", "row"):
            found.append(f"core/planner/feedback.py:{node.lineno} {ast.unparse(node.func)}")
    for relative, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in PER_KEY_FIELDS:
                found.extend(
                    f"{relative}:{stmt.lineno} {node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.target.id in PER_KEY_FIELDS[node.name]
                )  # fmt: skip
    for relative, function in _functions():
        if not relative.startswith("core/approx/routes/"):
            continue
        tainted = {
            name
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and _zips_pylists(node.value, set())
            for name in set().union(*map(_bound_names, node.targets))
        }
        found.extend(
            f"{relative}:{node.lineno} {ast.unparse(node)[:60]}"
            for node in ast.walk(function)
            if (
                isinstance(node, (ast.Dict, ast.DictComp))
                or (isinstance(node, ast.Call) and _dotted(node.func) in ("dict", "dict.fromkeys"))
            )
            and _zips_pylists(node, tainted)
        )
    assert found == []


def test_an_exact_aggregate_is_finalised_in_one_module():
    """What an exact ``STDDEV`` / ``VAR`` means is written once: outside
    ``core/`` and ``fitting/`` (the models' own statistics), only
    ``db/operators/aggregate.py`` names those functions, and no module
    defines a second way to finish an aggregate — no ``compute_aggregate``,
    no ``merge_global``, no ``fold`` method."""
    found = []
    for relative, tree in _modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and node.value in ("stddev", "var")
                and relative != "db/operators/aggregate.py"
                and not relative.startswith(("core/", "fitting/"))
            ):
                found.append(f"{relative}:{node.lineno} {node.value!r}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (
                "compute_aggregate",
                "merge_global",
            ):
                found.append(f"{relative}:{node.lineno} def {node.name}")
            elif isinstance(node, ast.ClassDef):
                found.extend(
                    f"{relative}:{item.lineno} {node.name}.fold"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "fold"
                )
    assert found == []


#: How statistics freshness was kept in five modules before the catalog kept
#: it per data generation; none of these may come back under ``src/``.
STATISTICS_BOOKKEEPING = (
    "stats_clean",
    "merge_stats_delta",
    "mark_dirty",
    "_stats_dirty",
    "_publish_stats",
    "on_computed",
)
MUTATORS = {"pop", "setdefault", "update", "clear", "popitem"}


def _stats_writes(tree: ast.AST):
    """``(line, class, target)`` of every write to a ``_stats`` or
    ``stats_memo`` attribute — assigned, item-assigned or mutated in place —
    with the class it is written in (None at module level)."""
    classes = {
        id(child): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for child in ast.walk(node)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and _called_name(node) in MUTATORS:
            targets = [node.func.value] if isinstance(node.func, ast.Attribute) else []
        else:
            continue
        for target in targets:
            for element in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(element, ast.Subscript):
                    element = element.value
                if isinstance(element, ast.Attribute) and element.attr in ("_stats", "stats_memo"):
                    yield node.lineno, classes.get(id(node)), ast.unparse(element)


def test_statistics_are_kept_by_the_catalog_alone():
    """One generation-keyed cache, written by ``db/catalog.py`` alone: no other
    module writes a catalog's ``_stats`` or a snapshot's memo (a class's own
    unrelated ``self._stats`` aside), only the catalog merges live-table
    statistics (``db/archived.py`` folds archived rows in), and no freshness
    bookkeeping of the old design is named anywhere."""
    found = []
    for relative, tree in _modules():
        for line, owner, target in _stats_writes(tree):
            own_attribute = target == "self._stats" and owner not in ("Catalog", "CatalogSnapshot")
            empty_memo = target == "self.stats_memo" and owner == "CatalogSnapshot"
            if relative != "db/catalog.py" and not (own_attribute or empty_memo):
                found.append(f"{relative}:{line} {target}")
        found.extend(
            f"{relative}:{node.lineno} {ast.unparse(node.func)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _called_name(node) == "merge_table_stats"
            and relative not in ("db/catalog.py", "db/archived.py")
        )
    pattern = re.compile(r"\b(" + "|".join(STATISTICS_BOOKKEEPING) + r")\b")
    for path in sorted(SRC.rglob("*.py")):
        for line, text in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(text):
                found.append(f"{path.relative_to(SRC).as_posix()}:{line} {text.strip()}")
    assert found == []
