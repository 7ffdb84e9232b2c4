"""A tree node names its parts and every walk is written once.

Operators: ``execute`` is defined once (``Operator.execute``) as *the children,
then* ``apply`` *on their results* — traced or not, on the cached plan itself.
Expressions: a node states its shape once (``children`` / ``with_children``)
and ``map_children``, ``referenced_columns`` and the planner's rewrites are
derived from the pair; the explicit per-class recursions they replaced are
kept here as the reference.
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "approx"))

from query_gen import TableProfile, generate_queries  # noqa: E402

from repro.db.database import Database  # noqa: E402
from repro.db.expressions import (  # noqa: E402
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    col,
)
import repro.db.operators.scan as scan_module  # noqa: E402
from repro.db.io_model import IOModel  # noqa: E402
from repro.db.operators import Filter, MaterializedInput, Operator  # noqa: E402
from repro.db.sql.ast import Star  # noqa: E402
from repro.db.sql.parser import parse  # noqa: E402
from repro.db.sql.planner import _map_columns, plan_select  # noqa: E402
from repro.db.table import Table  # noqa: E402
from repro.obs import Span, Tracer  # noqa: E402

GROUPS = tuple(range(6))
X_DOMAIN = tuple(float(v) for v in range(5))
PROFILE = TableProfile(
    name="readings",
    group_column="g",
    input_column="x",
    output_column="y",
    group_values=GROUPS,
    input_domain=X_DOMAIN,
    input_low=min(X_DOMAIN),
    input_high=max(X_DOMAIN),
)
#: The generator's statements are single-table aggregates; these add the
#: operator and expression classes it never emits.
EXTRA_SQL = [
    "SELECT DISTINCT g FROM readings",
    "SELECT g, y FROM readings ORDER BY y DESC LIMIT 5 OFFSET 2",
    "SELECT x FROM readings LIMIT 7 OFFSET 3",
    "SELECT g, sum(y) AS s FROM readings GROUP BY g HAVING sum(y) > 10 ORDER BY g",
    "SELECT r.g, d.label, -r.y AS neg FROM readings r JOIN dims d ON r.g = d.g "
    "WHERE d.label IS NOT NULL AND NOT (r.x > 3) ORDER BY neg",
    "SELECT g, sqrt(abs(y)) AS root FROM readings WHERE y IS NULL OR x IN (1, 2)",
]


def _database(tracer: Tracer | None = None) -> Database:
    rng = np.random.default_rng(5)
    rows = 400
    db = Database(IOModel(tracer=tracer))
    db.register_table(
        Table.from_dict(
            "readings",
            {
                "g": [int(v) for v in rng.integers(0, len(GROUPS), rows)],
                "x": [float(X_DOMAIN[int(i)]) for i in rng.integers(0, len(X_DOMAIN), rows)],
                "y": [float(v) if rng.random() > 0.05 else None for v in rng.normal(10.0, 4.0, rows)],
            },
        )
    )
    db.register_table(
        Table.from_dict("dims", {"g": list(GROUPS), "label": ["a", None, "c", "d", None, "f"]})
    )
    return db


def _corpus_sql() -> list[str]:
    generated = generate_queries(np.random.default_rng(21), PROFILE, count=40)
    return [query.sql for query in generated] + EXTRA_SQL


def _walk(node: Operator):
    yield node
    for child in node.children():
        yield from _walk(child)


def _repro_operator_classes(base: type = Operator) -> set[type]:
    found = set()
    for cls in base.__subclasses__():
        if cls.__module__.startswith("repro."):
            found.add(cls)
        found |= _repro_operator_classes(cls)
    return found


def _same_table(left: Table, right: Table) -> bool:
    return left.schema.names == right.schema.names and repr(left.to_rows()) == repr(right.to_rows())


# -- operators --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def plans():
    db = _database()
    planned = [plan_select(parse(sql), db.catalog, db.io_model).root for sql in _corpus_sql()]
    # The one operator no SQL statement plans.
    table = db.table("readings")
    return planned + [Filter(MaterializedInput(table), col("x") > 2.0)]


def test_the_corpus_reaches_every_operator_class(plans):
    seen = {type(node) for root in plans for node in _walk(root)}
    assert seen == _repro_operator_classes()


def test_execute_is_apply_over_the_childrens_results(plans):
    for root in plans:
        for node in _walk(root):
            inputs = [child.execute() for child in node.children()]
            assert _same_table(node.execute(), node.apply(*inputs)), node.explain()


def _span_shape(span: Span, indent: int = 0) -> list[str]:
    lines = ["  " * indent + span.attributes["operator"]]
    for child in span.children:
        lines.extend(_span_shape(child, indent + 1))
    return lines


def test_a_traced_run_mirrors_the_plan(plans):
    tracer = Tracer()
    for root in plans:
        with tracer.trace("run") as run:
            result = root.execute(tracer)
        (top,) = run.children
        assert "\n".join(_span_shape(top)) == root.explain()
        assert top.span_names() == [f"op:{type(node).__name__}" for node in _walk(root)]
        assert top.attributes["rows_out"] == result.num_rows
        assert _same_table(result, root.execute())
    # Outside a trace the same call records nothing.
    before = len(tracer.traces())
    plans[0].execute(tracer)
    assert len(tracer.traces()) == before and not tracer.active


def test_a_traced_constrained_scan_works_out_its_kept_rows_once(monkeypatch):
    """The span's ``blocks=kept/total`` and the read share one ``kept_rows`` pass."""
    db = _database()
    root = plan_select(parse("SELECT count(*) FROM readings WHERE x > 2"), db.catalog, db.io_model).root
    calls = []
    real = scan_module.kept_rows

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scan_module, "kept_rows", counting)
    tracer = Tracer()
    with tracer.trace("run") as run:
        root.execute(tracer)
    assert len(calls) == 1
    monkeypatch.undo()
    assert "\n".join(_span_shape(run.children[0])) == root.explain()


def test_one_cached_plan_serves_traced_and_untraced_threads_at_once():
    """What the per-traced-run plan copy existed to protect, now true by construction."""
    rounds = 200
    tracer = Tracer(keep_traces=rounds)
    db = _database(tracer)
    executor = db.executor
    prepared = executor.prepare(EXTRA_SQL[3])
    expected = executor.run(prepared).rows()
    root = prepared.plan[1].root
    nodes = list(_walk(root))
    attributes = [dict(vars(node)) for node in nodes]
    shape = ["query"] + [f"op:{type(node).__name__}" for node in nodes]
    failures: list[str] = []
    stop = threading.Event()

    def traced() -> None:
        try:
            for _ in range(rounds):
                with tracer.trace("query") as trace:
                    rows = executor.run(prepared).rows()
                if rows != expected or trace.span_names() != shape:
                    failures.append(f"traced: {trace.span_names()}")
        finally:
            stop.set()

    def untraced() -> None:
        while not stop.is_set():
            if executor.run(prepared).rows() != expected or tracer.active:
                failures.append("untraced run went wrong")

    threads = [threading.Thread(target=traced)] + [threading.Thread(target=untraced) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # One complete tree per traced run, none from the untraced threads.
    assert [trace.span_names() for trace in tracer.traces()] == [shape] * rounds
    # The shared plan was neither replaced, copied nor written to.
    assert prepared.plan[1].root is root
    assert [dict(vars(node)) for node in nodes] == attributes
    assert all(
        value is before[name]
        for node, before in zip(nodes, attributes)
        for name, value in vars(node).items()
    )


# -- expressions ------------------------------------------------------------------------


def _reference_children(expression: Expression) -> list[Expression]:
    if isinstance(expression, BinaryOp):
        return [expression.left, expression.right]
    if isinstance(expression, (UnaryOp, IsNull)):
        return [expression.operand]
    if isinstance(expression, FunctionCall):
        return list(expression.args)
    if isinstance(expression, Between):
        return [expression.operand, expression.low, expression.high]
    if isinstance(expression, InList):
        return [expression.operand, *expression.values]
    assert isinstance(expression, (ColumnRef, Literal)), type(expression)
    return []


def _reference_referenced_columns(expression: Expression) -> set[str]:
    if isinstance(expression, ColumnRef):
        return {expression.name}
    out: set[str] = set()
    for child in _reference_children(expression):
        out |= _reference_referenced_columns(child)
    return out


def _reference_map_columns(expression: Expression, rename) -> Expression:
    """``_map_columns`` as it was: one arm per node class."""
    if isinstance(expression, ColumnRef):
        return ColumnRef(rename(expression.name))
    if isinstance(expression, Literal):
        return expression
    if isinstance(expression, BinaryOp):
        return BinaryOp(
            expression.op,
            _reference_map_columns(expression.left, rename),
            _reference_map_columns(expression.right, rename),
        )
    if isinstance(expression, UnaryOp):
        return UnaryOp(expression.op, _reference_map_columns(expression.operand, rename))
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name, tuple(_reference_map_columns(a, rename) for a in expression.args)
        )
    if isinstance(expression, Between):
        return Between(
            _reference_map_columns(expression.operand, rename),
            _reference_map_columns(expression.low, rename),
            _reference_map_columns(expression.high, rename),
        )
    if isinstance(expression, InList):
        return InList(
            _reference_map_columns(expression.operand, rename),
            [_reference_map_columns(v, rename) for v in expression.values],
        )
    assert isinstance(expression, IsNull), type(expression)
    return IsNull(_reference_map_columns(expression.operand, rename), expression.negated)


def _corpus_expressions() -> list[Expression]:
    roots: list[Expression] = []
    for sql in _corpus_sql():
        statement = parse(sql)
        roots += [item.expression for item in statement.items if not isinstance(item.expression, Star)]
        roots += [e for e in (statement.where, statement.having) if e is not None]
        roots += list(statement.group_by) + [order.expression for order in statement.order_by]
    every: list[Expression] = []
    while roots:
        expression = roots.pop()
        every.append(expression)
        roots += _reference_children(expression)
    return every


def test_the_corpus_reaches_every_expression_class():
    assert {type(e) for e in _corpus_expressions()} == {
        ColumnRef, Literal, BinaryOp, UnaryOp, FunctionCall, Between, InList, IsNull
    }  # fmt: skip


def test_every_walk_agrees_with_the_per_class_recursion_it_replaced():
    for expression in _corpus_expressions():
        assert expression.with_children(*expression.children()) == expression
        assert expression.map_children(lambda child: child) == expression
        assert list(expression.children()) == _reference_children(expression)
        assert expression.referenced_columns() == _reference_referenced_columns(expression)
        assert _map_columns(expression, str.upper) == _reference_map_columns(expression, str.upper)


def test_a_node_that_states_no_shape_fails_loudly():
    class Opaque(Expression):
        pass

    with pytest.raises(NotImplementedError):
        _map_columns(BinaryOp("+", ColumnRef("x"), Opaque()), str.upper)
