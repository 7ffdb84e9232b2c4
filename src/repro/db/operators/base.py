"""Operator base class: the one walk over a physical plan."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.db.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer

__all__ = ["Operator"]


class Operator:
    """A node in a physical query plan.

    A node names its inputs (:meth:`children`) and says what it computes from
    their results (:meth:`apply`); how the tree is walked — and traced — is
    written once, in :meth:`execute`.  Execution is pull-based at table
    granularity: the simplest model that still lets the benchmarks measure
    per-query IO and CPU, which is all the paper's experiments need.

    Nodes hold no per-execution state and ``execute`` writes to none, so a
    cached plan is shared across executions and threads as it is, traced or
    not — never copied, never patched.
    """

    def apply(self, *inputs: Table) -> Table:
        """This node's result as a function of its children's results.

        ``inputs`` arrive in :meth:`children` order; a leaf takes none.
        """
        raise NotImplementedError

    def children(self) -> list["Operator"]:
        """Child operators, for execution, plan display and rewriting."""
        return []

    def execute(self, tracer: "Tracer | None" = None) -> Table:
        """Execute this subtree: the children, then :meth:`apply` on their results.

        While a trace is open on ``tracer``, every node runs inside its own
        ``op:<Class>`` span, so the spans nest into the plan's shape by
        construction.  The root makes the one ``tracer.active`` test;
        untraced, the children run without it.
        """
        if tracer is None or not tracer.active:
            return self.apply(*[child.execute() for child in self.children()])
        with tracer.span(f"op:{type(self).__name__}") as span:
            result, description = self.apply_described(
                *[child.execute(tracer) for child in self.children()]
            )
            span.annotate(operator=description)
            span.annotate(rows_out=result.num_rows)
            return result

    def apply_described(self, *inputs: Table) -> tuple[Table, str]:
        """:meth:`apply` and :meth:`describe` together, for a traced run.

        One call, so a node whose description needs what ``apply`` works out
        anyway (a constrained scan's kept rows) works it out once.
        """
        return self.apply(*inputs), self.describe()

    def explain(self, indent: int = 0) -> str:
        """Render the plan subtree as indented text."""
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line description of this operator."""
        return type(self).__name__
