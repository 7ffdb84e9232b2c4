"""Physical query operators.

Each operator consumes and produces :class:`~repro.db.table.Table` objects.
The executor wires them into a tree; the leaves are
:class:`~repro.db.operators.scan.TableScan` nodes that charge the simulated
IO model.
"""

from repro.db.operators.base import Operator
from repro.db.operators.scan import TableScan, MaterializedInput
from repro.db.operators.filter import Filter
from repro.db.operators.project import Project, Projection
from repro.db.operators.aggregate import Aggregate, AggregateSpec
from repro.db.operators.join import HashJoin
from repro.db.operators.sort import Sort
from repro.db.operators.limit import Limit
from repro.db.operators.topn import TopN

__all__ = [
    "Operator",
    "TableScan",
    "MaterializedInput",
    "Filter",
    "Project",
    "Projection",
    "Aggregate",
    "AggregateSpec",
    "HashJoin",
    "Sort",
    "Limit",
    "TopN",
]
