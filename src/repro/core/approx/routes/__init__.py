"""The answer routes, in routing order.

One module per route, each the :class:`~repro.core.approx.protocol.Route`
triple — ``gate`` / ``sketch`` / ``answer`` — handing back the one
:class:`~repro.core.approx.protocol.ApproximateAnswer`:

* :mod:`~repro.core.approx.routes.grouped` — ``GROUP BY`` aggregates
  evaluated per group, the per-group model-vs-exact split decided by
  :mod:`~repro.core.approx.routes.router` (healthy groups from models,
  uncovered groups computed exactly and merged);
* :mod:`~repro.core.approx.routes.point` — every input and group key pinned
  by equality: one model evaluation;
* :mod:`~repro.core.approx.routes.range_agg` — ungrouped aggregates
  evaluated/integrated over the model's input box, clipped by the range
  predicates (``range-aggregate``) or whole (``analytic-aggregate``);
* :mod:`~repro.core.approx.routes.virtual` — the general route: enumerate
  the parameter space and run the statement's plan over the generated table.

:mod:`~repro.core.approx.routes.aggcalc` holds the SELECT-list analysis and
the row-weighted value/error computation the grouped and range routes share.
The engine walks :data:`ROUTES` and knows nothing else about a route; adding
one means writing its module and listing its ``ROUTE`` here.
"""

from repro.core.approx.protocol import Route
from repro.core.approx.routes import grouped, point, range_agg, virtual

__all__ = ["ROUTES"]

ROUTES: tuple[Route, ...] = (
    grouped.ROUTE,
    point.ROUTE,
    range_agg.RANGE_ROUTE,
    range_agg.ANALYTIC_ROUTE,
    virtual.ROUTE,
)
