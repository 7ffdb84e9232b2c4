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
* :mod:`~repro.core.approx.routes.range_agg` — aggregates without ``GROUP
  BY``, with a ``WHERE`` (``range-aggregate``) or without
  (``analytic-aggregate``), over an ungrouped or a grouped model;
* :mod:`~repro.core.approx.routes.virtual` — non-aggregate selections:
  enumerate the parameter space and run the statement's plan over the
  generated table.

:mod:`~repro.core.approx.routes.aggcalc` is the aggregate kernel the grouped
and aggregate routes share: ``(parameter rows, restriction) → per-group
values and errors``, and the one reduction across groups.
The engine walks :data:`ROUTES` and knows nothing else about a route; adding
one means writing its module and listing its ``ROUTE`` here.
"""

from repro.core.approx.protocol import Route
from repro.core.approx.routes import grouped, point, range_agg, virtual

__all__ = ["ROUTES"]

ROUTES: tuple[Route, ...] = (
    grouped.ROUTE,
    point.ROUTE,
    range_agg.ROUTE,
    virtual.ROUTE,
)
