"""Strawman frames: the user-facing proxy that makes interception invisible.

The paper builds on earlier work (Mühleisen & Lumley, SSDBM'13) in which a
"strawman object" in the statistical environment wraps a database table but
is indistinguishable from a local dataset; every operation on it is forwarded
to the database.  :class:`StrawmanFrame` is that object for this
reproduction: it looks like a small dataframe (columns, len, head, summary,
column access as NumPy arrays) and its :meth:`fit` method ships the model
formula to the engine, where the harvester fits *and captures* it — the user
only ever sees the goodness of fit (Figure 2, steps 1-3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.captured_model import ModelCoverage, covered_rows, narrow
from repro.core.harvester import HarvestReport
from repro.db.table import Table
from repro.errors import HarvestError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.system import LawsDatabase

__all__ = ["StrawmanFrame"]


class StrawmanFrame:
    """A dataframe-looking proxy over a database table (or filtered subset)."""

    def __init__(
        self,
        system: "LawsDatabase",
        table_name: str,
        predicate_sql: str | None = None,
    ) -> None:
        self._system = system
        self._table_name = table_name
        self._predicate_sql = predicate_sql

    # -- dataframe-ish surface -----------------------------------------------------

    @property
    def table_name(self) -> str:
        return self._table_name

    @property
    def predicate(self) -> str | None:
        return self._predicate_sql

    @property
    def columns(self) -> list[str]:
        return self._system.table(self._table_name).schema.names

    def __len__(self) -> int:
        return self._materialise().num_rows

    def __getitem__(self, column: str) -> np.ndarray:
        """Column access, returning a NumPy array like a local dataframe would."""
        table = self._materialise()
        if column not in table.schema:
            raise KeyError(column)
        return table.column(column).to_numpy()

    def head(self, n: int = 10) -> Table:
        return self._materialise().head(n)

    def to_table(self) -> Table:
        return self._materialise()

    def filter(self, predicate_sql: str) -> "StrawmanFrame":
        """A new strawman restricted by an additional WHERE predicate.

        Fitting against a filtered strawman produces a *partial* model whose
        coverage records the predicate (§4.1, "multiple, partial or grouped
        models").
        """
        return StrawmanFrame(self._system, self._table_name, narrow(self._predicate_sql, predicate_sql))

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per-column summary statistics, like a statistical environment's summary()."""
        stats = self._system.database.stats(self._table_name)
        out: dict[str, dict[str, Any]] = {}
        for name, column_stats in stats.columns.items():
            out[name] = {
                "dtype": column_stats.dtype.value,
                "count": column_stats.row_count - column_stats.null_count,
                "nulls": column_stats.null_count,
                "distinct": column_stats.distinct_count,
                "min": column_stats.min_value,
                "max": column_stats.max_value,
                "mean": column_stats.mean,
                "std": column_stats.std,
            }
        return out

    # -- the interception point -------------------------------------------------------

    def fit(
        self,
        formula: str,
        group_by: str | list[str] | None = None,
        robust: bool = False,
        method: str = "lm",
    ) -> HarvestReport:
        """Fit a model formula *in the database* and return the goodness of fit.

        The fit is transparently captured by the harvester; the caller gets
        back exactly what a statistical environment would return (parameters
        and fit quality via the :class:`HarvestReport`).
        """
        return self._system.harvester.fit_and_capture(
            self._table_name,
            formula,
            group_by=group_by,
            predicate_sql=self._predicate_sql,
            robust=robust,
            method=method,
        )

    # -- internals ------------------------------------------------------------------------

    def _materialise(self) -> Table:
        table = self._system.table(self._table_name)
        # The rows a fit on this frame would cover.
        scope = ModelCoverage(self._table_name, (), "", predicate_sql=self._predicate_sql)
        try:
            return covered_rows(table, scope)
        except Exception as exc:  # surface a clearer error for bad predicates
            raise HarvestError(
                f"could not materialise strawman for {self._table_name!r} "
                f"with predicate {self._predicate_sql!r}: {exc}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        predicate = f" WHERE {self._predicate_sql}" if self._predicate_sql else ""
        return f"StrawmanFrame({self._table_name}{predicate})"
