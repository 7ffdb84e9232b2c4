"""Logical-to-physical planning for SELECT statements.

The planner turns a parsed :class:`~repro.db.sql.ast.SelectStatement` into a
tree of physical operators:

``Scan(WHERE) -> [HashJoin]* -> Filter(cross-table rest) -> Aggregate ->
Filter(HAVING) -> Project -> Distinct -> Sort | Limit | TopN ->
Project(strip hidden sort columns)``

``ORDER BY`` alone plans a ``Sort``, ``LIMIT`` alone a ``Limit``, and the two
together one ``TopN`` that selects the wanted rows instead of sorting all.

Every conjunct of the WHERE clause that reads only one table's columns runs
inside that table's scan — all joins are inner, so it selects the same rows
there as above the joins — and only a conjunct over several tables is left
for the ``Filter`` above them.  A scan skips the blocks its min/max synopses
prove empty under its predicate's *necessary* per-column constraints, and
reads every column its predicate does not need only in the blocks that hold
a surviving row.  Each scan and join hands on only the columns read after
it.  A ``TopN`` reaches a scan without a predicate when only the ``Project``
lies between them and its primary key is a bare column: the scan then skips
the blocks that cannot hold one of the best rows.  And a global ``COUNT`` /
``MIN`` / ``MAX`` over one table whose WHERE the constraints describe whole
lets the scan answer the blocks its synopses prove to match row for row
instead of reading them.

It also performs name resolution: qualified column references
(``m.intensity``) are rewritten to the actual column names of the (joined)
input schema, and aggregate function calls in the SELECT list are pulled out
into :class:`~repro.db.operators.aggregate.AggregateSpec` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.db.catalog import Catalog
from repro.db.constraints import conjuncts
from repro.db.expressions import BinaryOp, ColumnRef, Expression, FunctionCall, Literal
from repro.db.io_model import IOModel
from repro.db.operators import (
    Aggregate,
    AggregateSpec,
    Filter,
    HashJoin,
    Limit,
    Operator,
    Project,
    Projection,
    Sort,
    TableScan,
    TopN,
)
from repro.db.operators.aggregate import SUPPORTED_AGGREGATES
from repro.db.operators.join import right_output_names
from repro.db.operators.scan import TopBound
from repro.db.sql.ast import SelectStatement, Star
from repro.db.table import Table
from repro.errors import SQLPlanningError, UnsupportedSQLError

__all__ = ["plan_select", "PlannedQuery"]


@dataclass
class PlannedQuery:
    """The physical plan plus metadata the AQP engine wants to inspect."""

    root: Operator
    statement: SelectStatement
    base_tables: list[str]
    referenced_columns: dict[str, set[str]]


def plan_select(
    statement: SelectStatement,
    catalog: Catalog,
    io_model: IOModel | None = None,
) -> PlannedQuery:
    """Plan a SELECT statement against ``catalog``."""
    if statement.table is None:
        raise UnsupportedSQLError("SELECT without FROM is not supported")

    builder = _PlanBuilder(statement, catalog, io_model)
    return builder.build()


class _PlanBuilder:
    def __init__(self, statement: SelectStatement, catalog: Catalog, io_model: IOModel | None) -> None:
        self.statement = statement
        self.catalog = catalog
        self.io_model = io_model
        #: alias -> real table name
        self.alias_map: dict[str, str] = {}
        #: real table name -> set of its column names
        self.table_columns: dict[str, set[str]] = {}
        #: column names available after the FROM/JOIN stage
        self.available: set[str] = set()
        #: available name of a join right table's column -> (position of the
        #: join, the column's own name in that table), in table order
        self.right_origin: dict[str, tuple[int, str]] = {}

    # -- entry point ---------------------------------------------------------

    def build(self) -> PlannedQuery:
        statement = self.statement
        base, joins = self._bind_from_clause()
        where = self._resolve(statement.where) if statement.where is not None else None
        aggregates, rewritten_items, rewritten_having = self._extract_aggregates()
        group_exprs = [self._resolve(e) for e in statement.group_by]
        grouped = bool(aggregates or group_exprs)
        if grouped:
            post_available = {self._group_key_name(e) for e in group_exprs} | {a.name for a in aggregates}
        else:
            post_available = set(self.available)

        projections = self._build_projections(rewritten_items, post_available, grouped)
        output_names = [p.name for p in projections]

        # ORDER BY may reference columns that are not in the SELECT list (e.g.
        # ``SELECT order_id FROM orders ORDER BY amount``); carry them through
        # the projection as hidden columns and strip them after the sort.
        hidden: list[Projection] = []
        if statement.order_by and not statement.distinct:
            hidden = self._hidden_sort_projections(output_names, post_available)
        keys = self._resolve_order_keys(output_names + [p.name for p in hidden])
        bounded = bool(keys) and statement.limit is not None

        # What the operators above the FROM clause read of its columns.
        above = [*group_exprs, *(a.expression for a in aggregates if a.expression is not None)]
        if not grouped:
            above += [p.expression for p in projections + hidden]
        plan, rest = self._build_from_clause(base, joins, where, above, self._answers(aggregates))
        if rest is not None:
            plan = Filter(plan, rest)
        if grouped:
            plan = Aggregate(plan, group_exprs, aggregates)
        if rewritten_having is not None:
            plan = Filter(plan, self._resolve(rewritten_having, post_available))

        if bounded and isinstance(plan, TableScan) and plan.predicate is None and not statement.distinct:
            # Only the projection lies between the scan and the TopN, and the
            # scan drops no row, so every row of the table competes.
            top = self._top_bound(projections + hidden, keys[0])
            if top is not None:
                plan = self._scan(base, None, plan.projected_columns, top=top)
        plan = Project(plan, projections + hidden)

        if statement.distinct:
            plan = _Distinct(plan)

        if bounded:
            plan = TopN(plan, keys, statement.limit, statement.offset)
        elif keys:
            plan = Sort(plan, keys)
        elif statement.limit is not None:
            plan = Limit(plan, statement.limit, statement.offset)
        if hidden:
            plan = Project(plan, [Projection(ColumnRef(name), alias=name) for name in output_names])

        referenced = self._collect_referenced_columns()
        return PlannedQuery(
            root=plan,
            statement=statement,
            base_tables=list(dict.fromkeys(self.alias_map.values())),
            referenced_columns=referenced,
        )

    # -- FROM / JOIN ------------------------------------------------------------

    def _bind_from_clause(self) -> tuple[Table, list[tuple[Table, list[str], list[str]]]]:
        """Resolve the FROM/JOIN tables and the names their columns get.

        Returns the base table and, per join, ``(right table, left keys,
        right keys)``; fills ``available`` and ``right_origin`` so the WHERE
        clause can be resolved before any operator is built.
        """
        statement = self.statement
        assert statement.table is not None
        base = self.catalog.table(statement.table.name)
        self.alias_map[statement.table.effective_name] = statement.table.name
        self.alias_map[statement.table.name] = statement.table.name
        self.table_columns[statement.table.name] = set(base.schema.names)
        self.available = set(base.schema.names)

        joins = []
        for position, join in enumerate(statement.joins):
            right_table = self.catalog.table(join.table.name)
            self.alias_map[join.table.effective_name] = join.table.name
            self.alias_map[join.table.name] = join.table.name
            self.table_columns[join.table.name] = set(right_table.schema.names)
            left_keys, right_keys = self._resolve_join_keys(join.left_keys, join.right_keys, right_table)
            joins.append((right_table, left_keys, right_keys))

            for name, out_name in right_output_names(self.available, right_table.name, right_table.schema.names):
                self.right_origin[out_name] = (position, name)
            self.available |= self.right_origin.keys()
        return base, joins

    def _build_from_clause(
        self,
        base: Table,
        joins: list[tuple[Table, list[str], list[str]]],
        where: Expression | None,
        above: list[Expression],
        answers: tuple[str, ...] | None,
    ) -> tuple[Operator, Expression | None]:
        """Scans and joins, each scan evaluating the conjuncts of ``where`` on its own table.

        All joins are inner, so a conjunct reading only one table (or none)
        selects the same output rows before the joins as after them: it
        moves into that table's scan, rewritten to the table's own column
        names.  Returns the plan and the cross-table rest of ``where`` for
        the ``Filter`` above the joins.  Every scan and join hands on only
        what is read after it: the columns of ``above`` (the expressions of
        the operators over the FROM clause) and of the rest, and the keys of
        the joins that follow.  The base scan also receives ``answers``
        (:meth:`_answers`).
        """
        local: dict[int | None, list[Expression]] = {}
        rest: list[Expression] = []
        for conjunct in conjuncts(where):
            sides = {
                self.right_origin[name][0] if name in self.right_origin else None
                for name in conjunct.referenced_columns()
            }
            if len(sides) > 1:
                rest.append(conjunct)
            else:
                local.setdefault(sides.pop() if sides else None, []).append(conjunct)
        where = _conjunction(rest)

        # wanted[p]: the names read after join p.
        read_later = set().union(*(e.referenced_columns() for e in above))
        if where is not None:
            read_later |= where.referenced_columns()
        wanted: list[set[str]] = []
        for _, left_keys, _ in reversed(joins):
            wanted.insert(0, set(read_later))
            read_later |= set(left_keys)

        plan: Operator = self._scan(
            base,
            _conjunction(local.get(None, [])),
            [name for name in base.schema.names if name in read_later],
            answers=answers,
        )
        left_names = plan.projected_columns
        for position, (right_table, left_keys, right_keys) in enumerate(joins):
            predicate = _conjunction(
                [
                    _map_columns(conjunct, lambda name: self.right_origin[name][1])
                    for conjunct in local.get(position, [])
                ]
            )
            right_columns = [
                (name, out_name)
                for out_name, (origin, name) in self.right_origin.items()
                if origin == position and out_name in wanted[position]
            ]
            handed_on = set(right_keys) | {name for name, _ in right_columns}
            right = self._scan(
                right_table, predicate, [name for name in right_table.schema.names if name in handed_on]
            )
            left_columns = [name for name in left_names if name in wanted[position]]
            if not left_columns and not right_columns:
                left_columns = left_keys[:1]  # the row count of ``count(*)``
            plan = HashJoin(plan, right, left_keys, right_keys, left_columns, right_columns)
            left_names = left_columns + [out_name for _, out_name in right_columns]
        return plan, where

    def _scan(
        self,
        table: Table,
        predicate: Expression | None,
        columns: list[str],
        top: TopBound | None = None,
        answers: tuple[str, ...] | None = None,
    ) -> TableScan:
        """A scan of ``table`` handing on ``columns`` of the rows that satisfy ``predicate``."""
        if not columns and table.schema.names:
            # Nothing of this table is read above (``SELECT count(*) FROM t``):
            # the row count is all that is needed, and the narrowest column
            # carries it for the fewest pages — a predicate column, read anyway,
            # when there is one; between equally narrow ones, the nominally
            # narrowest.
            referenced = set() if predicate is None else predicate.referenced_columns()
            candidates = [c for c in table.schema.columns if c.name in referenced]
            narrowest = min(
                candidates or table.schema.columns,
                key=lambda c: (table.column(c.name).stored_width, c.dtype.byte_width),
            )
            columns = [narrowest.name]
        return TableScan(
            table, self.io_model, columns, catalog=self.catalog, predicate=predicate, top=top, answers=answers
        )

    def _answers(self, aggregates: list[AggregateSpec]) -> tuple[str, ...] | None:
        """The columns whose aggregates the base scan may answer from block synopses.

        Only for one base table with no join, ``GROUP BY``, ``DISTINCT`` or
        ``ORDER BY``, where every aggregate is ``COUNT(*)`` or a ``COUNT`` /
        ``MIN`` / ``MAX`` of a bare column: of a block whose rows all match,
        those need only its row count and its synopsis extremes.  None plans
        the scan exactly as any other.
        """
        statement = self.statement
        if not aggregates or statement.joins or statement.group_by:
            return None
        if statement.distinct or statement.order_by:
            return None
        names: list[str] = []
        for spec in aggregates:
            if spec.function not in ("count", "min", "max"):
                return None
            if spec.expression is not None:
                if not isinstance(spec.expression, ColumnRef):
                    return None
                names.append(spec.expression.name)
        return tuple(dict.fromkeys(names))

    def _top_bound(
        self, projections: list[Projection], primary: tuple[str, bool]
    ) -> TopBound | None:
        """What a scan right below ``projections`` may know of the ``TopN`` above them.

        The primary sort key names an output column (directly, by alias or by
        ordinal); the scan can rank its blocks by it only when that output is
        one of the table's columns as stored.
        """
        name, ascending = primary
        source = next(p.expression for p in projections if p.name == name)
        wanted = self.statement.limit + self.statement.offset
        if isinstance(source, ColumnRef) and wanted > 0:
            return source.name, ascending, wanted
        return None

    def _resolve_join_keys(
        self,
        left_keys: tuple[str, ...],
        right_keys: tuple[str, ...],
        right_table: Table,
    ) -> tuple[list[str], list[str]]:
        resolved_left: list[str] = []
        resolved_right: list[str] = []
        right_names = set(right_table.schema.names)
        for raw_left, raw_right in zip(left_keys, right_keys):
            left_name = self._strip_qualifier(raw_left)
            right_name = self._strip_qualifier(raw_right)
            left_qualifier = self._qualifier_of(raw_left)
            right_qualifier = self._qualifier_of(raw_right)

            left_is_right_side = self._belongs_to(left_qualifier, right_table.name) or (
                left_qualifier is None and left_name in right_names and left_name not in self.available
            )
            if left_is_right_side:
                left_name, right_name = right_name, left_name

            if left_name not in self.available:
                raise SQLPlanningError(f"join key {raw_left!r} not found in the left input")
            if right_name not in right_names:
                raise SQLPlanningError(f"join key {raw_right!r} not found in table {right_table.name!r}")
            resolved_left.append(left_name)
            resolved_right.append(right_name)
        return resolved_left, resolved_right

    def _belongs_to(self, qualifier: str | None, table_name: str) -> bool:
        if qualifier is None:
            return False
        return self.alias_map.get(qualifier) == table_name

    @staticmethod
    def _strip_qualifier(name: str) -> str:
        return name.split(".")[-1]

    @staticmethod
    def _qualifier_of(name: str) -> str | None:
        return name.split(".")[0] if "." in name else None

    # -- name resolution -----------------------------------------------------------

    def _resolve(self, expression: Expression, available: set[str] | None = None) -> Expression:
        """Rewrite qualified column references to available column names."""
        available = self.available if available is None else available
        return _map_columns(expression, lambda name: self._resolve_column_name(name, available))

    def _resolve_column_name(self, name: str, available: set[str]) -> str:
        if name in available:
            return name
        if "." in name:
            qualifier, _, bare = name.rpartition(".")
            real_table = self.alias_map.get(qualifier)
            if real_table is not None:
                qualified = f"{real_table}.{bare}"
                if qualified in available:
                    return qualified
            if bare in available:
                return bare
        raise SQLPlanningError(f"column {name!r} not found; available: {sorted(available)}")

    # -- aggregates ---------------------------------------------------------------------

    def _extract_aggregates(self):
        """Pull aggregate calls out of the SELECT/HAVING expressions.

        Returns ``(specs, rewritten_select_items, rewritten_having)`` where
        the rewritten expressions reference the aggregate outputs by name.
        """
        statement = self.statement
        specs: list[AggregateSpec] = []
        spec_index: dict[str, str] = {}

        rewritten_items = []
        for item in statement.items:
            if isinstance(item.expression, Star):
                rewritten_items.append(item)
            else:
                rewritten = self._rewrite_aggregates(item.expression, specs, spec_index)
                rewritten_items.append(type(item)(expression=rewritten, alias=item.alias))

        rewritten_having = (
            self._rewrite_aggregates(statement.having, specs, spec_index)
            if statement.having is not None
            else None
        )
        return specs, rewritten_items, rewritten_having

    def _rewrite_aggregates(
        self, expression: Expression, specs: list[AggregateSpec], spec_index: dict[str, str]
    ) -> Expression:
        """``expression`` with each aggregate call replaced by a reference to
        its output column; new calls are appended to ``specs``.  (A method,
        not a closure of its caller: a recursive closure refers to itself, and
        that cycle would pin this builder — and its catalog — until the cyclic
        collector's next pass.)"""
        if isinstance(expression, FunctionCall) and expression.name.lower() in SUPPORTED_AGGREGATES:
            if len(expression.args) > 1:
                raise UnsupportedSQLError(f"aggregate {expression.name} takes at most one argument")
            argument = self._resolve(expression.args[0]) if expression.args else None
            key = f"{expression.name.lower()}({argument})"
            if key not in spec_index:
                spec = AggregateSpec(expression.name.lower(), argument)
                specs.append(spec)
                spec_index[key] = spec.name
            return ColumnRef(spec_index[key])
        return expression.map_children(
            lambda inner: self._rewrite_aggregates(inner, specs, spec_index)
        )

    def _group_key_name(self, expression: Expression) -> str:
        if isinstance(expression, ColumnRef):
            return expression.name
        return expression.output_name()

    # -- projections ------------------------------------------------------------------------

    def _build_projections(self, items, post_available: set[str], is_aggregate: bool) -> list[Projection]:
        projections: list[Projection] = []
        for item in items:
            if isinstance(item.expression, Star):
                if is_aggregate:
                    raise UnsupportedSQLError("SELECT * cannot be combined with GROUP BY / aggregates")
                source = self._star_columns(item.expression)
                for name in source:
                    projections.append(Projection(ColumnRef(name), alias=name.split(".")[-1] if "." in name else name))
                continue
            resolved = self._resolve(item.expression, post_available)
            alias = item.alias
            if alias is None and isinstance(item.expression, ColumnRef):
                alias = self._strip_qualifier(item.expression.name)
            projections.append(Projection(resolved, alias=alias))
        if not projections:
            raise SQLPlanningError("SELECT list is empty")
        return projections

    def _star_columns(self, star: Star) -> list[str]:
        if star.qualifier is not None:
            real = self.alias_map.get(star.qualifier)
            if real is None:
                raise SQLPlanningError(f"unknown table alias {star.qualifier!r} in qualified star")
            names = []
            for name in sorted(self.table_columns[real]):
                qualified = f"{real}.{name}"
                names.append(qualified if qualified in self.available else name)
            return names
        # Unqualified star: every available column, base-table order first.
        ordered: list[str] = []
        for table_name in dict.fromkeys(self.alias_map.values()):
            table = self.catalog.table(table_name)
            for name in table.schema.names:
                qualified = f"{table_name}.{name}"
                if qualified in self.available and qualified not in ordered:
                    ordered.append(qualified)
                elif name in self.available and name not in ordered:
                    ordered.append(name)
        return ordered

    # -- ORDER BY ----------------------------------------------------------------------------

    def _hidden_sort_projections(
        self, output_names: list[str], post_available: set[str]
    ) -> list[Projection]:
        """Projections for ORDER BY columns missing from the SELECT list."""
        hidden: list[Projection] = []
        seen: set[str] = set(output_names)
        for order in self.statement.order_by:
            expression = order.expression
            if not isinstance(expression, ColumnRef):
                continue
            bare = self._strip_qualifier(expression.name)
            if expression.name in seen or bare in seen:
                continue
            try:
                resolved = self._resolve_column_name(expression.name, post_available)
            except SQLPlanningError:
                continue
            alias = bare
            if alias in seen:
                alias = f"__sort_{bare}"
            hidden.append(Projection(ColumnRef(resolved), alias=alias))
            seen.add(alias)
        return hidden

    def _resolve_order_keys(self, output_names: list[str]) -> list[tuple[str, bool]]:
        keys: list[tuple[str, bool]] = []
        for order in self.statement.order_by:
            expression = order.expression
            if isinstance(expression, Literal) and isinstance(expression.value, int):
                ordinal = expression.value
                if not 1 <= ordinal <= len(output_names):
                    raise SQLPlanningError(f"ORDER BY ordinal {ordinal} out of range")
                keys.append((output_names[ordinal - 1], order.ascending))
                continue
            if isinstance(expression, ColumnRef):
                name = expression.name
                bare = self._strip_qualifier(name)
                if name in output_names:
                    keys.append((name, order.ascending))
                    continue
                if bare in output_names:
                    keys.append((bare, order.ascending))
                    continue
            raise UnsupportedSQLError(
                "ORDER BY only supports output column names or ordinals in this SQL subset"
            )
        return keys

    # -- metadata ---------------------------------------------------------------------------------

    def _all_statement_columns(self) -> set[str] | None:
        """Every column name (possibly qualified) the statement mentions."""
        statement = self.statement
        names: set[str] = set()
        for item in statement.items:
            if isinstance(item.expression, Star):
                return None  # SELECT * needs every column
            names |= item.expression.referenced_columns()
        for expr in statement.group_by:
            names |= expr.referenced_columns()
        if statement.where is not None:
            names |= statement.where.referenced_columns()
        if statement.having is not None:
            names |= statement.having.referenced_columns()
        for order in statement.order_by:
            names |= order.expression.referenced_columns()
        for join in statement.joins:
            names |= set(join.left_keys) | set(join.right_keys)
        # Strip qualifiers so plain table column names match too.
        stripped = set(names)
        for name in names:
            if "." in name:
                stripped.add(name.split(".")[-1])
        return stripped

    def _collect_referenced_columns(self) -> dict[str, set[str]]:
        """Map base table name -> set of its columns the statement references."""
        needed = self._all_statement_columns()
        referenced: dict[str, set[str]] = {}
        for table_name in dict.fromkeys(self.alias_map.values()):
            columns = self.table_columns[table_name]
            if needed is None:
                referenced[table_name] = set(columns)
            else:
                referenced[table_name] = {c for c in columns if c in needed}
        return referenced


def _conjunction(parts: list[Expression]) -> Expression | None:
    """AND the parts back together, in order (None when there are none)."""
    result: Expression | None = None
    for part in parts:
        result = part if result is None else BinaryOp("and", result, part)
    return result


def _map_columns(expression: Expression, rename: Callable[[str], str]) -> Expression:
    """``expression`` rebuilt with every column reference passed through ``rename``."""
    if isinstance(expression, ColumnRef):
        return ColumnRef(rename(expression.name))
    return expression.map_children(lambda child: _map_columns(child, rename))


class _Distinct(Operator):
    """Remove duplicate output rows (used for SELECT DISTINCT).

    Vectorised: every output column is factorised into dense codes (the same
    NULL-aware machinery grouped aggregation uses) and the first occurrence
    of each distinct composite code is kept, in input order — identical to
    the old set-of-row-tuples loop.
    """

    def __init__(self, child: Operator) -> None:
        self.child = child

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        return "Distinct"

    def apply(self, table: Table) -> Table:
        from repro.db.operators.codes import factorize_keys

        if table.num_rows == 0:
            return table
        key_columns = [table.column(name) for name in table.schema.names]
        _, first_rows, _ = factorize_keys(key_columns, table.num_rows)
        # first_rows is ascending (groups are numbered by first occurrence),
        # so taking it preserves the original row order of survivors.
        return table.take(first_rows)
