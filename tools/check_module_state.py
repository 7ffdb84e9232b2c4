#!/usr/bin/env python
"""Lint: flag new module-level mutable state in concurrency-sensitive packages.

The concurrency model (README "Concurrency model") relies on shared state
living in *instances* guarded by the catalog commit lock or collector
locks — a module-level dict/list/set (or a lock hiding one) is invisible
to snapshots, shared across every database instance in the process, and a
classic source of cross-thread (and cross-test) leakage.  This checker
walks the AST of the guarded packages and fails on any module-level
binding of a mutable container or synchronization primitive that is not
on the explicit allowlist below.

Allowlisted entries are read-only lookup tables (never mutated after
import) or deliberate process-wide primitives; add to the list only with
a justification in the PR.

Usage: python tools/check_module_state.py [root ...]
Exits non-zero on violations or stale allowlist entries.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Packages whose module scope must stay free of mutable state.  The answer
#: routes of ``core/approx`` run on every reader thread, drift scoring in
#: ``streaming`` on ingest threads and refits on every ``maintain()`` caller;
#: their module-level tables must be immutable (a tuple, a frozenset, a
#: ``MappingProxyType``).
DEFAULT_ROOTS = ("src/repro/db", "src/repro/obs", "src/repro/parallel", "src/repro/core", "src/repro/streaming")

#: Worker-side modules that must not import the observability hub at module
#: scope: workers report nothing themselves (spans/metrics/journal are the
#: coordinator's job; span stacks are thread-local, so a worker's spans would
#: be lost anyway).
OBS_FREE_MODULES = (
    "src/repro/parallel/kernels.py",
    "src/repro/parallel/pool.py",
)

#: relative path -> names that are allowed despite looking mutable.
ALLOWLIST: dict[str, set[str]] = {
    # Read-only dtype -> extractor dispatch table.
    "src/repro/db/column.py": {"_FAST_VALUE_TYPES"},
    # Read-only operand-swap table (``5 < x`` -> ``x > 5``); moved here
    # from core/ with the rest of the WHERE-clause analysis.
    "src/repro/db/constraints.py": {"_FLIP"},
    # Read-only operator / function dispatch tables.
    "src/repro/db/expressions.py": {
        "_ARITHMETIC_OPS",
        "_COMPARISON_OPS",
        "_SCALAR_FUNCTIONS",
    },
    # Read-only aggregate-name set.
    "src/repro/db/operators/aggregate.py": {"SUPPORTED_AGGREGATES"},
    # Read-only keyword set / type-name table for the SQL front end.
    "src/repro/db/sql/lexer.py": {"KEYWORDS"},
    "src/repro/db/sql/parser.py": {"_TYPE_NAMES"},
    # Process-wide append lock: serializes Table.append_rows column swaps
    # across all instances by design (see table.py).
    "src/repro/db/table.py": {"_append_lock"},
    # Read-only metric-name -> HELP-text table for Prometheus exposition.
    "src/repro/obs/metrics.py": {"_METRIC_HELP"},
}

#: Names whose module scope is conventional and never mutated.
IGNORED_NAMES = {"__all__"}

#: Constructor calls that produce mutable containers or primitives that
#: imply shared mutable state behind them.
MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
    "ChainMap",
    "local",
    "Lock",
    "RLock",
    "Event",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Queue",
    "LifoQueue",
    "PriorityQueue",
}

MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_mutable_value(value: ast.expr | None) -> bool:
    if value is None:
        return False
    if isinstance(value, MUTABLE_DISPLAYS):
        return True
    if isinstance(value, ast.Call):
        return _call_name(value) in MUTABLE_CALLS
    return False


def scan_source(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """Return ``(lineno, name)`` for each module-level mutable binding."""
    tree = ast.parse(source, filename=filename)
    found: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
            value = node.value
        else:
            continue
        if not _is_mutable_value(value):
            continue
        for name in names:
            if name not in IGNORED_NAMES:
                found.append((node.lineno, name))
    return found


def scan_obs_imports(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """Return ``(lineno, module)`` for module-scope imports of ``repro.obs``."""
    tree = ast.parse(source, filename=filename)
    found: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.obs" or alias.name.startswith("repro.obs."):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro.obs" or module.startswith("repro.obs."):
                found.append((node.lineno, module))
    return found


def check(roots: list[str], base: Path) -> list[str]:
    """Return violation messages for every guarded file under ``roots``."""
    problems: list[str] = []
    seen_allowed: dict[str, set[str]] = {}
    for root in roots:
        root_path = base / root
        if not root_path.is_dir():
            problems.append(f"{root}: not a directory (checker misconfigured?)")
            continue
        for path in sorted(root_path.rglob("*.py")):
            rel = path.relative_to(base).as_posix()
            allowed = ALLOWLIST.get(rel, set())
            for lineno, name in scan_source(path.read_text(), filename=rel):
                if name in allowed:
                    seen_allowed.setdefault(rel, set()).add(name)
                    continue
                problems.append(
                    f"{rel}:{lineno}: module-level mutable state {name!r} — move it "
                    f"into an instance (snapshots and locks cannot see module "
                    f"globals) or allowlist it in tools/check_module_state.py "
                    f"with a justification"
                )
    for rel in OBS_FREE_MODULES:
        # Only enforced for modules under the scanned roots, so the checker
        # stays usable against other trees (and in its own unit tests).
        if not any(rel.startswith(root.rstrip("/") + "/") for root in roots):
            continue
        path = base / rel
        if not path.is_file():
            problems.append(f"{rel}: listed in OBS_FREE_MODULES but missing")
            continue
        for lineno, module in scan_obs_imports(path.read_text(), filename=rel):
            problems.append(
                f"{rel}:{lineno}: module-scope import of {module!r} — worker "
                f"modules must stay observability-free; have the coordinator "
                f"inject journal/metrics as instance attributes instead"
            )
    for rel, names in ALLOWLIST.items():
        stale = names - seen_allowed.get(rel, set())
        for name in sorted(stale):
            problems.append(
                f"{rel}: allowlist entry {name!r} no longer matches anything — "
                f"remove it from tools/check_module_state.py"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    roots = args or list(DEFAULT_ROOTS)
    base = Path(__file__).resolve().parent.parent
    problems = check(roots, base)
    if problems:
        print(f"module-state check FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"module-state check OK: {', '.join(roots)} free of unlisted module-level mutable state")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
