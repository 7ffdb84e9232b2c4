"""The module-state lint checker: catches what it should, allows what it must."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_module_state", REPO_ROOT / "tools" / "check_module_state.py"
)
check_module_state = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_module_state)


def _names(source: str) -> set[str]:
    return {name for _, name in check_module_state.scan_source(source)}


def test_flags_mutable_displays_and_constructors():
    source = (
        "CACHE = {}\n"
        "ITEMS = []\n"
        "SEEN = set()\n"
        "TABLE: dict = dict()\n"
        "import threading\n"
        "_lock = threading.Lock()\n"
        "_tls = threading.local()\n"
    )
    assert _names(source) == {"CACHE", "ITEMS", "SEEN", "TABLE", "_lock", "_tls"}


def test_ignores_immutable_bindings_and_nested_scopes():
    source = (
        "__all__ = ['f']\n"
        "LIMIT = 7\n"
        "NAMES = ('a', 'b')\n"
        "FROZEN = frozenset({'a'})\n"
        "def f():\n"
        "    local_cache = {}\n"
        "    return local_cache\n"
        "class C:\n"
        "    registry = {}\n"
    )
    assert _names(source) == set()


def _guarded(path: str) -> bool:
    return any(
        path == root or path.startswith(root + "/") for root in check_module_state.DEFAULT_ROOTS
    )


def test_the_answer_routes_are_guarded_and_a_route_table_must_be_a_tuple():
    assert _guarded("src/repro/core/approx/routes/__init__.py")
    assert _names("ROUTES = [grouped.ROUTE, point.ROUTE]\n") == {"ROUTES"}
    assert _names("ROUTE_AGGREGATES = {'count', 'sum'}\n") == {"ROUTE_AGGREGATES"}
    source = (
        "ROUTES: tuple[Route, ...] = (grouped.ROUTE, point.ROUTE)\n"
        "ROUTE_AGGREGATES = frozenset({'count', 'sum'})\n"
        "ROUTE = Route(_gate, _sketch, _answer)\n"
    )
    assert _names(source) == set()


def test_the_lifecycle_is_guarded_and_a_lookup_table_must_be_read_only():
    """Drift scoring runs on ingest threads and refits on every ``maintain()``
    caller: all of ``core`` and ``streaming`` is guarded, and a module-level
    lookup table there is a ``MappingProxyType`` over its dict."""
    for path in (
        "src/repro/core/harvester.py",
        "src/repro/core/storage/model_switching.py",
        "src/repro/core/planner/planner.py",
        "src/repro/streaming/maintenance.py",
    ):
        assert _guarded(path), path
    assert _names("_FACTOR = {'count': 0.25, 'avg': 1.0}\n") == {"_FACTOR"}
    assert _names("_FACTOR = MappingProxyType({'count': 0.25, 'avg': 1.0})\n") == set()
    assert _names("_FACTOR = types.MappingProxyType({'count': 0.25})\n") == set()


def test_the_fitting_layer_is_guarded():
    """Refits run on every ``maintain()`` caller and a grouped model's
    parameter table is built in ``fitting``: its lookup tables are read-only."""
    for path in ("src/repro/fitting/grouped.py", "src/repro/fitting/families.py", "src/repro/fitting/robust.py"):
        assert _guarded(path), path


def test_the_durable_layers_are_guarded():
    """The archive tier, the WAL and quarantine run on writer and reader
    threads: ``persist`` and ``resilience`` are guarded like the rest."""
    for path in (
        "src/repro/persist/archive.py",
        "src/repro/persist/wal.py",
        "src/repro/resilience/quarantine.py",
        "src/repro/resilience/faults.py",
    ):
        assert _guarded(path), path


def test_check_flags_new_state_and_stale_allowlist(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("STATE = {}\n")
    (pkg / "ok.py").write_text("LIMIT = 3\n")
    monkeypatch.setattr(
        check_module_state, "ALLOWLIST", {"src/pkg/gone.py": {"_old"}}
    )
    problems = check_module_state.check(["src/pkg"], tmp_path)
    assert any("bad.py:1" in p and "'STATE'" in p for p in problems)
    assert any("gone.py" in p and "allowlist entry" in p for p in problems)
    assert not any("ok.py" in p for p in problems)


def test_a_subset_of_roots_judges_only_the_allowlist_entries_under_it(tmp_path, monkeypatch):
    """An allowlist entry outside the scanned roots is not stale: it was not
    looked for.  One inside them that matches nothing still is."""
    for package in ("a", "b"):
        (tmp_path / "src" / package).mkdir(parents=True)
    (tmp_path / "src" / "a" / "tables.py").write_text("_DISPATCH = {'a': 1}\n")
    (tmp_path / "src" / "b" / "gone.py").write_text("LIMIT = 3\n")
    monkeypatch.setattr(
        check_module_state,
        "ALLOWLIST",
        {"src/a/tables.py": {"_DISPATCH"}, "src/b/gone.py": {"_old"}},
    )
    assert check_module_state.check(["src/a"], tmp_path) == []
    (problem,) = check_module_state.check(["src/b"], tmp_path)
    assert "gone.py" in problem and "'_old'" in problem


def test_every_default_root_checks_clean_on_its_own():
    for root in check_module_state.DEFAULT_ROOTS:
        problems = check_module_state.check([root], REPO_ROOT)
        assert problems == [], "\n".join(problems)


def test_allowlisted_state_passes(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "tables.py").write_text("_DISPATCH = {'a': 1}\n")
    monkeypatch.setattr(
        check_module_state, "ALLOWLIST", {"src/pkg/tables.py": {"_DISPATCH"}}
    )
    assert check_module_state.check(["src/pkg"], tmp_path) == []


def test_repo_guarded_packages_are_clean():
    problems = check_module_state.check(
        list(check_module_state.DEFAULT_ROOTS), REPO_ROOT
    )
    assert problems == [], "\n".join(problems)
