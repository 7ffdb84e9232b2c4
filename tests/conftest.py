"""Shared fixtures for the test suite.

The expensive fixtures (a LOFAR dataset with a captured grouped model, a
TPC-DS-lite database with captured linear models) are session-scoped so the
several dozen tests that exercise the approximate query engine, compression
and anomaly detection all reuse the same fitted models.
"""

from __future__ import annotations

import pytest

from repro import AccuracyContract, LawsDatabase
from repro.core.planner.feedback import relative_errors
from repro.datasets import lofar, sensors, tpcds_lite
from repro.db import Database

try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # the no-scipy CI job installs pytest only
    pass
else:
    # Property tests draw the same examples on every run and ignore any local
    # ``.hypothesis/`` example database, so red or green depends on the code
    # alone.  Loaded here so the bare tier-1 command gets it; CI names it
    # (``--hypothesis-profile=deterministic``), and another profile named on
    # the command line still wins (the plugin loads it after this module).
    _hypothesis_settings.register_profile("deterministic", derandomize=True, database=None)
    _hypothesis_settings.load_profile("deterministic")

#: The pinned contracts tests route through ``LawsDatabase.query()``: exact
#: execution, model serving with exact fallback, and the strict variant that
#: raises instead of falling back.  Approx contracts never sample an audit,
#: so a test's model evidence and verifier RNG stay untouched.
EXACT = AccuracyContract(mode="exact")
APPROX = AccuracyContract(mode="approx", verify_fraction=0.0)
STRICT = AccuracyContract(mode="approx", allow_exact_fallback=False, verify_fraction=0.0)


def compare_sql(db: LawsDatabase, sql: str) -> dict:
    """Run ``sql`` both ways — two pinned ``query()`` calls — and report the
    approximation's route, per-column mean relative error and page IO."""
    approx = db.query(sql, APPROX).approx
    exact = db.query(sql, EXACT).query_result
    errors = relative_errors(approx.table, exact.table)
    return {
        "approximate": approx,
        "exact": exact,
        "route": approx.route,
        "relative_errors": errors,
        "max_relative_error": max(errors.values()) if errors else None,
        "approx_pages_read": approx.io.get("pages_read", 0.0),
        "exact_pages_read": exact.io.get("pages_read", 0.0),
    }


def per_group(answer) -> "dict[tuple, tuple[int, dict, dict]] | None":
    """A grouped answer's record expanded per key, in its group order:
    ``{key: (model_id, values, errors)}`` — model id −1, and no values or
    errors, for a group the exact fill-in computed.  None for an answer
    that is not grouped."""
    groups = answer.groups
    if groups is None:
        return None
    expanded = {}
    keys = zip(*(column.to_pylist() for column in groups.keys))
    for row, (key, model_id) in enumerate(zip(keys, groups.model_id.tolist())):
        if model_id < 0:
            expanded[key] = (model_id, {}, {})
            continue
        values = {name: vector[row].item() for name, vector in groups.values.items()}
        errors = {name: vector[row].item() for name, vector in groups.errors.items()}
        expanded[key] = (model_id, values, errors)
    return expanded


@pytest.fixture(scope="session")
def lofar_dataset():
    """A small but realistic synthetic LOFAR dataset (120 sources)."""
    return lofar.generate(num_sources=120, observations_per_source=32, seed=11)


@pytest.fixture(scope="session")
def lofar_db(lofar_dataset):
    """A LawsDatabase with the LOFAR table loaded and the power law captured."""
    db = LawsDatabase()
    db.register_table(lofar_dataset.to_table("measurements"))
    report = db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
    assert report.accepted, "fixture model must pass the quality gate"
    return db


@pytest.fixture(scope="session")
def lofar_model(lofar_db):
    """The captured grouped power-law model of the LOFAR fixture."""
    return lofar_db.best_model("measurements", "intensity")


@pytest.fixture(scope="session")
def tpcds_dataset():
    """A small TPC-DS-lite star schema."""
    return tpcds_lite.generate(num_items=60, num_stores=6, num_days=90, sales_per_day_per_store=6, seed=5)


@pytest.fixture(scope="session")
def tpcds_db(tpcds_dataset):
    """A LawsDatabase with the TPC-DS-lite tables and a captured linear model."""
    db = LawsDatabase()
    tpcds_lite.load_into(db.database, tpcds_dataset)
    report = db.fit("store_sales", "sales_price ~ linear(list_price)")
    assert report.accepted
    return db


@pytest.fixture(scope="session")
def sensor_dataset():
    return sensors.generate(num_sensors=8, num_hours=24 * 5, seed=9)


@pytest.fixture()
def simple_db():
    """A plain relational database with two small joinable tables."""
    db = Database()
    db.load_dict(
        "orders",
        {
            "order_id": [1, 2, 3, 4, 5, 6],
            "customer": [10, 20, 10, 30, 20, 10],
            "amount": [5.0, 7.5, 2.5, 10.0, 1.0, 4.0],
            "region": ["eu", "us", "eu", "us", "eu", "eu"],
        },
    )
    db.load_dict(
        "customers",
        {"customer": [10, 20, 30], "name": ["alice", "bob", "carol"]},
    )
    return db
