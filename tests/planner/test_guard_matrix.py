"""The guard matrix: what the planner chooses when raw rows cannot be scanned.

One table-driven test over {no guard, archived, degraded} × {exact, approx,
auto within budget, auto over budget} × {pure model route, hybrid-only, no
model route}: the chosen route, the reason string and — when no honest route
exists — the typed refusal.  The expectations were recorded against the
two-ladder planner (`_choose_archived` / `_choose_degraded`), so they pin the
merged choice function to identical behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.errors import ApproximationError, DegradedServiceError

CONTRACTS = {
    "exact": AccuracyContract(mode="exact"),
    "approx": AccuracyContract(mode="approx", verify_fraction=0.0),
    "within": AccuracyContract(max_relative_error=0.5, verify_fraction=0.0),
    "over": AccuracyContract(max_relative_error=1e-9, verify_fraction=0.0),
}
QUERIES = {
    # Every requested group has a captured per-group fit.
    "model": "SELECT g, avg(y) AS m FROM t WHERE g <= 3 GROUP BY g ORDER BY g",
    # Groups 4 and 5 arrived after the capture: exact fill-in needed.
    "hybrid": "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
    # No captured model predicts z.
    "none": "SELECT avg(z) AS m FROM t",
}

ARCHIVED_DETAIL = (
    "36 row(s) of table 't' are archived to the model-only tier (predicate "
    "'x < 1'); exact execution over the remaining raw rows would be "
    "incomplete — serve from warehouse models or recall the archive"
)
DEGRADED_DETAIL = "table:t — snapshot segments quarantined"

WITHIN = "predicted error 0.76% within budget 50.00%"
OVER = "predicted error 0.76% exceeds budget 0.00%"

#: state -> (exact-pinned, route unusable, over budget, served) wording.
WORDING = {
    "archived": (
        "contract pins exact execution, but the raw rows are archived — execution will raise",
        "; archived raw rows — execution will raise",
        " and the raw rows are archived — execution will raise",
        "raw segments archived to the model-only tier; serving purely from "
        "warehouse models (zero raw IO)",
        "hybrid route needs an exact fill-in over archived raw rows",
    ),
    "degraded": (
        "contract pins exact execution, but a component this statement needs "
        "is degraded — execution will raise",
        "; degraded component — execution will raise",
        " and a needed component is degraded — execution will raise",
        "a component this statement needs is degraded; serving from the "
        "surviving models (disclosed)",
        "hybrid route needs an exact fill-in over a degraded component",
    ),
}

#: (availability, contract) -> (chosen route, reason, route taken) unguarded.
UNGUARDED = {
    ("model", "exact"): ("exact", "contract pins exact execution", "exact"),
    ("model", "approx"): ("grouped-model", "contract pins model serving", "grouped-model"),
    ("model", "within"): ("grouped-model", WITHIN, "grouped-model"),
    ("model", "over"): ("exact", OVER, "exact"),
    ("hybrid", "exact"): ("exact", "contract pins exact execution", "exact"),
    ("hybrid", "approx"): ("grouped-hybrid", "contract pins model serving", "grouped-hybrid"),
    ("hybrid", "within"): ("grouped-hybrid", WITHIN, "grouped-hybrid"),
    ("hybrid", "over"): ("exact", OVER, "exact"),
    ("none", "exact"): ("exact", "contract pins exact execution", "exact"),
    ("none", "approx"): ("exact", "no model route applies; exact fallback", "exact-fallback"),
    ("none", "within"): ("exact", "no model route applies", "exact"),
    ("none", "over"): ("exact", "no model route applies", "exact"),
}


def expected(state: str, availability: str, contract: str):
    """(chosen route, reason, route taken or None when execution refuses)."""
    if state == "none":
        return UNGUARDED[(availability, contract)]
    pinned, unusable, over_budget, served, hybrid = WORDING[state]
    if contract == "exact":
        return "exact", pinned, None
    if availability == "hybrid":
        return "exact", hybrid + unusable, None
    if availability == "none":
        return "exact", "no model route applies" + unusable, None
    if contract == "over":
        return "exact", OVER + over_budget, None
    return "grouped-model", served, "grouped-model"


def _rows(rng, groups, xs=4, reps=6, sigma=0.1):
    return [
        (g, float(x), 2.0 + 3.0 * g + 1.5 * x + rng.normal(0, sigma), float(rng.normal()))
        for g in groups
        for x in range(xs)
        for _ in range(reps)
    ]


@pytest.fixture(scope="module", params=["none", "archived", "degraded"])
def guarded_db(request, tmp_path_factory):
    db = LawsDatabase.open(
        tmp_path_factory.mktemp(f"guard-{request.param}"), verify_sample_fraction=0.0
    )
    first = _rows(np.random.default_rng(21), range(4))
    db.load_dict("t", {name: [row[i] for row in first] for i, name in enumerate("gxyz")})
    assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
    # Appended below the lifecycle hooks: the models stay active, groups 4
    # and 5 simply have no per-group fit.
    db.database.insert_rows("t", _rows(np.random.default_rng(22), [4, 5]))
    if request.param == "archived":
        db.archive("t", "x < 1")
    elif request.param == "degraded":
        db.resilience.health.mark_failed("table:t", "snapshot segments quarantined")
    yield request.param, db
    db.close()


@pytest.mark.parametrize("contract", list(CONTRACTS))
@pytest.mark.parametrize("availability", list(QUERIES))
def test_guard_matrix(guarded_db, availability, contract):
    state, db = guarded_db
    sql, accuracy = QUERIES[availability], CONTRACTS[contract]
    route, reason, taken = expected(state, availability, contract)

    plan = db.plan(sql, accuracy)
    assert (plan.chosen.route, plan.reason) == (route, reason)
    assert (plan.archived_reason is not None) == (state == "archived")
    assert (plan.degraded_reason is not None) == (state == "degraded")

    if taken is not None:
        answer = db.query(sql, accuracy)
        assert answer.route_taken == taken
        assert answer.plan.reason == reason
        assert answer.degraded_reason == (DEGRADED_DETAIL if state == "degraded" else None)
    elif state == "archived":
        with pytest.raises(ApproximationError) as refused:
            db.query(sql, accuracy)
        assert type(refused.value) is ApproximationError
        assert str(refused.value) == f"{reason}: {ARCHIVED_DETAIL}"
    else:
        with pytest.raises(DegradedServiceError) as refused:
            db.query(sql, accuracy)
        assert str(refused.value) == f"{reason}: {DEGRADED_DETAIL}"
        assert refused.value.component == "table:t"
        assert refused.value.reason == "snapshot segments quarantined"
