"""A dropped database is freed by reference counting alone.

The façade hands its components callbacks into itself (guards, the durable
append, listeners, the flight recorder's back-reference); held strongly each
is a cycle, and a closed ``LawsDatabase`` — tables included — would sit in
memory until the cyclic collector's next full pass.  A process that reopens
stores in a loop then carries several dead databases at its peak.  With the
collector off, the last reference must be the only thing keeping one alive.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.weakcall import weak_callback

EXACT = AccuracyContract(mode="exact")


def _exercise(db: LawsDatabase) -> None:
    """Touch every component the façade wires a callback into."""
    rng = np.random.default_rng(0)
    x = rng.integers(0, 10, 600)
    db.load_dict("t", {"g": (x % 3).tolist(), "x": x.tolist(),
                       "y": (2.0 * x + rng.normal(0, 0.1, 600)).tolist()})
    assert db.fit("t", "y ~ linear(x)").accepted  # harvester + fit guard
    db.watch("t", "y")
    db.ingest("t", [(1, 4, 8.0)] * 40, flush=True)  # durable append + batch listener
    db.query("SELECT y FROM t WHERE x = 3")  # model route, degraded guard
    db.query("SELECT g, avg(y) FROM t GROUP BY g")  # grouped-model provider
    db.query("SELECT g, count(*), sum(y) + 1 FROM t GROUP BY g HAVING count(*) > 1", EXACT)
    db.explain_analyze("SELECT count(*) FROM t WHERE x > 2")  # traced operator tree
    db.maintain()  # refit guard
    db.resilience.health.mark_degraded("probe", "teardown test")  # transition hook
    db.flush_telemetry()  # flight recorder → ingest → this façade


@pytest.mark.parametrize("observability", [True, False], ids=["obs_on", "obs_off"])
@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_closed_database_is_freed_without_the_cyclic_collector(tmp_path, durable, observability):
    gc.collect()
    gc.disable()
    try:
        if durable:
            db = LawsDatabase.open(tmp_path / "store", observability=observability, verify_seed=0)
        else:
            db = LawsDatabase(observability=observability, verify_seed=0)
        _exercise(db)
        if durable:
            db.checkpoint()
            db.archive("t", "x < 2")  # the stats overlay closes over the tier
            db.insert_rows("t", [(0, 5, 10.0)])
        alive = {
            "database": weakref.ref(db),
            "catalog": weakref.ref(db.database.catalog),
            "table": weakref.ref(db.table("t")),
            "models": weakref.ref(db.models),
            "observability": weakref.ref(db.obs),
        }
        db.close()
        # Closed is not dead: what tests and operators read afterwards still answers.
        rows = db.table("t").num_rows
        assert db.query("SELECT count(*) FROM t WHERE x >= 2", EXACT).table.to_pydict() == {
            "count(*)": [int((np.asarray(db.table("t").column("x").to_pylist()) >= 2).sum())]
        }
        assert db.database.stats("t").row_count >= rows
        assert db.captured_models("t") and db.health_report() and db.quarantine_report() is not None
        assert db.metrics() is not None and db.ops_report()["storage"]["tables"]["t"]
        assert (len(db.events()) > 0) == observability

        del db
        assert {name for name, ref in alive.items() if ref() is not None} == set()
    finally:
        gc.enable()


def test_weak_callback_calls_through_and_outlives_nothing():
    class Owner:
        def double(self, value, offset=0):
            return 2 * value + offset

    owner = Owner()
    callback = weak_callback(owner.double)
    assert callback(4, offset=1) == 9
    reference = weakref.ref(owner)
    del owner
    assert reference() is None
    with pytest.raises(ReferenceError, match="Owner.double"):
        callback(1)
