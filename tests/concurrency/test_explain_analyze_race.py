"""``explain_analyze()`` under a concurrent querier renders its own trace.

The tree it prints is the root span the call itself opened — not whichever
trace finished last on the shared tracer — and on an observability-off
database forcing that trace is a fact about the calling thread's span stack:
the querier on the other thread stays untraced and unaccounted.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import LawsDatabase
from tests.concurrency.harness import iterations, run_workers

pytestmark = pytest.mark.concurrency

ANALYZED = "SELECT sum(y) FROM t"
BACKGROUND = "SELECT count(*) FROM t"
#: 2 000 under the stress job — where the parent of this test's fix rendered
#: another thread's tree 199 times (obs on) and once (obs off).
ROUNDS = iterations(500, stress_factor=4)


def _race(observability: bool) -> tuple[LawsDatabase, list[str]]:
    """Loop ``explain_analyze(ANALYZED)`` while another thread loops ``query(BACKGROUND)``."""
    db = LawsDatabase(observability=observability, verify_sample_fraction=0.0)
    db.load_dict("t", {"x": [float(i) for i in range(64)], "y": [2.0 * i for i in range(64)]})
    texts: list[str] = []
    stop = threading.Event()

    def analyzer() -> None:
        try:
            for _ in range(ROUNDS):
                texts.append(db.explain_analyze(ANALYZED))
        finally:
            stop.set()

    def querier() -> None:
        try:
            while not stop.is_set():
                db.query(BACKGROUND)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_workers(analyzer, querier, timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    return db, texts


def _traced_sql(text: str) -> str:
    """The ``sql`` attribute of the rendered tree's root span."""
    return next(line for line in text.splitlines() if "· sql: " in line).split("· sql: ", 1)[1]


@pytest.mark.parametrize("observability", [True, False], ids=["obs-on", "obs-off"])
def test_every_rendered_tree_is_the_calls_own(observability):
    _, texts = _race(observability)
    assert len(texts) == ROUNDS
    foreign = [text for text in texts if _traced_sql(text) != ANALYZED]
    assert not foreign, f"{len(foreign)} of {len(texts)} trees belong to another thread:\n{foreign[0]}"
    assert all("op:Aggregate" in text for text in texts)


def test_forcing_a_trace_observes_no_other_thread():
    """Obs-off: the analyzed queries are the only ones ever traced, and nothing is counted."""
    db, _ = _race(observability=False)
    assert not db.obs.tracer.enabled
    assert {trace.attributes["sql"] for trace in db.obs.tracer.traces()} == {ANALYZED}
    assert db.metrics()["counters"] == {}
    assert db.ops_report()["queries"]["total"] == 0
