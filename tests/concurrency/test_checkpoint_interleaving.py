"""DDL racing ``checkpoint()``: the redo record commits with the change.

Create / insert / drop write their redo record inside the same commit-lock
critical section as the catalog change, so a checkpoint on another thread can
never snapshot a table whose ``create_table`` record then lands in the *new*
epoch's log (a reopen would refuse "already exists", quarantine it and every
acknowledged record after it).  Whatever the interleaving, the reopened store
is the live one.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import LawsDatabase
from tests.concurrency.harness import iterations, run_workers

pytestmark = pytest.mark.concurrency


def test_ddl_racing_checkpoint_recovers_to_the_live_state(tmp_path):
    root = tmp_path / "db"
    db = LawsDatabase.open(root, observability=False)
    db.load_dict("anchor", {"k": [0], "v": [0.0]})
    done = threading.Event()
    rounds = iterations(150)

    def writer() -> None:
        try:
            for i in range(rounds):
                name = f"t{i}"
                db.load_dict(name, {"k": [i], "v": [float(i)]})
                db.insert_rows(name, [(i, 1.0), (i, 2.0)])
                db.insert_rows("anchor", [(i, float(i))])
                if i % 3:
                    db.drop_table(name)
        finally:
            done.set()

    def checkpointer() -> None:
        while not done.is_set():
            db.checkpoint()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_workers(writer, checkpointer)
    finally:
        sys.setswitchinterval(interval)

    live = db.database.fingerprint()
    assert db.table("anchor").num_rows == rounds + 1
    db.close()

    reopened = LawsDatabase.open(root, observability=False)
    assert reopened.quarantine_report()["count"] == 0
    health = reopened.health_report()["health"]
    assert all(entry["state"] == "healthy" for entry in health.values()), health
    assert reopened.database.fingerprint() == live
    reopened.close()
