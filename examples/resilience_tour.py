"""Resilience tour: faults in, disclosures out.

Walks the self-healing layer end to end on a durable store:

1. deterministic fault injection — a seeded schedule of IO errors replayed
   at named fault points inside the production code;
2. retry with backoff — a transient WAL append error that heals invisibly,
   journaled as a ``retry`` event;
3. torn WAL tail — crash mid-frame, reopen: the tail is truncated,
   quarantined and journaled; every intact batch survives;
4. warehouse corruption — flipped bytes in one model entry: exactly that
   entry quarantines, every other model serves;
5. graceful degradation — queries over the damaged table serve from the
   surviving models *with disclosure*, or raise a typed
   ``DegradedServiceError``; ``acknowledge_degraded()`` restores service.

Run with::

    PYTHONPATH=src python examples/resilience_tour.py
"""

from __future__ import annotations

import errno
import json
import shutil
import tempfile
from pathlib import Path

from repro import AccuracyContract, LawsDatabase
from repro.errors import DegradedServiceError
from repro.resilience import FaultInjector
from repro.resilience.faults import FaultSpec

ROWS = 200


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def fill(db: LawsDatabase) -> None:
    db.load_dict(
        "sensors",
        {
            "t": [float(t) for t in range(ROWS)],
            "temp": [15.0 + 0.02 * t for t in range(ROWS)],
            "load": [3.0 + 0.05 * t for t in range(ROWS)],
        },
    )
    db.fit("sensors", "temp ~ t")
    db.fit("sensors", "load ~ t")


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="resilience-tour-")) / "store"

    banner("1+2. A transient WAL error heals by retry")
    faults = FaultInjector(
        # hit=3: the ingest's frame, the third WAL append of this scenario.
        [FaultSpec("persist.wal.append", "oserror", errno_code=errno.EIO, hit=3)]
    )
    db = LawsDatabase.open(root, fault_injector=faults)
    fill(db)
    db.ingest("sensors", [(float(ROWS + i), 19.0, 13.0) for i in range(8)], flush=True)
    retries = db.events(kind="retry")
    injected = [(e.point, e.kind) for e in faults.fired()]
    print(f"injected: {injected}")
    print(f"journaled retries: {[e.fields for e in retries]}")
    assert injected == [("persist.wal.append", "oserror")]
    assert retries and retries[0].fields["outcome"] == "success"
    db.checkpoint()
    db.close()

    banner("3. Crash tears the WAL tail; reopen truncates + quarantines")
    db = LawsDatabase.open(root)
    db.insert_rows("sensors", [(500.0, 20.0, 14.0), (501.0, 20.1, 14.1)])
    db.close()  # no checkpoint: those rows live only in the WAL
    wal = root / "wal.log"
    wal.write_bytes(wal.read_bytes()[:-5])  # the power cut
    db = LawsDatabase.open(root)
    outcome = db.events(kind="recovery")[-1].fields["outcome"]
    truncation = db.events(kind="wal-truncation")[-1].fields
    print(f"recovery outcome: {outcome}")
    print(f"truncation: {truncation['reason']} ({truncation['truncated_bytes']} bytes "
          f"preserved at {truncation['quarantined_path']})")
    print(f"rows after reopen: {db.table('sensors').num_rows}")
    db.checkpoint()
    db.close()

    banner("4. Flipped bytes in one warehouse entry")
    manifest = json.loads((root / "MANIFEST.json").read_text())
    warehouse = root / manifest["warehouse_file"]
    payload = json.loads(warehouse.read_text())
    victim = next(e for e in payload["models"] if e["coverage"]["output_column"] == "temp")
    victim["fit"] = "\x7fcorrupted\x00"
    warehouse.write_text(json.dumps(payload))
    db = LawsDatabase.open(root)
    report = db.quarantine_report()
    print(f"quarantined: {report['by_artefact']} -> {report['directory']}")
    print(f"warehouse health: {db.resilience.health.state('warehouse')!r}")
    survivors = [f"{m.table_name}.{m.output_column}" for m in db.captured_models()]
    print(f"surviving models: {survivors}")

    banner("5. Degraded service: disclosed answers or typed refusals")
    # Pretend the table itself lost segments, the strongest degradation.
    db.resilience.health.mark_failed("table:sensors", "snapshot segments quarantined")
    answer = db.query(
        "SELECT avg(load) AS mean_load FROM sensors",
        AccuracyContract(max_relative_error=0.1, verify_fraction=0.0),
    )
    print(f"approx answer: {float(answer.scalar()):.3f} "
          f"(degraded_reason={answer.plan.degraded_reason!r})")
    try:
        db.query("SELECT avg(load) AS m FROM sensors", AccuracyContract(mode="exact"))
    except DegradedServiceError as exc:
        print(f"exact refused: [{type(exc).__name__}] component={exc.component!r}")
    db.acknowledge_degraded("table:sensors")
    exact = db.query("SELECT avg(load) AS m FROM sensors", AccuracyContract(mode="exact"))
    print(f"after acknowledge_degraded: exact answer {float(exact.scalar()):.3f}")
    print("\nhealth report:", json.dumps(db.health_report()["health"], indent=2))
    db.close()
    shutil.rmtree(root.parent, ignore_errors=True)


if __name__ == "__main__":
    main()
