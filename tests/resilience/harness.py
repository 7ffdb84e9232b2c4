"""Shared harness for the fault-injection chaos suite.

Design: one deterministic durable workload, run twice — once never-faulted
(the oracle) and once per seeded fault schedule.  The workload models a
process lifetime in three phases:

* **Phase A** (faulted): open a durable store, bulk-load, fit, watch,
  stream batches with maintenance ticks, checkpoint, archive + recall,
  stream more, write one chunk through ``insert_rows`` and one through SQL
  ``INSERT`` (so WAL faults land on every front door, not only the ingest
  flush), then close *without* a final checkpoint (crash-style: the
  post-checkpoint acknowledgements live only in the WAL).
* **Phase B** (faulted): reopen the same store — this is where read-path
  faults (bit flips on snapshot/warehouse/WAL bytes) fire — query under
  contracts, run a maintenance tick, close.
* **Phase C** (audit, never faulted): reopen cleanly, recall any archived
  segments, and read the surviving state directly: row identities,
  :meth:`Database.fingerprint`, the quarantine ledger, failed components,
  recovery metrics and journal totals.

Every operation is wrapped so a typed :class:`~repro.errors.ReproError`
is an acceptable *resolution* of an injected fault; anything else escaping
(a bare ``OSError``, a ``ValueError``) propagates and fails the test —
which is exactly the "every injected fault ends as a successful retry, a
journaled quarantine, or a typed error" guarantee.

Row accounting is by identity, not count: every row carries a unique ``t``
and a row is *acknowledged* only when the operation that durably committed
it returned normally (for ingest, only the batches the flush actually
returned; for ``insert_rows`` and SQL ``INSERT``, only if the call
returned).  Lost-vs-acknowledged and double-application are then set
comparisons against the audited final state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import LawsDatabase
from repro.core.planner import AccuracyContract
from repro.errors import ReproError
from repro.resilience import FaultInjector
from repro.resilience.faults import FaultEvent

__all__ = ["ChaosOutcome", "OpRecord", "run_workload", "schedule_count", "value_for"]

#: Ingest batch size; every streamed chunk is exactly one batch.
BATCH = 16
#: Rows in the initial bulk load.
INITIAL_ROWS = 64
#: Streamed batches before / after the explicit checkpoint.
BATCHES_BEFORE_CHECKPOINT = 3
BATCHES_AFTER_CHECKPOINT = 2

EXACT = AccuracyContract(mode="exact")
#: The served-answer contract the chaos assertions audit against.
APPROX = AccuracyContract(max_relative_error=0.2, verify_fraction=1.0)


def schedule_count(default: int = 200) -> int:
    """How many seeded schedules to run (``CHAOS_SCHEDULES`` overrides)."""
    return int(os.environ.get("CHAOS_SCHEDULES", default))


def value_for(t: int) -> float:
    """The workload's exact law: rows never deviate from it, so any accepted
    model predicts (near-)exactly and contract checks cannot flake."""
    return 2.5 * t + 1.0


@dataclass
class OpRecord:
    """One workload operation: how it ended and which faults fired in it."""

    name: str
    outcome: str  # "ok" or the typed exception class name
    faults: tuple[FaultEvent, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


@dataclass
class ChaosOutcome:
    """Everything one workload run exposes to the chaos assertions."""

    ops: list[OpRecord] = field(default_factory=list)
    #: ``t`` identities of rows whose committing operation returned normally.
    acked_t: set[int] = field(default_factory=set)
    #: ``t`` identities of every row the workload ever submitted.
    submitted_t: set[int] = field(default_factory=set)
    #: ``t`` identities present after the clean audit reopen (phase C).
    final_t: list[int] = field(default_factory=list)
    fingerprint: str | None = None
    fired: tuple[FaultEvent, ...] = ()
    quarantine_count: int = 0
    failed_components: list[str] = field(default_factory=list)
    recovery_outcomes: dict[Any, float] = field(default_factory=dict)
    journal_totals: dict[str, int] = field(default_factory=dict)
    #: Served answers that violated their contract without disclosure.
    contract_breaches: list[str] = field(default_factory=list)
    #: Answers served with an explicit degradation disclosure.
    degraded_answers: int = 0

    def op(self, name: str) -> OpRecord:
        return next(record for record in self.ops if record.name == name)

    @property
    def lost_t(self) -> set[int]:
        return self.acked_t - set(self.final_t)

    @property
    def disclosed(self) -> bool:
        """Did the run leave operator-visible evidence of damage?"""
        return bool(
            self.quarantine_count
            or self.failed_components
            or self.journal_totals.get("wal-truncation", 0)
        )


def run_workload(root: Path | str, faults: FaultInjector | None = None) -> ChaosOutcome:
    """Run the three-phase workload; see the module docstring."""
    out = ChaosOutcome()
    fired_all: list[FaultEvent] = []

    def drain() -> tuple[FaultEvent, ...]:
        if faults is None:
            return ()
        events = faults.drain()
        fired_all.extend(events)
        return events

    def step(name: str, fn: Callable[[], Any]) -> tuple[Any, bool]:
        try:
            result = fn()
        except ReproError as exc:
            out.ops.append(OpRecord(name, type(exc).__name__, drain(), str(exc)))
            return None, False
        out.ops.append(OpRecord(name, "ok", drain()))
        return result, True

    def open_db(name: str, with_faults: bool) -> Any:
        db, _ = step(
            name,
            lambda: LawsDatabase.open(
                root,
                ingest_batch_size=BATCH,
                verify_seed=0,
                fault_injector=faults if with_faults else None,
            ),
        )
        return db

    next_t = 0

    def next_chunk() -> list[tuple[int, float]]:
        nonlocal next_t
        ts = range(next_t, next_t + BATCH)
        next_t += BATCH
        out.submitted_t.update(ts)
        return [(t, value_for(t)) for t in ts]

    def write_chunk(name: str, write: Callable[[list[tuple[int, float]]], Any]) -> None:
        rows = next_chunk()
        _, ok = step(name, lambda: write(rows))
        if ok:
            out.acked_t.update(t for t, _ in rows)

    def ingest_batch(db: Any, name: str) -> None:
        rows = next_chunk()
        batches, ok = step(name, lambda: db.ingest("metrics", rows, flush=True))
        if ok:
            # Acknowledge exactly the rows the flush reported committed —
            # a failed earlier flush requeues its rows, so they may ride
            # out (and become acknowledged) in a later batch.
            for batch in batches:
                out.acked_t.update(int(row[0]) for row in batch.rows)

    def check_contract(db: Any, tag: str) -> None:
        answer, ok_a = step(
            f"query-approx-{tag}",
            lambda: db.query("SELECT avg(v) AS m FROM metrics", APPROX),
        )
        exact, ok_e = step(
            f"query-exact-{tag}",
            lambda: db.query("SELECT avg(v) AS m FROM metrics", EXACT),
        )
        if ok_a and answer.plan.degraded_reason is not None:
            out.degraded_answers += 1
            return
        if not (ok_a and ok_e):
            return
        approx_value = float(answer.scalar())
        exact_value = float(exact.scalar())
        if exact_value and abs(approx_value - exact_value) / abs(exact_value) > (
            APPROX.max_relative_error or 0.0
        ):
            out.contract_breaches.append(
                f"{tag}: served {approx_value} vs exact {exact_value} with no disclosure"
            )

    # -- phase A: populate, checkpoint, archive, crash-style close ----------
    db = open_db("open", with_faults=True)
    if db is not None:
        initial = {
            "t": list(range(INITIAL_ROWS)),
            "v": [value_for(t) for t in range(INITIAL_ROWS)],
        }
        out.submitted_t.update(range(INITIAL_ROWS))
        next_t = INITIAL_ROWS
        _, ok = step("load", lambda: db.load_dict("metrics", initial))
        if ok:
            out.acked_t.update(range(INITIAL_ROWS))
        step("fit", lambda: db.fit("metrics", "v ~ t"))
        step("watch", lambda: db.watch("metrics", "v", order_column="t"))
        for i in range(BATCHES_BEFORE_CHECKPOINT):
            ingest_batch(db, f"ingest-a{i}")
            step(f"maintain-a{i}", db.maintain)
        step("checkpoint", db.checkpoint)
        step("archive", lambda: db.archive("metrics", "t < 16"))
        step("recall", lambda: db.recall_archive("metrics"))
        for i in range(BATCHES_AFTER_CHECKPOINT):
            ingest_batch(db, f"ingest-b{i}")
        write_chunk("insert-rows", lambda rows: db.insert_rows("metrics", rows))
        write_chunk(
            "sql-insert",
            lambda rows: db.query(
                "INSERT INTO metrics VALUES " + ", ".join(f"({t}, {v!r})" for t, v in rows)
            ),
        )
        check_contract(db, "a")
        step("close-a", db.close)

    # -- phase B: faulted reopen (read-path faults fire here) ---------------
    db = open_db("reopen", with_faults=True)
    if db is not None:
        check_contract(db, "b")
        step("maintain-b", db.maintain)
        step("close-b", db.close)

    # -- phase C: never-faulted audit ---------------------------------------
    audit = open_db("audit-open", with_faults=False)
    if audit is not None:
        if audit.archive_tier is not None and audit.archive_tier.archived_tables():
            step(
                "audit-recall",
                lambda: [
                    audit.recall_archive(name)
                    for name in audit.archive_tier.archived_tables()
                ],
            )
        if audit.database.has_table("metrics"):
            table = audit.database.table("metrics")
            index = table.schema.names.index("t")
            out.final_t = [int(row[index]) for row in table.to_rows()]
        out.fingerprint = audit.database.fingerprint()
        out.quarantine_count = audit.quarantine_report()["count"]
        out.failed_components = audit.resilience.health.failed_components()
        out.recovery_outcomes = audit.obs.metrics.counter_series("recovery_total")
        out.journal_totals = audit.obs.journal.totals()
        step("audit-close", audit.close)

    out.fired = tuple(fired_all)
    return out
