"""Worker pool for per-partition tasks.

Tasks run on threads: partition kernels are NumPy-bound and release the GIL
inside vectorised ops, and thread workers share the base table's column
buffers zero-copy (partition slices are views).

Resilience contract (fault point ``parallel.worker.task``): a worker that
raises or hangs past ``deadline_seconds`` is retried once through the pool;
if the retry also fails, the pool *degrades* — the affected tasks run
serially on the coordinator without fault instrumentation, a
``parallel-degraded`` event is journaled and ``parallel_degraded_total``
is incremented.  A query is thus slowed by a sick worker, never failed.

Like ``db/operators/aggregate.py``, whose ``reduce`` the tasks run, this
module must not import the obs hub at module scope: workers report nothing
themselves.  The coordinator's retries and degrades
go to the ``journal`` and ``metrics`` the pool is constructed with — its
owner's, so "off" is their ``enabled`` flag and the pool never asks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

__all__ = ["WorkerPool", "FAULT_POINT"]

FAULT_POINT = "parallel.worker.task"


class WorkerPool:
    """Runs per-partition tasks with retry-then-degrade semantics."""

    def __init__(
        self,
        *,
        journal: Any,
        metrics: Any,
        faults: Any = None,
        max_workers: int = 4,
        deadline_seconds: float = 30.0,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.deadline_seconds = deadline_seconds
        #: :class:`repro.obs.EventJournal` / :class:`repro.obs.MetricsRegistry`
        #: (untyped here: this module stays import-free of ``repro.obs``).
        self.journal = journal
        self.metrics = metrics
        #: Fault injector (``parallel.worker.task``); None = unarmed.
        self.faults = faults

    # -- internals ----------------------------------------------------------

    def _wrap(self, task: Callable[[], Any]) -> Callable[[], Any]:
        faults = self.faults
        if faults is None:
            return task

        def call() -> Any:
            faults.hit(FAULT_POINT)
            return task()

        return call

    # -- execution ----------------------------------------------------------

    def run_tasks(
        self, tasks: Sequence[Callable[[], Any]], *, workers: int | None = None
    ) -> list[Any]:
        """Run ``tasks`` and return their results in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        workers = max(1, min(workers or self.max_workers, len(tasks)))
        if len(tasks) == 1 and self.faults is None:
            return [tasks[0]()]
        wrapped = [self._wrap(task) for task in tasks]
        executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-parallel")
        results: list[Any] = [None] * len(tasks)
        try:
            futures = [executor.submit(call) for call in wrapped]
            failed: list[int] = []
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result(timeout=self.deadline_seconds)
                except Exception:  # noqa: BLE001 - timeout or task error
                    failed.append(index)
            if failed:
                self.metrics.inc("parallel_retries_total", float(len(failed)))
                still_failed: list[tuple[int, Exception]] = []
                for index in failed:
                    try:
                        results[index] = executor.submit(wrapped[index]).result(
                            timeout=self.deadline_seconds
                        )
                    except Exception as exc:  # noqa: BLE001
                        still_failed.append((index, exc))
                if still_failed:
                    self._degrade(still_failed, tasks, results)
        finally:
            executor.shutdown(wait=False)
        return results

    def _degrade(
        self,
        still_failed: list[tuple[int, Exception]],
        tasks: list[Callable[[], Any]],
        results: list[Any],
    ) -> None:
        """Run repeat offenders serially, uninstrumented, and disclose it."""
        self.metrics.inc("parallel_degraded_total")
        first_index, first_exc = still_failed[0]
        self.journal.record(
            "parallel-degraded",
            tasks=len(still_failed),
            first_task=first_index,
            error=f"{type(first_exc).__name__}: {first_exc}",
        )
        for index, _exc in still_failed:
            results[index] = tasks[index]()
