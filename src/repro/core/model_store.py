"""The model store: the database's catalog of captured models.

Harvested models are "transparently stored, re-executed, and generally
employed for approximate query answering and data storage optimization"
(§1).  The store indexes captured models by table and output column, handles
the "multiple, partial or grouped models" challenge of §4.1 by ranking
candidates, and tracks staleness when the underlying table changes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.core.captured_model import CapturedModel
from repro.db.snapshot import PinStack
from repro.errors import HarvestError, ModelNotFoundError
from repro.obs.events import EventJournal

__all__ = ["ModelStore", "ModelStorePin"]


def _default_ranking(model: CapturedModel) -> tuple:
    """Serving priority: active before stale, then fit quality, then recency."""
    return (model.status == "active", model.quality.adjusted_r_squared, model.model_id)


#: Observed-error samples kept per model (oldest dropped first).
OBSERVED_ERROR_WINDOW = 32


class ModelStorePin:
    """A frozen membership view of the model store at one version.

    Pins the *population* — which models exist and their per-target index —
    not the models themselves: :class:`CapturedModel` objects stay shared,
    so lifecycle flips (``mark_stale``, demotion metadata) remain visible
    through a pin.  That is intentional — a model the planner just caught
    lying must stop being preferred immediately, even by queries that
    pinned before the demotion.  What a pin guarantees is that concurrent
    harvests and retirements cannot add or remove *entries* mid-query.
    """

    __slots__ = ("_models", "_by_target", "_version", "_mirrored")

    def __init__(
        self,
        models: dict[int, CapturedModel],
        by_target: dict[tuple[str, str], list[int]],
        version: int,
    ) -> None:
        self._models = models
        self._by_target = by_target
        self._version = version
        #: True once an own-thread write was mirrored in.  A mirrored pin
        #: may carry the live version number while missing another thread's
        #: concurrent registration, so snapshot memoization must never
        #: reuse it for a fresh query.
        self._mirrored = False


class ModelStore:
    """In-database registry of captured models.

    Concurrency model: every mutation is serialized under one re-entrant
    lock, and readers either see live state or — inside a :meth:`reading`
    context — a :class:`ModelStorePin` taken at a version boundary.  A
    mutation made *by a pinned thread itself* (the approximate engine's
    on-demand harvest registers a model mid-query and immediately re-queries
    for it) is mirrored into that thread's pin, so a query always sees its
    own writes while staying isolated from other threads'.  Demotions,
    supersedes and retirements are recorded in ``journal``.
    """

    def __init__(self, *, journal: EventJournal | None = None) -> None:
        self._models: dict[int, CapturedModel] = {}
        #: (table_name, output_column) -> model ids, in capture order
        self._by_target: dict[tuple[str, str], list[int]] = {}
        #: Bumped on any registration or lifecycle change; the unified
        #: planner keys its plan cache on this so routing decisions are
        #: invalidated when the serving model population changes.
        self._version = 0
        self.journal = journal or EventJournal(enabled=False)
        self._lock = threading.RLock()
        self._local = PinStack()

    # -- snapshot pinning ------------------------------------------------------

    def _pin(self) -> ModelStorePin | None:
        pins = self._local.pins
        return pins[-1] if pins else None

    def _state(self):
        """The object whose ``_models``/``_by_target``/``_version`` reads see:
        the calling thread's innermost pin, or the live store."""
        pins = self._local.pins
        return pins[-1] if pins else self

    def pin(self) -> ModelStorePin:
        """Freeze the current membership (shallow copies, taken under lock)."""
        with self._lock:
            return ModelStorePin(
                dict(self._models),
                {key: list(ids) for key, ids in self._by_target.items()},
                self._version,
            )

    @contextmanager
    def reading(self, pin: ModelStorePin) -> Iterator[ModelStorePin]:
        """Resolve every store read on this thread through ``pin``."""
        pins = self._local.pins
        pins.append(pin)
        try:
            yield pin
        finally:
            pins.pop()

    @property
    def version(self) -> int:
        return self._state()._version

    @property
    def live_version(self) -> int:
        """The live store version, ignoring any pin on the calling thread."""
        return self._version

    def _bump(self) -> None:
        with self._lock:
            self._version += 1

    # -- registration ----------------------------------------------------------

    def add(self, model: CapturedModel) -> CapturedModel:
        """Register a captured model (accepted or not — rejected models are
        kept for provenance and for the model-switching policy)."""
        key = (model.table_name, model.output_column)
        with self._lock:
            self._models[model.model_id] = model
            self._by_target.setdefault(key, []).append(model.model_id)
            self._version += 1
            version = self._version
        pin = self._pin()
        if pin is not None:
            # Own-thread write visibility: the pinning query must see the
            # model it just harvested.  The pin adopts the post-add version
            # so caches keyed on it cannot serve the pre-add routing.
            pin._models[model.model_id] = model
            pin._by_target.setdefault(key, []).append(model.model_id)
            pin._version = version
            pin._mirrored = True
        return model

    def remove(self, model_id: int) -> None:
        with self._lock:
            model = self._models.pop(model_id, None)
            if model is None:
                raise ModelNotFoundError(f"no captured model with id {model_id}")
            key = (model.table_name, model.output_column)
            if key in self._by_target and model_id in self._by_target[key]:
                self._by_target[key].remove(model_id)
            self._version += 1
            version = self._version
        pin = self._pin()
        if pin is not None and model_id in pin._models:
            del pin._models[model_id]
            if key in pin._by_target and model_id in pin._by_target[key]:
                pin._by_target[key].remove(model_id)
            pin._version = version
            pin._mirrored = True

    # -- lookup -------------------------------------------------------------------

    def get(self, model_id: int) -> CapturedModel:
        try:
            return self._state()._models[model_id]
        except KeyError:
            raise ModelNotFoundError(f"no captured model with id {model_id}") from None

    def __len__(self) -> int:
        return len(self._state()._models)

    def __iter__(self):
        return iter(list(self._state()._models.values()))

    def all_models(self) -> list[CapturedModel]:
        return list(self._state()._models.values())

    def models_for_table(self, table_name: str, include_unusable: bool = False) -> list[CapturedModel]:
        models = [m for m in self._state()._models.values() if m.table_name == table_name]
        if not include_unusable:
            models = [m for m in models if m.is_usable]
        return sorted(models, key=lambda m: m.model_id)

    def candidates(
        self,
        table_name: str,
        output_column: str,
        required_inputs: Iterable[str] | None = None,
        require_whole_table: bool = True,
        include_stale: bool = False,
    ) -> list[CapturedModel]:
        """Usable models that predict ``output_column`` of ``table_name``.

        ``required_inputs`` restricts to models whose input (plus group)
        columns are a subset of the columns the query can bind — the
        "parameter space enumeration" precondition of §4.2.

        ``include_stale`` additionally admits accepted-but-stale models —
        during continuous ingestion a stale model is still the best
        available answer until the maintenance loop re-validates it; the
        default ranking in :meth:`best_model` deprioritizes them behind any
        active model.
        """
        key = (table_name, output_column)
        state = self._state()
        models = [state._models[model_id] for model_id in list(state._by_target.get(key, []))]
        models = [m for m in models if (m.is_servable if include_stale else m.is_usable)]
        if require_whole_table:
            models = [m for m in models if m.coverage.covers_whole_table]
        if required_inputs is not None:
            available = set(required_inputs)
            models = [
                m
                for m in models
                if set(m.input_columns) | set(m.group_columns) <= available
            ]
        return sorted(models, key=lambda m: m.model_id)

    def best_model(
        self,
        table_name: str,
        output_column: str,
        required_inputs: Iterable[str] | None = None,
        ranking: Callable[[CapturedModel], float] | None = None,
        include_stale: bool = False,
    ) -> CapturedModel:
        """The best usable model for a target column.

        §4.1 ("Multiple, partial or grouped models ... it is not obvious how
        to select the best model"): the default policy ranks active models
        first (stale ones are deprioritized, never preferred over a fresh
        fit), then by adjusted R², breaking ties with the newer capture.  A
        custom ``ranking`` callable can override this.
        """
        candidates = self.candidates(
            table_name, output_column, required_inputs, include_stale=include_stale
        )
        if not candidates:
            raise ModelNotFoundError(
                f"no usable captured model predicts {output_column!r} of table {table_name!r}"
            )
        if ranking is None:
            ranking = _default_ranking
        return max(candidates, key=ranking)

    def best_model_for_table(
        self, table_name: str, include_stale: bool = False
    ) -> CapturedModel:
        """The best serving model of a table across all output columns.

        Whole-table models outrank partial (predicate-restricted) ones
        regardless of fit quality: callers of this table-level pick
        (compression, zero-IO scans, anomaly detection without a target
        column) operate on all rows, which a single-regime segment model
        does not describe.
        """
        models = [
            m
            for m in self._state()._models.values()
            if m.table_name == table_name
            and (m.is_servable if include_stale else m.is_usable)
        ]
        if not models:
            raise ModelNotFoundError(f"no usable captured model for table {table_name!r}")
        return max(models, key=lambda m: (m.coverage.covers_whole_table, *_default_ranking(m)))

    def has_model_for(
        self, table_name: str, output_column: str, include_stale: bool = False
    ) -> bool:
        return bool(self.candidates(table_name, output_column, include_stale=include_stale))

    # -- group-level lookup --------------------------------------------------------

    def grouped_candidates(
        self,
        table_name: str,
        output_column: str,
        group_columns: Iterable[str],
        include_stale: bool = True,
    ) -> list[CapturedModel]:
        """Servable grouped models keyed by exactly the given group columns.

        Partial (predicate-restricted) models are admitted: a stale or
        segment model harvested by the maintenance lane still holds valid
        per-group parameters for the groups it covers.  Which candidate
        serves which requested key is decided for all keys at once, as
        vectors, by :func:`repro.core.approx.routes.router.plan_group_routing`.
        """
        wanted = set(group_columns)
        models = self.candidates(
            table_name,
            output_column,
            require_whole_table=False,
            include_stale=include_stale,
        )
        return [m for m in models if m.is_grouped and set(m.group_columns) == wanted]


    # -- observed-error feedback ---------------------------------------------------

    def record_observed_error(self, model_id: int, relative_error: float) -> list[float]:
        """Record one sampled |relative error| observed for a served answer.

        The unified planner samples executed plans against exact execution
        and deposits what it measured here; the quality policy judges the
        accumulated evidence (:meth:`QualityPolicy.flags_observed_errors`)
        and the maintenance loop refits demoted models.  Returns the model's
        current observation window.
        """
        model = self.get(model_id)
        with self._lock:
            model.observed_errors.append(float(relative_error))
            if len(model.observed_errors) > OBSERVED_ERROR_WINDOW:
                del model.observed_errors[: len(model.observed_errors) - OBSERVED_ERROR_WINDOW]
            return model.observed_errors

    def demote(self, model_id: int, reason: str) -> CapturedModel:
        """Take a model the planner caught lying out of preferred serving.

        The model is marked stale (deprioritized behind any active model,
        still servable as a last resort) and flagged so the maintenance
        policy refits it on the next tick instead of quietly re-validating.
        """
        model = self.get(model_id)
        with self._lock:
            if model.status == "active":
                model.mark_stale()
            model.metadata["planner_demoted"] = reason
            self._version += 1
        self.journal.record(
            "model-demotion",
            model_id=model_id,
            table=model.table_name,
            column=model.output_column,
            reason=reason,
        )
        return model

    # -- lifecycle ----------------------------------------------------------------------

    def mark_table_stale(
        self, table_name: str, appended_from: int | None = None
    ) -> list[CapturedModel]:
        """Mark every model of ``table_name`` stale (called when data changes).

        When the change was an *append* starting at row ``appended_from``,
        partition-scoped models whose row range lies entirely below the
        append boundary are exempt — their rows did not change, so per-shard
        drift detection leaves them active and maintenance refits only the
        shards the batch actually landed in.
        """
        stale = []
        with self._lock:
            for model in self._models.values():
                if model.table_name != table_name or model.status != "active":
                    continue
                row_range = model.coverage.row_range
                if (
                    appended_from is not None
                    and row_range is not None
                    and row_range[1] <= appended_from
                ):
                    continue
                model.mark_stale()
                stale.append(model)
            if stale:
                self._version += 1
        return stale

    def retire_model(self, model_id: int) -> None:
        self.get(model_id).retire()
        self._bump()
        self.journal.record("model-retire", model_id=model_id)

    def reactivate(self, model_id: int) -> None:
        """Reactivate a stale model (e.g. after re-validation against new data)."""
        self.get(model_id).status = "active"
        self._bump()

    def supersede(self, model_id: int, successor_id: int) -> CapturedModel:
        """Replace ``model_id`` with ``successor_id`` in the serving rotation.

        The lifecycle's succession rule calls this for an accepted refit: the
        old model is taken out of service permanently (unlike ``stale`` it
        cannot be re-validated back) but kept for provenance, with metadata
        linking the two so lineage across regime changes stays queryable.
        """
        old = self.get(model_id)
        successor = self.get(successor_id)
        if old.model_id == successor.model_id:
            # Typed outward (errors-audit): callers above the store catch
            # ReproError, and a bare ValueError would escape that net.
            raise HarvestError(f"model {model_id} cannot supersede itself")
        with self._lock:
            old.status = "superseded"
            old.metadata["superseded_by"] = successor.model_id
            successor.metadata.setdefault("supersedes", []).append(old.model_id)
            self._version += 1
        self.journal.record(
            "model-supersede",
            model_id=model_id,
            successor_id=successor_id,
            table=old.table_name,
            column=old.output_column,
        )
        return old

    # -- accounting --------------------------------------------------------------------------

    def total_stored_bytes(self) -> int:
        """Nominal storage cost of all usable captured models."""
        return sum(model.stored_byte_size() for model in self._state()._models.values() if model.is_usable)

    def describe(self) -> str:
        models = self._state()._models
        if not models:
            return "(no captured models)"
        return "\n".join(model.describe() for model in sorted(models.values(), key=lambda m: m.model_id))
