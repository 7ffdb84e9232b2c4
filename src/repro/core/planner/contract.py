"""Accuracy contracts: what the caller promises to tolerate.

The paper's vision is a database where captured models are an *access
path*, not a separate API.  An :class:`AccuracyContract` is how a caller
tells the unified planner what an acceptable answer looks like — error
budget, latency deadline, and whether the system may choose the route —
so the model-vs-exact decision belongs to the planner, not the user.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["AccuracyContract", "AUTO", "EXACT", "APPROX"]

_MODES = ("auto", "exact", "approx")


@dataclass(frozen=True)
class AccuracyContract:
    """The caller's accuracy/latency requirements for one query.

    ``mode``
        ``"auto"`` (default) lets the planner cost-route between model
        serving and exact execution; ``"exact"`` pins exact execution;
        ``"approx"`` pins model serving (with exact fallback unless
        ``allow_exact_fallback`` is False).
    ``max_relative_error``
        The error budget for auto mode: the model route is admitted only
        when its *predicted* relative error fits the budget.  ``None``
        means any predicted error is acceptable.
    ``deadline_ms``
        A soft latency deadline.  When exact execution is predicted to
        blow the deadline and a model route is predicted to meet it, auto
        mode prefers the model route even without an error budget.
    ``allow_exact_fallback``
        In approx mode, whether a query no model can serve may fall back
        to exact execution (the engine's ``allow_fallback``).
    ``verify_fraction``
        Fraction of executed model-served plans to verify against exact
        execution, feeding observed errors back into model quality.
        ``None`` uses the planner's default sampling rate.
    """

    max_relative_error: float | None = None
    deadline_ms: float | None = None
    mode: str = "auto"
    allow_exact_fallback: bool = True
    verify_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ReproError(
                f"unknown contract mode {self.mode!r}; expected one of {_MODES}"
            )
        if self.max_relative_error is not None and self.max_relative_error < 0:
            raise ReproError("max_relative_error must be non-negative")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproError("deadline_ms must be positive")
        if self.verify_fraction is not None and not 0.0 <= self.verify_fraction <= 1.0:
            raise ReproError("verify_fraction must be within [0, 1]")

    @property
    def error_budget(self) -> float:
        """The budget as a float (infinite when unconstrained)."""
        return float("inf") if self.max_relative_error is None else self.max_relative_error

    @property
    def deadline_seconds(self) -> float:
        return float("inf") if self.deadline_ms is None else self.deadline_ms / 1000.0

    def describe(self) -> str:
        parts = [f"mode={self.mode}"]
        if self.max_relative_error is not None:
            parts.append(f"max_relative_error={self.max_relative_error:g}")
        if self.deadline_ms is not None:
            parts.append(f"deadline_ms={self.deadline_ms:g}")
        if not self.allow_exact_fallback:
            parts.append("no-exact-fallback")
        if self.verify_fraction is not None:
            parts.append(f"verify={self.verify_fraction:g}")
        return ", ".join(parts)


#: Common pinned contracts (used by the deprecated entry-point shims).
AUTO = AccuracyContract()
EXACT = AccuracyContract(mode="exact")
APPROX = AccuracyContract(mode="approx")
