"""Weak callbacks: how an owner hands one of its methods to what it owns.

``owner.child.hook = owner.method`` makes owner → child → bound method →
owner a reference cycle, which reference counting never frees: a dropped
:class:`~repro.core.system.LawsDatabase` — every table it holds included —
would sit in memory until the cyclic collector's next full pass.  Wiring the
hook as ``weak_callback(owner.method)`` keeps the graph a tree, so the last
reference to the owner frees all of it at once.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable

__all__ = ["weak_callback"]


def weak_callback(method: Callable[..., Any]) -> Callable[..., Any]:
    """``method`` (a bound method) as a callable that holds its object weakly.

    Calling it after the object is gone raises :class:`ReferenceError` — the
    component outlived the owner whose behaviour it was calling back into.
    """
    reference = weakref.WeakMethod(method)
    name = method.__qualname__

    def callback(*args: Any, **kwargs: Any) -> Any:
        target = reference()
        if target is None:
            raise ReferenceError(f"the owner of {name} is gone")
        return target(*args, **kwargs)

    return callback
