"""Attributes computed on first read and kept, without a lock.

``functools.cached_property`` on Python 3.8–3.11 holds one lock per property
*per class* while it computes: the first read of one instance's property
blocks every other thread's first read of that property on *any* instance, so
one query's table-statistics pass would stall every concurrent query's
routing.  A :class:`lazy_attribute` computes outside any lock and stores the
value on the instance.  Two threads racing the first read both compute it;
both results are the same value, and the last write wins harmlessly.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["lazy_attribute"]


class lazy_attribute:
    """Decorate a method to make it an attribute computed once per instance.

    A non-data descriptor: the value it stores on the instance shadows it, so
    every read after the first is a plain attribute lookup.
    """

    def __init__(self, function: Callable[[Any], Any]) -> None:
        self.function = function
        self.name = function.__name__
        self.__doc__ = function.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = self.function(instance)
        setattr(instance, self.name, value)
        return value
