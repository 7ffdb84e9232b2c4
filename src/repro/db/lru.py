"""The one bounded, thread-safe LRU map behind every text-keyed cache."""

import threading
from collections import OrderedDict


class LockedLRU:
    """A bounded LRU map (any hashable key) with hit / miss / invalidation counters.

    Concurrent queries share it and ``OrderedDict`` updates are not atomic, so every
    operation takes the one lock; values are built outside it (last put wins).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.hits = self.misses = self.invalidations = 0
        self._map: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, count: bool = True):
        """The value under ``key`` (now most recently used), else None; counted as a
        hit or miss unless the owner :meth:`tally`-s what it could reuse itself."""
        with self._lock:
            value = self._map.get(key)
            if value is not None:
                self._map.move_to_end(key)
            self.hits += count and value is not None
            self.misses += count and value is None
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._map[key] = value
            while len(self._map) > self.capacity:
                self._map.popitem(last=False)

    def tally(self, hit: bool, invalidated: bool = False) -> None:
        """Count one reuse decision of an owner that looks up with ``count=False``."""
        with self._lock:
            self.hits += hit
            self.misses += not hit
            self.invalidations += invalidated

    def clear(self) -> None:
        with self._lock:
            self._map.clear()

    def info(self) -> dict[str, int]:
        with self._lock:
            return dict(hits=self.hits, misses=self.misses, size=len(self._map), capacity=self.capacity)
