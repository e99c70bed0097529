"""A slot-bounded LRU map for live Python objects.

Byte-level LRU eviction lives in :class:`~repro.store.namespace.Namespace`;
this is its in-process counterpart for caches that hold *objects*
(unpickled stage values, resolved datasets) where serialising through a
backend would defeat the point.  Kept here so every eviction policy in
the codebase lives under :mod:`repro.store`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator

#: Sentinel distinguishing "absent" from a cached ``None``.
_ABSENT = object()


class ObjectLRU:
    """A thread-safe, slot-bounded, recency-ordered mapping.

    ``slots=0`` disables retention entirely (every :meth:`put` is a
    no-op), which is how a memory-tier-less stage cache is expressed.

    >>> lru = ObjectLRU(2)
    >>> lru.put("a", 1); lru.put("b", 2)
    >>> _ = lru.get("a")        # refresh: "b" is now least recent
    >>> lru.put("c", 3)
    >>> sorted(lru)
    ['a', 'c']
    """

    def __init__(self, slots: int) -> None:
        if slots < 0:
            raise ValueError("slots must be non-negative")
        self.slots = slots
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._mutex = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The stored value (recency refreshed), or ``default``."""
        with self._mutex:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                return default
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting the least recent beyond ``slots``."""
        if self.slots == 0:
            return
        with self._mutex:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.slots:
                self._entries.popitem(last=False)

    def pop(self, key: Hashable) -> None:
        """Drop ``key`` if present."""
        with self._mutex:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        with self._mutex:
            return key in self._entries

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        with self._mutex:
            return iter(list(self._entries))
