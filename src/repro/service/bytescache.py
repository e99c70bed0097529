"""`BytesLRU`: the warm-path byte tier of the serving stack.

Stored result envelopes are canonical bytes on disk; serving them used
to mean re-reading (and, for the narrowed views, re-parsing multi-MB
JSON) per request.  A :class:`BytesLRU` keeps the *rendered response
payloads* — the full envelope, the ``?fields=headline`` reduction,
each paginated ``?section=`` page, a dataset's metadata document — as
ready-to-write UTF-8 bytes, keyed by ``(owner, view)``:

* ``owner`` is the cached resource's identity (a result fingerprint, a
  dataset name) — the unit of invalidation: storing or deleting the
  underlying entry drops *every* view rendered from it in one call;
* ``view`` is the representation (``"full"``, ``"headline"``,
  ``("section", path, page, page_size)``, …) — content-addressed
  owners never change bytes, so distinct views can only ever disagree
  by *which reduction* they are, never by freshness.

Each entry also carries the HTTP validators the front-end serves with
it — a strong ``etag`` and a ``last_modified`` stamp — so a warm
conditional GET answers 304 without touching storage or JSON at all.

Eviction is LRU over both a byte budget and an entry count (the full
paper-scale envelope is ~7 MB; a handful of hot fingerprints plus
hundreds of small views fit comfortably in the default 256 MB).  The
``hits``/``misses`` counters back the
``repro_results_bytes_cache_{hits,misses}_total`` metrics — the
"zero JSON parses after warm-up" regression gate reads them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, NamedTuple

#: Default byte budget for one cache (roughly: a few dozen hot
#: paper-scale envelopes plus their narrowed views).
DEFAULT_MAX_BYTES = 256 << 20

#: Default entry budget (pages of a large section fan out fast).
DEFAULT_MAX_ENTRIES = 4096


class CachedBytes(NamedTuple):
    """One rendered payload plus the validators served with it."""

    payload: bytes
    #: Strong entity tag *value* (unquoted); the HTTP layer quotes it.
    etag: str
    #: POSIX timestamp rendered as the ``Last-Modified`` header.
    last_modified: float
    #: For a stored result envelope: whether its bytes are a
    #: current-schema envelope, judged once when they entered the cache
    #: (see :class:`~repro.service.store.ResultsStore`).  ``False`` for
    #: every other payload.
    current: bool = False


class BytesLRU:
    """A byte-budgeted LRU of rendered response payloads.

    Thread-safe; every operation is O(1) except the eviction sweep,
    which is amortised by the byte budget.  ``max_bytes=0`` disables
    retention entirely (every :meth:`put` is a no-op) without changing
    any caller's control flow.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple[Hashable, Hashable], CachedBytes]" = (
            OrderedDict()
        )
        self._bytes = 0
        self._mutex = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get(self, owner: Hashable, view: Hashable) -> CachedBytes | None:
        """The cached payload for ``(owner, view)``, or ``None``."""
        key = (owner, view)
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self,
        owner: Hashable,
        view: Hashable,
        payload: bytes,
        *,
        etag: str,
        last_modified: float,
        current: bool = False,
    ) -> CachedBytes:
        """Cache one rendered payload; returns the stored entry.

        The entry holds ``payload`` itself when it is a ``bytes`` object,
        never a copy.  An oversized payload (alone over the byte budget)
        is returned but not retained — the caller still serves it, it
        just is not warm next time.
        """
        entry = CachedBytes(bytes(payload), etag, float(last_modified), current)
        if self.max_bytes == 0 or self.max_entries == 0:
            return entry
        if len(entry.payload) > self.max_bytes:
            return entry
        key = (owner, view)
        with self._mutex:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old.payload)
            self._entries[key] = entry
            self._bytes += len(entry.payload)
            self.stores += 1
            while self._entries and (
                self._bytes > self.max_bytes
                or len(self._entries) > self.max_entries
            ):
                evicted_key, evicted = self._entries.popitem(last=False)
                if evicted_key == key:
                    # Never evict the entry just written; re-insert at
                    # the recent end and stop — everything older is gone.
                    self._entries[key] = evicted
                    break
                self._bytes -= len(evicted.payload)
                self.evictions += 1
        return entry

    def invalidate(self, owner: Hashable) -> int:
        """Drop every view rendered from ``owner``; returns the count.

        Called whenever the underlying store entry changes (a result
        overwrite on schema upgrade, a dataset re-push, a delete), so a
        moved ETag can never be served next to stale bytes.
        """
        with self._mutex:
            doomed = [key for key in self._entries if key[0] == owner]
            for key in doomed:
                self._bytes -= len(self._entries.pop(key).payload)
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
            self._bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def total_bytes(self) -> int:
        with self._mutex:
            return self._bytes

    def stats(self) -> dict[str, Any]:
        """Live counters (healthz block / metrics scrape source)."""
        with self._mutex:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
