"""Two-level stage cache: in-memory LRU over an optional byte store.

Values are keyed by the content-addressed fingerprints from
:mod:`repro.pipeline.fingerprint`.  The memory tier is a bounded
:class:`~repro.store.ObjectLRU` of live values shared by every runner
holding the same :class:`StageCache`; the durable tier is a
:class:`~repro.store.Namespace` of pickled entries (one ``<key>.pkl``
per stage, written atomically) that makes warm runs survive process
boundaries — a second runner over the same directory skips every stage.
Per-key locks serialise concurrent computation of the same stage so
service jobs sharing one cache never do the shared work twice.

All storage *policy* — atomic publish, byte/entry quotas, LRU-by-access
eviction whose order survives restarts (file mtimes), backend layout
(flat or digest-sharded) — lives in :mod:`repro.store`; this class only
translates stage values to and from pickle bytes.
"""

from __future__ import annotations

import pickle
import re
import threading
from pathlib import Path
from typing import Any

from ..store import DirBackend, Namespace, ObjectLRU

#: Sentinel returned by :meth:`StageCache.get` on a miss (``None`` is a
#: legitimate cached value).
MISS = object()

#: Stage keys are hex fingerprints in production; tests and benches use
#: short labels, so the canonical encoding is name-like, path-safe.
_STAGE_KEY = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

#: Access-stamp debounce for bounded stage namespaces: a hit-heavy
#: sweep stamps each warm stage once per window instead of once per
#: hit.  Pending stamps flush on eviction scans and :meth:`close`.
STAGE_TOUCH_WINDOW_S = 5.0


def stage_namespace(
    backend: Any,
    *,
    max_bytes: int | None = None,
    max_entries: int | None = None,
    touch_window_s: float = STAGE_TOUCH_WINDOW_S,
) -> Namespace:
    """The canonical stage-cache namespace policy over ``backend``."""
    return Namespace(
        backend,
        key_pattern=_STAGE_KEY,
        key_label="stage key",
        suffix=".pkl",
        max_bytes=max_bytes,
        max_entries=max_entries,
        touch_window_s=touch_window_s,
    )


class StageCache:
    """LRU memory tier over an optional durable pickle namespace.

    Parameters
    ----------
    cache_dir:
        Legacy convenience: a flat directory backing the durable tier
        (equivalent to passing a ``dir``-backend namespace rooted
        there).  ``None`` with no ``namespace`` means memory-tier only.
    memory_slots:
        Bound on live values retained in process (0 disables the tier).
    max_bytes / max_entries:
        Durable-tier quotas; least-recently-used entries are evicted
        after every store until both hold (see
        :meth:`repro.store.Namespace.evict`).
    namespace:
        A prebuilt durable-tier namespace (e.g. from a shared
        :class:`repro.store.Store`); overrides ``cache_dir``.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        memory_slots: int = 128,
        *,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        namespace: Namespace | None = None,
    ) -> None:
        if memory_slots < 0:
            raise ValueError("memory_slots must be non-negative")
        if namespace is None and cache_dir is not None:
            namespace = stage_namespace(
                DirBackend(cache_dir), max_bytes=max_bytes, max_entries=max_entries
            )
        elif namespace is None:
            # Quota validation must not silently vanish with the tier.
            if max_bytes is not None and max_bytes < 0:
                raise ValueError("max_bytes must be non-negative")
            if max_entries is not None and max_entries < 1:
                raise ValueError("max_entries must be positive")
        self.namespace = namespace
        self.memory_slots = memory_slots
        self._memory = ObjectLRU(memory_slots)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._mutex = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def cache_dir(self) -> Path | None:
        """Root of the durable tier when it is directory-backed."""
        if self.namespace is not None and isinstance(
            self.namespace.backend, DirBackend
        ):
            return self.namespace.backend.root
        return None

    @property
    def evictions(self) -> int:
        """Durable-tier evictions (the namespace's counter)."""
        return self.namespace.evictions if self.namespace is not None else 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`."""
        value = self._memory.get(key, MISS)
        if value is not MISS:
            with self._mutex:
                self.hits += 1
            return value
        value = self._read_durable(key)
        if value is MISS:
            with self._mutex:
                self.misses += 1
            return MISS
        with self._mutex:
            self.hits += 1
        self._memory.put(key, value)
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` in both tiers."""
        with self._mutex:
            self.stores += 1
        self._memory.put(key, value)
        if self.namespace is not None:
            try:
                self.namespace.put(
                    key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                )
            except OSError:
                pass  # a full/readonly disk degrades to a memory cache

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not MISS

    def clear_memory(self) -> None:
        """Drop the memory tier (the durable tier is untouched)."""
        self._memory.clear()

    def close(self) -> None:
        """Flush coalesced durable-tier access stamps (stays usable)."""
        if self.namespace is not None:
            self.namespace.flush_touches()

    def lock(self, key: str):
        """Serialise concurrent computation of the same key."""
        if self.namespace is not None:
            return self.namespace.lock(key)
        with self._mutex:
            return self._key_locks.setdefault(key, threading.Lock())

    def key_lock(self, key: str):
        """A dedicated in-process lock for ``key`` (never striped).

        Namespace locks are striped, so nesting a second :meth:`lock`
        inside a held one can deadlock when both keys hash to the same
        stripe.  Sub-stage entries (HAC, assignment) — which are always
        computed *inside* a held stage lock — serialise through this
        per-key registry instead.
        """
        with self._mutex:
            return self._key_locks.setdefault(key, threading.Lock())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _read_durable(self, key: str) -> Any:
        if self.namespace is None:
            return MISS
        try:
            data = self.namespace.get(key)
        except OSError:
            return MISS
        if data is None:
            return MISS
        try:
            return pickle.loads(data)
        except Exception:
            # Any unreadable entry — truncated write, version-skewed
            # pickle (ModuleNotFoundError/TypeError/...), plain garbage
            # — is a miss: recomputing is always safe.
            return MISS
