"""Namespaces: the policy half of :mod:`repro.store`.

A :class:`Namespace` wraps one :class:`~repro.store.backend.Backend`
with everything the stage cache, results store and dataset store each
used to implement privately:

* **canonical key encoding** — logical keys are validated against the
  namespace's pattern (hex digests for content-addressed namespaces,
  dataset names, job ids) and mapped onto backend keys by suffix
  (``<key>.pkl``) or multi-part layout (``<key>/meta.json``).  A key
  that fails validation raises
  :class:`~repro.exceptions.StoreKeyError` *before* touching storage —
  path traversal is impossible by construction;
* **byte/entry quotas with LRU eviction** — after every store the
  least-recently-*accessed* entries are evicted until ``max_bytes`` /
  ``max_entries`` hold again.  The just-written entry is exempt (even
  a degenerate ``max_bytes=0`` keeps the latest value), and an
  unbounded namespace never evicts;
* **persisted access metadata** — recency rides on the backend's
  access stamps (file mtimes for directory backends), so eviction
  order survives restarts.  Reads go through the backend's ``peek``
  and recency is stamped separately by policy: never for unbounded
  namespaces (nothing sorts by it), immediately for bounded ones, or
  coalesced per key within ``touch_window_s`` and flushed by
  :meth:`flush_touches` / :meth:`close` / any eviction scan — so a
  hit-heavy loop costs one stamp write per key per window instead of
  one per hit;
* **oversize rejection** — namespaces fronting client uploads set
  ``reject_oversize`` and ``max_entry_bytes`` to refuse an entry that
  could not be stored within quota even by evicting everything else
  (:class:`~repro.exceptions.StoreQuotaError`), instead of churning
  the cache;
* **transient-fault retries** — reads and atomic publishes go through
  a :class:`~repro.resilience.retry.RetryPolicy` (exponential backoff,
  full jitter), so a backend flap costs a bounded delay instead of a
  miss or a failed store.  Only errors the policy classifies as
  transient are retried: :class:`~repro.exceptions.StoreQuotaError`,
  :class:`~repro.exceptions.StoreKeyError` and permanent I/O states
  (``ENOSPC``) re-raise immediately, and the ``retries`` counter in
  :meth:`stats` records every extra attempt;
* **striped key locks** — :meth:`lock` serialises concurrent work on
  one key (stage computation, dataset overwrite-vs-read).  Locks come
  from a fixed stripe table indexed by a stable hash of the key, so
  the hot read path never takes a global mutex to mint per-key locks
  and the lock table cannot grow without bound.  Two keys sharing a
  stripe serialise against each other — a false positive that costs a
  wait, never correctness.

Multi-file entries (a dataset's CSV pair plus metadata) declare their
``parts``; the *last* part is the recency anchor and is written last,
so a crash mid-write leaves a partial entry that reads as absent, and
``accounted_parts`` controls which files count against byte quotas.
"""

from __future__ import annotations

import re
import threading
import time
import zlib
from contextlib import contextmanager
from typing import Any, BinaryIO, Mapping

from ..exceptions import StoreKeyError, StoreQuotaError
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .backend import Backend, EntryStat

#: Content-addressed namespaces: plain lowercase hex digests.
HEX_KEY = re.compile(r"^[0-9a-f]+$")

#: Name-like keys (dataset names, job ids): path-safe, never hidden.
NAME_KEY = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Number of key-lock stripes per namespace.  Far above the number of
#: keys any workload holds locked at once, so stripe collisions are
#: rare; a power of two keeps the modulo cheap.
LOCK_STRIPES = 64


class _Stripe:
    """One key-lock stripe: a mutex that records the thread holding it.

    Eviction needs the owner to tell a writer's own hold on the entry
    it just stored apart from another thread's use of a victim.
    """

    __slots__ = ("_lock", "owner")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.owner: int | None = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not self._lock.acquire(blocking, timeout):
            return False
        self.owner = threading.get_ident()
        return True

    def release(self) -> None:
        self.owner = None
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class Namespace:
    """Policy wrapper over a backend: keys, quotas, eviction, locks."""

    def __init__(
        self,
        backend: Backend,
        *,
        key_pattern: re.Pattern = HEX_KEY,
        key_label: str = "key",
        suffix: str = "",
        parts: tuple[str, ...] | None = None,
        accounted_parts: tuple[str, ...] | None = None,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        max_entry_bytes: int | None = None,
        reject_oversize: bool = False,
        touch_window_s: float = 0.0,
        occupancy_ttl_s: float | None = None,
        retry: RetryPolicy | None = DEFAULT_RETRY_POLICY,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_entry_bytes is not None and max_entry_bytes < 1:
            raise ValueError("max_entry_bytes must be positive")
        if parts is not None and not parts:
            raise ValueError("parts must name at least one file")
        if parts is not None and suffix:
            raise ValueError("multi-part namespaces cannot also use a suffix")
        if accounted_parts is not None:
            if parts is None:
                raise ValueError("accounted_parts needs parts")
            unknown = set(accounted_parts) - set(parts)
            if unknown:
                raise ValueError(f"accounted_parts not in parts: {unknown}")
        if touch_window_s < 0:
            raise ValueError("touch_window_s must be non-negative")
        if occupancy_ttl_s is not None and occupancy_ttl_s < 0:
            raise ValueError("occupancy_ttl_s must be non-negative")
        self.backend = backend
        self.key_pattern = key_pattern
        self.key_label = key_label
        self.suffix = suffix
        self.parts = parts
        self.accounted_parts = accounted_parts if accounted_parts is not None else parts
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.max_entry_bytes = max_entry_bytes
        self.reject_oversize = reject_oversize
        self.touch_window_s = touch_window_s
        self.retry = retry
        self.occupancy_ttl_s = (
            occupancy_ttl_s
            if occupancy_ttl_s is not None
            else self.OCCUPANCY_TTL_S
        )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: Stamp writes actually issued to the backend (observability:
        #: the debounce/skip-unbounded policies are measured by this).
        self.touch_writes = 0
        #: Extra backend attempts the retry policy issued after a
        #: transient fault — the namespace's flap meter.
        self.retries = 0
        self._mutex = threading.Lock()
        self._stripe_locks = tuple(_Stripe() for _ in range(LOCK_STRIPES))
        self._evict_mutex = threading.Lock()
        # Debounced access stamps: backend key -> last write (monotonic)
        # and the set of keys with a hit since their last write.
        self._touch_mutex = threading.Lock()
        self._touch_flushed: dict[str, float] = {}
        self._touch_pending: set[str] = set()
        #: (monotonic expiry, {"entries": ..., "bytes": ...}) — see stats().
        self._occupancy_cache: tuple[float, dict[str, int]] | None = None

    # ------------------------------------------------------------------
    # Canonical key encoding
    # ------------------------------------------------------------------

    def check_key(self, key: str) -> str:
        """Validate (and return) a logical key; :class:`StoreKeyError` otherwise."""
        if not isinstance(key, str) or not self.key_pattern.match(key):
            raise StoreKeyError(f"bad {self.key_label} {key!r}")
        return key

    def _encode(self, key: str, part: str | None = None) -> str:
        self.check_key(key)
        if self.parts is not None:
            if part is None or part not in self.parts:
                raise StoreKeyError(
                    f"unknown part {part!r} for {self.key_label} {key!r}; "
                    f"expected one of {self.parts}"
                )
            return f"{key}/{part}"
        return f"{key}{self.suffix}"

    def _decode(self, backend_key: str) -> str | None:
        """Backend key -> logical key, or ``None`` for foreign files."""
        if self.parts is not None:
            head, sep, tail = backend_key.partition("/")
            if not sep or tail not in self.parts:
                return None
            key = head
        else:
            if self.suffix and not backend_key.endswith(self.suffix):
                return None
            key = backend_key[: len(backend_key) - len(self.suffix)] if self.suffix else backend_key
        return key if self.key_pattern.match(key) else None

    @property
    def _anchor(self) -> str | None:
        """The part carrying an entry's recency stamp (written last)."""
        return self.parts[-1] if self.parts is not None else None

    # ------------------------------------------------------------------
    # Access-stamp policy
    # ------------------------------------------------------------------

    @property
    def unbounded(self) -> bool:
        """Whether no quota could ever trigger an eviction here."""
        return self.max_bytes is None and self.max_entries is None

    def _note_access(self, anchor_key: str) -> None:
        """Record a warm hit on ``anchor_key`` per the stamp policy.

        Unbounded namespaces never stamp — nothing sorts by recency
        when nothing can be evicted.  With no debounce window every
        hit writes through (the historical behaviour).  Otherwise the
        first hit per window writes through and later hits within the
        window only mark the key pending, to be flushed by the next
        eviction scan, :meth:`flush_touches` or :meth:`close`.
        """
        if self.unbounded:
            return
        if self.touch_window_s <= 0.0:
            self.backend.touch(anchor_key)
            with self._mutex:
                self.touch_writes += 1
            return
        now = time.monotonic()
        with self._touch_mutex:
            last = self._touch_flushed.get(anchor_key)
            if last is not None and now - last < self.touch_window_s:
                self._touch_pending.add(anchor_key)
                return
            if len(self._touch_flushed) > 8192:  # stale-key backstop
                self._touch_flushed.clear()
            self._touch_flushed[anchor_key] = now
            self._touch_pending.discard(anchor_key)
        self.backend.touch(anchor_key)
        with self._mutex:
            self.touch_writes += 1

    def flush_touches(self) -> int:
        """Write every coalesced access stamp through to the backend.

        Returns the number of stamps written.  Runs before every
        eviction scan (so LRU ordering sees coalesced hits) and on
        :meth:`close` (so restart-surviving recency holds).
        """
        now = time.monotonic()
        with self._touch_mutex:
            pending = list(self._touch_pending)
            self._touch_pending.clear()
            for anchor_key in pending:
                self._touch_flushed[anchor_key] = now
        for anchor_key in pending:
            self.backend.touch(anchor_key)
        if pending:
            with self._mutex:
                self.touch_writes += len(pending)
        return len(pending)

    def close(self) -> None:
        """Flush coalesced access stamps; the namespace stays usable."""
        self.flush_touches()

    def count_front_hit(self) -> None:
        """Count a hit served by a caller-side front (an object LRU).

        Keeps hit/miss observability truthful when an adapter answers
        warm reads without touching backend bytes at all.
        """
        with self._mutex:
            self.hits += 1

    # ------------------------------------------------------------------
    # Transient-fault retries
    # ------------------------------------------------------------------

    def _retrying(self, fn):
        """Run one backend call under the retry policy, counting retries."""
        if self.retry is None:
            return fn()
        return self.retry.call(fn, on_retry=self._count_retry)

    def _count_retry(self, error: BaseException, retry_index: int) -> None:
        with self._mutex:
            self.retries += 1

    # ------------------------------------------------------------------
    # Single-part entries
    # ------------------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """Stored bytes (recency refreshed), or ``None``; counts hit/miss.

        The read itself is a ``peek`` — lock-free in every backend's
        hot path — and the recency stamp is applied separately by
        :meth:`_note_access`, so unbounded namespaces pay zero stamp
        writes per hit and bounded ones can coalesce them.
        """
        encoded = self._encode(key)
        data = self._retrying(lambda: self.backend.peek(encoded))
        with self._mutex:
            if data is None:
                self.misses += 1
            else:
                self.hits += 1
        if data is not None:
            self._note_access(encoded)
        return data

    def peek(self, key: str) -> bytes | None:
        """Stored bytes without counters or recency, or ``None``.

        The byte-serving seam: adapters that keep their own rendered
        front (the service's envelope byte cache) read refills through
        here and account hits/misses themselves via
        :meth:`count_front_hit` — double-counting a refill as both a
        front miss and a namespace hit would skew the cache ratios the
        healthz block reports.
        """
        encoded = self._encode(key)
        return self._retrying(lambda: self.backend.peek(encoded))

    def entry_stat(self, key: str) -> EntryStat | None:
        """Size and recency stamp of ``key``, or ``None`` when absent.

        Multi-part entries report their anchor's stamp.  For unbounded
        namespaces (which never rewrite stamps on reads) the stamp is
        the publish time — the value HTTP ``Last-Modified`` wants.
        """
        return self.backend.stat(self._encode(key, self._anchor))

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, then enforce the quotas."""
        encoded = self._encode(key)  # validate before any quota verdict
        self._check_entry_size(key, len(data))
        self._retrying(lambda: self.backend.put(encoded, data))
        with self._mutex:
            self.stores += 1
        self.evict(keep=key)

    def open_read(self, key: str) -> BinaryIO | None:
        """A streaming read handle, or ``None`` when absent."""
        try:
            return self.backend.open_read(self._encode(key))
        except OSError:
            return None

    @contextmanager
    def open_write(self, key: str):
        """Streaming atomic write; quotas enforced after publish."""
        encoded = self._encode(key)
        with self.backend.open_write(encoded) as handle:
            yield handle
        with self._mutex:
            self.stores += 1
        self.evict(keep=key)

    # ------------------------------------------------------------------
    # Multi-part entries
    # ------------------------------------------------------------------

    def put_entry(self, key: str, files: Mapping[str, bytes]) -> None:
        """Store a multi-part entry; parts written in declared order.

        The recency anchor (the last declared part) is written last —
        and on an overwrite the *old* anchor is deleted first — so a
        crash between part writes can never leave a mix of old and new
        parts that reads as a consistent entry: without its anchor an
        entry is invisible to readers, listings and accounting.  (The
        cost is that a crash mid-overwrite loses the old version too;
        for content-addressed stores a re-upload restores it.)
        """
        assert self.parts is not None, "put_entry needs a parts namespace"
        self.check_key(key)
        unknown = set(files) - set(self.parts)
        if unknown:
            raise StoreKeyError(f"unknown parts for {key!r}: {sorted(unknown)}")
        accounted = set(self.accounted_parts or ())
        size = sum(len(data) for part, data in files.items() if part in accounted)
        self._check_entry_size(key, size)
        if self._anchor in files:  # full replacement: invalidate first
            self.backend.delete(self._encode(key, self._anchor))
        for part in self.parts:
            if part in files:
                encoded = self._encode(key, part)
                data = files[part]
                self._retrying(lambda: self.backend.put(encoded, data))
        with self._mutex:
            self.stores += 1
        self.evict(keep=key)

    def get_part(self, key: str, part: str) -> bytes | None:
        """One part's bytes; refreshes the whole entry's recency.

        Recency rides on the anchor alone (eviction sorts by anchor
        stamps), so a hit on any part stamps the anchor — through the
        same skip-unbounded/debounce policy as :meth:`get`.
        """
        encoded = self._encode(key, part)
        data = self._retrying(lambda: self.backend.peek(encoded))
        with self._mutex:
            if data is None:
                self.misses += 1
            else:
                self.hits += 1
        if data is not None:
            self._note_access(self._encode(key, self._anchor))
        return data

    def peek_part(self, key: str, part: str) -> bytes | None:
        """One part's bytes *without* refreshing recency or counters.

        Metadata queries (listings, digests, healthz) read through
        here so they never perturb the LRU eviction order.
        """
        encoded = self._encode(key, part)
        return self._retrying(lambda: self.backend.peek(encoded))

    # ------------------------------------------------------------------
    # Part-level rewrites (in-place entry surgery)
    # ------------------------------------------------------------------
    #
    # An *append* rewrites one part of a live entry without ever
    # materialising the whole entry in memory.  The caller owns the
    # crash-safety protocol — delete the anchor first (the entry reads
    # as absent mid-surgery), rewrite the bulk parts through streaming
    # handles, write the new anchor last, then :meth:`finish_entry` —
    # and must hold :meth:`lock` for the key throughout.

    def delete_part(self, key: str, part: str) -> bool:
        """Drop one part of a multi-part entry; returns whether it existed.

        Deleting the anchor part makes the whole entry read as absent —
        the first step of a crash-safe in-place rewrite.
        """
        return self.backend.delete(self._encode(key, part))

    def put_part(self, key: str, part: str, data: bytes) -> None:
        """Write one part of a multi-part entry (atomic publish).

        No quota check and no store count — the caller completes the
        surgery with :meth:`finish_entry`, which does both.
        """
        encoded = self._encode(key, part)
        self._retrying(lambda: self.backend.put(encoded, data))

    def open_part_read(self, key: str, part: str) -> BinaryIO | None:
        """A streaming read handle on one part, or ``None`` when absent."""
        try:
            return self.backend.open_read(self._encode(key, part))
        except OSError:
            return None

    @contextmanager
    def open_part_write(self, key: str, part: str):
        """Streaming atomic write of one part.

        The handle's bytes publish atomically on exit — a concurrent
        reader sees the old part or the complete new one, never a torn
        mix — so a crash mid-append leaves the old bytes in place (and
        the deleted anchor keeps the entry invisible regardless).
        """
        encoded = self._encode(key, part)
        with self.backend.open_write(encoded) as handle:
            yield handle

    def finish_entry(self, key: str) -> None:
        """Account a completed in-place rewrite: one store, then quotas."""
        with self._mutex:
            self.stores += 1
        self.evict(keep=key)

    def check_entry_size(self, key: str, size: int) -> None:
        """Raise :class:`StoreQuotaError` if ``size`` breaks per-entry caps.

        The pre-flight an append runs *before* touching any part: the
        verdict must land while the old entry is still intact.
        """
        self._check_entry_size(key, size)

    # ------------------------------------------------------------------
    # Shared operations
    # ------------------------------------------------------------------

    def delete(self, key: str) -> bool:
        """Drop ``key`` (every part); returns whether anything existed."""
        if self.parts is not None:
            # Anchor first: a reader that loses the race sees no anchor
            # and treats the leftover parts as absent.
            existed = False
            for part in (self._anchor, *self.parts[:-1]):
                existed = self.backend.delete(self._encode(key, part)) or existed
            return existed
        return self.backend.delete(self._encode(key))

    def touch(self, key: str) -> None:
        """Refresh ``key``'s recency without reading it.

        Explicit touches always write through (the caller asked for a
        durable stamp), and reset the key's debounce window.
        """
        anchor_key = self._encode(key, self._anchor)
        if self.touch_window_s > 0.0:
            with self._touch_mutex:
                self._touch_flushed[anchor_key] = time.monotonic()
                self._touch_pending.discard(anchor_key)
        self.backend.touch(anchor_key)
        with self._mutex:
            self.touch_writes += 1

    def __contains__(self, key: str) -> bool:
        return self.backend.stat(self._encode(key, self._anchor)) is not None

    def keys(self) -> list[str]:
        """Every complete logical key, sorted."""
        found: set[str] = set()
        for backend_key in self.backend.list():
            key = self._decode(backend_key)
            if key is None:
                continue
            if self.parts is not None and not backend_key.endswith(f"/{self._anchor}"):
                continue  # an entry exists only once its anchor does
            found.add(key)
        return sorted(found)

    def lock(self, key: str):
        """Serialise concurrent work on one key (a context manager).

        Striped: the lock comes from a fixed table indexed by the
        key's CRC-32, so this never takes a global mutex and the table
        never grows.  Keys sharing a stripe contend spuriously — a
        wait, never a wrong result.  CRC-32 rather than the
        per-process salted ``hash``: which keys share a stripe, and so
        which entries a held stripe shields from :meth:`evict`, is the
        same in every run instead of a one-in-64 coin toss.
        """
        return self._stripe_locks[zlib.crc32(key.encode()) % LOCK_STRIPES]

    # ------------------------------------------------------------------
    # Accounting, quotas, eviction
    # ------------------------------------------------------------------

    def entry_bytes(self, key: str) -> int | None:
        """Accounted bytes of one entry, or ``None`` when absent.

        Direct stats on the entry's own files — never a scan of the
        whole namespace.
        """
        if self.parts is None:
            stat = self.backend.stat(self._encode(key))
            return stat.size if stat is not None else None
        if key not in self:
            return None
        total = 0
        for part in self.accounted_parts or ():
            stat = self.backend.stat(self._encode(key, part))
            if stat is not None:
                total += stat.size
        return total

    def total_bytes(self) -> int:
        """Accounted bytes across the namespace."""
        return sum(
            size for stats in self._grouped().values() for size, _ in stats
        )

    def entries(self) -> int:
        """Number of complete logical entries."""
        return len(self.keys())

    #: Default for how long a computed occupancy (entries/bytes) may be
    #: served from cache.  Occupancy needs a full backend scan — linear
    #: in entries — so a monitoring system polling healthz every second
    #: must not pay for 100k stat calls per poll; counters are always
    #: live.  Tunable per instance via ``occupancy_ttl_s`` (surfaced by
    #: ``repro serve --healthz-ttl``); ``0`` disables the cache.
    OCCUPANCY_TTL_S = 5.0

    def stats(self) -> dict[str, Any]:
        """The namespace's healthz block.

        ``hits``/``misses``/``stores``/``evictions`` are live in-memory
        counters; ``entries``/``bytes`` come from a backend scan cached
        for :attr:`occupancy_ttl_s` seconds.
        """
        now = time.monotonic()
        with self._mutex:
            cached = self._occupancy_cache
        if cached is not None and cached[0] > now:
            occupancy = cached[1]
        else:
            grouped = self._grouped()
            occupancy = {
                "entries": len(grouped),
                "bytes": sum(
                    size for sizes in grouped.values() for size, _ in sizes
                ),
            }
            with self._mutex:
                self._occupancy_cache = (now + self.occupancy_ttl_s, occupancy)
        return {
            **occupancy,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "touch_writes": self.touch_writes,
            "retries": self.retries,
        }

    def _check_entry_size(self, key: str, size: int) -> None:
        if self.max_entry_bytes is not None and size > self.max_entry_bytes:
            raise StoreQuotaError(
                f"{self.key_label} {key!r} is {size} bytes; the "
                f"per-{self.key_label} cap is {self.max_entry_bytes}"
            )
        if (
            self.reject_oversize
            and self.max_bytes is not None
            and size > self.max_bytes
        ):
            raise StoreQuotaError(
                f"{self.key_label} {key!r} is {size} bytes; the whole "
                f"store is capped at {self.max_bytes}"
            )

    def _grouped(self) -> dict[str, list[tuple[int, float]]]:
        """Logical key -> [(accounted size, recency)] over live entries."""
        accounted = set(self.accounted_parts or ())
        grouped: dict[str, list[tuple[int, float]]] = {}
        anchors: dict[str, float] = {}
        for backend_key in self.backend.list():
            key = self._decode(backend_key)
            if key is None:
                continue
            stat = self.backend.stat(backend_key)
            if stat is None:
                continue  # deleted under us
            if self.parts is None:
                grouped[key] = [(stat.size, stat.accessed)]
                continue
            part = backend_key.partition("/")[2]
            if part == self._anchor:
                anchors[key] = stat.accessed
            if part in accounted:
                grouped.setdefault(key, []).append((stat.size, stat.accessed))
            else:
                grouped.setdefault(key, [])
        if self.parts is not None:
            # Entries without their anchor are in-flight or torn: they
            # are invisible to readers, so they are invisible here too.
            grouped = {
                key: [(size, anchors[key]) for size, _ in stats] or []
                for key, stats in grouped.items()
                if key in anchors
            }
        return grouped

    def evict(self, keep: str | None = None) -> int:
        """Drop LRU entries until the quotas hold; returns evictions.

        ``keep`` (typically the just-written entry) is never evicted,
        and neither is an entry whose per-key lock is currently held —
        a writer or reader mid-flight on it makes it recently used by
        definition, and deleting parts underneath an in-progress
        multi-part write could strand a half-replaced entry.  The
        calling thread's own hold on ``keep``'s stripe (a writer
        storing under its key lock) does not protect other keys of
        that stripe: it is the caller's, not a use of the victim.  Best
        effort by design: entries deleted under a lockless concurrent
        reader simply read as misses and are recomputed or re-uploaded.
        """
        if self.unbounded:
            return 0
        evicted = 0
        own = None
        if keep is not None:
            stripe = self.lock(keep)
            if stripe.owner == threading.get_ident():
                own = stripe
        with self._evict_mutex:
            self.flush_touches()  # the scan must see coalesced hits
            grouped = self._grouped()
            order = sorted(
                grouped,
                key=lambda key: max(
                    (recency for _, recency in grouped[key]), default=0.0
                ),
            )
            total_bytes = sum(
                size for stats in grouped.values() for size, _ in stats
            )
            n_entries = len(grouped)
            for key in order:
                over_bytes = (
                    self.max_bytes is not None and total_bytes > self.max_bytes
                )
                over_entries = (
                    self.max_entries is not None and n_entries > self.max_entries
                )
                if not (over_bytes or over_entries):
                    break
                if key == keep:
                    continue
                key_lock = self.lock(key)
                if key_lock is own:
                    deleted = self.delete(key)
                elif key_lock.acquire(blocking=False):
                    try:
                        deleted = self.delete(key)
                    finally:
                        key_lock.release()
                else:
                    continue  # actively in use: not an LRU victim
                if not deleted:
                    continue
                total_bytes -= sum(size for size, _ in grouped[key])
                n_entries -= 1
                evicted += 1
        with self._mutex:
            self.evictions += evicted
        return evicted
