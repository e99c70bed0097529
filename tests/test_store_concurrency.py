"""Concurrency and access-stamp-policy tests for :mod:`repro.store`.

The storm tests hammer one :class:`~repro.store.Namespace` from many
threads with a mixed get/put/touch/evict workload and then check the
invariants concurrent service jobs depend on: no deadlock, no torn or
lost entries, exact quota accounting once the storm settles, and a
lock-held entry never chosen as an eviction victim.

The stamp-policy tests pin the de-contended read path: unbounded
namespaces write **zero** recency stamps per hit, bounded ones
coalesce stamps per key within ``touch_window_s`` and flush them on
:meth:`flush_touches` / :meth:`close` / any eviction scan.
"""

from __future__ import annotations

import threading

import pytest

from repro.pipeline.cache import MISS, StageCache
from repro.store import Namespace, make_backend

BACKENDS = ("memory", "dir", "sharded")

STORM_THREADS = 8
STORM_OPS_PER_THREAD = 150
STORM_JOIN_TIMEOUT_S = 60.0


def make_namespace(kind: str, tmp_path, **kwargs) -> Namespace:
    root = None if kind == "memory" else tmp_path / kind
    return Namespace(make_backend(kind, root), suffix=".pkl", **kwargs)


class CountingBackend:
    """Delegating backend wrapper that counts ``touch`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.touches = 0
        self._mutex = threading.Lock()

    def touch(self, key):
        with self._mutex:
            self.touches += 1
        self.inner.touch(key)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def payload_for(key: str) -> bytes:
    return key.encode("ascii") * 16


@pytest.mark.parametrize("kind", BACKENDS)
def test_mixed_storm_settles_consistent(kind, tmp_path):
    """No deadlock, no lost entries, exact accounting after a storm."""
    namespace = make_namespace(
        kind, tmp_path, max_entries=32, touch_window_s=0.05
    )
    pool = [f"{i:02x}{'ab' * 8}" for i in range(48)]
    for key in pool[:16]:  # warm start so early gets can hit
        namespace.put(key, payload_for(key))
    gets = [0] * STORM_THREADS
    puts = [0] * STORM_THREADS

    def worker(worker_id: int) -> None:
        for i in range(STORM_OPS_PER_THREAD):
            key = pool[(worker_id * 13 + i * 7) % len(pool)]
            op = (worker_id + i) % 4
            if op == 0:
                namespace.put(key, payload_for(key))
                puts[worker_id] += 1
            elif op == 3 and i % 10 == 0:
                namespace.evict()
            elif op == 3:
                namespace.touch(key)
            else:
                data = namespace.get(key)
                assert data is None or data == payload_for(key)
                gets[worker_id] += 1

    threads = [
        threading.Thread(target=worker, args=(worker_id,))
        for worker_id in range(STORM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=STORM_JOIN_TIMEOUT_S)
    stuck = [thread for thread in threads if thread.is_alive()]
    assert not stuck, f"storm deadlocked: {len(stuck)} threads never finished"

    # Counters are exact: every get was a hit or a miss, every put a
    # store (16 warm-up puts included).
    assert namespace.hits + namespace.misses == sum(gets)
    assert namespace.stores == sum(puts) + 16

    # No torn entries: every listed key reads back complete and correct.
    namespace.flush_touches()
    namespace.evict()
    survivors = namespace.keys()
    assert len(survivors) <= 32
    for key in survivors:
        assert namespace.get(key) == payload_for(key)
    # Accounting agrees with a fresh per-entry scan.
    assert namespace.entries() == len(survivors)
    assert namespace.total_bytes() == sum(
        namespace.entry_bytes(key) for key in survivors
    )


@pytest.mark.parametrize("kind", BACKENDS)
def test_storm_never_evicts_lock_held_entry(kind, tmp_path):
    """An entry whose key lock is held survives any eviction pressure."""
    namespace = make_namespace(kind, tmp_path, max_entries=1)
    victim = "aa" * 10
    namespace.put(victim, payload_for(victim))
    with namespace.lock(victim):

        def writer(worker_id: int) -> None:
            for i in range(40):
                key = f"{worker_id:02x}{i:02x}{'cd' * 6}"
                namespace.put(key, payload_for(key))

        threads = [
            threading.Thread(target=writer, args=(worker_id,))
            for worker_id in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=STORM_JOIN_TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads)
        namespace.evict()
        assert victim in namespace
        assert namespace.get(victim) == payload_for(victim)
    # Lock released: the victim is fair game again.
    namespace.put("ff" * 10, payload_for("ff" * 10))
    namespace.evict()
    assert namespace.entries() <= 1


@pytest.mark.parametrize("kind", BACKENDS)
def test_unbounded_namespace_stamps_nothing(kind, tmp_path):
    """Warm hits on an unbounded namespace issue zero stamp writes."""
    backend = CountingBackend(
        make_backend(kind, None if kind == "memory" else tmp_path / kind)
    )
    namespace = Namespace(backend, suffix=".pkl")
    assert namespace.unbounded
    keys = [f"{i:02x}{'ef' * 8}" for i in range(10)]
    for key in keys:
        namespace.put(key, payload_for(key))
    for _ in range(20):
        for key in keys:
            assert namespace.get(key) == payload_for(key)
    assert backend.touches == 0
    assert namespace.touch_writes == 0
    assert namespace.hits == 200


def test_unbounded_stage_cache_stamps_nothing(tmp_path):
    """An unbounded on-disk stage cache pays zero stamp writes.

    Regression: :meth:`Namespace.get` used to stamp recency on every
    hit even when no quota could ever evict anything, which put an
    mtime write on every warm stage read.
    """
    cache = StageCache(tmp_path / "unbounded")
    assert cache.namespace is not None and cache.namespace.unbounded
    cache.put("stage-clean", {"value": 1})
    cache.clear_memory()  # force durable-tier reads, as a new process would
    for _ in range(50):
        assert cache.get("stage-clean") is not MISS
        cache.clear_memory()
    assert cache.namespace.touch_writes == 0


@pytest.mark.parametrize("kind", BACKENDS)
def test_bounded_gets_still_refresh_recency(kind, tmp_path):
    """Default (window 0) bounded namespaces stamp every hit through."""
    backend = CountingBackend(
        make_backend(kind, None if kind == "memory" else tmp_path / kind)
    )
    namespace = Namespace(backend, suffix=".pkl", max_entries=10)
    key = "ab" * 10
    namespace.put(key, b"x")
    for _ in range(5):
        namespace.get(key)
    assert backend.touches == 5
    assert namespace.touch_writes == 5


def test_debounce_coalesces_hits_within_window(tmp_path):
    namespace = make_namespace(
        "dir", tmp_path, max_entries=10, touch_window_s=3600.0
    )
    key = "cd" * 10
    namespace.put(key, b"x")
    for _ in range(10):
        namespace.get(key)
    # First hit writes through; the other nine only mark pending.
    assert namespace.touch_writes == 1
    assert namespace.flush_touches() == 1
    assert namespace.touch_writes == 2
    # Nothing pending: a second flush is a no-op.
    assert namespace.flush_touches() == 0


def test_debounce_flushes_on_close(tmp_path):
    namespace = make_namespace(
        "dir", tmp_path, max_entries=10, touch_window_s=3600.0
    )
    key = "ef" * 10
    namespace.put(key, b"x")
    namespace.get(key)  # writes through
    namespace.get(key)  # pending
    writes_before = namespace.touch_writes
    namespace.close()
    assert namespace.touch_writes == writes_before + 1


def test_eviction_scan_flushes_pending_stamps(tmp_path):
    """LRU ordering sees coalesced hits: eviction flushes them first."""
    backend = CountingBackend(make_backend("dir", tmp_path / "ns"))
    namespace = Namespace(
        backend, suffix=".pkl", max_entries=2, touch_window_s=3600.0
    )
    namespace.put("aa" * 8, b"x")
    namespace.get("aa" * 8)  # write-through stamp
    namespace.get("aa" * 8)  # pending
    writes_before = backend.touches
    namespace.put("bb" * 8, b"x")  # triggers an eviction scan (no evictions)
    assert backend.touches == writes_before + 1  # the pending stamp flushed


def test_explicit_touch_writes_through_and_resets_window(tmp_path):
    namespace = make_namespace(
        "dir", tmp_path, max_entries=10, touch_window_s=3600.0
    )
    key = "ab" * 10
    namespace.put(key, b"x")
    namespace.touch(key)
    namespace.touch(key)
    assert namespace.touch_writes == 2
    # The explicit touch opened a window: the next hit coalesces.
    namespace.get(key)
    assert namespace.touch_writes == 2
    assert namespace.flush_touches() == 1


def test_stage_cache_close_flushes_namespace(tmp_path):
    cache = StageCache(
        tmp_path / "cache", max_entries=10, memory_slots=0
    )
    assert cache.namespace is not None
    # The stage namespace ships with a nonzero debounce window.
    assert cache.namespace.touch_window_s > 0
    cache.put("stage-a", 1)
    cache.get("stage-a")  # write-through
    cache.get("stage-a")  # pending
    writes_before = cache.namespace.touch_writes
    cache.close()
    assert cache.namespace.touch_writes == writes_before + 1


def test_negative_touch_window_rejected(tmp_path):
    with pytest.raises(ValueError):
        make_namespace("memory", tmp_path, touch_window_s=-1.0)


def test_lock_is_striped_and_stable():
    namespace = make_namespace("memory", None)
    key = "aa" * 10
    assert namespace.lock(key) is namespace.lock(key)
    # Some other key shares the stripe eventually; that only means the
    # two serialise — the lock object is still a plain mutex.
    with namespace.lock(key):
        pass
