"""Storage subsystem — warm get/put per backend, solo and contended.

Times one :class:`~repro.store.Namespace` operation per benchmark
round against each backend kind (``memory``, ``dir``, ``sharded``)
with a stage-pickle-sized payload, so layout/atomic-publish overheads
stay visible as backends evolve.  The sharded layout should cost
within noise of the flat one — its win is directory fan-out at 100k+
entries, not per-operation speed.

The contended scenario replays a serving process's access shape —
concurrent jobs hammering warm ``get`` on one *bounded* namespace (the
path that historically serialised on a global lock and a per-hit
recency write) — so a de-contention regression shows up as this
benchmark collapsing toward the single-thread number times the thread
count.
"""

from __future__ import annotations

import itertools
import threading

import pytest

pytest.importorskip("pytest_benchmark")

from repro.store import Namespace, make_backend

#: A mid-sized stage pickle: big enough that I/O dominates Python
#: overhead, small enough for tight benchmark rounds.
PAYLOAD = bytes(range(256)) * 256  # 64 KiB

#: Enough warm entries that directory scans and shard fan-out are real.
N_ENTRIES = 64

_counter = itertools.count()


def make_namespace(kind: str, tmp_path) -> Namespace:
    root = None if kind == "memory" else tmp_path / kind
    return Namespace(make_backend(kind, root), suffix=".pkl")


def warm(namespace: Namespace) -> list[str]:
    keys = [f"{i:04x}{'ab' * 30}" for i in range(N_ENTRIES)]
    for key in keys:
        namespace.put(key, PAYLOAD)
    return keys


@pytest.mark.parametrize("kind", ["memory", "dir", "sharded"])
def test_store_warm_get(benchmark, kind, tmp_path):
    namespace = make_namespace(kind, tmp_path)
    keys = warm(namespace)
    cycle = itertools.cycle(keys)

    def get_one():
        assert namespace.get(next(cycle)) is not None

    benchmark(get_one)
    assert namespace.misses == 0


@pytest.mark.parametrize("kind", ["memory", "dir", "sharded"])
def test_store_warm_put(benchmark, kind, tmp_path):
    namespace = make_namespace(kind, tmp_path)
    keys = warm(namespace)
    cycle = itertools.cycle(keys)

    benchmark(lambda: namespace.put(next(cycle), PAYLOAD))
    assert namespace.entries() == N_ENTRIES


#: Contended-scenario shape: a small thread pool (a few ``repro serve
#: --job-workers`` plus headroom) and enough operations per thread that
#: lock-acquisition costs dominate thread start/join overhead.
CONTENDED_THREADS = 8
CONTENDED_OPS_PER_THREAD = 200


@pytest.mark.parametrize("kind", ["memory", "dir", "sharded"])
def test_store_contended_warm_get(benchmark, kind, tmp_path):
    """Warm gets from CONTENDED_THREADS threads on a bounded namespace.

    Bounded, with a debounce window, exactly like the pipeline's stage
    cache: each hit takes the peek + policy-stamp read path this PR
    de-contends.  The benchmark value is the wall time of the whole
    storm; correctness (every get a hit) is asserted after.
    """
    root = None if kind == "memory" else tmp_path / kind
    namespace = Namespace(
        make_backend(kind, root),
        suffix=".pkl",
        max_entries=N_ENTRIES * 2,
        touch_window_s=30.0,
    )
    keys = warm(namespace)
    failures: list[str] = []

    def hammer(worker: int) -> None:
        for i in range(CONTENDED_OPS_PER_THREAD):
            key = keys[(worker * 7 + i) % len(keys)]
            if namespace.get(key) is None:
                failures.append(key)

    def storm() -> None:
        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(CONTENDED_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    benchmark.pedantic(storm, rounds=3, iterations=1, warmup_rounds=1)
    assert not failures
    assert namespace.misses == 0
    assert namespace.entries() == N_ENTRIES
