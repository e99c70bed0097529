"""repro.store: backends, namespaces, quotas, and format stability.

The fixture files under ``tests/goldens/store_format/`` were written
by the pre-unification implementations (StageCache pickles, ResultsStore
envelopes, DatasetStore CSV pairs).  The byte-compatibility tests pin
the refactored adapters to those exact on-disk formats — an existing
cache/results/datasets directory must keep working, byte for byte.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.exceptions import StoreError, StoreKeyError, StoreQuotaError
from repro.pipeline.cache import MISS, StageCache, stage_namespace
from repro.service.datasets import DatasetStore
from repro.service.store import ResultsStore
from repro.store import (
    DirBackend,
    MemoryBackend,
    Namespace,
    ObjectLRU,
    ShardedDirBackend,
    Store,
    make_backend,
)

FIXTURES = Path(__file__).parent / "goldens" / "store_format"


def backends(tmp_path):
    return {
        "memory": MemoryBackend(),
        "dir": DirBackend(tmp_path / "dir"),
        "sharded": ShardedDirBackend(tmp_path / "sharded"),
    }


class TestBackends:
    @pytest.mark.parametrize("kind", ["memory", "dir", "sharded"])
    def test_roundtrip_list_stat_delete(self, kind, tmp_path):
        backend = backends(tmp_path)[kind]
        assert backend.get("missing.bin") is None
        assert backend.stat("missing.bin") is None
        backend.put("a.bin", b"alpha")
        backend.put("nested/b.bin", b"beta")
        assert backend.get("a.bin") == b"alpha"
        assert backend.peek("nested/b.bin") == b"beta"
        assert sorted(backend.list()) == ["a.bin", "nested/b.bin"]
        assert backend.stat("a.bin").size == 5
        assert backend.delete("a.bin") is True
        assert backend.delete("a.bin") is False
        assert sorted(backend.list()) == ["nested/b.bin"]

    @pytest.mark.parametrize("kind", ["memory", "dir", "sharded"])
    def test_get_refreshes_recency_peek_does_not(self, kind, tmp_path):
        backend = backends(tmp_path)[kind]
        backend.put("k", b"v")
        before = backend.stat("k").accessed
        if kind != "memory":
            import os
            import time

            past = time.time() - 3600
            os.utime(next(iter([backend._path("k")])), (past, past))
            before = backend.stat("k").accessed
        backend.peek("k")
        assert backend.stat("k").accessed == before
        backend.get("k")
        assert backend.stat("k").accessed > before

    @pytest.mark.parametrize("kind", ["dir", "sharded"])
    def test_open_write_is_atomic_on_error(self, kind, tmp_path):
        backend = backends(tmp_path)[kind]
        backend.put("k.bin", b"old")
        with pytest.raises(RuntimeError):
            with backend.open_write("k.bin") as handle:
                handle.write(b"partial")
                raise RuntimeError("crash mid-write")
        assert backend.get("k.bin") == b"old"
        assert sorted(backend.list()) == ["k.bin"]  # no tmp litter listed

    def test_sharded_parity_same_keys_same_bytes(self, tmp_path):
        """Same keys, same contents — only the directory layout differs."""
        flat = DirBackend(tmp_path / "flat")
        sharded = ShardedDirBackend(tmp_path / "shard")
        keys = [f"{i:02x}" * 8 + ".pkl" for i in range(24)] + ["name/meta.json"]
        for key in keys:
            flat.put(key, key.encode())
            sharded.put(key, key.encode())
        assert sorted(flat.list()) == sorted(sharded.list())
        for key in keys:
            assert flat.get(key) == sharded.get(key)
        # The fan-out genuinely happened: top level is shard dirs, and a
        # multi-part entry's files stay colocated in one shard.
        top = {p.name for p in (tmp_path / "shard").iterdir()}
        assert top != {k.split("/")[0] for k in keys}
        assert all(len(name) == 2 for name in top)

    def test_make_backend_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(StoreError):
            make_backend("bogus", tmp_path)
        with pytest.raises(StoreError):
            make_backend("dir", None)


class TestNamespaceKeys:
    def test_hex_validation_rejects_path_hostile_keys(self):
        namespace = Namespace(MemoryBackend(), key_label="result fingerprint")
        for bad in ("", "NOT-HEX", "../escape", "a/b", "a.pkl"):
            with pytest.raises(StoreKeyError):
                namespace.get(bad)
        # StoreKeyError doubles as ValueError for pre-existing catches.
        with pytest.raises(ValueError):
            namespace.put("..", b"x")

    def test_suffix_encoding_and_foreign_files_ignored(self, tmp_path):
        backend = DirBackend(tmp_path)
        namespace = Namespace(backend, suffix=".json")
        namespace.put("abc123", b"{}")
        assert (tmp_path / "abc123.json").read_bytes() == b"{}"
        (tmp_path / "foreign.txt").write_bytes(b"x")
        (tmp_path / "UPPER.json").write_bytes(b"x")
        assert namespace.keys() == ["abc123"]
        assert namespace.entries() == 1


class TestNamespaceQuotas:
    def test_lru_eviction_by_entries_keeps_recently_used(self):
        namespace = Namespace(MemoryBackend(), max_entries=2)
        namespace.put("aa", b"1")
        namespace.put("bb", b"2")
        namespace.get("aa")  # refresh: bb is now least recent
        namespace.put("cc", b"3")
        assert namespace.keys() == ["aa", "cc"]
        assert namespace.evictions == 1

    def test_byte_quota_never_evicts_just_written(self):
        namespace = Namespace(MemoryBackend(), max_bytes=0)
        namespace.put("aa", b"xxxx")
        namespace.put("bb", b"yyyy")
        assert namespace.keys() == ["bb"]

    def test_oversize_rejection_leaves_store_unchanged(self):
        namespace = Namespace(
            MemoryBackend(),
            max_entry_bytes=4,
            max_bytes=16,
            reject_oversize=True,
        )
        with pytest.raises(StoreQuotaError, match="cap"):
            namespace.put("aa", b"toolarge")
        with pytest.raises(StoreQuotaError, match="capped"):
            namespace.max_entry_bytes = None
            namespace.put("aa", b"x" * 32)
        assert namespace.keys() == []

    def test_recency_survives_restart_on_disk(self, tmp_path):
        import os
        import time

        first = Namespace(DirBackend(tmp_path), max_entries=2)
        first.put("aa", b"1")
        past = time.time() - 3600
        os.utime(tmp_path / "aa", (past, past))
        first.put("bb", b"2")
        os.utime(tmp_path / "bb", (past + 1, past + 1))
        first.get("aa")  # refreshed mtime persists on disk
        second = Namespace(DirBackend(tmp_path), max_entries=2)
        second.put("cc", b"3")
        assert second.keys() == ["aa", "cc"]


class TestNamespaceParts:
    def make(self, backend, **kwargs):
        from repro.store import NAME_KEY

        return Namespace(
            backend,
            key_pattern=NAME_KEY,
            parts=("data.csv", "meta.json"),
            accounted_parts=("data.csv",),
            **kwargs,
        )

    def test_entry_roundtrip_and_anchor_semantics(self, tmp_path):
        namespace = self.make(DirBackend(tmp_path))
        namespace.put_entry("one", {"data.csv": b"rows", "meta.json": b"{}"})
        assert namespace.get_part("one", "data.csv") == b"rows"
        assert namespace.keys() == ["one"]
        # An entry without its anchor is invisible (torn write).
        (tmp_path / "torn").mkdir()
        (tmp_path / "torn" / "data.csv").write_bytes(b"rows")
        assert namespace.keys() == ["one"]
        assert namespace.delete("one") is True
        assert namespace.keys() == []

    def test_accounting_counts_only_accounted_parts(self):
        namespace = self.make(MemoryBackend())
        namespace.put_entry(
            "one", {"data.csv": b"12345678", "meta.json": b"{" + b"x" * 100 + b"}"}
        )
        assert namespace.total_bytes() == 8
        assert namespace.entry_bytes("one") == 8


class TestObjectLRU:
    def test_bounded_and_recency_ordered(self):
        lru = ObjectLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1
        lru.put("c", 3)
        assert sorted(lru) == ["a", "c"]
        assert lru.get("b") is None

    def test_zero_slots_disables_retention(self):
        lru = ObjectLRU(0)
        lru.put("a", 1)
        assert len(lru) == 0 and lru.get("a") is None


class TestStoreFactory:
    def test_namespaced_backends_and_specs(self, tmp_path):
        store = Store(tmp_path, "sharded")
        backend = store.backend("stage")
        backend.put("abcd.pkl", b"x")
        assert (tmp_path / "stage").is_dir()
        with pytest.raises(StoreError):
            Store(tmp_path / "other", "bogus")
        with pytest.raises(StoreError):
            Store(None, "sharded")

    def test_tree_remembers_its_backend_kind(self, tmp_path):
        """Reopening a store without --store-backend adopts the layout
        it was created with instead of silently bifurcating the tree."""
        Store(tmp_path, "sharded")
        reopened = Store(tmp_path)  # no kind given
        assert reopened.backend_kind == "sharded"
        with pytest.raises(StoreError, match="created with the 'sharded'"):
            Store(tmp_path, "dir")
        # A fresh tree defaults to the flat layout and records it.
        plain = Store(tmp_path / "fresh")
        assert plain.backend_kind == "dir"
        assert Store(tmp_path / "fresh").backend_kind == "dir"


class TestFormatStability:
    """The refactored adapters read and write the historical bytes."""

    STAGE_KEY = "ab" * 32
    STAGE_VALUE = {
        "table": [1, 2, 3],
        "name": "fixture",
        "nested": {"pi": 3.25, "flags": [True, False, None]},
    }
    RESULT_FP = "cd" * 32
    RESULT_ENVELOPE = {
        "type": "ResultEnvelope",
        "envelope_version": 2,
        "fingerprint": RESULT_FP,
        "outputs": {"run": {"headline": {"stations": 95, "modularity": 0.51}}},
        "spec": {"dataset": {"kind": "synthetic", "seed": 7}},
    }

    def test_stage_cache_reads_and_writes_fixture_bytes(self, tmp_path):
        fixture = FIXTURES / "stage" / f"{self.STAGE_KEY}.pkl"
        # Reads entries written by the old implementation...
        cache = StageCache(FIXTURES / "stage", memory_slots=0)
        assert cache.get(self.STAGE_KEY) == self.STAGE_VALUE
        # ...and writes byte-identical ones.
        fresh = StageCache(tmp_path)
        fresh.put(self.STAGE_KEY, self.STAGE_VALUE)
        written = (tmp_path / f"{self.STAGE_KEY}.pkl").read_bytes()
        assert written == fixture.read_bytes()
        assert pickle.loads(written) == self.STAGE_VALUE

    def test_results_store_reads_and_writes_fixture_bytes(self, tmp_path):
        fixture = FIXTURES / "results" / f"{self.RESULT_FP}.json"
        store = ResultsStore(FIXTURES / "results")
        assert store.raw(self.RESULT_FP) == fixture.read_text()
        assert store.get(self.RESULT_FP) == self.RESULT_ENVELOPE
        fresh = ResultsStore(tmp_path)
        fresh.put(self.RESULT_FP, self.RESULT_ENVELOPE)
        assert (
            tmp_path / f"{self.RESULT_FP}.json"
        ).read_bytes() == fixture.read_bytes()

    def test_dataset_store_adopts_and_rewrites_fixture_csvs(self, tmp_path):
        from repro.pipeline.fingerprint import dataset_digest

        fixture_dir = FIXTURES / "datasets" / "tiny"
        fixture_meta = json.loads((fixture_dir / "meta.json").read_text())
        store = DatasetStore(FIXTURES / "datasets")
        dataset = store.get("tiny")
        assert dataset_digest(dataset) == fixture_meta["digest"]
        fresh = DatasetStore(tmp_path)
        meta = fresh.put("tiny", dataset)
        assert meta["digest"] == fixture_meta["digest"]
        assert meta["bytes"] == fixture_meta["bytes"]
        for name in ("locations.csv", "rentals.csv"):
            assert (
                tmp_path / "tiny" / name
            ).read_bytes() == (fixture_dir / name).read_bytes()

    def test_sharded_stage_cache_holds_identical_pickle_bytes(self, tmp_path):
        flat = StageCache(namespace=None, memory_slots=0)
        sharded = StageCache(
            namespace=stage_namespace(make_backend("sharded", tmp_path))
        )
        sharded.put(self.STAGE_KEY, self.STAGE_VALUE)
        files = [p for p in tmp_path.rglob("*.pkl")]
        assert len(files) == 1
        assert files[0].parent != tmp_path  # it landed inside a shard dir
        assert files[0].read_bytes() == (
            FIXTURES / "stage" / f"{self.STAGE_KEY}.pkl"
        ).read_bytes()
        assert sharded.get(self.STAGE_KEY) == self.STAGE_VALUE
        assert flat.get(self.STAGE_KEY) is MISS


class TestEvictionSafety:
    def test_locked_entries_are_not_eviction_victims(self):
        """An entry whose per-key lock is held mid-write must be skipped."""
        from repro.store import NAME_KEY

        namespace = Namespace(
            MemoryBackend(), key_pattern=NAME_KEY, max_entries=1
        )
        namespace.put("victim", b"old")
        lock = namespace.lock("victim")
        lock.acquire()  # simulate an in-progress writer/reader
        try:
            namespace.put("fresh", b"new")
            # Over quota, but the locked entry was not torn down.
            assert namespace.keys() == ["fresh", "victim"]
            assert namespace.evictions == 0
        finally:
            lock.release()
        namespace.put("later", b"x")
        assert "victim" not in namespace.keys()

    def test_writers_own_stripe_does_not_shield_the_lru_victim(self):
        """A writer holding its key's lock still evicts a stripe-mate.

        The lock a writer holds while storing under its own key is not
        a use of the least-recently-used entry that shares its stripe.
        """
        from repro.store import NAME_KEY

        namespace = Namespace(
            MemoryBackend(), key_pattern=NAME_KEY, max_entries=2
        )
        names = [f"k{index}" for index in range(1000)]
        victim = names[0]
        writer = next(
            name for name in names[1:]
            if namespace.lock(name) is namespace.lock(victim)
        )
        recent = next(
            name for name in names[1:]
            if namespace.lock(name) is not namespace.lock(victim)
        )
        namespace.put(victim, b"least recently used")
        namespace.put(recent, b"recently used")
        with namespace.lock(writer):
            namespace.put(writer, b"new")
        assert namespace.keys() == sorted([recent, writer])
        assert namespace.evictions == 1

    def test_crashed_overwrite_reads_as_absent_not_mixed(self):
        """A crash between part writes must never pair old and new parts."""
        from repro.store import NAME_KEY

        backend = MemoryBackend()
        namespace = Namespace(
            backend,
            key_pattern=NAME_KEY,
            parts=("data.csv", "meta.json"),
        )
        namespace.put_entry("one", {"data.csv": b"v1", "meta.json": b"m1"})

        real_put = backend.put
        calls = {"n": 0}

        def crashing_put(key, data):
            calls["n"] += 1
            if calls["n"] > 1:
                raise OSError("disk died mid-overwrite")
            real_put(key, data)

        backend.put = crashing_put
        with pytest.raises(OSError):
            namespace.put_entry(
                "one", {"data.csv": b"v2", "meta.json": b"m2"}
            )
        backend.put = real_put
        # New data landed but the old anchor was invalidated first: the
        # entry is absent, never "new rows under the old metadata".
        assert namespace.keys() == []
        assert namespace.get_part("one", "meta.json") is None
        # Re-uploading restores a fully consistent entry.
        namespace.put_entry("one", {"data.csv": b"v3", "meta.json": b"m3"})
        assert namespace.get_part("one", "data.csv") == b"v3"


class TestServiceWiring:
    def test_memory_store_has_no_durable_stage_tier(self):
        """A memory backend must not duplicate stage values as pickles."""
        from repro.service import ExpansionService

        with ExpansionService(store_backend="memory") as service:
            assert service.cache.namespace is None
            assert "stage" not in service.stats()["store"]
            assert service.stats()["store"]["backend"] == "memory"
