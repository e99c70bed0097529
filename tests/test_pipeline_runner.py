"""Tests for the staged pipeline runner: caching, fingerprints,
and facade equivalence."""

import pytest

from repro import (
    NetworkExpansionOptimiser,
    PAPER_CONFIG,
    PipelineRunner,
    StageCache,
    config_grid,
    run_sweep,
)
from repro.exceptions import ConfigError, PipelineError
from repro.pipeline import runner as runner_module
from repro.pipeline.cache import MISS
from repro.pipeline.fingerprint import dataset_digest


ALL_STAGES = (
    "clean", "candidates", "selection", "network", "basic", "day", "hour",
)


def _same_result(a, b) -> None:
    assert a.cleaned.n_rentals == b.cleaned.n_rentals
    assert a.candidates.n_candidates == b.candidates.n_candidates
    assert a.selection.n_selected == b.selection.n_selected
    assert sorted(a.network.stations) == sorted(b.network.stations)
    assert a.basic.partition == b.basic.partition
    assert a.basic.modularity == b.basic.modularity
    assert a.day.station_partition == b.day.station_partition
    assert a.day.modularity == b.day.modularity
    assert a.hour.station_partition == b.hour.station_partition
    assert a.hour.modularity == b.hour.modularity


class TestCacheSemantics:
    def test_cold_run_executes_every_stage(self, small_raw):
        runner = PipelineRunner(small_raw)
        runner.run()
        assert runner.executions == {name: 1 for name in ALL_STAGES}

    def test_memoised_within_one_runner(self, small_raw):
        runner = PipelineRunner(small_raw)
        assert runner.stage("candidates") is runner.stage("candidates")
        runner.run()
        assert runner.executions["candidates"] == 1

    def test_warm_run_through_shared_memory_cache(self, small_raw):
        cache = StageCache()
        first = PipelineRunner(small_raw, cache=cache)
        second = PipelineRunner(small_raw, cache=cache)
        result_a = first.run()
        result_b = second.run()
        assert second.executions == {}, "warm run recomputed a stage"
        _same_result(result_a, result_b)

    def test_warm_run_through_disk_cache(self, small_raw, tmp_path):
        result_a = PipelineRunner(small_raw, cache_dir=tmp_path).run()
        warm = PipelineRunner(small_raw, cache_dir=tmp_path)
        result_b = warm.run()
        assert warm.executions == {}
        assert list(tmp_path.glob("*.pkl"))
        _same_result(result_a, result_b)

    def test_corrupt_disk_entry_is_a_miss(self, small_raw, tmp_path):
        runner = PipelineRunner(small_raw, cache_dir=tmp_path)
        runner.stage("clean")
        for pickle_file in tmp_path.glob("*.pkl"):
            pickle_file.write_bytes(b"not a pickle")
        rerun = PipelineRunner(small_raw, cache_dir=tmp_path)
        rerun.stage("clean")
        assert rerun.executions == {"clean": 1}

    def test_lru_eviction(self):
        cache = StageCache(memory_slots=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is MISS
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_disk_eviction_by_entries(self, tmp_path):
        cache = StageCache(tmp_path, memory_slots=0, max_entries=2)
        for key in ("a", "b", "c", "d"):
            cache.put(key, key * 4)
        assert sorted(p.stem for p in tmp_path.glob("*.pkl")) == ["c", "d"]
        assert cache.get("a") is MISS
        assert cache.get("d") == "dddd"
        assert cache.evictions == 2

    def test_disk_eviction_is_lru_not_fifo(self, tmp_path):
        import os
        import time

        cache = StageCache(tmp_path, memory_slots=0, max_entries=2)
        cache.put("old", 1)
        # Backdate "old", then read it: the disk hit must refresh its
        # recency so the *unread* entry is the one evicted.
        past = time.time() - 3600
        os.utime(tmp_path / "old.pkl", (past, past))
        cache.put("middle", 2)
        os.utime(tmp_path / "middle.pkl", (past + 1, past + 1))
        assert cache.get("old") == 1  # refreshes old.pkl's mtime
        cache.put("new", 3)
        assert cache.get("middle") is MISS
        assert cache.get("old") == 1
        assert cache.get("new") == 3

    def test_disk_eviction_by_bytes_keeps_latest(self, tmp_path):
        cache = StageCache(tmp_path, memory_slots=0, max_bytes=1)
        cache.put("a", list(range(100)))
        cache.put("b", list(range(100)))
        # The just-written entry always survives, however tight the cap.
        assert [p.stem for p in tmp_path.glob("*.pkl")] == ["b"]
        assert cache.get("b") == list(range(100))

    def test_unlimited_cache_never_evicts(self, tmp_path):
        cache = StageCache(tmp_path, memory_slots=0)
        for index in range(10):
            cache.put(f"k{index}", index)
        assert len(list(tmp_path.glob("*.pkl"))) == 10
        assert cache.evictions == 0

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            StageCache(max_bytes=-1)
        with pytest.raises(ValueError):
            StageCache(max_entries=0)


class TestFingerprints:
    def test_config_change_invalidates_only_downstream(self, small_raw):
        base = PipelineRunner(small_raw, PAPER_CONFIG)
        coupled = PipelineRunner(
            small_raw, PAPER_CONFIG.derive({"temporal.coupling": 0.3})
        )
        for unchanged in ("clean", "candidates", "selection", "network", "basic"):
            assert base.key(unchanged) == coupled.key(unchanged)
        assert base.key("day") != coupled.key("day")
        assert base.key("hour") != coupled.key("hour")

    def test_upstream_change_invalidates_whole_cone(self, small_raw):
        base = PipelineRunner(small_raw, PAPER_CONFIG)
        relinked = PipelineRunner(
            small_raw, PAPER_CONFIG.derive({"clustering.linkage": "single"})
        )
        assert base.key("clean") == relinked.key("clean")
        for downstream in ("candidates", "selection", "network", "basic", "day"):
            assert base.key(downstream) != relinked.key(downstream)

    def test_dataset_change_invalidates_everything(self, small_raw):
        base = PipelineRunner(small_raw)
        other = PipelineRunner(small_raw, raw_digest="0" * 64)
        for name in ALL_STAGES:
            assert base.key(name) != other.key(name)

    def test_dataset_digest_is_content_addressed(self, small_raw, tmp_path):
        small_raw.to_csv(tmp_path / "round-trip")
        from repro import MobyDataset

        reloaded = MobyDataset.from_csv(tmp_path / "round-trip")
        assert dataset_digest(small_raw) == dataset_digest(reloaded)

    def test_shared_cache_recomputes_only_changed_stages(self, small_raw):
        cache = StageCache()
        PipelineRunner(small_raw, cache=cache).run()
        changed = PipelineRunner(
            small_raw,
            PAPER_CONFIG.derive({"temporal.coupling": 0.3}),
            cache=cache,
        )
        changed.run()
        assert set(changed.executions) == {"day", "hour"}


class TestFacadeEquivalence:
    def test_facade_equals_runner(self, small_raw, small_result):
        runner_result = PipelineRunner(small_raw).run()
        _same_result(small_result, runner_result)

    def test_facade_delegates_to_runner_cache(self, small_raw):
        optimiser = NetworkExpansionOptimiser(small_raw)
        optimiser.run()
        assert optimiser.runner.executions == {
            name: 1 for name in ALL_STAGES
        }


class TestSweep:
    def test_grid_cross_product(self):
        grid = config_grid(
            PAPER_CONFIG,
            {
                "temporal.coupling": [0.1, 0.2],
                "selection.secondary_distance_m": [200.0],
            },
        )
        assert len(grid) == 2
        overrides, config = grid[0]
        assert overrides["temporal.coupling"] == 0.1
        assert config.temporal.coupling == 0.1
        assert config.selection.secondary_distance_m == 200.0

    def test_sweep_shares_common_stages(self, small_raw, monkeypatch):
        calls = {"count": 0}
        original = runner_module.project_candidate_flow

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(
            runner_module, "project_candidate_flow", counting
        )
        configs = [
            PAPER_CONFIG.derive({"temporal.coupling": value})
            for value in (0.05, 0.25)
        ]
        results = run_sweep(small_raw, configs)
        assert len(results) == 2
        assert calls["count"] == 1, "sweep recomputed a shared stage"
        assert (
            results[0].hour.station_partition
            != results[1].hour.station_partition
            or results[0].hour.modularity != results[1].hour.modularity
        )

    def test_facade_run_sweep_with_axes(self, small_raw):
        optimiser = NetworkExpansionOptimiser(small_raw)
        results = optimiser.run_sweep({"temporal.coupling": [0.05, 0.25]})
        assert len(results) == 2


class TestValidation:
    def test_unknown_stage_input_rejected(self, small_raw):
        from repro.pipeline import Stage

        with pytest.raises(PipelineError):
            PipelineRunner(
                small_raw,
                stages=(Stage("lonely", ("missing",), lambda runner: None),),
            )

    def test_bad_derive_path_rejected(self):
        with pytest.raises(ConfigError):
            PAPER_CONFIG.derive({"nonsense": 1})
        with pytest.raises(ConfigError):
            PAPER_CONFIG.derive({"temporal.warp_factor": 9})
