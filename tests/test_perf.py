"""The repro.perf subsystem: timer semantics and kernel exactness.

The kernel rewrites (Louvain int-indexed local moving, GridIndex
planar-prefilter queries, slice-major temporal collapse) claim
*bit-identical* behaviour, not approximation.  The property tests here
pin that claim against the pre-optimisation reference implementations
snapshotted in :mod:`repro.perf.baseline` and against brute force, on
seeded random inputs.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.community.louvain import louvain
from repro.community.modularity import modularity
from repro.community.partition import Partition
from repro.community.temporal import (
    collapse_buckets_to_stations,
    collapse_to_stations,
    detect_temporal_communities,
    detect_temporal_communities_from_buckets,
    slice_trip_buckets,
)
from repro.config import CommunityConfig
from repro.core.results import ExpansionResult
from repro.geo import GeoPoint, GridIndex
from repro.geo.distance import haversine_m
from repro.graphdb import WeightedGraph
from repro.perf import NULL_TIMER, PerfReport, StageTimer
from repro.perf.baseline import (
    baseline_louvain,
    baseline_modularity,
    baseline_nearest,
    baseline_preassign_to_stations,
    baseline_proximity_components,
    baseline_within,
)
from repro.perf.bench import workload_config


# ---------------------------------------------------------------------------
# StageTimer / PerfReport
# ---------------------------------------------------------------------------


class TestStageTimer:
    def test_sections_nest_and_aggregate(self):
        timer = StageTimer()
        for _ in range(3):
            with timer.section("outer"):
                with timer.section("inner"):
                    time.sleep(0.001)
        report = timer.report()
        outer = report.section("outer")
        assert outer["calls"] == 3
        assert outer["wall_s"] > 0
        (inner,) = outer["children"]
        assert inner["name"] == "inner"
        assert inner["calls"] == 3
        assert inner["wall_s"] <= outer["wall_s"]

    def test_add_and_meta(self):
        timer = StageTimer()
        timer.add("stage:clean", 1.5, cached=True)
        section = timer.report().section("stage:clean")
        assert section["wall_s"] == 1.5
        assert section["meta"] == {"cached": True}

    def test_disabled_timer_records_nothing(self):
        timer = StageTimer(enabled=False)
        with timer.section("x"):
            pass
        timer.add("y", 1.0)
        assert timer.report().sections == []
        with NULL_TIMER.section("z"):
            pass
        assert NULL_TIMER.report().sections == []

    def test_report_roundtrip_and_render(self):
        timer = StageTimer()
        with timer.section("a"):
            pass
        report = timer.report()
        clone = PerfReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.total_s == report.total_s
        assert "a" in report.render()
        assert "total" in report.render()

    def test_threaded_sections_do_not_interleave(self):
        import threading

        timer = StageTimer()

        def work(name: str) -> None:
            for _ in range(20):
                with timer.section(name):
                    with timer.section(f"{name}-child"):
                        pass

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = timer.report()
        assert {s["name"] for s in report.sections} == {f"t{i}" for i in range(4)}
        for section in report.sections:
            assert section["calls"] == 20
            (child,) = section["children"]
            assert child["name"] == f"{section['name']}-child"


class TestResultTimings:
    def test_envelope_excludes_timings_by_default(self, small_result):
        assert small_result.timings is None
        assert "timings" not in small_result.to_dict()

    def test_envelope_carries_timings_when_present(self, small_result):
        payload = small_result.to_dict()
        payload["timings"] = {"type": "PerfReport", "total_s": 1.0, "sections": []}
        restored = ExpansionResult.from_dict(payload)
        assert restored.timings == payload["timings"]
        assert restored.to_dict()["timings"] == payload["timings"]


# ---------------------------------------------------------------------------
# Louvain exactness (rewrite vs pre-rewrite reference)
# ---------------------------------------------------------------------------


def _random_graph(rng: random.Random, tuple_keys: bool = False) -> WeightedGraph:
    n = rng.randint(2, 80)
    graph = WeightedGraph()
    keys = [((i // 7, i % 7) if tuple_keys else i) for i in range(n)]
    for key in keys:
        graph.add_node(key)
    for _ in range(rng.randint(n, 5 * n)):
        u, v = rng.choice(keys), rng.choice(keys)
        weight = (
            float(rng.randint(1, 9)) if rng.random() < 0.7 else rng.random() * 5.0
        )
        graph.add_edge(u, v, weight)  # self-loops included by chance
    return graph


class TestLouvainExactness:
    @pytest.mark.parametrize("tuple_keys", [False, True])
    def test_matches_reference_on_seeded_random_graphs(self, tuple_keys):
        for trial in range(25):
            rng = random.Random(2000 + trial)
            graph = _random_graph(rng, tuple_keys)
            if graph.total_weight <= 0:
                continue
            config = CommunityConfig(seed=trial)
            new = louvain(graph, config)
            old = baseline_louvain(graph, config)
            assert new.partition == old.partition
            assert new.modularity == old.modularity
            assert new.levels == old.levels

    def test_sub_epsilon_near_ties_replay_the_historical_fold(self):
        """Two candidate gains ~1e-12 apart must resolve like the old
        ascending-label scan (hysteresis), not a plain argmax."""
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 3, 1.0 + 4e-12)
        graph.add_edge(2, 4, 1.0)
        for seed in range(8):
            config = CommunityConfig(seed=seed)
            new = louvain(graph, config)
            old = baseline_louvain(graph, config)
            assert new.partition == old.partition
            assert new.modularity == old.modularity
            assert new.levels == old.levels

    def test_near_tie_fuzz_matches_reference(self):
        """Random graphs whose weights differ by sub-epsilon amounts."""
        for trial in range(15):
            rng = random.Random(7000 + trial)
            n = rng.randint(4, 30)
            graph = WeightedGraph()
            for i in range(n):
                graph.add_node(i)
            for _ in range(rng.randint(n, 4 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                weight = 1.0 + rng.choice([0.0, 1e-12, 2e-12, 4e-12, 1e-11])
                graph.add_edge(u, v, weight)
            if graph.total_weight <= 0:
                continue
            config = CommunityConfig(seed=trial)
            new = louvain(graph, config)
            old = baseline_louvain(graph, config)
            assert new.partition == old.partition
            assert new.modularity == old.modularity
            assert new.levels == old.levels

    def test_modularity_matches_reference(self):
        for trial in range(15):
            rng = random.Random(3000 + trial)
            graph = _random_graph(rng)
            if graph.total_weight <= 0:
                continue
            labels = {node: rng.randint(0, 5) for node in graph.nodes()}
            partition = Partition.from_assignment(labels)
            for resolution in (1.0, 0.7):
                assert modularity(graph, partition, resolution) == (
                    baseline_modularity(graph, partition, resolution)
                )

    def test_modularity_empty_graph_is_zero_without_assignment_check(self):
        graph = WeightedGraph()
        graph.add_node("a")
        partition = Partition.from_assignment({"b": 1})
        assert modularity(graph, partition) == 0.0


# ---------------------------------------------------------------------------
# Geo query exactness (prefilter vs brute force / reference)
# ---------------------------------------------------------------------------


def _random_city(rng: random.Random, n: int) -> dict[int, GeoPoint]:
    return {
        i: GeoPoint(53.22 + rng.random() * 0.25, -6.42 + rng.random() * 0.40)
        for i in range(n)
    }


class TestGeoExactness:
    def test_within_and_nearest_match_brute_force(self):
        for trial in range(10):
            rng = random.Random(4000 + trial)
            points = _random_city(rng, rng.randint(1, 250))
            index: GridIndex[int] = GridIndex(
                cell_m=rng.choice([25.0, 60.0, 250.0])
            )
            index.extend(points.items())
            for key in list(points):
                if rng.random() < 0.2:
                    index.remove(key)
                    del points[key]
            if not points:
                continue
            for _ in range(15):
                query = GeoPoint(
                    53.22 + rng.random() * 0.25, -6.42 + rng.random() * 0.40
                )
                radius = rng.choice([40.0, 150.0, 900.0, 5000.0])
                brute = sorted(
                    (
                        (key, haversine_m(query, point))
                        for key, point in points.items()
                        if haversine_m(query, point) <= radius
                    ),
                    key=lambda pair: (pair[1], str(pair[0])),
                )
                assert index.within(query, radius) == brute
                assert index.within(query, radius) == baseline_within(
                    index, query, radius
                )
                brute_best = min(
                    ((key, haversine_m(query, point)) for key, point in points.items()),
                    key=lambda pair: pair[1],
                )
                assert index.nearest(query)[1] == brute_best[1]
                assert index.nearest(query) == baseline_nearest(index, query)

    def test_batch_queries_match_single_queries(self):
        rng = random.Random(5)
        points = _random_city(rng, 120)
        index: GridIndex[int] = GridIndex(cell_m=100.0)
        index.extend(points.items())
        queries = [points[key] for key in sorted(points)][:40]
        assert index.within_many(queries, 120.0) == [
            index.within(query, 120.0) for query in queries
        ]
        assert index.nearest_many(queries) == [
            index.nearest(query) for query in queries
        ]

    def test_neighbour_pairs_match_brute_force(self):
        for trial in range(8):
            rng = random.Random(6000 + trial)
            points = _random_city(rng, rng.randint(2, 160))
            radius = rng.choice([60.0, 120.0, 400.0])
            index: GridIndex[int] = GridIndex(
                cell_m=rng.choice([50.0, radius, 2 * radius])
            )
            index.extend(points.items())
            got = {
                frozenset(pair) for pair in index.neighbour_pairs(radius)
            }
            expected = {
                frozenset((a, b))
                for a in points
                for b in points
                if a < b and haversine_m(points[a], points[b]) <= radius
            }
            assert got == expected

    def test_proximity_and_preassign_match_reference(self):
        from repro.cluster.hac import preassign_to_stations, proximity_components

        rng = random.Random(77)
        points = _random_city(rng, 300)
        stations = {key: points[key] for key in list(points)[:20]}
        assert preassign_to_stations(points, stations, 50.0) == (
            baseline_preassign_to_stations(points, stations, 50.0)
        )
        ids = sorted(points)
        assert proximity_components(ids, points, 100.0) == (
            baseline_proximity_components(ids, points, 100.0)
        )

    def test_far_latitude_points_disable_prefilter_but_stay_exact(self):
        index: GridIndex[str] = GridIndex(cell_m=100.0, reference_lat=53.35)
        near = GeoPoint(53.35, -6.26)
        far = GeoPoint(48.85, 2.35)  # Paris: outside the prefilter band
        index.insert("near", near)
        index.insert("far", far)
        assert index._prefilter_ok is False
        query = GeoPoint(53.3501, -6.2601)
        assert index.nearest(query)[0] == "near"
        hits = index.within(query, 50.0)
        assert [key for key, _ in hits] == ["near"]


# ---------------------------------------------------------------------------
# Temporal slice-bucket equivalence
# ---------------------------------------------------------------------------


class TestBucketEquivalence:
    def _trips(self, rng: random.Random, n: int, n_slices: int):
        return [
            (rng.randint(0, 20), rng.randint(0, 20), rng.randrange(n_slices))
            for _ in range(n)
        ]

    def test_detection_from_buckets_equals_triple_api(self):
        rng = random.Random(9)
        trips = self._trips(rng, 800, 7)
        via_triples = detect_temporal_communities(trips, 7)
        via_buckets = detect_temporal_communities_from_buckets(
            slice_trip_buckets(trips, 7)
        )
        assert via_triples.station_partition == via_buckets.station_partition
        assert via_triples.slice_partition == via_buckets.slice_partition
        assert via_triples.modularity == via_buckets.modularity
        assert via_triples.n_slices == via_buckets.n_slices

    def test_collapse_buckets_equals_trip_order_collapse(self):
        rng = random.Random(10)
        trips = self._trips(rng, 500, 5)
        result = detect_temporal_communities(trips, 5)
        by_trips = collapse_to_stations(result.slice_partition, trips)
        by_buckets = collapse_buckets_to_stations(
            result.slice_partition, enumerate(slice_trip_buckets(trips, 5))
        )
        assert by_trips == by_buckets

    def test_network_buckets_match_triples(self, small_result):
        network = small_result.network
        assert slice_trip_buckets(network.day_sliced_trips(), 7) == (
            network.day_slice_buckets()
        )
        assert slice_trip_buckets(network.hour_sliced_trips(), 24) == (
            network.hour_slice_buckets()
        )


class TestWorkloadConfig:
    def test_scales_trip_volume_only(self):
        base = workload_config(1)
        scaled = workload_config(4)
        assert scaled.n_clean_rentals == 4 * base.n_clean_rentals
        assert scaled.n_bikes == 4 * base.n_bikes
        assert scaled.n_clean_locations == base.n_clean_locations
        assert scaled.n_stations == base.n_stations

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            workload_config(0)
