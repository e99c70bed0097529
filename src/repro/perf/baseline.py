"""Reference (pre-optimisation) kernel implementations.

These are verbatim snapshots of the hot kernels as they stood before
the :mod:`repro.perf` optimisation pass:

* :func:`baseline_louvain` — Louvain with the per-move ``sorted()``
  neighbour-community scan and uncached strengths;
* :func:`baseline_within` / :func:`baseline_nearest` — grid queries
  that run exact haversine on every candidate and rescan all occupied
  cells per ``nearest`` call;
* :func:`baseline_proximity_components` /
  :func:`baseline_preassign_to_stations` — the HAC preconditions built
  on those queries.

They exist for two reasons.  The benchmark harness
(:mod:`repro.perf.bench`) measures every optimised kernel *against*
its reference on the same workload, so the speedups recorded in
``BENCH_pipeline.json`` stay reproducible on any machine.  And the
exactness tests assert the optimised kernels return bit-identical
results to these references — the optimisations are rewrites, not
approximations.
"""

from __future__ import annotations

import math
import random

from ..community.louvain import LouvainResult
from ..community.partition import Partition
from ..config import CommunityConfig
from ..exceptions import CommunityError, EmptyRegionError
from ..geo.distance import haversine_m
from ..geo.index import GridIndex
from ..graphdb import NodeKey, WeightedGraph

#: Louvain's strict-improvement threshold (identical to the live kernel).
_GAIN_EPS = 1e-12


# ---------------------------------------------------------------------------
# Louvain (pre-rewrite local-moving state + modularity)
# ---------------------------------------------------------------------------


def baseline_modularity(
    graph: WeightedGraph, partition: Partition, resolution: float = 1.0
) -> float:
    """The pre-rewrite modularity: ``edges()`` + per-edge partition
    lookups + per-node ``strength()`` recomputation."""
    total = graph.total_weight
    if total <= 0:
        return 0.0
    intra: dict[int, float] = {}
    strength: dict[int, float] = {}
    for node in graph.nodes():
        if node not in partition:
            raise CommunityError(f"node {node!r} is not assigned to a community")
        label = partition[node]
        strength[label] = strength.get(label, 0.0) + graph.strength(node)
    for u, v, weight in graph.edges():
        if partition[u] == partition[v]:
            label = partition[u]
            intra[label] = intra.get(label, 0.0) + weight
    two_m = 2.0 * total
    score = 0.0
    for label, deg in strength.items():
        score += intra.get(label, 0.0) / total - resolution * (deg / two_m) ** 2
    return score


class BaselineLocalState:
    """The original dict-keyed local-moving pass with ``sorted()`` scans."""

    def __init__(self, graph: WeightedGraph, resolution: float) -> None:
        self.graph = graph
        self.resolution = resolution
        self.m = graph.total_weight
        if self.m <= 0:
            raise CommunityError("Louvain needs a graph with positive weight")
        self.community: dict[NodeKey, int] = {}
        self.comm_strength: dict[int, float] = {}
        for index, node in enumerate(graph.nodes()):
            self.community[node] = index
            self.comm_strength[index] = graph.strength(node)

    def neighbour_community_weights(self, node: NodeKey) -> dict[int, float]:
        weights: dict[int, float] = {}
        for neighbour, weight in self.graph.neighbours(node).items():
            if neighbour == node:
                continue
            label = self.community[neighbour]
            weights[label] = weights.get(label, 0.0) + weight
        return weights

    def move_node(self, node: NodeKey) -> bool:
        current = self.community[node]
        strength = self.graph.strength(node)
        neighbour_weights = self.neighbour_community_weights(node)

        self.comm_strength[current] -= strength
        weight_to_current = neighbour_weights.get(current, 0.0)

        best_label = current
        best_gain = weight_to_current - (
            self.resolution * strength * self.comm_strength[current] / (2.0 * self.m)
        )
        for label, weight in sorted(
            neighbour_weights.items(), key=lambda item: item[0]
        ):
            if label == current:
                continue
            gain = weight - (
                self.resolution * strength * self.comm_strength[label] / (2.0 * self.m)
            )
            if gain > best_gain + _GAIN_EPS:
                best_gain = gain
                best_label = label

        self.community[node] = best_label
        self.comm_strength[best_label] = (
            self.comm_strength.get(best_label, 0.0) + strength
        )
        return best_label != current

    def one_pass(self, rng: random.Random) -> bool:
        nodes = list(self.graph.nodes())
        rng.shuffle(nodes)
        moved = False
        for node in nodes:
            if self.move_node(node):
                moved = True
        return moved


def _baseline_aggregate(
    graph: WeightedGraph, community: dict[NodeKey, int]
) -> WeightedGraph:
    meta = WeightedGraph()
    for node in graph.nodes():
        meta.add_node(community[node])
    for u, v, weight in graph.edges():
        meta.add_edge(community[u], community[v], weight)
    return meta


def baseline_louvain(
    graph: WeightedGraph, config: CommunityConfig | None = None
) -> LouvainResult:
    """The pre-rewrite Louvain, kept bit-for-bit."""
    cfg = config or CommunityConfig()
    rng = random.Random(cfg.seed)

    mapping: dict[NodeKey, NodeKey] = {node: node for node in graph.nodes()}
    working = graph
    levels: list[Partition] = []

    for _ in range(cfg.max_passes):
        state = BaselineLocalState(working, cfg.resolution)
        improved_any = False
        for _ in range(cfg.max_passes):
            if not state.one_pass(rng):
                break
            improved_any = True
        if not improved_any:
            break
        labels = sorted(set(state.community.values()))
        compact = {label: index for index, label in enumerate(labels)}
        community = {node: compact[label] for node, label in state.community.items()}
        mapping = {node: community[mapping[node]] for node in mapping}
        levels.append(Partition.from_assignment(mapping))
        if len(labels) == len(state.community):
            break
        working = _baseline_aggregate(working, community)

    if not levels:
        levels.append(
            Partition.from_assignment(
                {node: index for index, node in enumerate(graph.nodes())}
            )
        )
        mapping = dict(levels[-1].assignment)

    final = levels[-1]
    return LouvainResult(
        partition=final,
        modularity=baseline_modularity(graph, final, cfg.resolution),
        levels=tuple(levels),
    )


# ---------------------------------------------------------------------------
# Grid queries (pre-prefilter)
# ---------------------------------------------------------------------------


def baseline_within(index: GridIndex, center, radius_m: float):
    """``GridIndex.within`` running exact haversine on every candidate."""
    if radius_m < 0:
        raise ValueError("radius_m must be non-negative")
    lat_span = math.ceil(radius_m / index._cell_m)
    lon_span = lat_span
    row0, col0 = index._cell_of(center)
    hits = []
    for row in range(row0 - lat_span, row0 + lat_span + 1):
        for col in range(col0 - lon_span, col0 + lon_span + 1):
            bucket = index._cells.get((row, col))
            if not bucket:
                continue
            for key, entry in bucket.items():
                distance = haversine_m(center, entry[0])
                if distance <= radius_m:
                    hits.append((key, distance))
    hits.sort(key=lambda pair: (pair[1], str(pair[0])))
    return hits


def _baseline_extent_rings(index: GridIndex, row0: int, col0: int) -> int:
    """Pre-rewrite extent scan: walks every occupied cell per query."""
    spread = 0
    for row, col in index._cells:
        spread = max(spread, abs(row - row0), abs(col - col0))
    return spread + 1


def _baseline_ring_cells(row0: int, col0: int, ring: int):
    if ring == 0:
        yield (row0, col0)
        return
    for col in range(col0 - ring, col0 + ring + 1):
        yield (row0 - ring, col)
        yield (row0 + ring, col)
    for row in range(row0 - ring + 1, row0 + ring):
        yield (row, col0 - ring)
        yield (row, col0 + ring)


def baseline_nearest(index: GridIndex, center, exclude=None):
    """``GridIndex.nearest`` with the per-query full-extent scan."""
    eligible = len(index._points) - (1 if exclude in index._points else 0)
    if eligible <= 0:
        raise EmptyRegionError("nearest() on an empty index")
    row0, col0 = index._cell_of(center)
    best_key = None
    best_distance = math.inf
    last_ring = _baseline_extent_rings(index, row0, col0)
    ring = 0
    while ring <= last_ring:
        for row, col in _baseline_ring_cells(row0, col0, ring):
            bucket = index._cells.get((row, col))
            if not bucket:
                continue
            for key, entry in bucket.items():
                if key == exclude:
                    continue
                distance = haversine_m(center, entry[0])
                if distance < best_distance:
                    best_key = key
                    best_distance = distance
        if best_key is not None:
            safe_rings = math.ceil(best_distance / index._cell_m) + 1
            if ring >= safe_rings:
                break
        ring += 1
    if best_key is None:
        raise EmptyRegionError("nearest() found no eligible key")
    return best_key, best_distance


def baseline_proximity_components(
    ids: list[int], points: dict, threshold_m: float
) -> list[list[int]]:
    """Pre-rewrite proximity components: BFS with a sorted ``within``
    query per visited point (the rewrite unions grid pairs instead)."""
    index: GridIndex[int] = GridIndex(cell_m=max(25.0, threshold_m))
    for location_id in ids:
        index.insert(location_id, points[location_id])
    remaining = set(ids)
    components: list[list[int]] = []
    for seed in ids:
        if seed not in remaining:
            continue
        remaining.discard(seed)
        component = [seed]
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for neighbour_id, _ in baseline_within(
                index, points[current], threshold_m
            ):
                if neighbour_id in remaining:
                    remaining.discard(neighbour_id)
                    component.append(neighbour_id)
                    frontier.append(neighbour_id)
        components.append(sorted(component))
    components.sort(key=lambda component: component[0])
    return components


def baseline_preassign_to_stations(
    location_points: dict, station_points: dict, radius_m: float
) -> tuple[dict, list]:
    """Pre-rewrite pre-assignment: one sorted ``within`` per location."""
    index: GridIndex[int] = GridIndex(cell_m=max(50.0, radius_m))
    for station_id, point in station_points.items():
        index.insert(station_id, point)
    station_members: dict[int, list[int]] = {
        station_id: [] for station_id in station_points
    }
    leftover: list[int] = []
    for location_id in sorted(location_points):
        if location_id in station_points:
            station_members[location_id].append(location_id)
            continue
        hits = baseline_within(index, location_points[location_id], radius_m)
        if hits:
            nearest_station, _ = hits[0]
            station_members[nearest_station].append(location_id)
        else:
            leftover.append(location_id)
    return station_members, leftover
