"""Multislice (temporal) community detection.

The paper's G_Day and G_Hour graphs give every trip a unique edge
carrying a day-of-week / hour-of-day property, and Louvain over them
returns *different* partitions with *higher* modularity than the
untimed G_Basic (0.25 -> 0.32 -> 0.54).  A station-node multigraph
cannot do that — Louvain is blind to edge properties — so, as DESIGN.md
documents, we realise the construction as the standard multislice
network of Mucha et al. (2010):

* each station is expanded into one copy per time slice in which it has
  any trip activity;
* a trip starting in slice *s* connects the two stations' slice-*s*
  copies;
* copies of the same station in circularly consecutive active slices
  are joined by coupling edges of weight ``omega`` (scaled per station);
* Louvain partitions the sliced graph; each station is then assigned to
  the community that holds the largest share of its trip weight, which
  is the station-level community structure the paper tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping, Sequence

from ..config import TemporalCommunityConfig
from ..exceptions import CommunityError
from ..graphdb import WeightedGraph
from ..serialize import check_envelope
from .louvain import louvain
from .partition import Partition

StationKey = Hashable
#: A sliced node: (station, slice index).
SliceNode = tuple[StationKey, int]


@dataclass(frozen=True)
class TemporalCommunityResult:
    """Output of multislice detection.

    ``station_partition`` assigns whole stations (the paper's table
    rows); ``slice_partition`` is the underlying partition of
    (station, slice) copies; ``modularity`` is Louvain's score on the
    sliced graph — the number the paper reports rising with temporal
    granularity.
    """

    station_partition: Partition
    slice_partition: Partition
    modularity: float
    n_slices: int

    @property
    def n_communities(self) -> int:
        """Number of station-level communities."""
        return self.station_partition.n_communities

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe envelope, both partition granularities included."""
        return {
            "type": "TemporalCommunityResult",
            "station_partition": self.station_partition.to_dict(),
            "slice_partition": self.slice_partition.to_dict(),
            "modularity": self.modularity,
            "n_slices": self.n_slices,
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any]
    ) -> "TemporalCommunityResult":
        """Exact inverse of :meth:`to_dict`."""
        check_envelope(payload, "TemporalCommunityResult")
        return cls(
            station_partition=Partition.from_dict(payload["station_partition"]),
            slice_partition=Partition.from_dict(payload["slice_partition"]),
            modularity=payload["modularity"],
            n_slices=payload["n_slices"],
        )


def slice_trip_buckets(
    trips: Iterable[tuple[StationKey, StationKey, int]],
    n_slices: int,
) -> list[list[tuple[StationKey, StationKey]]]:
    """Partition trips into per-slice buckets (trip order preserved)."""
    if n_slices <= 0:
        raise CommunityError("n_slices must be positive")
    buckets: list[list[tuple[StationKey, StationKey]]] = [
        [] for _ in range(n_slices)
    ]
    for origin, destination, slice_index in trips:
        if not 0 <= slice_index < n_slices:
            raise CommunityError(
                f"slice index {slice_index} outside [0, {n_slices})"
            )
        buckets[slice_index].append((origin, destination))
    return buckets


def aggregate_slice(
    bucket: Sequence[tuple[StationKey, StationKey]],
) -> tuple[
    dict[tuple[StationKey, StationKey], float], dict[StationKey, float]
]:
    """Aggregate one slice's trips: edge weights + station strengths.

    Pure and order-deterministic (dicts keep first-seen order), so the
    per-slice fan-out yields the same merged graph as a serial pass.
    Module-level so process pools can pickle it.
    """
    edges: dict[tuple[StationKey, StationKey], float] = {}
    stations: dict[StationKey, float] = {}
    for origin, destination in bucket:
        edges[(origin, destination)] = edges.get((origin, destination), 0.0) + 1.0
        stations[origin] = stations.get(origin, 0.0) + 1.0
        stations[destination] = stations.get(destination, 0.0) + 1.0
    return edges, stations


def build_sliced_graph(
    trips: Iterable[tuple[StationKey, StationKey, int]],
    n_slices: int,
    coupling: float,
) -> WeightedGraph:
    """Build the multislice graph from ``(origin, destination, slice)``.

    Convenience wrapper bucketing the trip triples and delegating to
    :func:`build_sliced_graph_from_buckets`.
    """
    return build_sliced_graph_from_buckets(
        slice_trip_buckets(trips, n_slices), coupling
    )


def build_sliced_graph_from_buckets(
    buckets: Sequence[Sequence[tuple[StationKey, StationKey]]],
    coupling: float,
) -> WeightedGraph:
    """Build the multislice graph from per-slice OD buckets.

    Coupling edges join a station's copies in circularly consecutive
    *active* slices with weight ``coupling`` times the station's mean
    per-active-slice strength, so the knob is scale-free in trip volume.

    Construction is canonical — each bucket is aggregated independently
    and the aggregates merged in slice order — so a slice aggregate
    served from the stage cache builds the same graph as a fresh one.
    (This ordering replaced the original trip-interleaved insertion;
    node sets and edge weights are unchanged but Louvain's seeded visit
    order — and hence the exact G_Day/G_Hour partitions — shifted
    within the calibrated ranges.  The current numbers are pinned by
    ``tests/test_golden_paper.py``.)
    """
    aggregates = [aggregate_slice(bucket) for bucket in buckets]
    return build_sliced_graph_from_aggregates(aggregates, coupling)


#: One slice's aggregate: (OD edge weights, station strengths), both in
#: first-seen order — exactly what :func:`aggregate_slice` returns.
SliceAggregate = tuple[
    dict[tuple[StationKey, StationKey], float], dict[StationKey, float]
]


def build_sliced_graph_from_aggregates(
    aggregates: Sequence[SliceAggregate],
    coupling: float,
) -> WeightedGraph:
    """Build the multislice graph from per-slice aggregates.

    The aggregate of a slice is a pure function of that slice's bucket,
    so the incremental runner caches aggregates per slice (keyed by the
    slice's content digest) and re-aggregates only the slices an append
    touched — this merge then proceeds identically to the cold path.
    """
    graph = WeightedGraph()
    station_slice_weight: dict[StationKey, dict[int, float]] = {}
    for slice_index, (edges, stations) in enumerate(aggregates):
        for (origin, destination), weight in edges.items():
            graph.add_edge(
                (origin, slice_index), (destination, slice_index), weight
            )
        for station, weight in stations.items():
            station_slice_weight.setdefault(station, {})[slice_index] = weight

    if coupling > 0.0:
        for station, weights in station_slice_weight.items():
            active = sorted(weights)
            if len(active) < 2:
                continue
            mean_strength = sum(weights.values()) / len(active)
            omega = coupling * mean_strength
            # Circular chain over the active slices.
            for position, slice_index in enumerate(active):
                next_slice = active[(position + 1) % len(active)]
                if next_slice == slice_index:
                    continue
                graph.add_edge(
                    (station, slice_index), (station, next_slice), omega
                )
    return graph


def collapse_to_stations(
    slice_partition: Partition,
    trips: Iterable[tuple[StationKey, StationKey, int]],
) -> Partition:
    """Assign each station to the community holding most of its trips."""
    buckets: dict[int, list[tuple[StationKey, StationKey]]] = {}
    for origin, destination, slice_index in trips:
        buckets.setdefault(slice_index, []).append((origin, destination))
    return collapse_buckets_to_stations(
        slice_partition, sorted(buckets.items())
    )


def collapse_buckets_to_stations(
    slice_partition: Partition,
    indexed_buckets: Iterable[
        tuple[int, Sequence[tuple[StationKey, StationKey]]]
    ],
) -> Partition:
    """:func:`collapse_to_stations` over ``(slice, bucket)`` pairs.

    Per-station community weights are exact sums of 1.0s and the
    partition normalises its labels, so the slice-major iteration
    yields the identical station partition the trip-ordered pass did.
    """
    weight: dict[StationKey, dict[int, float]] = {}
    for slice_index, bucket in indexed_buckets:
        for origin, destination in bucket:
            for station in (origin, destination):
                label = slice_partition[(station, slice_index)]
                by_label = weight.setdefault(station, {})
                by_label[label] = by_label.get(label, 0.0) + 1.0
    assignment = {
        station: max(sorted(by_label), key=lambda label: by_label[label])
        for station, by_label in weight.items()
    }
    return Partition.from_assignment(assignment)


def collapse_aggregates_to_stations(
    slice_partition: Partition,
    aggregates: Sequence[SliceAggregate],
) -> Partition:
    """:func:`collapse_buckets_to_stations` from per-slice aggregates.

    Sums each aggregated OD edge's (integer) weight onto both endpoint
    stations instead of adding 1.0 per trip — the identical exact sums,
    and a station's first appearance happens inside the edge of its
    first trip, so the station iteration order (and hence the
    normalised partition) matches the bucket-based pass.
    """
    weight: dict[StationKey, dict[int, float]] = {}
    for slice_index, (edges, _stations) in enumerate(aggregates):
        for (origin, destination), edge_weight in edges.items():
            for station in (origin, destination):
                label = slice_partition[(station, slice_index)]
                by_label = weight.setdefault(station, {})
                by_label[label] = by_label.get(label, 0.0) + edge_weight
    assignment = {
        station: max(sorted(by_label), key=lambda label: by_label[label])
        for station, by_label in weight.items()
    }
    return Partition.from_assignment(assignment)


def detect_temporal_communities(
    trips: Sequence[tuple[StationKey, StationKey, int]],
    n_slices: int,
    config: TemporalCommunityConfig | None = None,
) -> TemporalCommunityResult:
    """Full multislice pipeline: build, Louvain, collapse."""
    return detect_temporal_communities_from_buckets(
        slice_trip_buckets(trips, n_slices), config
    )


def detect_temporal_communities_from_buckets(
    buckets: Sequence[Sequence[tuple[StationKey, StationKey]]],
    config: TemporalCommunityConfig | None = None,
) -> TemporalCommunityResult:
    """Full multislice pipeline over prebuilt per-slice OD buckets.

    The temporal pipeline stages feed this directly from
    :meth:`SelectedNetwork.day_slice_buckets` /
    :meth:`~SelectedNetwork.hour_slice_buckets`, skipping the
    intermediate per-stage trip-triple lists.
    """
    cfg = config or TemporalCommunityConfig()
    aggregates = [aggregate_slice(bucket) for bucket in buckets]
    return detect_temporal_communities_from_aggregates(aggregates, cfg)


def detect_temporal_communities_from_aggregates(
    aggregates: Sequence[SliceAggregate],
    config: TemporalCommunityConfig | None = None,
) -> TemporalCommunityResult:
    """Full multislice pipeline over prebuilt per-slice aggregates.

    The incremental entry point: the aggregates may mix freshly
    computed slices with slices served warm from the stage cache — the
    merged graph, Louvain partition and station collapse are identical
    to the cold, bucket-based path.
    """
    cfg = config or TemporalCommunityConfig()
    graph = build_sliced_graph_from_aggregates(aggregates, cfg.coupling)
    if graph.node_count == 0:
        raise CommunityError("no trips — nothing to detect communities on")
    result = louvain(graph, cfg)
    station_partition = collapse_aggregates_to_stations(
        result.partition, aggregates
    )
    return TemporalCommunityResult(
        station_partition=station_partition,
        slice_partition=result.partition,
        modularity=result.modularity,
        n_slices=len(aggregates),
    )
