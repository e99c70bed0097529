"""Candidate-station generation (paper Section IV-A + Table II).

Starting from a *cleaned* dataset, this stage:

1. pins the fixed stations and pre-assigns every location within 50 m
   of one to that station's group;
2. condenses the remaining dockless locations with complete-linkage
   HAC cut at the 100 m Cluster-Boundary rule;
3. projects every trip onto the resulting groups, producing the
   *candidate graph* whose nodes are fixed stations plus candidate
   clusters and whose weighted edges are trip flows.

Node keys in the candidate graph are ``("station", location_id)`` or
``("cluster", cluster_id)`` tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import GeographicClustering, cluster_locations
from ..config import ClusteringConfig
from ..data import MobyDataset
from ..geo import GeoPoint
from ..graphdb import DirectedGraph, WeightedGraph
from ..reporting.paper_tables import TABLE2_ROWS

#: A candidate-graph node: ("station", location_id) or ("cluster", id).
GroupKey = tuple[str, int]


@dataclass(frozen=True)
class CandidateGraphStats:
    """The counts of the paper's Table II."""

    n_nodes: int
    n_undirected_edges: int
    n_undirected_edges_no_loops: int
    n_directed_edges: int
    n_directed_edges_no_loops: int
    n_trips: int

    def as_rows(self) -> list[tuple[str, int]]:
        """(measure, value) rows in the paper's order."""
        return [(measure, getattr(self, key)) for measure, key in TABLE2_ROWS]

    def to_dict(self) -> dict[str, int]:
        """JSON-safe envelope (field name -> count)."""
        return {
            "n_nodes": self.n_nodes,
            "n_undirected_edges": self.n_undirected_edges,
            "n_undirected_edges_no_loops": self.n_undirected_edges_no_loops,
            "n_directed_edges": self.n_directed_edges,
            "n_directed_edges_no_loops": self.n_directed_edges_no_loops,
            "n_trips": self.n_trips,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidateGraphStats":
        """Exact inverse of :meth:`to_dict`."""
        return cls(**{key: payload[key] for key in (
            "n_nodes",
            "n_undirected_edges",
            "n_undirected_edges_no_loops",
            "n_directed_edges",
            "n_directed_edges_no_loops",
            "n_trips",
        )})


@dataclass
class CandidateNetwork:
    """The condensation stage's full output."""

    clustering: GeographicClustering
    flow: DirectedGraph
    location_to_group: dict[int, GroupKey]
    station_points: dict[int, GeoPoint]
    cluster_centroids: dict[int, GeoPoint]
    n_trips: int

    @property
    def n_stations(self) -> int:
        """Number of fixed stations."""
        return len(self.station_points)

    @property
    def n_candidates(self) -> int:
        """Number of candidate clusters."""
        return len(self.cluster_centroids)

    def group_point(self, group: GroupKey) -> GeoPoint:
        """Position of a group: station point or cluster centroid."""
        kind, key = group
        if kind == "station":
            return self.station_points[key]
        return self.cluster_centroids[key]

    def undirected(self) -> WeightedGraph:
        """Undirected weighted view of the candidate flow."""
        return self.flow.undirected()

    def stats(self) -> CandidateGraphStats:
        """Table II's counts for this candidate graph."""
        undirected = self.undirected()
        directed_edges = self.flow.edge_count
        directed_loops = sum(1 for u, v, _ in self.flow.edges() if u == v)
        undirected_edges = undirected.edge_count
        undirected_loops = sum(
            1 for u, v, _ in undirected.edges() if u == v
        )
        return CandidateGraphStats(
            n_nodes=self.n_stations + self.n_candidates,
            n_undirected_edges=undirected_edges,
            n_undirected_edges_no_loops=undirected_edges - undirected_loops,
            n_directed_edges=directed_edges,
            n_directed_edges_no_loops=directed_edges - directed_loops,
            n_trips=self.n_trips,
        )


def condense_locations(
    cleaned: MobyDataset, config: ClusteringConfig | None = None
) -> GeographicClustering:
    """The HAC condensation alone (steps 1–2, no trip projection).

    This is the expensive half of the candidate stage — complete-
    linkage HAC over every cleaned location — and it depends only on
    the cleaned *location* table, never on the rentals.  The runner
    caches its result under the cleaned-locations digest, so appending
    trips re-uses the clustering verbatim.
    """
    cfg = config or ClusteringConfig()
    location_points: dict[int, GeoPoint] = {
        record.location_id: record.point() for record in cleaned.locations()
    }
    station_points: dict[int, GeoPoint] = {
        record.location_id: record.point() for record in cleaned.stations()
    }
    return cluster_locations(location_points, station_points, cfg)


def project_candidate_flow(
    cleaned: MobyDataset, clustering: GeographicClustering
) -> CandidateNetwork:
    """Project trips onto a prebuilt clustering (step 3)."""
    station_points: dict[int, GeoPoint] = {
        record.location_id: record.point() for record in cleaned.stations()
    }
    location_to_group = clustering.assignment()

    flow = DirectedGraph()
    for station_id in station_points:
        flow.add_node(("station", station_id))
    cluster_centroids: dict[int, GeoPoint] = {}
    for cluster in clustering.clusters:
        cluster_centroids[cluster.cluster_id] = cluster.centroid
        flow.add_node(("cluster", cluster.cluster_id))

    n_trips = 0
    for row in cleaned.rental_rows():
        origin = location_to_group[row["rental_location_id"]]
        destination = location_to_group[row["return_location_id"]]
        flow.add_edge(origin, destination, 1.0)
        n_trips += 1

    return CandidateNetwork(
        clustering=clustering,
        flow=flow,
        location_to_group=location_to_group,
        station_points=station_points,
        cluster_centroids=cluster_centroids,
        n_trips=n_trips,
    )


def build_candidate_network(
    cleaned: MobyDataset, config: ClusteringConfig | None = None
) -> CandidateNetwork:
    """Run the condensation stage over a cleaned dataset."""
    return project_candidate_flow(cleaned, condense_locations(cleaned, config))
