"""The selected network and the three temporal graph structures.

After Algorithm 1, the network's node set is fixed: the pre-existing
stations plus the selected candidates.  Every location is reassigned to
its nearest station (paper Section IV-B step 3), trips become
station-to-station origin-destination records, and the three structures
of Section IV-C fall out:

* **G_Basic** — stations as nodes, trip counts as undirected weights;
* **G_Day** — each trip keyed by day of week (7 slices);
* **G_Hour** — each trip keyed by start hour (24 slices).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping

from ..cluster import NearestStationAssigner
from ..data import MobyDataset
from ..exceptions import CommunityError
from ..geo import GeoPoint
from ..graphdb import DirectedGraph, WeightedGraph
from ..reporting.paper_tables import (
    KIND_FIXED,
    KIND_SELECTED,
    od_pair_counts,
    selected_graph_counts,
)
from ..serialize import check_envelope
from .candidates import CandidateNetwork
from .selection import SelectionResult


@dataclass(frozen=True)
class Station:
    """One station of the expanded network."""

    station_id: int
    point: GeoPoint
    kind: str
    name: str
    source_cluster_id: int | None = None

    @property
    def is_new(self) -> bool:
        """True for stations created by the expansion."""
        return self.kind == KIND_SELECTED


@dataclass(frozen=True)
class TripOD:
    """One trip after station reassignment."""

    origin: int
    destination: int
    day_of_week: int
    hour_of_day: int

    @property
    def is_loop(self) -> bool:
        """True when the trip starts and ends at the same station."""
        return self.origin == self.destination


@dataclass
class SelectedNetwork:
    """The expanded station network plus its reassigned trips."""

    stations: dict[int, Station]
    location_to_station: dict[int, int]
    trips: list[TripOD]

    @property
    def fixed_station_ids(self) -> list[int]:
        """Ids of pre-existing stations."""
        return sorted(
            station_id
            for station_id, station in self.stations.items()
            if station.kind == KIND_FIXED
        )

    @property
    def selected_station_ids(self) -> list[int]:
        """Ids of newly selected stations."""
        return sorted(
            station_id
            for station_id, station in self.stations.items()
            if station.kind == KIND_SELECTED
        )

    # ------------------------------------------------------------------
    # Graph structures
    # ------------------------------------------------------------------

    def directed_flow(self) -> DirectedGraph:
        """Directed trip-count graph over stations."""
        flow = DirectedGraph()
        for station_id in self.stations:
            flow.add_node(station_id)
        for trip in self.trips:
            flow.add_edge(trip.origin, trip.destination, 1.0)
        return flow

    def g_basic(self) -> WeightedGraph:
        """The paper's G_Basic: undirected, weighted by trip count."""
        graph = WeightedGraph()
        for station_id in self.stations:
            graph.add_node(station_id)
        for trip in self.trips:
            graph.add_edge(trip.origin, trip.destination, 1.0)
        return graph

    def day_sliced_trips(self) -> list[tuple[int, int, int]]:
        """(origin, destination, day-of-week) triples for G_Day."""
        return [
            (trip.origin, trip.destination, trip.day_of_week)
            for trip in self.trips
        ]

    def hour_sliced_trips(self) -> list[tuple[int, int, int]]:
        """(origin, destination, hour-of-day) triples for G_Hour."""
        return [
            (trip.origin, trip.destination, trip.hour_of_day)
            for trip in self.trips
        ]

    def day_slice_buckets(self) -> list[list[tuple[int, int]]]:
        """G_Day's 7 per-slice OD buckets, built in one pass over trips.

        Equivalent to bucketing :meth:`day_sliced_trips` but without
        materialising the intermediate triple list (trip order within
        each slice is preserved, so the resulting multislice graph is
        identical).
        """
        buckets: list[list[tuple[int, int]]] = [[] for _ in range(7)]
        for trip in self.trips:
            day = trip.day_of_week
            if not 0 <= day < 7:
                raise CommunityError(f"slice index {day} outside [0, 7)")
            buckets[day].append((trip.origin, trip.destination))
        return buckets

    def hour_slice_buckets(self) -> list[list[tuple[int, int]]]:
        """G_Hour's 24 per-slice OD buckets, one pass over trips."""
        buckets: list[list[tuple[int, int]]] = [[] for _ in range(24)]
        for trip in self.trips:
            hour = trip.hour_of_day
            if not 0 <= hour < 24:
                raise CommunityError(f"slice index {hour} outside [0, 24)")
            buckets[hour].append((trip.origin, trip.destination))
        return buckets

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe envelope carrying the complete network.

        Stations, the location assignment and every OD trip are all
        included, so :meth:`from_dict` rebuilds a fully functional
        network — graph views, Table III and the rebalancing planner
        work identically on the round-tripped object.
        """
        return {
            "type": "SelectedNetwork",
            "stations": [
                {
                    "station_id": station.station_id,
                    "lat": station.point.lat,
                    "lon": station.point.lon,
                    "kind": station.kind,
                    "name": station.name,
                    "source_cluster_id": station.source_cluster_id,
                }
                for _, station in sorted(self.stations.items())
            ],
            "location_to_station": sorted(
                [location_id, station_id]
                for location_id, station_id in self.location_to_station.items()
            ),
            "trips": [
                [trip.origin, trip.destination, trip.day_of_week, trip.hour_of_day]
                for trip in self.trips
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SelectedNetwork":
        """Exact inverse of :meth:`to_dict`."""
        check_envelope(payload, "SelectedNetwork")
        return cls(
            stations={
                entry["station_id"]: Station(
                    station_id=entry["station_id"],
                    point=GeoPoint(entry["lat"], entry["lon"]),
                    kind=entry["kind"],
                    name=entry["name"],
                    source_cluster_id=entry["source_cluster_id"],
                )
                for entry in payload["stations"]
            },
            location_to_station={
                location_id: station_id
                for location_id, station_id in payload["location_to_station"]
            },
            trips=[
                TripOD(
                    origin=origin,
                    destination=destination,
                    day_of_week=day,
                    hour_of_day=hour,
                )
                for origin, destination, day, hour in payload["trips"]
            ],
        )

    # ------------------------------------------------------------------
    # Table III
    # ------------------------------------------------------------------

    def station_kinds(self) -> dict[int, str]:
        """Station id -> kind (``fixed`` or ``selected``)."""
        return {
            station_id: station.kind
            for station_id, station in self.stations.items()
        }

    def od_pair_counts(self) -> Counter:
        """Trips per distinct (origin, destination) station pair.

        Each pair is one edge of :meth:`directed_flow`, weighted by its
        count; the Table III-VI counts read these pairs, not the graph.
        """
        return od_pair_counts((trip.origin, trip.destination) for trip in self.trips)

    def stats(self) -> "SelectedNetworkStats":
        """The paper's Table III for this network."""
        return SelectedNetworkStats(
            **selected_graph_counts(self.station_kinds(), self.od_pair_counts())
        )


@dataclass(frozen=True)
class SelectedNetworkStats:
    """The counts of the paper's Table III."""

    n_fixed: int
    n_selected: int
    trips_from_fixed: int
    trips_to_fixed: int
    trips_from_selected: int
    trips_to_selected: int
    edges_from_fixed: int
    edges_to_fixed: int
    edges_from_selected: int
    edges_to_selected: int
    n_trips: int
    n_directed_edges: int


def build_station_set(
    cleaned: MobyDataset,
    candidates: CandidateNetwork,
    selection: SelectionResult,
) -> dict[int, Station]:
    """The expanded station roster after Algorithm 1 (cheap).

    New stations take ids continuing after the largest fixed-station
    id.  Deterministic in (candidates, selection) and inexpensive, so
    the incremental runner rebuilds it to *identify* the assignment it
    may reuse — the roster is the identity the nearest-station map is
    keyed on.
    """
    stations: dict[int, Station] = {}
    for station_id, point in candidates.station_points.items():
        name = cleaned.location(station_id).name
        stations[station_id] = Station(
            station_id=station_id,
            point=point,
            kind=KIND_FIXED,
            name=name or f"Station {station_id}",
        )
    next_id = max(stations) + 1 if stations else 0
    for cluster_id in selection.selected_cluster_ids:
        stations[next_id] = Station(
            station_id=next_id,
            point=candidates.cluster_centroids[cluster_id],
            kind=KIND_SELECTED,
            name=f"New station {next_id} (cluster {cluster_id})",
            source_cluster_id=cluster_id,
        )
        next_id += 1
    return stations


def assign_locations_to_stations(
    cleaned: MobyDataset, stations: dict[int, Station]
) -> dict[int, int]:
    """Nearest-station assignment of every cleaned location."""
    assigner = NearestStationAssigner(
        {station_id: station.point for station_id, station in stations.items()}
    )
    return assigner.assign_all(
        {record.location_id: record.point() for record in cleaned.locations()}
    )


def project_trip(row: dict, location_to_station: dict[int, int]) -> TripOD:
    """One raw rental row projected onto its station OD pair."""
    started_at = row["started_at"]
    return TripOD(
        origin=location_to_station[row["rental_location_id"]],
        destination=location_to_station[row["return_location_id"]],
        day_of_week=started_at.weekday(),
        hour_of_day=started_at.hour,
    )


def build_selected_network(
    cleaned: MobyDataset,
    candidates: CandidateNetwork,
    selection: SelectionResult,
) -> SelectedNetwork:
    """Materialise the expanded network after Algorithm 1.

    New stations take ids continuing after the largest fixed-station
    id; every cleaned location is then reassigned to its nearest
    station and the trips are projected onto station pairs.
    """
    stations = build_station_set(cleaned, candidates, selection)
    location_to_station = assign_locations_to_stations(cleaned, stations)
    trips = [
        project_trip(row, location_to_station)
        for row in cleaned.rental_rows()
    ]
    return SelectedNetwork(
        stations=stations,
        location_to_station=location_to_station,
        trips=trips,
    )
