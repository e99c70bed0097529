"""Community composition tables and temporal usage profiles.

These functions produce exactly the quantities the paper tabulates and
plots after community detection:

* Tables IV/V/VI — per community: old/new station counts and the
  number of trips *within* the community, *out* of it, *in*to it;
* Figure 5 — each G_Day community's trip share per day of week;
* Figure 7 — each G_Hour community's trip share per hour of day;
* the headline self-containment figure (~74 % of trips start and end
  in the same community).
"""

from __future__ import annotations

from ..community import Partition
from ..reporting.paper_tables import (
    CommunityRow,
    community_rows,
    od_pair_counts,
    self_contained_share,
)
from .graphs import Station, TripOD

DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def _pairs(trips: list[TripOD]):
    return od_pair_counts((trip.origin, trip.destination) for trip in trips)


def community_table(
    trips: list[TripOD],
    partition: Partition,
    stations: dict[int, Station],
) -> list[CommunityRow]:
    """Build the Table IV/V/VI rows for one partition.

    Stations missing from the partition (possible when a station has no
    trips at the given granularity) are skipped in the station counts.
    """
    return community_rows(
        {station_id: station.kind for station_id, station in stations.items()},
        _pairs(trips),
        partition.assignment,
    )


def self_containment(trips: list[TripOD], partition: Partition) -> float:
    """Fraction of trips starting and ending in the same community."""
    return self_contained_share(_pairs(trips), partition.assignment)


def daily_profile(
    trips: list[TripOD], partition: Partition
) -> dict[int, list[float]]:
    """Figure 5: each community's share of trips per day of week.

    A trip is attributed to its origin's community.  Each community's
    7-vector sums to 1 (communities with no trips return zeros).
    """
    counts: dict[int, list[int]] = {
        label: [0] * 7 for label in partition.labels()
    }
    for trip in trips:
        counts[partition[trip.origin]][trip.day_of_week] += 1
    return {
        label: _normalise(values) for label, values in counts.items()
    }


def hourly_profile(
    trips: list[TripOD], partition: Partition
) -> dict[int, list[float]]:
    """Figure 7: each community's share of trips per hour of day."""
    counts: dict[int, list[int]] = {
        label: [0] * 24 for label in partition.labels()
    }
    for trip in trips:
        counts[partition[trip.origin]][trip.hour_of_day] += 1
    return {
        label: _normalise(values) for label, values in counts.items()
    }


def _normalise(values: list[int]) -> list[float]:
    total = sum(values)
    if total == 0:
        return [0.0] * len(values)
    return [value / total for value in values]


def weekend_share(profile: list[float]) -> float:
    """Share of a 7-day profile falling on Saturday + Sunday."""
    if len(profile) != 7:
        raise ValueError("daily profile must have 7 entries")
    return profile[5] + profile[6]


def commute_peak_share(profile: list[float]) -> float:
    """Share of a 24-hour profile in the commute peaks (7-9 and 16-18)."""
    if len(profile) != 24:
        raise ValueError("hourly profile must have 24 entries")
    return sum(profile[7:10]) + sum(profile[16:19])


def midday_share(profile: list[float]) -> float:
    """Share of a 24-hour profile in the 11:00-15:59 midday window."""
    if len(profile) != 24:
        raise ValueError("hourly profile must have 24 entries")
    return sum(profile[11:16])
