"""What the benchmark feeds the program, made from ``--seed`` alone.

The trip export comes from the program's own ``repro generate --seed S``
(the calibrated synthetic stand-in for the Moby export).  Everything
else — the upload body, the row counts the checks compare against, and
the appended days — is read or derived from that export here, with the
standard library, so the checks do not trust the program's parser.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path


@dataclass
class Export:
    """The generated CSV export, as rows in the upload's compact form."""

    locations: list[list]
    rentals: list[list]
    n_stations: int

    @classmethod
    def read(cls, directory: Path) -> "Export":
        with open(directory / "locations.csv", newline="") as handle:
            locations = [
                [
                    int(row["location_id"]),
                    float(row["lat"]) if row["lat"] else None,
                    float(row["lon"]) if row["lon"] else None,
                    row["is_station"] == "1",
                    row["name"],
                ]
                for row in csv.DictReader(handle)
            ]
        with open(directory / "rentals.csv", newline="") as handle:
            rentals = [
                [
                    int(row["rental_id"]),
                    int(row["bike_id"]),
                    row["started_at"],
                    row["ended_at"],
                    int(row["rental_location_id"]) if row["rental_location_id"] else None,
                    int(row["return_location_id"]) if row["return_location_id"] else None,
                ]
                for row in csv.DictReader(handle)
            ]
        return cls(locations, rentals, sum(1 for row in locations if row[3]))

    def upload(self) -> dict:
        """The ``PUT /v1/datasets/<name>`` body."""
        return {"type": "MobyDataset", "locations": self.locations,
                "rentals": self.rentals}


class DayFeed:
    """One new day of trips per call, after the export's last day.

    Each day carries as many trips as the export's mean per active day.
    Every trip copies a template drawn from the export's complete trips
    (both ends located, positive duration): its bike, its two
    locations, its time of day and its duration (capped at 45 minutes);
    only the date is the new day's.  So a day touches one G_Day slice
    (its weekday; consecutive calls walk the week) and the G_Hour
    slices its templates' hours fall in.  Ids continue above every
    stored id, as appends require.
    """

    def __init__(self, export: Export, seed: int) -> None:
        self._rng = random.Random(f"e2ebench-days-{seed}")
        self._templates = []
        days = set()
        for row in export.rentals:
            started = datetime.fromisoformat(row[2])
            ended = datetime.fromisoformat(row[3])
            days.add(started.date())
            if row[4] is not None and row[5] is not None and ended > started:
                self._templates.append((row[1], started, ended, row[4], row[5]))
        self.per_day = round(len(export.rentals) / len(days))
        self._day = max(days)
        self._next_id = max(row[0] for row in export.rentals) + 1

    def next_day(self) -> list[list]:
        self._day += timedelta(days=1)
        midnight = datetime.combine(self._day, datetime.min.time())
        rows = []
        for _ in range(self.per_day):
            bike, started, ended, origin, destination = self._rng.choice(
                self._templates
            )
            start = midnight + (started - started.replace(
                hour=0, minute=0, second=0, microsecond=0))
            duration = min(ended - started, timedelta(minutes=45))
            rows.append([self._next_id, bike, start.isoformat(),
                         (start + duration).isoformat(), origin, destination])
            self._next_id += 1
        return rows
