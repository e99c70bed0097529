"""The MobyDataset: Moby's two tables as id-keyed rows, with typed access."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from ..exceptions import DuplicateKeyError, MissingRowError, ReferentialIntegrityError
from .csvio import read_locations, read_rentals, write_locations, write_rentals
from .records import LocationRecord, RentalRecord
from .schema import LOCATION_SCHEMA, RENTAL_SCHEMA, TableSchema


def _insert(rows: dict[int, dict], schema: TableSchema, row: Mapping[str, Any]) -> None:
    """Validate ``row`` against ``schema`` and store it under its key."""
    clean = schema.validate_row(row)
    pk = clean[schema.primary_key]
    if pk in rows:
        raise DuplicateKeyError(f"duplicate {schema.primary_key} {pk!r}")
    rows[pk] = clean


def _get(rows: dict[int, dict], table: str, pk: int) -> dict:
    """The stored row under ``pk``; raises MissingRowError when absent."""
    row = rows.get(pk)
    if row is None:
        raise MissingRowError(f"{table}: no row with key {pk!r}")
    return row


def rental_records_from_rows(rows: Any) -> list[RentalRecord]:
    """Parse compact positional rental rows into records.

    The row shape of :meth:`MobyDataset.to_dict` — ``[id, bike_id,
    started_at, ended_at, rental_location_id, return_location_id]``
    with ISO-8601 timestamps — shared by the full-dataset ``PUT`` body
    and the append-mode ``PATCH`` body.  Raises :class:`ValueError` /
    :class:`TypeError` on malformed rows so the HTTP layer can answer
    ``400``.
    """
    if not isinstance(rows, (list, tuple)):
        raise ValueError("rentals must be a list of rows")
    rentals = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 6:
            raise ValueError(
                f"bad rental row {row!r}; expected [id, bike_id, "
                "started_at, ended_at, rental_location_id, "
                "return_location_id]"
            )
        rental_id, bike_id, started, ended, pickup, dropoff = row
        rentals.append(
            RentalRecord(
                rental_id=int(rental_id),
                bike_id=int(bike_id),
                started_at=datetime.fromisoformat(started),
                ended_at=datetime.fromisoformat(ended),
                rental_location_id=None if pickup is None else int(pickup),
                return_location_id=None if dropoff is None else int(dropoff),
            )
        )
    return rentals


@dataclass(frozen=True)
class DatasetSummary:
    """The counts reported in the paper's Table I."""

    n_stations: int
    n_rentals: int
    n_locations: int

    def as_row(self) -> dict[str, int]:
        """Dict form used by the reporting layer."""
        return {
            "#stations": self.n_stations,
            "#rental": self.n_rentals,
            "#location": self.n_locations,
        }

    def to_dict(self) -> dict[str, int]:
        """JSON-safe envelope."""
        return {
            "n_stations": self.n_stations,
            "n_rentals": self.n_rentals,
            "n_locations": self.n_locations,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DatasetSummary":
        """Exact inverse of :meth:`to_dict`."""
        return cls(
            n_stations=payload["n_stations"],
            n_rentals=payload["n_rentals"],
            n_locations=payload["n_locations"],
        )


class MobyDataset:
    """The Rental and Location tables with typed record access.

    Each table is one dict of schema-validated rows keyed by primary
    key; every read iterates in id order.  Both rental location ids
    reference the Location table: a null reference is one of the
    paper's dirty "missing id" rows, a dangling one is what
    :meth:`check_integrity` rejects.
    """

    def __init__(self) -> None:
        self._locations: dict[int, dict] = {}
        self._rentals: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        locations: Iterable[LocationRecord],
        rentals: Iterable[RentalRecord],
    ) -> "MobyDataset":
        """Build a dataset from record iterables (no integrity checks)."""
        dataset = cls()
        for location in locations:
            dataset.add_location(location)
        for rental in rentals:
            dataset.add_rental(rental)
        return dataset

    def copy(self) -> "MobyDataset":
        """A deep copy of both tables (trusted row copy).

        Identical to ``from_records(self.locations(), self.rentals())``
        but without re-materialising records or re-validating rows.
        """
        return self.subset(self._locations, self._rentals)

    def subset(
        self, location_ids: Iterable[int], rental_ids: Iterable[int]
    ) -> "MobyDataset":
        """A dataset holding copies of the named rows of this one.

        The rows were validated when this dataset took them in, so they
        are copied, never aliased or re-validated — cleaning builds its
        result through here in one go.
        """
        subset = MobyDataset()
        subset._locations = {pk: dict(self._locations[pk]) for pk in location_ids}
        subset._rentals = {pk: dict(self._rentals[pk]) for pk in rental_ids}
        return subset

    @classmethod
    def from_csv(cls, directory: str | Path) -> "MobyDataset":
        """Load ``locations.csv`` and ``rentals.csv`` from a directory."""
        directory = Path(directory)
        return cls.from_records(
            read_locations(directory / "locations.csv"),
            read_rentals(directory / "rentals.csv"),
        )

    def to_csv(self, directory: str | Path) -> None:
        """Write both tables into ``directory`` (created if needed)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_locations(directory / "locations.csv", self.locations())
        write_rentals(directory / "rentals.csv", self.rentals())

    # ------------------------------------------------------------------
    # JSON round trip (dataset uploads over HTTP)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe envelope with compact list rows (see :meth:`from_dict`).

        Rows are positional lists in column order — half the bytes of
        per-field objects, which matters because this is the body of a
        ``PUT /v1/datasets/<name>`` upload.  Timestamps are ISO-8601
        strings; ``None`` cells stay ``null``.
        """
        return {
            "type": "MobyDataset",
            "locations": [
                [loc.location_id, loc.lat, loc.lon, loc.is_station, loc.name]
                for loc in self.locations()
            ],
            "rentals": [
                [
                    rental.rental_id,
                    rental.bike_id,
                    rental.started_at.isoformat(),
                    rental.ended_at.isoformat(),
                    rental.rental_location_id,
                    rental.return_location_id,
                ]
                for rental in self.rentals()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MobyDataset":
        """Exact inverse of :meth:`to_dict`.

        Raises :class:`ValueError`/:class:`TypeError` on malformed rows
        so the HTTP layer can turn a bad upload into a ``400``.
        """
        if not isinstance(payload, Mapping):
            raise TypeError("a dataset payload must be a JSON object")
        if payload.get("type", "MobyDataset") != "MobyDataset":
            raise ValueError(
                f"expected a 'MobyDataset' envelope, got {payload['type']!r}"
            )
        locations = []
        for row in payload.get("locations", []):
            if not isinstance(row, (list, tuple)) or len(row) != 5:
                raise ValueError(f"bad location row {row!r}; expected "
                                 "[id, lat, lon, is_station, name]")
            location_id, lat, lon, is_station, name = row
            locations.append(
                LocationRecord(
                    location_id=int(location_id),
                    lat=None if lat is None else float(lat),
                    lon=None if lon is None else float(lon),
                    is_station=bool(is_station),
                    name=str(name),
                )
            )
        rentals = rental_records_from_rows(payload.get("rentals", []))
        return cls.from_records(locations, rentals)

    def add_location(self, record: LocationRecord) -> None:
        """Insert one location row."""
        _insert(
            self._locations,
            LOCATION_SCHEMA,
            {
                "location_id": record.location_id,
                "lat": record.lat,
                "lon": record.lon,
                "is_station": record.is_station,
                "name": record.name,
            },
        )

    def add_rental(self, record: RentalRecord) -> None:
        """Insert one rental row."""
        _insert(
            self._rentals,
            RENTAL_SCHEMA,
            {
                "rental_id": record.rental_id,
                "bike_id": record.bike_id,
                "started_at": record.started_at,
                "ended_at": record.ended_at,
                "rental_location_id": record.rental_location_id,
                "return_location_id": record.return_location_id,
            },
        )

    # ------------------------------------------------------------------
    # Typed reads
    # ------------------------------------------------------------------

    @staticmethod
    def _location_from_row(row: dict) -> LocationRecord:
        return LocationRecord(
            location_id=row["location_id"],
            lat=row["lat"],
            lon=row["lon"],
            is_station=row["is_station"],
            name=row["name"],
        )

    @staticmethod
    def _rental_from_row(row: dict) -> RentalRecord:
        return RentalRecord(
            rental_id=row["rental_id"],
            bike_id=row["bike_id"],
            started_at=row["started_at"],
            ended_at=row["ended_at"],
            rental_location_id=row["rental_location_id"],
            return_location_id=row["return_location_id"],
        )

    def locations(self) -> Iterator[LocationRecord]:
        """Iterate over all location records (id order)."""
        for row in self.location_rows():
            yield self._location_from_row(row)

    def rentals(self) -> Iterator[RentalRecord]:
        """Iterate over all rental records (id order)."""
        for row in self.rental_rows():
            yield self._rental_from_row(row)

    def rental_rows(self) -> Iterator[dict]:
        """Raw rental rows in id order (live dicts — read-only!).

        The hot full-table scans (cleaning rules, trip projection)
        read columns straight off the stored rows instead of
        materialising a :class:`RentalRecord` per rental per pass.
        """
        rows = self._rentals
        return (rows[pk] for pk in sorted(rows))

    def location_rows(self) -> Iterator[dict]:
        """Raw location rows in id order (live dicts — read-only!)."""
        rows = self._locations
        return (rows[pk] for pk in sorted(rows))

    def stations(self) -> Iterator[LocationRecord]:
        """Iterate over fixed-station location records.

        Ids come in ``repr`` order (10 before 2): the pipeline's station
        rosters, and so its results, were pinned in that order.
        """
        rows = self._locations
        ids = [pk for pk, row in rows.items() if row["is_station"]]
        for pk in sorted(ids, key=repr):
            yield self._location_from_row(rows[pk])

    def location(self, location_id: int) -> LocationRecord:
        """Fetch one location by id."""
        return self._location_from_row(_get(self._locations, "locations", location_id))

    def has_location(self, location_id: int) -> bool:
        """True when a location id exists."""
        return location_id in self._locations

    def rental(self, rental_id: int) -> RentalRecord:
        """Fetch one rental by id."""
        return self._rental_from_row(_get(self._rentals, "rentals", rental_id))

    def max_rental_id(self) -> int | None:
        """The highest rental id stored, or ``None`` when empty.

        Append-mode datasets require every appended rental id to exceed
        this, so an appended dataset iterates identically to the same
        rows ingested in one shot (id order == prefix-then-delta order).
        """
        return max(self._rentals, default=None)

    def rentals_after(self, rental_id: int) -> list[RentalRecord]:
        """Rental records with ids strictly above ``rental_id``, id order.

        The delta extractor of an incremental run: only matching rows
        materialise records, so pulling a 5% tail out of a large log
        costs O(log) id comparisons but only O(delta) record builds.
        """
        rows = self._rentals
        picked = sorted(pk for pk in rows if pk > rental_id)
        return [self._rental_from_row(rows[pk]) for pk in picked]

    def referenced_location_ids(self) -> set[int]:
        """Location ids referenced by at least one rental."""
        referenced: set[int] = set()
        for row in self._rentals.values():
            referenced.add(row["rental_location_id"])
            referenced.add(row["return_location_id"])
        referenced.discard(None)
        return referenced

    def check_integrity(self) -> None:
        """Raise :class:`ReferentialIntegrityError` on a dangling reference.

        One pass over the rentals; a null reference (a "missing id"
        dirty row) is allowed, a non-null id absent from the Location
        table is not.
        """
        locations = self._locations
        dangling = [
            (column, row["rental_id"])
            for row in self.rental_rows()
            for column in ("rental_location_id", "return_location_id")
            if row[column] is not None and row[column] not in locations
        ]
        if dangling:
            column, pk = dangling[0]
            raise ReferentialIntegrityError(
                f"{len(dangling)} violation(s); first: rentals.{column} "
                f"row {pk!r} -> missing locations row"
            )

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def n_locations(self) -> int:
        """Number of location rows."""
        return len(self._locations)

    @property
    def n_rentals(self) -> int:
        """Number of rental rows."""
        return len(self._rentals)

    @property
    def n_stations(self) -> int:
        """Number of fixed stations."""
        return sum(1 for row in self._locations.values() if row["is_station"])

    def summary(self) -> DatasetSummary:
        """The Table-I counts for this dataset."""
        return DatasetSummary(
            n_stations=self.n_stations,
            n_rentals=self.n_rentals,
            n_locations=self.n_locations,
        )
