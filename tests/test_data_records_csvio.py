"""Tests for typed records, CSV IO and the MobyDataset wrapper."""

from datetime import datetime

import pytest

from repro.data import (
    LocationRecord,
    MobyDataset,
    RentalRecord,
    read_locations,
    read_rentals,
    write_locations,
    write_rentals,
)


def sample_location(location_id=1, **kwargs) -> LocationRecord:
    defaults = dict(lat=53.34, lon=-6.26, is_station=False, name="")
    defaults.update(kwargs)
    return LocationRecord(location_id, **defaults)


def sample_rental(rental_id=1, **kwargs) -> RentalRecord:
    defaults = dict(
        bike_id=3,
        started_at=datetime(2020, 7, 4, 14, 30, 5),
        ended_at=datetime(2020, 7, 4, 14, 55, 0),
        rental_location_id=1,
        return_location_id=2,
    )
    defaults.update(kwargs)
    return RentalRecord(rental_id, **defaults)


class TestRecords:
    def test_location_point(self):
        record = sample_location()
        assert record.point().lat == 53.34

    def test_location_without_coords(self):
        record = sample_location(lat=None, lon=None)
        assert not record.has_coordinates
        with pytest.raises(TypeError):
            record.point()

    def test_partial_coords_counts_as_missing(self):
        assert not sample_location(lon=None).has_coordinates

    def test_rental_duration(self):
        assert sample_rental().duration_minutes == pytest.approx(24.9167, abs=1e-3)

    def test_rental_day_of_week(self):
        # 2020-07-04 was a Saturday.
        assert sample_rental().day_of_week == 5

    def test_rental_hour(self):
        assert sample_rental().hour_of_day == 14

    def test_rental_missing_ids(self):
        assert not sample_rental(rental_location_id=None).has_location_ids
        assert sample_rental().has_location_ids


class TestCsvRoundTrip:
    def test_locations_roundtrip(self, tmp_path):
        records = [
            sample_location(1, is_station=True, name="Station A"),
            sample_location(2, lat=None, lon=None),
            sample_location(3, lat=-10.5, lon=120.25, name="odd, name"),
        ]
        path = tmp_path / "locations.csv"
        assert write_locations(path, records) == 3
        loaded = read_locations(path)
        assert loaded == records

    def test_rentals_roundtrip(self, tmp_path):
        records = [
            sample_rental(1),
            sample_rental(2, rental_location_id=None, return_location_id=None),
        ]
        path = tmp_path / "rentals.csv"
        assert write_rentals(path, records) == 2
        assert read_rentals(path) == records

    def test_dataset_roundtrip(self, tmp_path):
        dataset = MobyDataset.from_records(
            [sample_location(1), sample_location(2)], [sample_rental(1)]
        )
        dataset.to_csv(tmp_path / "out")
        loaded = MobyDataset.from_csv(tmp_path / "out")
        assert loaded.n_locations == 2
        assert loaded.n_rentals == 1
        assert loaded.rental(1) == dataset.rental(1)


class TestMobyDataset:
    def _dataset(self) -> MobyDataset:
        return MobyDataset.from_records(
            [
                sample_location(1, is_station=True, name="S"),
                sample_location(2),
                sample_location(3),
            ],
            [sample_rental(1), sample_rental(2, rental_location_id=3)],
        )

    def test_counts(self):
        dataset = self._dataset()
        assert dataset.n_locations == 3
        assert dataset.n_stations == 1
        assert dataset.n_rentals == 2

    def test_stations_iterator(self):
        stations = list(self._dataset().stations())
        assert [s.location_id for s in stations] == [1]

    def test_referenced_location_ids(self):
        assert self._dataset().referenced_location_ids() == {1, 2, 3}

    def test_summary(self):
        summary = self._dataset().summary()
        assert summary.as_row() == {
            "#stations": 1, "#rental": 2, "#location": 3
        }

    def test_has_location(self):
        dataset = self._dataset()
        assert dataset.has_location(1)
        assert not dataset.has_location(99)
