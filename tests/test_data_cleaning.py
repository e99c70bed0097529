"""Tests for the six-rule cleaning pipeline."""

from datetime import datetime

import pytest

from repro.data import (
    LocationRecord,
    MobyDataset,
    RentalRecord,
    RULE_DANGLING_LOCATION_ID,
    RULE_MISSING_COORDINATES,
    RULE_MISSING_LOCATION_ID,
    RULE_NOT_ON_LAND,
    RULE_OUTSIDE_DUBLIN,
    RULE_UNREFERENCED_LOCATION,
    clean_dataset,
)

GOOD_A = LocationRecord(1, 53.3473, -6.2591, is_station=True, name="A")
GOOD_B = LocationRecord(2, 53.3400, -6.2500)
OUTSIDE = LocationRecord(3, 53.52, -6.30)
IN_BAY = LocationRecord(4, 53.344, -6.10)
NO_COORDS = LocationRecord(5, None, None)
UNREFERENCED = LocationRecord(6, 53.3450, -6.2550)


def rental(rental_id: int, origin, destination) -> RentalRecord:
    start = datetime(2020, 6, 1, 9, 0)
    return RentalRecord(
        rental_id=rental_id,
        bike_id=1,
        started_at=start,
        ended_at=datetime(2020, 6, 1, 9, 30),
        rental_location_id=origin,
        return_location_id=destination,
    )


def build_dirty() -> MobyDataset:
    return MobyDataset.from_records(
        [GOOD_A, GOOD_B, OUTSIDE, IN_BAY, NO_COORDS, UNREFERENCED],
        [
            rental(1, 1, 2),          # clean
            rental(2, 2, 1),          # clean
            rental(3, 1, 3),          # touches outside-Dublin location
            rental(4, 4, 1),          # touches bay location
            rental(5, 5, 2),          # touches coordinate-less location
            rental(6, None, 1),       # missing origin id
            rental(7, 1, None),       # missing return id
            rental(8, 999, 1),        # dangling origin id
        ],
    )


class TestCleaningRules:
    @pytest.fixture
    def cleaned(self):
        return clean_dataset(build_dirty())

    def test_surviving_rentals(self, cleaned):
        dataset, _ = cleaned
        assert sorted(r.rental_id for r in dataset.rentals()) == [1, 2]

    def test_surviving_locations(self, cleaned):
        dataset, _ = cleaned
        assert sorted(l.location_id for l in dataset.locations()) == [1, 2]

    def test_rule_outside_dublin(self, cleaned):
        _, report = cleaned
        outcome = report.outcome(RULE_OUTSIDE_DUBLIN)
        assert outcome.locations_removed == 1
        assert outcome.rentals_removed == 1

    def test_rule_not_on_land(self, cleaned):
        _, report = cleaned
        outcome = report.outcome(RULE_NOT_ON_LAND)
        assert outcome.locations_removed == 1
        assert outcome.rentals_removed == 1

    def test_rule_missing_coordinates(self, cleaned):
        _, report = cleaned
        outcome = report.outcome(RULE_MISSING_COORDINATES)
        assert outcome.locations_removed == 1
        assert outcome.rentals_removed == 1

    def test_rule_missing_location_id(self, cleaned):
        _, report = cleaned
        assert report.outcome(RULE_MISSING_LOCATION_ID).rentals_removed == 2

    def test_rule_dangling_location_id(self, cleaned):
        _, report = cleaned
        assert report.outcome(RULE_DANGLING_LOCATION_ID).rentals_removed == 1

    def test_rule_unreferenced(self, cleaned):
        _, report = cleaned
        # Location 6 was never referenced at all.
        assert report.outcome(RULE_UNREFERENCED_LOCATION).locations_removed == 1

    def test_totals(self, cleaned):
        _, report = cleaned
        assert report.total_locations_removed == 4
        assert report.total_rentals_removed == 6
        assert report.before.n_rentals == 8
        assert report.after.n_rentals == 2

    def test_input_untouched(self):
        raw = build_dirty()
        clean_dataset(raw)
        assert raw.n_rentals == 8
        assert raw.n_locations == 6

    def test_result_passes_integrity(self, cleaned):
        dataset, _ = cleaned
        dataset.check_integrity()

    def test_unknown_rule_lookup_raises(self, cleaned):
        _, report = cleaned
        with pytest.raises(KeyError):
            report.outcome("no_such_rule")


class TestCleaningEdgeCases:
    def test_clean_dataset_is_noop_on_clean_data(self):
        dataset = MobyDataset.from_records(
            [GOOD_A, GOOD_B], [rental(1, 1, 2)]
        )
        cleaned, report = clean_dataset(dataset)
        assert cleaned.n_rentals == 1
        assert cleaned.n_locations == 2
        assert report.total_rentals_removed == 0

    def test_cascade_unreferenced_after_rental_removal(self):
        # GOOD_B is only referenced by a rental that dies with OUTSIDE,
        # so rule 6 must then remove GOOD_B as well.
        dataset = MobyDataset.from_records(
            [GOOD_A, GOOD_B, OUTSIDE],
            [rental(1, 2, 3), rental(2, 1, 1)],
        )
        cleaned, report = clean_dataset(dataset)
        assert sorted(l.location_id for l in cleaned.locations()) == [1]
        assert report.outcome(RULE_UNREFERENCED_LOCATION).locations_removed == 1

    def test_station_can_be_cleaned(self):
        bad_station = LocationRecord(9, 53.52, -6.30, is_station=True)
        dataset = MobyDataset.from_records(
            [GOOD_A, GOOD_B, bad_station], [rental(1, 1, 2)]
        )
        cleaned, _ = clean_dataset(dataset)
        assert cleaned.n_stations == 1

    def test_paper_scale_counts(self, small_raw):
        cleaned, report = clean_dataset(small_raw)
        assert report.before.n_rentals > report.after.n_rentals
        assert report.before.n_locations > report.after.n_locations
        assert report.before.n_stations - report.after.n_stations == 3
        cleaned.check_integrity()
