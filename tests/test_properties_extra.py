"""Additional property-based tests: CSV round-trips, simulator
conservation laws, cleaning against a brute-force six-rule reference."""

from datetime import datetime, timedelta

from hypothesis import given, settings, strategies as st

from repro.data import (
    RULE_DANGLING_LOCATION_ID,
    RULE_MISSING_COORDINATES,
    RULE_MISSING_LOCATION_ID,
    RULE_NOT_ON_LAND,
    RULE_OUTSIDE_DUBLIN,
    RULE_UNREFERENCED_LOCATION,
    LocationRecord,
    MobyDataset,
    RentalRecord,
    clean_dataset_with_rules,
    read_locations,
    read_rentals,
    write_locations,
    write_rentals,
)
from repro.geo import GeoPoint, destination_point, in_dublin, on_land
from repro.pipeline.fingerprint import locations_digest
from repro.pipeline.incremental import CleanAux, incremental_clean
from repro.sim import FleetSimulator, TripRequest

CENTER = GeoPoint(53.3473, -6.2591)

location_st = st.builds(
    LocationRecord,
    st.integers(0, 10_000),
    st.one_of(st.none(), st.floats(-89.0, 89.0, allow_nan=False)),
    st.one_of(st.none(), st.floats(-179.0, 179.0, allow_nan=False)),
    st.booleans(),
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs", "Cc"), blacklist_characters="\r\n"
        ),
        max_size=20,
    ),
)

timestamp_st = st.datetimes(
    min_value=datetime(2020, 1, 1), max_value=datetime(2021, 9, 30)
).map(lambda ts: ts.replace(microsecond=0))

rental_st = st.builds(
    RentalRecord,
    st.integers(0, 10_000),
    st.integers(1, 95),
    timestamp_st,
    timestamp_st,
    st.one_of(st.none(), st.integers(0, 10_000)),
    st.one_of(st.none(), st.integers(0, 10_000)),
)


class TestCsvRoundTripProperties:
    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(location_st, max_size=20, unique_by=lambda r: r.location_id))
    def test_locations_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("csv") / "locations.csv"
        write_locations(path, records)
        assert read_locations(path) == records

    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(rental_st, max_size=20, unique_by=lambda r: r.rental_id))
    def test_rentals_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("csv") / "rentals.csv"
        write_rentals(path, records)
        assert read_rentals(path) == records


class TestDatasetInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(location_st, max_size=15, unique_by=lambda r: r.location_id),
        st.lists(rental_st, max_size=15, unique_by=lambda r: r.rental_id),
    )
    def test_cleaning_never_grows_and_always_consistent(self, locations, rentals):
        from repro.data import clean_dataset

        raw = MobyDataset.from_records(locations, rentals)
        cleaned, report = clean_dataset(raw)
        assert cleaned.n_rentals <= raw.n_rentals
        assert cleaned.n_locations <= raw.n_locations
        assert report.before.n_rentals == raw.n_rentals
        assert report.after.n_rentals == cleaned.n_rentals
        cleaned.check_integrity()
        # Every surviving rental references surviving locations inside
        # Dublin, and every surviving location is referenced.
        referenced = cleaned.referenced_location_ids()
        for record in cleaned.locations():
            assert record.location_id in referenced
            assert record.has_coordinates


#: Coordinates on land in Dublin (listed thrice, so that many rentals
#: survive), in the bay, outside the Dublin box, and missing; plus any
#: point of a box around the city.
_ON_LAND = ((53.3473, -6.2591), (53.3400, -6.2500), (53.3558, -6.3298))
_PLACES = _ON_LAND * 3 + ((53.344, -6.10), (53.52, -6.30), (None, None), (53.3, None))
coordinates_st = st.one_of(
    st.sampled_from(_PLACES),
    st.tuples(st.floats(53.15, 53.5), st.floats(-6.5, -6.0)),
)
dirty_location_st = st.builds(
    lambda location_id, coords, is_station: LocationRecord(
        location_id, coords[0], coords[1], is_station=is_station
    ),
    st.integers(0, 30),
    coordinates_st,
    st.booleans(),
)


@st.composite
def dirty_datasets(draw):
    """Locations, and rentals whose references are null, dangling (-1)
    or, most often, one of the generated location ids."""
    locations = draw(
        st.lists(
            dirty_location_st, min_size=1, max_size=12,
            unique_by=lambda r: r.location_id,
        )
    )
    ref_st = st.sampled_from([r.location_id for r in locations] * 3 + [None, -1])
    rentals = draw(
        st.lists(
            st.builds(
                RentalRecord,
                st.integers(0, 500),
                st.integers(1, 95),
                st.just(datetime(2020, 6, 1, 9, 0)),
                st.just(datetime(2020, 6, 1, 9, 30)),
                ref_st,
                ref_st,
            ),
            min_size=1,
            max_size=30,
            unique_by=lambda r: r.rental_id,
        )
    )
    return locations, rentals


def reference_clean(locations, rentals):
    """The paper's six rules applied one after another, over plain dicts.

    Returns the kept locations and rentals in id order and one
    ``(rule, locations removed, rentals removed)`` triple per rule.
    """
    locs = {record.location_id: record for record in locations}
    rents = {record.rental_id: record for record in rentals}
    outcomes = []

    def refs(rental):
        return {rental.rental_location_id, rental.return_location_id}

    def drop(rule, doomed_locations, doomed_rentals):
        for location_id in doomed_locations:
            del locs[location_id]
        for rental_id in doomed_rentals:
            del rents[rental_id]
        outcomes.append((rule, len(doomed_locations), len(doomed_rentals)))

    for rule, bad in (
        (RULE_OUTSIDE_DUBLIN, lambda r: r.has_coordinates and not in_dublin(r.point())),
        (RULE_NOT_ON_LAND, lambda r: r.has_coordinates and not on_land(r.point())),
        (RULE_MISSING_COORDINATES, lambda r: not r.has_coordinates),
    ):
        doomed = {lid for lid, record in locs.items() if bad(record)}
        drop(rule, doomed, {rid for rid, r in rents.items() if refs(r) & doomed})
    drop(RULE_MISSING_LOCATION_ID, (), {rid for rid, r in rents.items() if None in refs(r)})
    drop(RULE_DANGLING_LOCATION_ID, (),
         {rid for rid, r in rents.items() if not refs(r) <= locs.keys()})
    referenced = set().union(*map(refs, rents.values()))
    drop(RULE_UNREFERENCED_LOCATION, locs.keys() - referenced, ())
    return [locs[k] for k in sorted(locs)], [rents[k] for k in sorted(rents)], outcomes


class TestCleaningAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(dirty_datasets())
    def test_cold_clean_matches_the_six_rules(self, dataset):
        locations, rentals = dataset
        raw = MobyDataset.from_records(locations, rentals)
        cleaned, report, _ = clean_dataset_with_rules(raw)
        kept_locations, kept_rentals, outcomes = reference_clean(locations, rentals)
        assert list(cleaned.locations()) == kept_locations
        assert list(cleaned.rentals()) == kept_rentals
        assert [
            (o.rule, o.locations_removed, o.rentals_removed) for o in report.outcomes
        ] == outcomes
        assert report.before == raw.summary()
        assert report.after == cleaned.summary()
        cleaned.check_integrity()
        assert raw.n_locations == len(locations) and raw.n_rentals == len(rentals)

    @settings(max_examples=100, deadline=None)
    @given(dirty_datasets(), st.integers(0, 30))
    def test_incremental_clean_equals_cold(self, dataset, split):
        locations, rentals = dataset
        rentals = sorted(rentals, key=lambda r: r.rental_id)
        split %= len(rentals) + 1
        prefix = MobyDataset.from_records(locations, rentals[:split])
        raw = MobyDataset.from_records(locations, rentals)
        prefix_cleaned, prefix_report, rules = clean_dataset_with_rules(prefix)
        aux = CleanAux(
            rule_sets=rules,
            final_location_ids=frozenset(
                record.location_id for record in prefix_cleaned.locations()
            ),
            clean_locations_digest=locations_digest(prefix_cleaned),
        )
        value = incremental_clean(
            raw, rentals[split:], (prefix_cleaned, prefix_report, aux), "parent"
        )
        if value is None:
            return
        merged, report, merged_aux = value
        cold, cold_report, _ = clean_dataset_with_rules(raw)
        assert list(merged.locations()) == list(cold.locations())
        assert list(merged.rentals()) == list(cold.rentals())
        assert report == cold_report
        assert merged_aux.final_location_ids == frozenset(
            record.location_id for record in cold.locations()
        )


def _stations() -> dict[int, GeoPoint]:
    return {
        i: destination_point(CENTER, 45.0 * i, 600.0 * (1 + i % 3))
        for i in range(6)
    }


request_st = st.builds(
    TripRequest,
    st.datetimes(
        min_value=datetime(2020, 6, 1), max_value=datetime(2020, 6, 7)
    ),
    st.integers(0, 5),
    st.integers(0, 5),
    st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
)


class TestSimulatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(request_st, max_size=60), st.integers(1, 12))
    def test_requests_conserved_and_bikes_conserved(self, requests, n_bikes):
        simulator = FleetSimulator(_stations(), n_bikes=n_bikes)
        result = simulator.run(requests)
        assert result.served + result.unserved == result.n_requests
        assert result.n_requests == len(requests)
        assert 0.0 <= result.service_rate <= 1.0
        assert 0.0 <= result.walk_rate <= 1.0

    @settings(max_examples=15, deadline=None)
    @given(st.lists(request_st, max_size=40))
    def test_more_bikes_never_serve_less(self, requests):
        few = FleetSimulator(_stations(), n_bikes=1).run(requests)
        many = FleetSimulator(_stations(), n_bikes=30).run(requests)
        assert many.served >= few.served
