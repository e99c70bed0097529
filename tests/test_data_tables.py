"""Row schemas and the keyed tables of a MobyDataset."""

from datetime import datetime

import pytest

from repro.data import (
    ColumnSpec,
    LocationRecord,
    MobyDataset,
    RentalRecord,
    TableSchema,
    schema_from_columns,
)
from repro.exceptions import (
    DuplicateKeyError,
    MissingRowError,
    ReferentialIntegrityError,
    SchemaError,
)

SIMPLE = schema_from_columns(
    [("id", int, False), ("name", str, False), ("score", float, True)],
    primary_key="id",
)


def location(location_id: int, name: str = "", is_station: bool = False) -> LocationRecord:
    return LocationRecord(location_id, 53.3, -6.2, is_station=is_station, name=name)


def rental(rental_id: int, pickup: int | None, dropoff: int | None) -> RentalRecord:
    return RentalRecord(
        rental_id=rental_id,
        bike_id=2,
        started_at=datetime(2020, 5, 1, 8, 0),
        ended_at=datetime(2020, 5, 1, 8, 30),
        rental_location_id=pickup,
        return_location_id=dropoff,
    )


class TestSchema:
    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSpec("bad", list)  # type: ignore[arg-type]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                columns=(ColumnSpec("a", int), ColumnSpec("a", int)),
                primary_key="a",
            )

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            schema_from_columns([("a", int, False)], primary_key="b")

    def test_pk_not_nullable(self):
        with pytest.raises(SchemaError):
            schema_from_columns([("a", int, True)], primary_key="a")

    def test_int_widens_to_float(self):
        spec = ColumnSpec("x", float, False)
        assert spec.validate(3) == 3.0
        assert isinstance(spec.validate(3), float)

    def test_bool_is_not_int(self):
        spec = ColumnSpec("x", int, False)
        with pytest.raises(SchemaError):
            spec.validate(True)

    def test_null_rules(self):
        nullable = ColumnSpec("x", int, True)
        assert nullable.validate(None) is None
        strict = ColumnSpec("x", int, False)
        with pytest.raises(SchemaError):
            strict.validate(None)

    def test_validate_row_extra_column(self):
        with pytest.raises(SchemaError):
            SIMPLE.validate_row({"id": 1, "name": "a", "bogus": 2})

    def test_missing_nullable_becomes_none(self):
        row = SIMPLE.validate_row({"id": 1, "name": "a"})
        assert row["score"] is None

    def test_column_lookup(self):
        assert SIMPLE.column("name").py_type is str
        with pytest.raises(SchemaError):
            SIMPLE.column("ghost")


class TestTable:
    """One table's keyed rows, read and written through MobyDataset."""

    def test_insert_and_get(self):
        dataset = MobyDataset()
        dataset.add_location(location(1, name="a"))
        assert dataset.location(1).name == "a"

    def test_get_returns_copy(self):
        dataset = MobyDataset.from_records([location(1, name="a")], [])
        clone = dataset.copy()
        next(clone.location_rows())["name"] = "mutated"
        assert dataset.location(1).name == "a"

    def test_duplicate_pk_rejected(self):
        dataset = MobyDataset()
        dataset.add_location(location(1, name="a"))
        with pytest.raises(DuplicateKeyError):
            dataset.add_location(location(1, name="b"))
        dataset.add_rental(rental(7, 1, 1))
        with pytest.raises(DuplicateKeyError):
            dataset.add_rental(rental(7, 1, 1))

    def test_missing_get_raises(self):
        with pytest.raises(MissingRowError):
            MobyDataset().location(99)
        with pytest.raises(MissingRowError):
            MobyDataset().rental(99)

    def test_contains_and_keys(self):
        dataset = MobyDataset.from_records([location(42)], [rental(5, 42, 42)])
        assert dataset.has_location(42)
        assert [record.location_id for record in dataset.locations()] == [42]
        assert dataset.max_rental_id() == 5

    def test_stations_in_repr_order(self):
        dataset = MobyDataset.from_records(
            [location(2, is_station=True), location(10, is_station=True), location(3)],
            [],
        )
        assert [record.location_id for record in dataset.stations()] == [10, 2]


class TestDatabase:
    """Referential integrity between the two tables."""

    def _dataset(self) -> MobyDataset:
        return MobyDataset.from_records([location(1)], [rental(10, 1, 1)])

    def test_integrity_ok(self):
        self._dataset().check_integrity()

    def test_dangling_reference_detected(self):
        dataset = self._dataset()
        dataset.add_rental(rental(11, 1, 99))
        with pytest.raises(ReferentialIntegrityError, match="row 11"):
            dataset.check_integrity()

    def test_null_reference_allowed(self):
        dataset = self._dataset()
        dataset.add_rental(rental(12, None, 1))
        dataset.check_integrity()


class TestMobySchemas:
    def test_location_schema_roundtrip(self):
        dataset = MobyDataset()
        dataset.add_location(LocationRecord(1, 53.3, -6.2, is_station=True, name="x"))
        assert dataset.location(1).is_station is True

    def test_rental_schema_accepts_datetime(self):
        dataset = MobyDataset()
        dataset.add_rental(rental(1, None, 3))
        assert dataset.rental(1).rental_location_id is None
        assert dataset.rental(1).started_at == datetime(2020, 5, 1, 8, 0)

    def test_schemas_reject_wrong_types(self):
        dataset = MobyDataset()
        with pytest.raises(SchemaError):
            dataset.add_location(LocationRecord(1, "53.3", -6.2))  # type: ignore[arg-type]
        with pytest.raises(SchemaError):
            dataset.add_rental(rental(1, True, 3))  # type: ignore[arg-type]
