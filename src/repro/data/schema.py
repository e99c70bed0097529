"""Column specifications and row validation for the dataset's two tables."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Any, Mapping, Sequence

from ..exceptions import SchemaError

#: Types a column may declare.  ``float`` accepts ints (auto-widened);
#: everything else is checked exactly.
_ALLOWED_TYPES = (int, float, str, bool, datetime)


@dataclass(frozen=True)
class ColumnSpec:
    """Declares one column: its name, Python type and nullability."""

    name: str
    py_type: type
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.py_type not in _ALLOWED_TYPES:
            raise SchemaError(
                f"column {self.name!r}: unsupported type {self.py_type!r}"
            )

    def validate(self, value: Any) -> Any:
        """Return the (possibly coerced) value or raise SchemaError."""
        if value is None:
            if self.nullable:
                return None
            raise SchemaError(f"column {self.name!r} is not nullable")
        # bool is a subclass of int; keep the two distinct.
        if self.py_type is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if self.py_type is int and isinstance(value, bool):
            raise SchemaError(f"column {self.name!r}: bool is not an int")
        if not isinstance(value, self.py_type):
            raise SchemaError(
                f"column {self.name!r}: expected {self.py_type.__name__}, "
                f"got {type(value).__name__}"
            )
        return value


@dataclass(frozen=True)
class TableSchema:
    """An ordered set of columns plus the primary-key column name."""

    columns: tuple[ColumnSpec, ...]
    primary_key: str

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a declared column"
            )
        pk = self.column(self.primary_key)
        if pk.nullable:
            raise SchemaError("primary-key column cannot be nullable")

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> ColumnSpec:
        """Look up one column spec by name."""
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"no such column: {name!r}")

    def validate_row(self, row: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a mapping against the schema, returning a clean dict.

        Extra keys are rejected; missing keys are rejected unless the
        column is nullable (they become None).
        """
        extras = set(row) - set(self.column_names)
        if extras:
            raise SchemaError(f"unknown columns: {sorted(extras)}")
        clean: dict[str, Any] = {}
        for column in self.columns:
            clean[column.name] = column.validate(row.get(column.name))
        return clean


def schema_from_columns(
    columns: Sequence[tuple[str, type, bool]], primary_key: str
) -> TableSchema:
    """Convenience builder from ``(name, type, nullable)`` triples."""
    return TableSchema(
        columns=tuple(ColumnSpec(name, py_type, nullable) for name, py_type, nullable in columns),
        primary_key=primary_key,
    )


#: Schema of the Location table (paper Section III).
LOCATION_SCHEMA = schema_from_columns(
    [
        ("location_id", int, False),
        ("lat", float, True),
        ("lon", float, True),
        ("is_station", bool, False),
        ("name", str, False),
    ],
    primary_key="location_id",
)

#: Schema of the Rental table (paper Section III).
RENTAL_SCHEMA = schema_from_columns(
    [
        ("rental_id", int, False),
        ("bike_id", int, False),
        ("started_at", datetime, False),
        ("ended_at", datetime, False),
        ("rental_location_id", int, True),
        ("return_location_id", int, True),
    ],
    primary_key="rental_id",
)
