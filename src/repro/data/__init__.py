"""Data layer: Moby's two tables, their row schemas, CSV IO and cleaning."""

from .cleaning import (
    ALL_RULES,
    CleaningReport,
    CleaningRuleSets,
    RULE_DANGLING_LOCATION_ID,
    RULE_MISSING_COORDINATES,
    RULE_MISSING_LOCATION_ID,
    RULE_NOT_ON_LAND,
    RULE_OUTSIDE_DUBLIN,
    RULE_UNREFERENCED_LOCATION,
    RuleOutcome,
    classify_rentals,
    clean_dataset,
    clean_dataset_with_rules,
    location_rule_sets,
)
from .csvio import read_locations, read_rentals, write_locations, write_rentals
from .dataset import DatasetSummary, MobyDataset, rental_records_from_rows
from .records import LocationRecord, RentalRecord
from .schema import (
    ColumnSpec,
    LOCATION_SCHEMA,
    RENTAL_SCHEMA,
    TableSchema,
    schema_from_columns,
)

__all__ = [
    "ALL_RULES",
    "CleaningReport",
    "CleaningRuleSets",
    "ColumnSpec",
    "DatasetSummary",
    "LOCATION_SCHEMA",
    "LocationRecord",
    "MobyDataset",
    "rental_records_from_rows",
    "RENTAL_SCHEMA",
    "RULE_DANGLING_LOCATION_ID",
    "RULE_MISSING_COORDINATES",
    "RULE_MISSING_LOCATION_ID",
    "RULE_NOT_ON_LAND",
    "RULE_OUTSIDE_DUBLIN",
    "RULE_UNREFERENCED_LOCATION",
    "RentalRecord",
    "RuleOutcome",
    "TableSchema",
    "classify_rentals",
    "clean_dataset",
    "clean_dataset_with_rules",
    "location_rule_sets",
    "read_locations",
    "read_rentals",
    "schema_from_columns",
    "write_locations",
    "write_rentals",
]
