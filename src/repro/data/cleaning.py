"""The six-rule cleaning pipeline from the paper (Section III).

The paper removes, in order:

1. Locations outside Dublin, and rentals that started or ended there.
2. Locations that are not on land, and associated rentals.
3. Locations missing latitude or longitude, and associated rentals.
4. Rentals that do not report a Rental or Return Location ID.
5. Rentals whose Rental/Return Location ID is not in the Location table.
6. Locations never referenced by any remaining rental.

Rules 1-3 judge each location on its own row, so they become sets of
location ids; rules 1-5 then decide every rental in one pass, the first
matching rule claiming it (:meth:`CleaningRuleSets.removal_rule`, the
one decision both cold and incremental cleaning use); rule 6 keeps the
locations the surviving rentals reference.  That reproduces applying
the rules one after another.  Cleaning is non-destructive:
:func:`clean_dataset` builds a fresh
:class:`~repro.data.dataset.MobyDataset` and returns it together with a
:class:`CleaningReport` recording exactly what each rule removed, so a
Table-I style before/after comparison falls straight out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..geo import GeoPoint, in_dublin, on_land
from ..serialize import check_envelope
from .dataset import DatasetSummary, MobyDataset
from .records import RentalRecord

#: Rule identifiers, in application order.
RULE_OUTSIDE_DUBLIN = "outside_dublin"
RULE_NOT_ON_LAND = "not_on_land"
RULE_MISSING_COORDINATES = "missing_coordinates"
RULE_MISSING_LOCATION_ID = "missing_location_id"
RULE_DANGLING_LOCATION_ID = "dangling_location_id"
RULE_UNREFERENCED_LOCATION = "unreferenced_location"

ALL_RULES = (
    RULE_OUTSIDE_DUBLIN,
    RULE_NOT_ON_LAND,
    RULE_MISSING_COORDINATES,
    RULE_MISSING_LOCATION_ID,
    RULE_DANGLING_LOCATION_ID,
    RULE_UNREFERENCED_LOCATION,
)


@dataclass
class RuleOutcome:
    """What one rule removed."""

    rule: str
    locations_removed: int = 0
    rentals_removed: int = 0


@dataclass
class CleaningReport:
    """Audit trail of a cleaning run, including Table-I counts."""

    before: DatasetSummary
    after: DatasetSummary
    outcomes: list[RuleOutcome] = field(default_factory=list)

    @property
    def total_locations_removed(self) -> int:
        """Locations removed across all rules."""
        return sum(outcome.locations_removed for outcome in self.outcomes)

    @property
    def total_rentals_removed(self) -> int:
        """Rentals removed across all rules."""
        return sum(outcome.rentals_removed for outcome in self.outcomes)

    def outcome(self, rule: str) -> RuleOutcome:
        """Fetch the outcome of one named rule."""
        for outcome in self.outcomes:
            if outcome.rule == rule:
                return outcome
        raise KeyError(f"no outcome recorded for rule {rule!r}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe envelope (Table-I counts + per-rule removals)."""
        return {
            "type": "CleaningReport",
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
            "outcomes": [
                {
                    "rule": outcome.rule,
                    "locations_removed": outcome.locations_removed,
                    "rentals_removed": outcome.rentals_removed,
                }
                for outcome in self.outcomes
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CleaningReport":
        """Exact inverse of :meth:`to_dict`."""
        check_envelope(payload, "CleaningReport")
        return cls(
            before=DatasetSummary.from_dict(payload["before"]),
            after=DatasetSummary.from_dict(payload["after"]),
            outcomes=[
                RuleOutcome(
                    rule=outcome["rule"],
                    locations_removed=outcome["locations_removed"],
                    rentals_removed=outcome["rentals_removed"],
                )
                for outcome in payload["outcomes"]
            ],
        )


#: Below this many coordinate rows the scalar oracle loop wins; the
#: decisions are boolean-identical either way (the batch kernels are
#: exact elementwise replays of the scalar comparisons).
_BATCH_ORACLE_MIN_RECORDS = 256


def _geo_doomed_ids(
    dataset: MobyDataset,
    oracle: Callable[[GeoPoint], bool],
    batch_oracle_name: str,
) -> set[int]:
    """Location ids failing a geographic oracle; coordinate-less pass."""
    from ..perf import accel

    records = list(dataset.locations())
    with_coords = [record for record in records if record.has_coordinates]
    if accel.ENABLED and len(with_coords) >= _BATCH_ORACLE_MIN_RECORDS:
        points = [record.point() for record in with_coords]
        batch = getattr(accel, batch_oracle_name)
        admissible = batch(
            [point.lat for point in points], [point.lon for point in points]
        )
        return {
            record.location_id
            for record, ok in zip(with_coords, admissible)
            if not ok
        }
    return {
        record.location_id
        for record in with_coords
        if not oracle(record.point())
    }


@dataclass(frozen=True)
class CleaningRuleSets:
    """The location-level decisions of rules 1–3, as reusable sets.

    Every rule-1/2/3 judgement depends on one location row alone, so
    the sets are a pure function of the location table — which appends
    never touch.  An incremental clean therefore classifies *only* the
    appended rentals against these sets instead of re-running the
    geographic oracles over the whole table.

    ``surviving`` is the location-id domain left after rules 1–3 — the
    set rule 5 (dangling references) checks rentals against.
    """

    outside_dublin: frozenset[int]
    not_on_land: frozenset[int]
    missing_coordinates: frozenset[int]
    surviving: frozenset[int]

    def removal_rule(self, pickup: int | None, dropoff: int | None) -> str | None:
        """The rule (1-5) removing a rental with these location ids.

        ``None`` when the rental survives.  The first matching rule in
        the paper's order claims the rental, exactly as applying the
        rules one after another would; rule 6 removes only locations,
        so these five decide every rental.
        """
        if pickup in self.outside_dublin or dropoff in self.outside_dublin:
            return RULE_OUTSIDE_DUBLIN
        if pickup in self.not_on_land or dropoff in self.not_on_land:
            return RULE_NOT_ON_LAND
        if pickup in self.missing_coordinates or dropoff in self.missing_coordinates:
            return RULE_MISSING_COORDINATES
        if pickup is None or dropoff is None:
            return RULE_MISSING_LOCATION_ID
        if pickup not in self.surviving or dropoff not in self.surviving:
            return RULE_DANGLING_LOCATION_ID
        return None


def location_rule_sets(dataset: MobyDataset) -> CleaningRuleSets:
    """Compute :class:`CleaningRuleSets` for ``dataset``'s locations.

    Matches :func:`clean_dataset` exactly: rule 2 judges only what
    rule 1 left, rule 3 only what rules 1–2 left (the per-location
    oracles are row-independent, so set subtraction reproduces
    applying the rules one after another).
    """
    doomed_dublin = frozenset(
        _geo_doomed_ids(dataset, in_dublin, "in_dublin_batch")
    )
    doomed_land = frozenset(
        _geo_doomed_ids(dataset, on_land, "on_land_batch") - doomed_dublin
    )
    removed = doomed_dublin | doomed_land
    doomed_coords = frozenset(
        record.location_id
        for record in dataset.locations()
        if not record.has_coordinates and record.location_id not in removed
    )
    removed = removed | doomed_coords
    surviving = frozenset(
        record.location_id
        for record in dataset.locations()
        if record.location_id not in removed
    )
    return CleaningRuleSets(
        outside_dublin=doomed_dublin,
        not_on_land=doomed_land,
        missing_coordinates=doomed_coords,
        surviving=surviving,
    )


def classify_rentals(
    rentals: Sequence[RentalRecord], rules: CleaningRuleSets
) -> tuple[list[RentalRecord], dict[str, int]]:
    """Split rentals into survivors and per-rule removal counts.

    Each rental is judged by :meth:`CleaningRuleSets.removal_rule`, the
    decision the cold pass of :func:`clean_dataset_with_rules` makes.
    """
    counts = dict.fromkeys(ALL_RULES[:5], 0)
    survivors: list[RentalRecord] = []
    for rental in rentals:
        rule = rules.removal_rule(rental.rental_location_id, rental.return_location_id)
        if rule is None:
            survivors.append(rental)
        else:
            counts[rule] += 1
    return survivors, counts


def clean_dataset(raw: MobyDataset) -> tuple[MobyDataset, CleaningReport]:
    """Apply the six rules to a copy of ``raw``.

    Returns the cleaned dataset and the per-rule audit report.  The
    input dataset is left untouched.
    """
    dataset, report, _ = clean_dataset_with_rules(raw)
    return dataset, report


def clean_dataset_with_rules(
    raw: MobyDataset,
) -> tuple[MobyDataset, CleaningReport, CleaningRuleSets]:
    """:func:`clean_dataset`, also returning the location rule sets.

    The geographic oracles run once, over the raw location table; one
    pass over the raw rental rows then decides rules 1-5 per rental,
    and rule 6 keeps the locations the survivors reference (rule 5
    leaves them only references to surviving locations).  The cleaned
    dataset is built once, from the kept rows.  The sets come back so
    an incremental rerun can classify appended rentals without
    touching the oracles at all.
    """
    rules = location_rule_sets(raw)
    rentals_removed = dict.fromkeys(ALL_RULES, 0)
    kept_rentals: list[int] = []
    referenced: set[int] = set()
    for row in raw.rental_rows():
        pickup = row["rental_location_id"]
        dropoff = row["return_location_id"]
        rule = rules.removal_rule(pickup, dropoff)
        if rule is None:
            kept_rentals.append(row["rental_id"])
            referenced.add(pickup)
            referenced.add(dropoff)
        else:
            rentals_removed[rule] += 1
    locations_removed = {
        RULE_OUTSIDE_DUBLIN: len(rules.outside_dublin),
        RULE_NOT_ON_LAND: len(rules.not_on_land),
        RULE_MISSING_COORDINATES: len(rules.missing_coordinates),
        RULE_UNREFERENCED_LOCATION: len(rules.surviving) - len(referenced),
    }
    dataset = raw.subset(sorted(referenced), kept_rentals)
    dataset.check_integrity()
    report = CleaningReport(
        before=raw.summary(),
        after=dataset.summary(),
        outcomes=[
            RuleOutcome(rule, locations_removed.get(rule, 0), rentals_removed[rule])
            for rule in ALL_RULES
        ],
    )
    return dataset, report, rules
