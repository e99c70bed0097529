"""Delta-aware stage bodies: turn a rerun over an appended log into an update.

Append-mode datasets (:meth:`repro.service.datasets.DatasetStore.append`)
only ever add rental rows with ids above everything stored, so a rerun
over the appended dataset relates to the previous run by a pure *delta*:
the raw tables are the old tables plus a tail of new rentals.  This
module holds the exact merge algebra the incremental runner uses to
reuse the previous run's stage values:

* :func:`incremental_clean` classifies only the appended rentals against
  the previous run's location rule sets and splices the survivors into a
  copy of the previous cleaned dataset;
* :func:`merge_candidate_flow` adds the survivors' edges to a copy of
  the previous candidate flow (the HAC clustering is reused verbatim);
* :func:`merge_selected_network` appends the survivors' station OD trips
  to the previous network when the station roster and the nearest-
  station assignment are unchanged.

Every merge is *exact*: the merged value is equal — including iteration
order, which seeds Louvain — to what the cold body would compute over
the appended dataset, because appended ids sort after all stored ids and
every table and graph here iterates in insertion/pk order.  Each helper
returns ``None`` whenever its soundness guard fails, and the runner
falls back to the cold body; incremental mode is an optimisation, never
a semantics change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.candidates import CandidateNetwork
from ..core.graphs import SelectedNetwork, Station, TripOD
from ..data import MobyDataset, RentalRecord
from ..data.cleaning import (
    CleaningReport,
    CleaningRuleSets,
    RuleOutcome,
    classify_rentals,
)


@dataclass(frozen=True)
class CleanAux:
    """What the ``clean`` stage value carries beyond (dataset, report).

    ``rule_sets`` and ``final_location_ids`` let a *later* run classify
    appended rentals without re-running the geographic oracles;
    ``clean_locations_digest`` is the content identity of the cleaned
    location table that the HAC and nearest-station sub-caches key on;
    ``parent_digest``/``delta_survivors`` are set only when this value
    was itself produced incrementally, so the downstream stage bodies
    know which prefix value to merge the survivors into.
    """

    #: Location-level decisions of rules 1-3 over the raw table.
    rule_sets: CleaningRuleSets
    #: Location ids present in the cleaned dataset (after rule 6).
    final_location_ids: frozenset[int]
    #: Digest of the cleaned location table (id order).
    clean_locations_digest: str
    #: Chain digest of the parent dataset when built incrementally.
    parent_digest: str | None = None
    #: Appended rentals that survived cleaning (id order).
    delta_survivors: tuple[RentalRecord, ...] = ()


def incremental_clean(
    raw: MobyDataset,
    delta: Sequence[RentalRecord],
    prefix_value: tuple[MobyDataset, CleaningReport, CleanAux],
    parent_digest: str,
) -> tuple[MobyDataset, CleaningReport, CleanAux] | None:
    """The clean-stage value for ``raw`` = parent dataset + ``delta``.

    Exactness argument: the location table is untouched by appends, so
    the rule-1/2/3 doomed sets and the rule-5 surviving domain are the
    parent's; rules 1-5 judge each rental row independently, so
    classifying only the delta reproduces the cold pass.  Rule 6
    keeps a location iff some surviving rental references it — the guard
    below ensures every delta survivor references locations the parent
    already kept, so the rule-6 kept set (and with it the cleaned
    location table) is exactly the parent's.  Splicing the survivors
    into a copy of the parent's cleaned dataset then equals cleaning the
    appended dataset cold: both tables iterate in pk order and every
    delta id sorts after every parent id.

    Returns ``None`` when a guard fails (location table changed shape,
    non-monotonic ids, or a survivor resurrects a rule-6-dropped
    location); the caller must fall back to the cold body.
    """
    prefix_cleaned, prefix_report, prefix_aux = prefix_value
    # Appends never touch locations; a different location count means
    # this is not actually parent + delta, whatever the caller thinks.
    if raw.n_locations != prefix_report.before.n_locations:
        return None
    if len(delta) != raw.n_rentals - prefix_report.before.n_rentals:
        return None
    # Id monotonicity: every delta id must exceed every parent id, or
    # the merged pk order would not be prefix-then-delta.
    prefix_cleaned_max = prefix_cleaned.max_rental_id()
    if delta and prefix_cleaned_max is not None:
        if min(rental.rental_id for rental in delta) <= prefix_cleaned_max:
            return None

    survivors, counts = classify_rentals(delta, prefix_aux.rule_sets)
    final = prefix_aux.final_location_ids
    for rental in survivors:
        if (
            rental.rental_location_id not in final
            or rental.return_location_id not in final
        ):
            # The survivor references a location rule 6 dropped in the
            # parent run — the appended dataset would resurrect it, so
            # the cleaned location table genuinely changes.  Cold path.
            return None

    merged = prefix_cleaned.copy()
    for rental in survivors:
        merged.add_rental(rental)

    outcomes = []
    for prior in prefix_report.outcomes:
        extra = counts.get(prior.rule, 0)
        outcomes.append(
            RuleOutcome(
                rule=prior.rule,
                locations_removed=prior.locations_removed,
                rentals_removed=prior.rentals_removed + extra,
            )
        )
    report = CleaningReport(
        before=raw.summary(),
        after=merged.summary(),
        outcomes=outcomes,
    )
    aux = CleanAux(
        rule_sets=prefix_aux.rule_sets,
        final_location_ids=prefix_aux.final_location_ids,
        clean_locations_digest=prefix_aux.clean_locations_digest,
        parent_digest=parent_digest,
        delta_survivors=tuple(survivors),
    )
    return merged, report, aux


def merge_candidate_flow(
    prefix: CandidateNetwork, survivors: Sequence[RentalRecord]
) -> CandidateNetwork:
    """The candidate network for parent + survivors, built by merging.

    The clustering, group assignment, station points and centroids are
    pure functions of the cleaned *location* table, which incremental
    cleaning guarantees unchanged — they are shared with the prefix
    value.  The flow graph accumulates edge weights commutatively and
    the cold build inserts trips in pk order, so copying the prefix
    flow and appending the survivors' edges reproduces it exactly.
    """
    flow = prefix.flow.copy()
    location_to_group = prefix.location_to_group
    for rental in survivors:
        flow.add_edge(
            location_to_group[rental.rental_location_id],
            location_to_group[rental.return_location_id],
            1.0,
        )
    return CandidateNetwork(
        clustering=prefix.clustering,
        flow=flow,
        location_to_group=location_to_group,
        station_points=prefix.station_points,
        cluster_centroids=prefix.cluster_centroids,
        n_trips=prefix.n_trips + len(survivors),
    )


def merge_selected_network(
    prefix: SelectedNetwork,
    stations: dict[int, Station],
    location_to_station: dict[int, int],
    survivors: Sequence[RentalRecord],
) -> SelectedNetwork | None:
    """The selected network for parent + survivors, built by merging.

    Valid only when the freshly derived station roster and nearest-
    station assignment equal the prefix run's — appends shift candidate
    degrees, so Algorithm 1 *can* select a different station set, in
    which case every trip must be re-projected and we return ``None``.
    When they match, the cold trip list is the prefix trips followed by
    the survivors' projections (pk order), appended here verbatim.
    """
    if prefix.stations != stations:
        return None
    if prefix.location_to_station != location_to_station:
        return None
    trips = list(prefix.trips)
    for rental in survivors:
        trips.append(
            TripOD(
                origin=location_to_station[rental.rental_location_id],
                destination=location_to_station[rental.return_location_id],
                day_of_week=rental.started_at.weekday(),
                hour_of_day=rental.started_at.hour,
            )
        )
    return SelectedNetwork(
        stations=stations,
        location_to_station=location_to_station,
        trips=trips,
    )


__all__ = [
    "CleanAux",
    "incremental_clean",
    "merge_candidate_flow",
    "merge_selected_network",
]
