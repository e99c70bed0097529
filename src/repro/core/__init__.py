"""The paper's core contribution: the network-expansion pipeline."""

from .._lazy import lazy_exports

#: Public name -> defining module, imported on first use.  The staged
#: runner imports this package's submodules and ``core.expansion``
#: imports the runner, so eager exports would make the import order
#: decide whether either can load.
_EXPORTS = {
    "CandidateGraphStats": ".candidates",
    "CandidateNetwork": ".candidates",
    "CandidateScore": ".selection",
    "CommunityRow": ".profiles",
    "DAY_NAMES": ".profiles",
    "ExpansionResult": ".expansion",
    "GroupKey": ".candidates",
    "KIND_FIXED": ".graphs",
    "KIND_SELECTED": ".graphs",
    "N_DAY_SLICES": ".expansion",
    "N_HOUR_SLICES": ".expansion",
    "NetworkExpansionOptimiser": ".expansion",
    "REJECT_BELOW_DEGREE": ".selection",
    "REJECT_NEAR_CANDIDATE": ".selection",
    "REJECT_NEAR_STATION": ".selection",
    "SelectedNetwork": ".graphs",
    "SelectedNetworkStats": ".graphs",
    "SelectionResult": ".selection",
    "Station": ".graphs",
    "TripOD": ".graphs",
    "ValidationReport": ".validation",
    "assign_locations_to_stations": ".graphs",
    "build_candidate_network": ".candidates",
    "build_selected_network": ".graphs",
    "build_station_set": ".graphs",
    "check_pairwise_distance": ".selection",
    "community_table": ".profiles",
    "commute_peak_share": ".profiles",
    "condense_locations": ".candidates",
    "daily_profile": ".profiles",
    "hourly_profile": ".profiles",
    "midday_share": ".profiles",
    "project_candidate_flow": ".candidates",
    "project_trip": ".graphs",
    "select_stations": ".selection",
    "self_containment": ".profiles",
    "validate_expansion": ".validation",
    "weekend_share": ".profiles",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(_EXPORTS)
