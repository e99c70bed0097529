"""Tables I-VI in the paper's layout, rendered from plain counts.

This module holds the one copy of each table's layout.  Its inputs are
counts, never pipeline objects:

* the Table I dataset summaries and the Table II candidate-graph counts;
* station kinds (station id -> ``"fixed"`` or ``"selected"``);
* trips per distinct origin -> destination pair (:func:`od_pair_counts`;
  on the seed-7 export 61,872 trips collapse to 10,238 pairs);
* community assignments (station id -> community label).

Two callers feed it.  :mod:`repro.reporting.experiments` extracts those
counts from a pipeline result (the markdown report, the benches), and
:func:`tables_from_envelope` reads them from a stored run envelope, so
``repro run`` prints a stored answer without rebuilding any object.
:meth:`repro.core.graphs.SelectedNetwork.stats` counts Table III with
:func:`selected_graph_counts` as well.  Importing this module pulls in
neither :mod:`repro.core` nor numpy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping

from ..serialize import check_envelope, decode_assignment
from ..viz.palette import colour_name
from .comparison import Comparison, compare
from .tables import format_table

#: Station kinds of the expanded network (``Station.kind``).
KIND_FIXED = "fixed"
KIND_SELECTED = "selected"

#: Table II rows: (printed measure, candidate-graph count field).
TABLE2_ROWS = (
    ("#nodes", "n_nodes"),
    ("#undirected edges", "n_undirected_edges"),
    ("#undirected edges (no loops)", "n_undirected_edges_no_loops"),
    ("#directed edges", "n_directed_edges"),
    ("#directed edges (no loops)", "n_directed_edges_no_loops"),
    ("#trips", "n_trips"),
)

#: Tables IV-VI: (experiment, title, run-envelope block, partition key).
COMMUNITY_TABLES = (
    ("table4", "TABLE IV: COMMUNITIES IN G_BASIC", "basic", "partition"),
    ("table5", "TABLE V: COMMUNITIES IN G_DAY", "day", "station_partition"),
    ("table6", "TABLE VI: COMMUNITIES IN G_HOUR", "hour", "station_partition"),
)


@dataclass
class ExperimentOutput:
    """One regenerated artifact: values, text, and paper comparison."""

    experiment: str
    measured: dict[str, float]
    text: str
    series: dict[str, list[float]] = field(default_factory=dict)

    def comparisons(self) -> list[Comparison]:
        """Paper-vs-measured pairs for the recorded values."""
        return compare(self.experiment, self.measured)

    def to_dict(self) -> dict:
        """JSON-safe envelope: values, rendered text and any series."""
        return {
            "type": "ExperimentOutput",
            "experiment": self.experiment,
            "measured": dict(self.measured),
            "text": self.text,
            "series": {key: list(values) for key, values in self.series.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentOutput":
        """Exact inverse of :meth:`to_dict`."""
        check_envelope(payload, "ExperimentOutput")
        return cls(
            experiment=payload["experiment"],
            measured=dict(payload["measured"]),
            text=payload["text"],
            series={
                key: list(values) for key, values in payload["series"].items()
            },
        )


@dataclass(frozen=True)
class CommunityRow:
    """One row of the paper's community tables."""

    community: int
    n_old_stations: int
    n_new_stations: int
    trips_within: int
    trips_out: int
    trips_in: int

    @property
    def n_stations(self) -> int:
        """Total stations in the community."""
        return self.n_old_stations + self.n_new_stations

    @property
    def trips_total(self) -> int:
        """Within + out + in (the paper's Total column)."""
        return self.trips_within + self.trips_out + self.trips_in


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------


def od_pair_counts(pairs: Iterable[tuple[Hashable, Hashable]]) -> Counter:
    """Trips per distinct (origin, destination) pair, loops included."""
    return Counter(pairs)


def selected_graph_counts(
    kinds: Mapping[Hashable, str], pair_counts: Mapping[tuple, int]
) -> dict[str, int]:
    """The Table III counts; keys are ``SelectedNetworkStats``'s fields.

    A directed edge is a distinct origin -> destination pair, so the
    trip-flow graph's edge counts come straight from ``pair_counts``.
    """
    fixed = {station for station, kind in kinds.items() if kind == KIND_FIXED}
    n_trips = trips_from_fixed = trips_to_fixed = 0
    edges_from_fixed = edges_to_fixed = 0
    for (origin, destination), count in pair_counts.items():
        n_trips += count
        if origin in fixed:
            trips_from_fixed += count
            edges_from_fixed += 1
        if destination in fixed:
            trips_to_fixed += count
            edges_to_fixed += 1
    n_edges = len(pair_counts)
    return {
        "n_fixed": len(fixed),
        "n_selected": sum(1 for kind in kinds.values() if kind == KIND_SELECTED),
        "trips_from_fixed": trips_from_fixed,
        "trips_to_fixed": trips_to_fixed,
        "trips_from_selected": n_trips - trips_from_fixed,
        "trips_to_selected": n_trips - trips_to_fixed,
        "edges_from_fixed": edges_from_fixed,
        "edges_to_fixed": edges_to_fixed,
        "edges_from_selected": n_edges - edges_from_fixed,
        "edges_to_selected": n_edges - edges_to_fixed,
        "n_trips": n_trips,
        "n_directed_edges": n_edges,
    }


def community_rows(
    kinds: Mapping[Hashable, str],
    pair_counts: Mapping[tuple, int],
    assignment: Mapping[Hashable, int],
) -> list[CommunityRow]:
    """The Table IV/V/VI rows for one community assignment.

    Stations missing from the assignment (possible when a station has
    no trips at the given granularity) are skipped in the station
    counts; a trip endpoint missing from it raises :class:`KeyError`.
    """
    labels = sorted(set(assignment.values()))
    old = dict.fromkeys(labels, 0)
    new = dict.fromkeys(labels, 0)
    for station, kind in kinds.items():
        label = assignment.get(station)
        if label is None:
            continue
        if kind == KIND_SELECTED:
            new[label] += 1
        else:
            old[label] += 1
    within = dict.fromkeys(labels, 0)
    out = dict.fromkeys(labels, 0)
    into = dict.fromkeys(labels, 0)
    for (origin, destination), count in pair_counts.items():
        origin_label = assignment[origin]
        destination_label = assignment[destination]
        if origin_label == destination_label:
            within[origin_label] += count
        else:
            out[origin_label] += count
            into[destination_label] += count
    return [
        CommunityRow(
            community=label,
            n_old_stations=old[label],
            n_new_stations=new[label],
            trips_within=within[label],
            trips_out=out[label],
            trips_in=into[label],
        )
        for label in labels
    ]


def self_contained_share(
    pair_counts: Mapping[tuple, int], assignment: Mapping[Hashable, int]
) -> float:
    """Share of trips that start and end in the same community."""
    n_trips = sum(pair_counts.values())
    if n_trips == 0:
        return 0.0
    same = sum(
        count
        for (origin, destination), count in pair_counts.items()
        if assignment[origin] == assignment[destination]
    )
    return same / n_trips


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------


def table1(before: Mapping[str, int], after: Mapping[str, int]) -> ExperimentOutput:
    """Table I: dataset overview, original vs cleaned.

    ``before``/``after`` carry ``n_stations``, ``n_rentals`` and
    ``n_locations`` (a ``DatasetSummary``'s dict form).
    """
    measured = {
        "original_stations": float(before["n_stations"]),
        "original_rentals": float(before["n_rentals"]),
        "original_locations": float(before["n_locations"]),
        "cleaned_stations": float(after["n_stations"]),
        "cleaned_rentals": float(after["n_rentals"]),
        "cleaned_locations": float(after["n_locations"]),
    }
    text = format_table(
        ["Measures", "Original Dataset", "Cleaned Dataset"],
        [
            ["#stations", before["n_stations"], after["n_stations"]],
            ["#rental", before["n_rentals"], after["n_rentals"]],
            ["#location", before["n_locations"], after["n_locations"]],
        ],
        title="TABLE I: DATASET OVERVIEW",
    )
    return ExperimentOutput("table1", measured, text)


def table2(stats: Mapping[str, int]) -> ExperimentOutput:
    """Table II: the candidate graph generated by HAC.

    ``stats`` is a ``CandidateGraphStats``'s dict form.
    """
    measured = {key[2:]: float(stats[key]) for _, key in TABLE2_ROWS}
    text = format_table(
        ["Measures", "Numbers"],
        [(measure, stats[key]) for measure, key in TABLE2_ROWS],
        title="TABLE II: THE CANDIDATE GRAPH GENERATED BY HAC",
    )
    return ExperimentOutput("table2", measured, text)


def table3(
    kinds: Mapping[Hashable, str], pair_counts: Mapping[tuple, int]
) -> ExperimentOutput:
    """Table III: the selected graph."""
    stats = selected_graph_counts(kinds, pair_counts)
    n_stations = stats["n_fixed"] + stats["n_selected"]
    measured = {
        "pre_existing_stations": float(stats["n_fixed"]),
        "selected_stations": float(stats["n_selected"]),
        "total_stations": float(n_stations),
        "trips_from_pre_existing": float(stats["trips_from_fixed"]),
        "trips_to_pre_existing": float(stats["trips_to_fixed"]),
        "trips_from_selected": float(stats["trips_from_selected"]),
        "trips_to_selected": float(stats["trips_to_selected"]),
        "edges_from_pre_existing": float(stats["edges_from_fixed"]),
        "edges_to_pre_existing": float(stats["edges_to_fixed"]),
        "edges_from_selected": float(stats["edges_from_selected"]),
        "edges_to_selected": float(stats["edges_to_selected"]),
        "total_edges": float(stats["n_directed_edges"]),
    }
    text = format_table(
        ["Stations", "Count", "Trips From", "Trips To", "Edges From", "Edges To"],
        [
            [
                "Pre-existing", stats["n_fixed"],
                stats["trips_from_fixed"], stats["trips_to_fixed"],
                stats["edges_from_fixed"], stats["edges_to_fixed"],
            ],
            [
                "Selected", stats["n_selected"],
                stats["trips_from_selected"], stats["trips_to_selected"],
                stats["edges_from_selected"], stats["edges_to_selected"],
            ],
            [
                "Total", n_stations,
                stats["n_trips"], stats["n_trips"],
                stats["n_directed_edges"], stats["n_directed_edges"],
            ],
        ],
        title="TABLE III: DETAILS OF THE SELECTED GRAPH",
    )
    return ExperimentOutput("table3", measured, text)


def community_table(
    name: str,
    title: str,
    kinds: Mapping[Hashable, str],
    pair_counts: Mapping[tuple, int],
    assignment: Mapping[Hashable, int],
    modularity: float,
) -> ExperimentOutput:
    """Table IV, V or VI: one community structure's rows and shares."""
    rows = community_rows(kinds, pair_counts, assignment)
    containment = self_contained_share(pair_counts, assignment)
    measured = {
        "n_communities": float(len(rows)),
        "modularity": modularity,
        "self_containment": containment,
    }
    table = format_table(
        ["ID", "Color", "Old", "New", "Total", "Within", "Out", "In", "Total trips"],
        [
            [
                row.community,
                colour_name(row.community),
                row.n_old_stations,
                row.n_new_stations,
                row.n_stations,
                row.trips_within,
                row.trips_out,
                row.trips_in,
                row.trips_total,
            ]
            for row in rows
        ],
        title=title,
    )
    text = "\n".join(
        [
            table,
            f"modularity Q = {modularity:.3f}; "
            f"self-contained trips = {containment:.1%}",
        ]
    )
    return ExperimentOutput(name, measured, text)


def tables_from_envelope(run: Mapping[str, Any]) -> list[ExperimentOutput]:
    """Tables I-VI of a stored run, read from its envelope dict.

    ``run`` is an envelope's ``outputs.run`` block (an
    ``ExpansionResult.to_dict()``); the outputs equal
    ``experiment_table1..6`` over ``ExpansionResult.from_dict(run)``.
    """
    check_envelope(run, "ExpansionResult")
    report = run["cleaning_report"]
    network = run["network"]
    kinds = {station["station_id"]: station["kind"] for station in network["stations"]}
    pair_counts = od_pair_counts((trip[0], trip[1]) for trip in network["trips"])
    outputs = [
        table1(report["before"], report["after"]),
        table2(run["candidates"]["stats"]),
        table3(kinds, pair_counts),
    ]
    for name, title, block, key in COMMUNITY_TABLES:
        outputs.append(
            community_table(
                name,
                title,
                kinds,
                pair_counts,
                decode_assignment(run[block][key]["assignment"]),
                run[block]["modularity"],
            )
        )
    return outputs
