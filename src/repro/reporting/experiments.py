"""Per-experiment runners: regenerate every table and figure.

Each ``experiment_*`` function consumes pipeline outputs and returns an
:class:`ExperimentOutput` holding (a) the measured values keyed like
:mod:`repro.reporting.comparison`'s ``PAPER`` entries and (b) a
formatted text rendition in the paper's layout.  The benches print the
text and assert on the values.

Tables I-VI only extract counts here — station kinds, trips per
origin -> destination pair, community assignments — and hand them to
the layouts in :mod:`repro.reporting.paper_tables`, which render a
stored run envelope through the very same code.
"""

from __future__ import annotations

from ..core import DAY_NAMES, ExpansionResult, daily_profile, hourly_profile
from ..data import CleaningReport
from .paper_tables import (
    COMMUNITY_TABLES,
    ExperimentOutput,
    community_table,
    table1,
    table2,
    table3,
)
from .tables import format_series, format_table


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def experiment_table1(report: CleaningReport) -> ExperimentOutput:
    """Table I: dataset overview, original vs cleaned."""
    return table1(report.before.to_dict(), report.after.to_dict())


def experiment_table2(result: ExpansionResult) -> ExperimentOutput:
    """Table II: the candidate graph generated by HAC."""
    return table2(result.candidates.stats().to_dict())


def experiment_table3(result: ExpansionResult) -> ExperimentOutput:
    """Table III: the selected graph."""
    network = result.network
    return table3(network.station_kinds(), network.od_pair_counts())


def _community_experiment(
    index: int, result: ExpansionResult, assignment, modularity: float
) -> ExperimentOutput:
    name, title, _, _ = COMMUNITY_TABLES[index]
    network = result.network
    return community_table(
        name,
        title,
        network.station_kinds(),
        network.od_pair_counts(),
        assignment,
        modularity,
    )


def experiment_table4(result: ExpansionResult) -> ExperimentOutput:
    """Table IV: communities in G_Basic."""
    basic = result.basic
    return _community_experiment(0, result, basic.partition.assignment, basic.modularity)


def experiment_table5(result: ExpansionResult) -> ExperimentOutput:
    """Table V: communities in G_Day."""
    day = result.day
    return _community_experiment(
        1, result, day.station_partition.assignment, day.modularity
    )


def experiment_table6(result: ExpansionResult) -> ExperimentOutput:
    """Table VI: communities in G_Hour."""
    hour = result.hour
    return _community_experiment(
        2, result, hour.station_partition.assignment, hour.modularity
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_summary(
    entries: list[tuple[str, ExpansionResult]],
    title: str = "SCENARIO SWEEP",
) -> str:
    """One row of headline numbers per sweep scenario.

    ``entries`` pairs a scenario label (typically its overrides) with
    the pipeline result — the shape ``repro sweep`` and
    :meth:`NetworkExpansionOptimiser.run_sweep` produce.
    """
    rows = [
        [
            label,
            result.selection.n_selected,
            len(result.network.stations),
            f"{result.basic.modularity:.3f}",
            f"{result.day.modularity:.3f}",
            f"{result.hour.modularity:.3f}",
            result.basic.n_communities,
            result.day.n_communities,
            result.hour.n_communities,
        ]
        for label, result in entries
    ]
    return format_table(
        [
            "Scenario", "New", "Total",
            "Q basic", "Q day", "Q hour",
            "C basic", "C day", "C hour",
        ],
        rows,
        title=title,
    )


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def experiment_fig5(result: ExpansionResult) -> ExperimentOutput:
    """Figure 5: daily travel patterns per G_Day community."""
    profiles = daily_profile(result.network.trips, result.day.station_partition)
    lines = [
        format_series(f"community {label}", list(DAY_NAMES), values)
        for label, values in sorted(profiles.items())
    ]
    measured = {"n_communities": float(len(profiles))}
    return ExperimentOutput(
        "fig5",
        measured,
        "FIG 5: DAILY TRAVEL PATTERNS PER COMMUNITY (G_DAY)\n" + "\n".join(lines),
        series={str(label): list(values) for label, values in profiles.items()},
    )


def experiment_fig7(result: ExpansionResult) -> ExperimentOutput:
    """Figure 7: hourly travel patterns per G_Hour community."""
    profiles = hourly_profile(result.network.trips, result.hour.station_partition)
    hour_labels = [f"{hour:02d}" for hour in range(24)]
    lines = [
        format_series(f"community {label}", hour_labels, values)
        for label, values in sorted(profiles.items())
    ]
    measured = {"n_communities": float(len(profiles))}
    return ExperimentOutput(
        "fig7",
        measured,
        "FIG 7: HOURLY TRAVEL PATTERNS PER COMMUNITY (G_HOUR)\n" + "\n".join(lines),
        series={str(label): list(values) for label, values in profiles.items()},
    )
