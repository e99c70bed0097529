"""Printing a stored ``repro run``: Tables I-VI from the envelope dict.

A replay prints the tables from the stored envelope's counts, through
the same layouts the object path (``experiment_table1..6``) uses, and
imports only the code it runs.  These tests pin:

* the replay's imports (a fresh process, so the test process's own
  imports cannot hide one);
* the printed text of a compute and of a replay against
  ``experiment_table1..6(ExpansionResult.from_dict(run))`` and
  :func:`tables_from_envelope`;
* the pair-count helpers against per-trip brute force, and Table III
  against the directed trip-flow graph it used to be read from.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.core.graphs import KIND_FIXED, KIND_SELECTED, SelectedNetwork, Station, TripOD
from repro.core.results import ExpansionResult
from repro.geo import GeoPoint
from repro.reporting import (
    experiment_table1,
    experiment_table2,
    experiment_table3,
    experiment_table4,
    experiment_table5,
    experiment_table6,
)
from repro.reporting.paper_tables import (
    community_rows,
    od_pair_counts,
    self_contained_share,
    tables_from_envelope,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: What a replay must not load: the pipeline and everything under it.
REPLAY_FORBIDDEN = (
    "numpy",
    "repro.core",
    "repro.cluster",
    "repro.pipeline.runner",
    "repro.service.http",
)

#: Runs the CLI in a fresh interpreter, then reports which of the
#: forbidden modules it loaded on stderr's last line.
_PROBE = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
forbidden = {forbidden!r}
loaded = [name for name in forbidden if name in sys.modules]
sys.stderr.write(json.dumps({{"code": code, "loaded": loaded}}) + "\\n")
"""


def _run_in_process(args: list[str], capsys) -> str:
    capsys.readouterr()
    assert cli.main(args) == 0
    return capsys.readouterr().out


def _run_in_child(args: list[str], cwd: Path) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(forbidden=REPLAY_FORBIDDEN), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        check=True,
        timeout=300,
    )
    report = json.loads(proc.stderr.decode("utf-8").strip().splitlines()[-1])
    return proc.stdout.decode("utf-8"), report


def _object_path_outputs(run: dict) -> list:
    result = ExpansionResult.from_dict(run)
    return [
        experiment_table1(result.cleaning_report),
        experiment_table2(result),
        experiment_table3(result),
        experiment_table4(result),
        experiment_table5(result),
        experiment_table6(result),
    ]


def _check_printed_tables(tmp_path: Path, data: Path, capsys) -> None:
    """Compute in process, replay in a fresh one; both print the tables
    the object path renders, and the replay loads no pipeline code."""
    args = ["run", "--data", str(data), "--store-dir", str(tmp_path / "store")]
    computed = _run_in_process(args, capsys)
    replayed, report = _run_in_child(args, tmp_path)
    assert report == {"code": 0, "loaded": []}
    envelope = json.loads(_run_in_process(args + ["--format", "json"], capsys))
    run = envelope["outputs"]["run"]
    from_objects = _object_path_outputs(run)
    expected = "".join(f"{output.text}\n\n" for output in from_objects)
    assert computed == expected
    assert replayed == expected
    assert [output.to_dict() for output in tables_from_envelope(run)] == [
        output.to_dict() for output in from_objects
    ]


def test_replay_prints_the_object_path_tables_without_the_pipeline(
    small_raw, tmp_path, capsys
):
    data = tmp_path / "export"
    small_raw.to_csv(data)
    _check_printed_tables(tmp_path, data, capsys)


@pytest.mark.slow
def test_paper_export_replay_prints_the_object_path_tables(tmp_path, capsys):
    from repro.synth import generate_paper_dataset
    from tests.conftest import require_numpy

    require_numpy()
    data = tmp_path / "export"
    generate_paper_dataset(seed=7).to_csv(data)
    _check_printed_tables(tmp_path, data, capsys)


# ---------------------------------------------------------------------------
# Pair counts against per-trip brute force
# ---------------------------------------------------------------------------


@st.composite
def networks(draw):
    """Stations with kinds, trips between them (loops and repeats
    included) and a community assignment covering every trip endpoint."""
    n_stations = draw(st.integers(min_value=1, max_value=12))
    station_ids = list(range(n_stations))
    kinds = {
        station: draw(st.sampled_from((KIND_FIXED, KIND_SELECTED)))
        for station in station_ids
    }
    endpoint = st.sampled_from(station_ids)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=60))
    labels = st.integers(min_value=1, max_value=4)
    assignment = {station: draw(labels) for station in station_ids}
    # Stations no trip touches may sit outside the assignment.
    touched = {station for pair in pairs for station in pair}
    for station in station_ids:
        if station not in touched and draw(st.booleans()):
            del assignment[station]
    if not assignment:
        assignment[station_ids[0]] = 1
    return kinds, pairs, assignment


def _brute_force_rows(kinds, pairs, assignment):
    """The per-trip community table, counted one trip at a time."""
    rows = {}
    for label in sorted(set(assignment.values())):
        rows[label] = {"old": 0, "new": 0, "within": 0, "out": 0, "in": 0}
    for station, kind in kinds.items():
        if station in assignment:
            rows[assignment[station]]["new" if kind == KIND_SELECTED else "old"] += 1
    for origin, destination in pairs:
        if assignment[origin] == assignment[destination]:
            rows[assignment[origin]]["within"] += 1
        else:
            rows[assignment[origin]]["out"] += 1
            rows[assignment[destination]]["in"] += 1
    return rows


class TestPairCounts:
    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_community_rows_equal_per_trip_counts(self, network):
        kinds, pairs, assignment = network
        rows = community_rows(kinds, od_pair_counts(pairs), assignment)
        expected = _brute_force_rows(kinds, pairs, assignment)
        assert [row.community for row in rows] == list(expected)
        for row in rows:
            counts = expected[row.community]
            assert (
                row.n_old_stations,
                row.n_new_stations,
                row.trips_within,
                row.trips_out,
                row.trips_in,
            ) == (
                counts["old"],
                counts["new"],
                counts["within"],
                counts["out"],
                counts["in"],
            )

    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_self_containment_equals_per_trip_share(self, network):
        _, pairs, assignment = network
        same = sum(
            1 for origin, destination in pairs
            if assignment[origin] == assignment[destination]
        )
        expected = same / len(pairs) if pairs else 0.0
        assert self_contained_share(od_pair_counts(pairs), assignment) == expected

    @settings(max_examples=150, deadline=None)
    @given(networks(), st.integers(min_value=0, max_value=6))
    def test_table3_equals_the_directed_flow_graph(self, network, day):
        kinds, pairs, _ = network
        stations = {
            station: Station(station, GeoPoint(53.35, -6.26), kind, f"s{station}")
            for station, kind in kinds.items()
        }
        selected = SelectedNetwork(
            stations=stations,
            location_to_station={},
            trips=[TripOD(origin, destination, day, 8) for origin, destination in pairs],
        )
        fixed = {s for s, kind in kinds.items() if kind == KIND_FIXED}
        edges = [(u, v) for u, v, _ in selected.directed_flow().edges()]
        stats = selected.stats()
        assert stats.n_directed_edges == len(edges)
        assert stats.edges_from_fixed == sum(1 for u, _ in edges if u in fixed)
        assert stats.edges_to_fixed == sum(1 for _, v in edges if v in fixed)
        assert stats.edges_from_selected == len(edges) - stats.edges_from_fixed
        assert stats.edges_to_selected == len(edges) - stats.edges_to_fixed
        assert stats.n_trips == len(pairs)
        assert stats.trips_from_fixed == sum(1 for o, _ in pairs if o in fixed)
        assert stats.trips_to_fixed == sum(1 for _, d in pairs if d in fixed)
        assert stats.n_fixed == len(fixed)
        assert stats.n_selected == len(kinds) - len(fixed)
