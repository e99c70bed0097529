"""Golden regression suite: the paper's headline numbers, pinned.

The seeded paper dataset (seed 7) is fully deterministic, so the
numbers behind Tables II-VI — candidate-graph counts, the selection
outcome, and the modularity/community structure at each temporal
granularity — are pinned bit-for-bit in ``tests/goldens/paper_seed7.json``.
Any refactor of the pipeline must leave them untouched; a deliberate
behaviour change regenerates the fixture with::

    pytest tests/test_golden_paper.py --update-goldens

Both entry points are pinned to the same goldens: the legacy
``NetworkExpansionOptimiser.run()`` facade and a direct
``PipelineRunner`` run.
"""

import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

GOLDEN_PATH = Path(__file__).parent / "goldens" / "paper_seed7.json"

#: Modularity is pinned to this many decimals (the pipeline is
#: deterministic; rounding only guards against pickle/json float noise).
MODULARITY_DECIMALS = 9


def collect_goldens(result) -> dict:
    """The headline numbers of Tables I-VI for one pipeline result."""
    candidate_stats = result.candidates.stats()
    network_stats = result.network.stats()
    return {
        "table1_dataset": {
            "original_stations": result.cleaning_report.before.n_stations,
            "original_rentals": result.cleaning_report.before.n_rentals,
            "original_locations": result.cleaning_report.before.n_locations,
            "cleaned_stations": result.cleaning_report.after.n_stations,
            "cleaned_rentals": result.cleaning_report.after.n_rentals,
            "cleaned_locations": result.cleaning_report.after.n_locations,
        },
        "table2_candidates": {
            "nodes": candidate_stats.n_nodes,
            "undirected_edges": candidate_stats.n_undirected_edges,
            "undirected_edges_no_loops": candidate_stats.n_undirected_edges_no_loops,
            "directed_edges": candidate_stats.n_directed_edges,
            "directed_edges_no_loops": candidate_stats.n_directed_edges_no_loops,
            "trips": candidate_stats.n_trips,
        },
        "table3_selected": {
            "n_fixed": network_stats.n_fixed,
            "n_selected": network_stats.n_selected,
            "n_trips": network_stats.n_trips,
            "n_directed_edges": network_stats.n_directed_edges,
        },
        "table4_gbasic": {
            "n_communities": result.basic.n_communities,
            "modularity": round(result.basic.modularity, MODULARITY_DECIMALS),
        },
        "table5_gday": {
            "n_communities": result.day.n_communities,
            "n_slices": result.day.n_slices,
            "modularity": round(result.day.modularity, MODULARITY_DECIMALS),
        },
        "table6_ghour": {
            "n_communities": result.hour.n_communities,
            "n_slices": result.hour.n_slices,
            "modularity": round(result.hour.modularity, MODULARITY_DECIMALS),
        },
    }


@pytest.fixture(scope="session")
def goldens(request, paper_result) -> dict:
    """The golden fixture, regenerated under ``--update-goldens``."""
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(collect_goldens(paper_result), indent=2, sort_keys=True)
            + "\n"
        )
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} is missing; run pytest with --update-goldens"
        )
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches(measured: dict, goldens: dict) -> None:
    assert measured.keys() == goldens.keys()
    for table, golden_values in goldens.items():
        assert measured[table] == golden_values, (
            f"{table} drifted from the golden fixture: "
            f"expected {golden_values}, measured {measured[table]} "
            "(if the change is deliberate, rerun with --update-goldens)"
        )


class TestGoldenFacade:
    """Legacy ``NetworkExpansionOptimiser.run()`` path."""

    def test_headline_numbers_pinned(self, paper_result, goldens):
        _assert_matches(collect_goldens(paper_result), goldens)


class TestGoldenRunner:
    """Direct ``PipelineRunner`` path."""

    def test_headline_numbers_pinned(self, paper_runner_result, goldens):
        _assert_matches(collect_goldens(paper_runner_result), goldens)

    def test_partitions_identical_across_paths(
        self, paper_result, paper_runner_result
    ):
        assert paper_result.basic.partition == paper_runner_result.basic.partition
        assert (
            paper_result.day.station_partition
            == paper_runner_result.day.station_partition
        )
        assert (
            paper_result.hour.station_partition
            == paper_runner_result.hour.station_partition
        )
