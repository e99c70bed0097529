"""The summary arithmetic of ``tools/ab_pairs.py`` on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def result(replay_s: float, peak: float, attempted: int = 12, failed: int = 0) -> dict:
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "replay_s": {"value": replay_s, "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        },
    }


PAIRS = [
    {"parent": result(1.0, 500.0), "change": result(0.30, 500.0)},
    {"parent": result(1.2, 510.0), "change": result(0.35, 505.0)},
    {"parent": result(0.9, 490.0), "change": result(0.95, 495.0, attempted=14)},
    {"parent": result(1.1, 500.0), "change": result(0.40, 520.0, failed=1)},
]
BETTER = {"replay_s": "lower", "peak_rss_mib": "lower"}


class TestQuartiles:
    def test_inclusive_interpolation(self):
        assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)

    def test_odd_count_median_is_the_middle_value(self):
        assert ab_pairs.quartiles([5.0, 1.0, 3.0]) == (2.0, 3.0, 4.0)

    def test_one_value(self):
        assert ab_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)

    def test_no_values(self):
        with pytest.raises(ValueError):
            ab_pairs.quartiles([])


class TestSummary:
    def test_medians_iqr_wins_and_gap(self):
        summary = ab_pairs.summarize(PAIRS, BETTER)
        replay = summary["replay_s"]
        # parent [0.9, 1.0, 1.1, 1.2]: q1 0.975, median 1.05, q3 1.125
        assert replay["parent"] == pytest.approx((0.975, 1.05, 1.125))
        # change [0.30, 0.35, 0.40, 0.95]: q1 0.3375, median 0.375, q3 0.5375
        assert replay["change"] == pytest.approx((0.3375, 0.375, 0.5375))
        assert replay["parent_iqr"] == pytest.approx(0.15)
        assert replay["delta"] == pytest.approx(-0.675)
        assert replay["delta_pct"] == pytest.approx(-64.2857, abs=1e-3)
        assert replay["wins"] == 3 and replay["pairs"] == 4
        assert replay["beyond_iqr"] is True

    def test_ties_are_not_wins_and_small_gaps_stay_inside_the_iqr(self):
        peak = ab_pairs.summarize(PAIRS, BETTER)["peak_rss_mib"]
        # parent [490, 500, 500, 510]: q1 497.5, q3 502.5; change median 502.5
        assert peak["parent_iqr"] == pytest.approx(5.0)
        assert peak["delta"] == pytest.approx(2.5)
        assert peak["wins"] == 1  # 505 < 510 only; 500 == 500 is a tie
        assert peak["beyond_iqr"] is False

    def test_higher_is_better_counts_the_other_way(self):
        summary = ab_pairs.summarize(PAIRS, {"replay_s": "higher"})
        assert summary["replay_s"]["wins"] == 1

    def test_operations_per_side(self):
        ops = ab_pairs.operations(PAIRS)
        assert ops["parent"]["attempted"] == [12, 12, 12, 12]
        assert ops["change"]["attempted"] == [12, 12, 14, 12]
        assert sum(ops["change"]["failed"]) == 1
        text = ab_pairs.render(ab_pairs.summarize(PAIRS, BETTER), ops)
        assert "replay_s" in text and "3/4" in text
        assert "change: operations attempted 50" in text


def test_record_file_round_trips_complete_pairs(tmp_path):
    record = tmp_path / "runs.jsonl"
    lines = []
    for index, pair in enumerate(PAIRS):
        for side in ("change", "parent") if index % 2 else ("parent", "change"):
            lines.append({"pair": index, "side": side, "result": pair[side]})
    lines.append({"pair": 9, "side": "parent", "result": PAIRS[0]["parent"]})
    record.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert ab_pairs._load_pairs(record) == PAIRS  # the lone run is dropped
