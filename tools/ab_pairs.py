"""Alternating A/B pairs of the end-to-end benchmark, with a summary.

Runs ``python3 e2ebench/run.py --workload W --seed S --seconds T
--trace 0`` in two checkouts of the repository — a parent and a change
— ``N`` times each, alternating which side runs first in a pair, then
prints per metric each side's median and quartiles, the parent's
inter-quartile range, how many pairs the change won, and the
operations attempted and failed on each side.  Alternation and the
IQR comparison follow Kalibera & Jones, *Rigorous Benchmarking in
Reasonable Time* (ISMM 2013): the box's speed drifts over tens of
seconds, so a one-sided run order would hand the drift to one side.

Usage::

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload cli_run --seed 7 --pairs 10 [--record runs.jsonl]

Each checkout runs its own ``e2ebench/`` against its own ``src/``; the
benchmark keeps its scratch files under that checkout's ``.e2ebench/``
and removes them.  This script writes nothing but what ``--record``
names: one JSON line per finished run, so the numbers of an
interrupted series survive, and ``--summarize runs.jsonl`` prints the
summary of such a file without running anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between order statistics.

    The ``inclusive`` method: q1 and q3 of ``[1, 2, 3, 4]`` are 1.75 and
    3.25 (numpy's default percentile rule).
    """
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    pairs: list[dict[str, dict]], better: dict[str, str]
) -> dict[str, dict]:
    """Per-metric summary of completed pairs.

    ``pairs`` holds one ``{"parent": result, "change": result}`` per
    pair, each result the JSON object ``e2ebench/run.py`` prints last;
    ``better`` maps each metric to ``"lower"`` or ``"higher"``.  A pair
    is a win when the change is strictly better in it; the claimed gain
    holds when the medians differ by more than the parent's IQR.
    """
    summary: dict[str, dict] = {}
    for metric, direction in better.items():
        values = {
            side: [pair[side]["metrics"][metric]["value"] for pair in pairs]
            for side in SIDES
        }
        wins = sum(
            1
            for parent, change in zip(values["parent"], values["change"])
            if (change < parent if direction == "lower" else change > parent)
        )
        sides = {side: quartiles(values[side]) for side in SIDES}
        parent_iqr = sides["parent"][2] - sides["parent"][0]
        delta = sides["change"][1] - sides["parent"][1]
        summary[metric] = {
            "better": direction,
            "parent": sides["parent"],
            "change": sides["change"],
            "parent_iqr": parent_iqr,
            "delta": delta,
            "delta_pct": 100.0 * delta / sides["parent"][1]
            if sides["parent"][1]
            else float("nan"),
            "wins": wins,
            "pairs": len(pairs),
            "beyond_iqr": abs(delta) > parent_iqr,
        }
    return summary


def operations(pairs: list[dict[str, dict]]) -> dict[str, dict]:
    """Operations attempted and failed per side, per run and in total."""
    return {
        side: {
            "attempted": [pair[side]["attempted"] for pair in pairs],
            "failed": [pair[side]["failed"] for pair in pairs],
            "correct": all(pair[side]["correct"] for pair in pairs),
        }
        for side in SIDES
    }


def render(summary: dict[str, dict], ops: dict[str, dict]) -> str:
    """The summary as aligned text."""

    def triple(values: tuple[float, float, float]) -> str:
        q1, median, q3 = values
        return f"{median:10.4f} [{q1:.4f}, {q3:.4f}]"

    lines = [
        f"{'metric':14s} {'parent median [q1, q3]':>30s} "
        f"{'change median [q1, q3]':>30s} {'parent IQR':>10s} "
        f"{'delta':>8s} {'wins':>6s}  gap > IQR"
    ]
    for metric, entry in summary.items():
        lines.append(
            f"{metric:14s} {triple(entry['parent']):>30s} "
            f"{triple(entry['change']):>30s} {entry['parent_iqr']:10.4f} "
            f"{entry['delta_pct']:+7.1f}% {entry['wins']:>2d}/{entry['pairs']:<3d}  "
            f"{'yes' if entry['beyond_iqr'] else 'no'}"
        )
    for side in SIDES:
        attempted, failed = ops[side]["attempted"], ops[side]["failed"]
        lines.append(
            f"{side}: operations attempted {sum(attempted)} "
            f"(per run {','.join(map(str, attempted))}), failed {sum(failed)}, "
            f"self-test {'passed' if ops[side]['correct'] else 'FAILED'}"
        )
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced ``e2ebench/run.py`` run in ``checkout``; its result."""
    proc = subprocess.run(
        [
            sys.executable, "e2ebench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"e2ebench in {checkout} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _better(checkout: Path) -> dict[str, str]:
    """Metric -> better direction, from the checkout's BENCHMARK.json."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["better"] for entry in declared["end_to_end"]}


def _load_pairs(path: Path) -> list[dict[str, dict]]:
    """Complete pairs from a ``--record`` file."""
    runs: dict[int, dict[str, dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["pair"], {})[record["side"]] = record["result"]
    return [runs[index] for index in sorted(runs) if len(runs[index]) == 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the parent checkout")
    parser.add_argument("--change", type=Path, help="the changed checkout")
    parser.add_argument("--workload", choices=("cli_run", "serve_live"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record", type=Path, default=None,
                        help="append one JSON line per finished run here")
    parser.add_argument("--summarize", type=Path, default=None,
                        metavar="RECORD",
                        help="print the summary of a --record file and exit")
    args = parser.parse_args(argv)
    if args.summarize is not None:
        pairs = _load_pairs(args.summarize)
        root = Path(__file__).resolve().parent.parent
        print(render(summarize(pairs, _better(root)), operations(pairs)))
        return 0
    if args.parent is None or args.change is None or args.workload is None:
        parser.error("--parent, --change and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = _better(args.change)
    checkouts = {"parent": args.parent, "change": args.change}
    pairs: list[dict[str, dict]] = []
    for index in range(args.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair: dict[str, dict] = {}
        for side in order:
            result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            pair[side] = result
            values = {name: round(entry["value"], 4)
                      for name, entry in result["metrics"].items()}
            print(f"pair {index + 1}/{args.pairs} {side}: {values} "
                  f"attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr, flush=True)
            if args.record is not None:
                with open(args.record, "a") as handle:
                    handle.write(json.dumps({"pair": index, "side": side,
                                             "workload": args.workload,
                                             "seed": args.seed,
                                             "result": result}) + "\n")
        pairs.append(pair)
    print(render(summarize(pairs, better), operations(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
