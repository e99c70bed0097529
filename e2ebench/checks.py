"""Output checks, computed apart from the program.

Each check raises :class:`~common.CheckFailed` with a message.  They run
outside the timed operations; a failed check counts as a failed
operation.  :func:`self_test` shows on a real envelope that each check
rejects tampered output.
"""

from __future__ import annotations

import copy
import json
import re

import networkx as nx
from networkx.algorithms.community import modularity

from common import CheckFailed

MODULARITY_TOLERANCE = 1e-9


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_gbasic(envelope: dict) -> None:
    """G_Basic's modularity, recomputed with networkx, is the reported one.

    The graph is rebuilt from the envelope's station roster and OD trips
    (undirected, one unit of weight per trip, self-loops kept), and
    every station must carry exactly one community.
    """
    run = envelope["outputs"]["run"]
    stations = [entry["station_id"] for entry in run["network"]["stations"]]
    pairs = run["basic"]["partition"]["assignment"]
    labelled = [node for node, _ in pairs]
    require(len(labelled) == len(set(labelled)),
            "a station carries more than one community")
    require(set(labelled) == set(stations),
            f"{len(set(stations) ^ set(labelled))} stations lack exactly one "
            "community")
    graph = nx.Graph()
    graph.add_nodes_from(stations)
    for origin, destination, *_ in run["network"]["trips"]:
        if graph.has_edge(origin, destination):
            graph[origin][destination]["weight"] += 1.0
        else:
            graph.add_edge(origin, destination, weight=1.0)
    communities: dict[int, set] = {}
    for node, label in pairs:
        communities.setdefault(label, set()).add(node)
    recomputed = modularity(graph, communities.values(), weight="weight")
    reported = run["basic"]["modularity"]
    require(abs(recomputed - reported) <= MODULARITY_TOLERANCE,
            f"G_Basic modularity {reported!r} != networkx {recomputed!r}")


def check_table1(table1: dict, stations: int, rentals: int, locations: int) -> None:
    """Table I's original counts equal the rows the benchmark counted."""
    expected = {"original_stations": stations, "original_rentals": rentals,
                "original_locations": locations}
    actual = {key: table1.get(key) for key in expected}
    require(actual == expected, f"Table I original counts {actual} != {expected}")


_TABLE1_ROW = re.compile(r"^\|\s*#(station|rental|location)s?\s*\|\s*([\d,]+)\s*\|")


def table1_from_text(text: str) -> dict:
    """Table I's original column, parsed from ``repro run``'s text output."""
    counts = {}
    lines = text.split("TABLE I:", 1)[-1].split("TABLE II:", 1)[0].splitlines()
    for line in lines:
        match = _TABLE1_ROW.match(line)
        if match:
            counts[f"original_{match.group(1)}s"] = int(match.group(2).replace(",", ""))
    return counts


def check_same_bytes(replayed: bytes, stored: bytes, what: str) -> None:
    require(replayed == stored,
            f"{what}: {len(replayed)} bytes differ from the stored answer's "
            f"{len(stored)}")


def outputs_text(envelope_text: str) -> str:
    """The exact ``"outputs"`` value of a canonical envelope, as text."""
    decoder = json.JSONDecoder()
    start = envelope_text.index('\n  "outputs": ') + len('\n  "outputs": ')
    _, end = decoder.raw_decode(envelope_text, start)
    return envelope_text[start:end]


def self_test(envelope: dict, table1: dict) -> list[str]:
    """Tamper with real output three ways; each check must reject it.

    Returns the tampers a check let through (empty when all were caught).
    """
    counts = dict(stations=table1["original_stations"],
                  rentals=table1["original_rentals"],
                  locations=table1["original_locations"])
    check_gbasic(envelope)
    check_table1(table1, **counts)
    escaped = []

    moved = copy.deepcopy(envelope)
    pairs = moved["outputs"]["run"]["basic"]["partition"]["assignment"]
    labels = sorted({label for _, label in pairs})
    pairs[0][1] = labels[(labels.index(pairs[0][1]) + 1) % len(labels)]
    dropped = copy.deepcopy(envelope)
    dropped["outputs"]["run"]["network"]["trips"].pop()
    off_by_one = dict(table1, original_rentals=table1["original_rentals"] + 1)
    for name, attempt in (
        ("station moved to another community", lambda: check_gbasic(moved)),
        ("one trip dropped", lambda: check_gbasic(dropped)),
        ("Table I count off by one", lambda: check_table1(off_by_one, **counts)),
    ):
        try:
            attempt()
        except CheckFailed:
            continue
        escaped.append(name)
    return escaped
