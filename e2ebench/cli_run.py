"""``cli_run``: the analyst's command, spawn to exit with the tables printed.

Set-up writes :data:`EXPORTS` trip exports with ``repro generate``, one
per seed of :func:`export_seeds`; each ``generate`` is one timed set-up
and ``setup_s`` is their median.  Round ``r`` then works on export
``r % EXPORTS`` and times

* one *compute*: ``repro run --data <export> --store-dir <empty store>``,
  where every pipeline stage runs, and
* one *replay*: the same command on the store the compute filled, where
  no stage runs and the result comes from the results store.

Rounds repeat until ``--seconds`` have passed, and at least once per
export: the program's peak memory and cost depend on the export, so
every run covers the same three.  Every round checks the printed
Table I against the export's CSV rows and the replay's stdout against
the compute's, byte for byte; once per run the last stored envelope is
fetched with ``--format json`` (untimed) for the networkx modularity
check and the tamper self-test.
"""

from __future__ import annotations

import json
import time

import checks
from common import BenchError, CheckFailed, fresh_dir, run_child
from inputs import Export

EXPORTS = 3


def export_seeds(seed: int) -> list[int]:
    """The generator seeds of one run: ``seed`` itself, then two far apart."""
    return [seed + 10007 * index for index in range(EXPORTS)]


def _run_args(export: int) -> list[str]:
    return ["run", "--data", f"export-{export}", "--store-dir", "store"]


def _round(ctx, export: int, counts: dict, spans) -> bytes:
    """One compute and one replay on ``export``; returns the compute's stdout."""
    tally = ctx.tally
    fresh_dir(ctx.work / "store")
    compute = run_child(_run_args(export), cwd=ctx.work, log=ctx.log, spans=spans)
    tally.peak_rss_kib = max(tally.peak_rss_kib, compute.maxrss_kib)
    if compute.returncode != 0:
        raise BenchError(f"repro run exited {compute.returncode}")
    note = ""
    try:
        text = compute.stdout.decode("utf-8")
        checks.require(text.count("TABLE ") == 6, "expected six tables")
        checks.check_table1(checks.table1_from_text(text), **counts)
    except CheckFailed as error:
        note = str(error)
    tally.record("compute", compute.start, compute.end, not note, note)

    replay = run_child(_run_args(export), cwd=ctx.work, log=ctx.log, spans=spans)
    tally.peak_rss_kib = max(tally.peak_rss_kib, replay.maxrss_kib)
    if replay.returncode != 0:
        raise BenchError(f"repro run (replay) exited {replay.returncode}")
    note = ""
    try:
        checks.check_same_bytes(replay.stdout, compute.stdout, "replay stdout")
    except CheckFailed as error:
        note = str(error)
    tally.record("replay", replay.start, replay.end, not note, note)
    return compute.stdout


def _rounds(ctx, counts: list[dict], seconds: float, spans) -> tuple[int, bytes]:
    """Rounds for ``seconds``; returns the last round's export and stdout."""
    deadline = time.monotonic() + seconds
    done = 0
    while done < EXPORTS or time.monotonic() < deadline:
        export = done % EXPORTS
        text = _round(ctx, export, counts[export], spans)
        done += 1
    return export, text


def _final_checks(ctx, counts: dict, export: int, text: bytes) -> None:
    """The stored envelope's checks and the self-test (untimed)."""
    shown = run_child(_run_args(export) + ["--format", "json"], cwd=ctx.work,
                      log=ctx.log)
    if shown.returncode != 0:
        raise BenchError(f"repro run --format json exited {shown.returncode}")
    envelope = json.loads(shown.stdout)
    headline = envelope["outputs"]["run"]["headline"]
    try:
        checks.check_gbasic(envelope)
        checks.check_table1(headline["table1_dataset"], **counts)
        reported = f"modularity Q = {headline['table4_gbasic']['modularity']:.3f}"
        checks.require(reported in text.decode("utf-8"),
                       f"printed Table IV lacks {reported!r}")
    except CheckFailed as error:
        ctx.fail_last(str(error))
    ctx.escaped = checks.self_test(envelope, headline["table1_dataset"])


def run(ctx) -> None:
    tally = ctx.tally
    traced = ctx.spans("traced") if ctx.trace else None
    counts = []
    for export, seed in enumerate(export_seeds(ctx.seed)):
        fresh_dir(ctx.work / f"export-{export}")
        generate = run_child(
            ["generate", "--seed", str(seed), "--out", f"export-{export}"],
            cwd=ctx.work, log=ctx.log, spans=traced)
        if generate.returncode != 0:
            raise BenchError(f"repro generate exited {generate.returncode}")
        tally.setup.append(generate.seconds)
        tally.peak_rss_kib = max(tally.peak_rss_kib, generate.maxrss_kib)
        if export == 0:
            ctx.setup_window = (generate.start, generate.end)
        ctx.setup_window = (ctx.setup_window[0], generate.end)
        rows = Export.read(ctx.work / f"export-{export}")
        counts.append(dict(stations=rows.n_stations, rentals=len(rows.rentals),
                           locations=len(rows.locations)))
    if not ctx.trace:
        export, text = _rounds(ctx, counts, ctx.seconds, None)
    else:
        _rounds(ctx, counts, ctx.seconds / 2, traced)
        ctx.split_traced()
        export, text = _rounds(ctx, counts, ctx.seconds / 2, None)
    _final_checks(ctx, counts[export], export, text)
