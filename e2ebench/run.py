"""The repo's end-to-end benchmark: ``python3 e2ebench/run.py``.

    python3 e2ebench/run.py --workload cli_run|serve_live --seed N \\
        --seconds S --trace 0|1

Runs one workload against the program's real surfaces (``repro run``
processes, or a ``repro serve`` process over loopback HTTP) as a closed
loop from this one client process, one operation in flight.  Every
operation is timed from outside and its output checked; the last line
of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``,
``compute_s``, ``replay_s`` and ``peak_rss_mib``.  ``--trace 1`` runs
the program under the probes of ``tracing.py`` for half the time and
untraced for the other half, and reports the per-layer metrics and
the tracing overhead; the merged span file is written under
``.e2ebench/out/``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT, SRC, BenchError, Tally, fresh_dir
import cli_run
import serve_live
import tracing

WORKLOADS = {"cli_run": cli_run.run, "serve_live": serve_live.run}
STATE = ROOT / ".e2ebench"


class Context:
    """One run's parameters, scratch space and accounting."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = fresh_dir(STATE / "work" / f"{workload}-{os.getpid()}")
        self.log = self.work / "stderr.log"
        self.tally = Tally()
        self.setup_window = (0.0, 0.0)
        self.escaped: list[str] = []
        self.traced_ops: tuple[int, int, int] | None = None

    def spans(self, phase: str) -> Path:
        return fresh_dir(self.work / f"spans-{phase}")

    def split_traced(self) -> None:
        """Mark the end of the traced operations (trace runs only)."""
        tally = self.tally
        self.traced_ops = (len(tally.compute), len(tally.replay),
                           len(tally.windows))

    def fail_last(self, note: str) -> None:
        """A check made after the loop failed: count it against the run."""
        self.tally.failed += 1
        self.tally.errors.append(f"final: {note}")


def _traced_metrics(ctx: Context) -> dict:
    n_compute, n_replay, n_windows = ctx.traced_ops
    tally = ctx.tally
    spans, missing = tracing.read_spans(ctx.work / "spans-traced")
    windows = tally.windows[:n_windows]
    tracing.assign_operations(spans, windows, ctx.setup_window)
    out = STATE / "out" / f"{ctx.workload}-seed{ctx.seed}-spans.jsonl"
    tracing.write_span_file(spans, out)
    metrics = tracing.layer_metrics(spans, missing, windows, len(tally.setup))
    median = statistics.median
    metrics["trace.compute_overhead_s"] = {
        "value": median(tally.compute[:n_compute]) - median(tally.compute[n_compute:]),
        "unit": "s"}
    metrics["trace.replay_overhead_s"] = {
        "value": median(tally.replay[:n_replay]) - median(tally.replay[n_replay:]),
        "unit": "s"}
    print(f"span file: {out.relative_to(ROOT)} ({len(spans)} spans)",
          file=sys.stderr)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown:>14s} {entry['unit']}", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile first, so no timed process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](ctx)
        tally = ctx.tally
        if ctx.trace:
            metrics = _traced_metrics(ctx)
        else:
            metrics = tally.end_to_end()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        if ctx.log.exists():
            print(ctx.log.read_text(errors="replace")[-4000:], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    for note in tally.errors:
        print(f"failed check: {note}", file=sys.stderr)
    for name in ctx.escaped:
        print(f"self-test: tampered output passed a check: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not ctx.escaped,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
