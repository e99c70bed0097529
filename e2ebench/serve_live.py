"""``serve_live``: a service whose dataset grows while clients re-read it.

Set-up: ``repro generate``, start ``repro serve --store-dir`` on an
empty store, ``PUT`` the export as the dataset ``live``, and one cold
``POST /v1/runs``.  It is timed once per run: it runs a whole cold
pipeline, and a second one would cost a quarter of the run.  The
benchmark's own CSV-to-JSON conversion of the export is not timed.

Each round then times, over one keep-alive connection:

* one *compute*: ``PATCH`` one new day of trips onto ``live``,
  ``POST /v1/runs`` with ``"wait": false``, poll the job until it is
  done, ``GET /v1/results/<fp>?fields=headline`` — the pipeline runs
  incrementally over the grown dataset;
* :data:`REPLAYS` *replays*: ``POST /v1/runs`` for the stored scenario
  (waited) then ``GET /v1/results/<fp>`` — served from the results store.

Rounds repeat until ``--seconds`` have passed (at least
:data:`MIN_ROUNDS`).  ``peak_rss_mib`` is the larger of the ``generate``
children's peak and the server's ``VmHWM`` at the end of round
:data:`MIN_ROUNDS`: the server grows with every append it serves, so
its peak is read after a fixed amount of work, not after however many
rounds the time allowed.
"""

from __future__ import annotations

import json
import time

import checks
from common import BenchError, CheckFailed, Server, fresh_dir, run_child
from inputs import DayFeed, Export

MIN_ROUNDS = 2
REPLAYS = 10
POLL_S = 0.02
NAME = "live"
RUN = json.dumps({"dataset": {"kind": "named", "name": NAME}}).encode()
RUN_NOWAIT = json.dumps(
    {"dataset": {"kind": "named", "name": NAME}, "wait": False}).encode()
JSON = {"Content-Type": "application/json"}


def _expect(status: int, wanted: int, what: str, body: bytes) -> None:
    if status != wanted:
        raise BenchError(f"{what} answered {status}: {body[:300]!r}")


def _executions(server: Server) -> int:
    return server.json("GET", "/v1/healthz")["pipeline_executions"]


class Live:
    """One server over a fresh store, holding the export as ``live``."""

    def __init__(self, ctx, tag: str, export: Export, body: bytes, spans=None):
        self.ctx = ctx
        self.export = export
        self.server = Server(fresh_dir(ctx.work / f"store-{tag}"), cwd=ctx.work,
                             log=ctx.log, spans=spans)
        self.rentals = len(export.rentals)
        self.rows: list[list] = []
        self.last_text = b""
        try:
            status, _, reply = self.server.request(
                "PUT", f"/v1/datasets/{NAME}", body, JSON)
            _expect(status, 201, "PUT dataset", reply)
            self.put_meta = json.loads(reply)
            status, _, self.cold = self.server.request("POST", "/v1/runs", RUN, JSON)
            _expect(status, 200, "cold POST /v1/runs", self.cold)
        except BaseException:
            self.server.stop()
            raise

    def counts(self) -> dict:
        return dict(stations=self.export.n_stations, rentals=self.rentals,
                    locations=len(self.export.locations))

    def check_setup(self) -> None:
        envelope = json.loads(self.cold)
        checks.require(self.put_meta.get("n_rentals") == self.rentals,
                       f"PUT stored {self.put_meta.get('n_rentals')} rentals, "
                       f"uploaded {self.rentals}")
        checks.check_gbasic(envelope)
        checks.check_table1(
            envelope["outputs"]["run"]["headline"]["table1_dataset"],
            **self.counts())

    def compute(self, rows: list[list]) -> None:
        server, tally = self.server, self.ctx.tally
        body = json.dumps({"rentals": rows}).encode()
        before = _executions(server)
        start = time.monotonic()
        status, _, reply = server.request("PATCH", f"/v1/datasets/{NAME}", body, JSON)
        _expect(status, 200, "PATCH dataset", reply)
        meta = json.loads(reply)
        status, _, reply = server.request("POST", "/v1/runs", RUN_NOWAIT, JSON)
        _expect(status, 202, "POST /v1/runs (no wait)", reply)
        job = json.loads(reply)
        while job["status"] in ("pending", "running"):
            time.sleep(POLL_S)
            job = server.json("GET", f"/v1/jobs/{job['job_id']}")
        if job["status"] != "done":
            raise BenchError(f"job ended {job['status']}: {job.get('error')}")
        status, _, reply = server.request(
            "GET", f"/v1/results/{job['fingerprint']}?fields=headline")
        _expect(status, 200, "GET headline", reply)
        end = time.monotonic()
        self.rows.extend(rows)
        self.rentals += len(rows)
        self.fingerprint = job["fingerprint"]
        note = ""
        try:
            table1 = json.loads(reply)["outputs"]["run"]["headline"]["table1_dataset"]
            checks.require(meta.get("n_rentals") == self.rentals,
                           f"dataset holds {meta.get('n_rentals')} rentals "
                           f"after PATCH, sent {self.rentals}")
            checks.check_table1(table1, **self.counts())
            executed = _executions(server) - before
            checks.require(executed == 1,
                           f"compute ran the pipeline {executed} times, not once")
        except CheckFailed as error:
            note = str(error)
        tally.record("compute", start, end, not note, note)

    def replay(self) -> None:
        server, tally = self.server, self.ctx.tally
        before = _executions(server)
        start = time.monotonic()
        status, _, posted = server.request("POST", "/v1/runs", RUN, JSON)
        _expect(status, 200, "replay POST /v1/runs", posted)
        status, headers, stored = server.request(
            "GET", f"/v1/results/{self.fingerprint}")
        _expect(status, 200, "GET result", stored)
        end = time.monotonic()
        note = ""
        try:
            checks.check_same_bytes(posted, stored, "replay POST body")
            etag = headers.get("ETag")
            checks.require(etag == f'"{self.fingerprint}"',
                           f"ETag {etag} is not the fingerprint")
            if self.last_text:
                checks.check_same_bytes(stored, self.last_text, "stored answer")
            else:
                self.last_text = stored
                checks.check_gbasic(json.loads(stored))
            executed = _executions(server) - before
            checks.require(executed == 0, f"replay ran the pipeline {executed} times")
        except CheckFailed as error:
            note = str(error)
        tally.record("replay", start, end, not note, note)

    def rounds(self, feed: DayFeed, seconds: float) -> None:
        tally = self.ctx.tally
        deadline = time.monotonic() + seconds
        done = 0
        while done < MIN_ROUNDS or time.monotonic() < deadline:
            self.compute(feed.next_day())
            self.last_text = b""
            for _ in range(REPLAYS):
                self.replay()
            done += 1
            if done == MIN_ROUNDS:
                tally.peak_rss_kib = max(tally.peak_rss_kib,
                                         self.server.peak_rss_kib())


def _setup(ctx, spans=None) -> tuple[Export, bytes, Live]:
    """One timed set-up: generate, start, upload, cold run."""
    fresh_dir(ctx.work / "export")
    generate = run_child(["generate", "--seed", str(ctx.seed), "--out", "export"],
                         cwd=ctx.work, log=ctx.log, spans=spans)
    if generate.returncode != 0:
        raise BenchError(f"repro generate exited {generate.returncode}")
    ctx.tally.peak_rss_kib = max(ctx.tally.peak_rss_kib, generate.maxrss_kib)
    export = Export.read(ctx.work / "export")
    body = json.dumps(export.upload()).encode()
    start = time.monotonic()
    live = Live(ctx, "setup", export, body, spans)
    end = time.monotonic()
    ctx.tally.setup.append(generate.seconds + end - start)
    ctx.setup_window = (generate.start, end)
    return export, body, live


def run(ctx) -> None:
    export, body, live = _setup(ctx, ctx.spans("traced") if ctx.trace else None)
    try:
        try:
            live.check_setup()
        except CheckFailed as error:
            ctx.fail_last(f"set-up: {error}")
        live.rounds(DayFeed(export, ctx.seed),
                    ctx.seconds / 2 if ctx.trace else ctx.seconds)
    finally:
        live.server.stop()
    envelope = json.loads(live.last_text)
    ctx.escaped = checks.self_test(
        envelope, envelope["outputs"]["run"]["headline"]["table1_dataset"])
    if ctx.trace:
        _untraced_half(ctx, export, body, live)


def _untraced_half(ctx, export: Export, body: bytes, traced: Live) -> None:
    """The same rounds untraced, then the cold recompute of the grown data."""
    ctx.split_traced()
    live = Live(ctx, "untraced", export, body)
    try:
        live.rounds(DayFeed(export, ctx.seed), ctx.seconds / 2)
    finally:
        live.server.stop()
    # The last traced dataset, recomputed cold on an empty store, must
    # give byte-identical outputs to the incremental run.
    grown = Export(export.locations, export.rentals + traced.rows, export.n_stations)
    cold = Live(ctx, "cold", grown, json.dumps(grown.upload()).encode())
    cold.server.stop()
    try:
        checks.check_same_bytes(
            checks.outputs_text(cold.cold.decode("utf-8")).encode(),
            checks.outputs_text(traced.last_text.decode("utf-8")).encode(),
            "cold recompute of the grown dataset: outputs")
    except CheckFailed as error:
        ctx.fail_last(str(error))
