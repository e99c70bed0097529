"""Pre-fork serving tests: ``repro serve --workers N`` as subprocesses.

A real fleet — forked processes sharing one port and one
``--store-dir`` — exercised over the wire: every worker serves the
same warm bytes, a job executed by one worker is visible from its
siblings through the shared journal, ``SIGTERM`` to the parent reaps
the whole fleet, and the default (``--workers 1``) stays the plain
single-process server — one whose memory store-served replays do not
grow.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork serving needs os.fork"
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: New-connection budget for observing every worker at least once
#: (SO_REUSEPORT balances by connection hash; two workers are seen
#: within a handful of connections in practice).
MAX_PROBES = 300


def boot_serve(store_dir, *extra_args):
    """Start a ``repro serve`` subprocess; returns (proc, base_url)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--store-dir", str(store_dir),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    banner = proc.stdout.readline()
    base = banner.strip().rsplit(" ", 1)[-1]
    if not base.startswith("http://"):
        proc.kill()
        proc.wait(timeout=30)
        raise AssertionError(f"unexpected serve banner: {banner!r}")
    return proc, base


def split_url(base):
    host, _, port = base.removeprefix("http://").partition(":")
    return host, int(port)


def connect(base, deadline=60.0):
    """An open keep-alive connection to the fleet (retrying startup)."""
    host, port = split_url(base)
    end = time.monotonic() + deadline
    while True:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=60)
            conn.connect()
            return conn
        except OSError:
            if time.monotonic() > end:
                raise
            time.sleep(0.05)


def on_conn(conn, method, path, body=None):
    """(status, headers, bytes) over an existing connection."""
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, dict(response.getheaders()), response.read()


def per_worker_exchange(base, method, path, *, want_workers, body=None):
    """Run one exchange against each distinct worker.

    Every probe opens a fresh connection, reads ``/v1/healthz`` to
    learn which worker the kernel picked, then — **on that same
    keep-alive connection**, so the same worker answers — performs the
    requested exchange.  Returns ``{worker: (status, headers, body)}``
    once ``want_workers`` distinct workers have been exercised.
    """
    seen = {}
    for _ in range(MAX_PROBES):
        conn = connect(base)
        try:
            status, _, health = on_conn(conn, "GET", "/v1/healthz")
            if status != 200:
                continue
            worker = json.loads(health)["worker"]
            if worker in seen:
                continue
            seen[worker] = on_conn(conn, method, path, body=body)
            if len(seen) >= want_workers:
                return seen
        finally:
            conn.close()
    raise AssertionError(
        f"saw only workers {sorted(seen)} in {MAX_PROBES} probes"
    )


@pytest.fixture(scope="module")
def fleet(small_raw, tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("workers-store")
    proc, base = boot_serve(store_dir, "--workers", "2")
    try:
        conn = connect(base)
        try:
            status, _, _ = on_conn(
                conn, "PUT", "/v1/datasets/small", body=small_raw.to_dict()
            )
            assert status == 201
            status, _, body = on_conn(
                conn, "POST", "/v1/runs",
                body={"dataset": {"kind": "named", "name": "small"}},
            )
            assert status == 200
            envelope = json.loads(body)
        finally:
            conn.close()
        yield proc, base, envelope, body
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=60)


class TestFleetServing:
    def test_both_workers_answer_healthz(self, fleet):
        _, base, _, _ = fleet
        seen = per_worker_exchange(
            base, "GET", "/v1/healthz", want_workers=2
        )
        assert sorted(seen) == [0, 1]

    def test_warm_bytes_identical_across_workers(self, fleet):
        _, base, envelope, posted = fleet
        path = f"/v1/results/{envelope['fingerprint']}"
        seen = per_worker_exchange(base, "GET", path, want_workers=2)
        bodies = set()
        for worker, (status, headers, body) in seen.items():
            assert status == 200, worker
            assert int(headers.get("Content-Length")) == len(body)
            bodies.add(body)
        # One scenario, one byte sequence — no matter which process's
        # byte cache rendered it (both read the same stored envelope).
        assert bodies == {posted}

    def test_job_visible_from_every_worker_via_journal(self, fleet):
        _, base, envelope, _ = fleet
        # Learn the job id from whichever worker executed it.
        job_id = None
        for _ in range(MAX_PROBES):
            conn = connect(base)
            try:
                _, _, body = on_conn(conn, "GET", "/v1/jobs")
                jobs = json.loads(body)["jobs"]
                done = [job for job in jobs if job["status"] == "done"]
                if done:
                    job_id = done[0]["job_id"]
                    break
            finally:
                conn.close()
        assert job_id is not None
        seen = per_worker_exchange(
            base, "GET", f"/v1/jobs/{job_id}", want_workers=2
        )
        for worker, (status, _, body) in seen.items():
            assert status == 200, f"worker {worker} cannot see {job_id}"
            document = json.loads(body)
            assert document["job_id"] == job_id
            assert document["status"] == "done"
            assert document["fingerprint"] == envelope["fingerprint"]

    def test_sigterm_reaps_the_fleet(self, small_raw, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("workers-term")
        proc, base = boot_serve(store_dir, "--workers", "2")
        try:
            conn = connect(base)
            conn.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            # The whole fleet is gone: nothing accepts on the port.
            host, port = split_url(base)
            with pytest.raises(OSError):
                probe = socket.create_connection((host, port), timeout=2)
                # A lingering listener would accept; prove it did not by
                # requiring the connect itself to fail.
                probe.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestSingleWorkerDefault:
    def test_default_is_one_plain_process(self, small_raw, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("workers-single")
        proc, base = boot_serve(store_dir)  # no --workers flag
        try:
            for _ in range(10):
                conn = connect(base)
                try:
                    status, _, body = on_conn(conn, "GET", "/v1/healthz")
                finally:
                    conn.close()
                assert status == 200
                assert json.loads(body)["worker"] == 0
        finally:
            proc.terminate()
            # The plain single-process server exits on the default
            # SIGTERM disposition — no pre-fork supervisor in the way.
            assert proc.wait(timeout=60) in (0, -signal.SIGTERM)

    def test_multi_worker_without_store_dir_is_refused(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "2",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert "--store-dir" in proc.stderr


def vm_rss_kib(pid):
    """The resident set size of process ``pid`` in KiB, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise AssertionError(f"no VmRSS line for pid {pid}")


@pytest.mark.slow
@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc"
)
class TestReplayMemory:
    def test_replays_keep_no_envelope_in_the_server(self, tmp_path):
        """40 store-served POSTs of a paper-scale scenario (a 7.4 MB
        envelope) leave the server's resident memory within 32 MiB."""
        pytest.importorskip("numpy")
        proc, base = boot_serve(tmp_path / "store")
        run = {"dataset": {"kind": "synthetic", "seed": 7}}
        try:
            conn = connect(base)
            conn.sock.settimeout(900)  # the first POST runs the pipeline
            try:
                status, _, stored = on_conn(conn, "POST", "/v1/runs", body=run)
                assert status == 200
                before = vm_rss_kib(proc.pid)
                for _ in range(40):
                    status, _, body = on_conn(
                        conn, "POST", "/v1/runs", body=run
                    )
                    assert status == 200
                    assert body == stored
                grown_mib = (vm_rss_kib(proc.pid) - before) / 1024
            finally:
                conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=60)
        assert grown_mib <= 32, (
            f"40 replays grew the server by {grown_mib:.0f} MiB"
        )
