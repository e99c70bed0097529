"""Process, timing and HTTP plumbing shared by both workloads.

The benchmark drives the program only from outside: ``repro`` child
processes (``python -m repro ...``, or the tracing launcher in this
directory when a run is traced), and a ``repro serve`` child spoken to
over one loopback keep-alive connection.  Every timestamp is
``time.monotonic()``, the clock the launcher's spans use too, so the
parent's operation windows and the children's spans share one time
axis.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launch.py"

#: Environment variables the tracing launcher reads.
SPANS_ENV = "E2EBENCH_SPANS"
SPAWN_ENV = "E2EBENCH_SPAWN"


class BenchError(RuntimeError):
    """The benchmark could not drive the program (not a check failure)."""


class CheckFailed(AssertionError):
    """A program output failed one of the benchmark's checks."""


def repro_argv(args: list[str], spans: Path | None) -> list[str]:
    """The command line of one program process, traced or not."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), *args]


def repro_env(spans: Path | None, spawn: float) -> dict[str, str]:
    """The program's environment; a traced one names its span directory."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(SPANS_ENV, None)
    env.pop(SPAWN_ENV, None)
    if spans is not None:
        env[SPANS_ENV] = str(spans)
        env[SPAWN_ENV] = repr(spawn)
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    seconds: float
    maxrss_kib: int
    start: float
    end: float


def run_child(
    args: list[str], *, cwd: Path, log: Path, spans: Path | None = None
) -> ChildResult:
    """Spawn one program process, wait for its exit, time it from outside.

    The clock runs from just before the spawn to the reaped exit, so it
    covers interpreter start-up, imports, the work and the printing.
    ``ru_maxrss`` comes from ``wait4`` on this very child.
    """
    start = time.monotonic()
    with open(log, "ab") as errors:
        proc = subprocess.Popen(
            repro_argv(args, spans),
            cwd=cwd,
            env=repro_env(spans, start),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=errors,
        )
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode, stdout, end - start, usage.ru_maxrss, start, end
    )


class Server:
    """A ``repro serve`` child on an ephemeral loopback port."""

    def __init__(self, store: Path, *, cwd: Path, log: Path,
                 spans: Path | None = None) -> None:
        args = ["serve", "--port", "0", "--store-dir", str(store)]
        self.start = time.monotonic()
        self._errors = open(log, "ab")
        self.proc = subprocess.Popen(
            repro_argv(args, spans),
            cwd=cwd,
            env=repro_env(spans, self.start),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._errors,
        )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on http://" not in line:
            self.stop()
            raise BenchError(f"repro serve did not start: {line!r}")
        host_port = line.rsplit("http://", 1)[1].strip()
        host, port = host_port.rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=600)

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict[str, str] | None = None):
        """One exchange on the keep-alive connection: (status, headers, body)."""
        self.conn.request(method, path, body=body, headers=headers or {})
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, response.headers, payload

    def json(self, method: str, path: str, document=None, expect=(200,)):
        body = None if document is None else json.dumps(document).encode()
        status, _, payload = self.request(
            method, path, body, {"Content-Type": "application/json"}
        )
        if status not in expect:
            raise BenchError(
                f"{method} {path} answered {status}: {payload[:300]!r}"
            )
        return json.loads(payload)

    def peak_rss_kib(self) -> int:
        """The server's peak resident set so far (``VmHWM``), in KiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("the server reports no VmHWM")

    def stop(self) -> None:
        """Interrupt the server (a clean shutdown) and reap it."""
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._errors.close()


@dataclass
class Tally:
    """Operation accounting and timings of one run."""

    attempted: int = 0
    failed: int = 0
    compute: list[float] = field(default_factory=list)
    replay: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    peak_rss_kib: int = 0
    #: (kind, start, end) of every timed operation, for span attribution.
    windows: list[tuple[str, float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def record(self, kind: str, start: float, end: float, ok: bool,
               note: str = "") -> None:
        self.attempted += 1
        getattr(self, kind).append(end - start)
        self.windows.append((kind, start, end))
        if not ok:
            self.failed += 1
            self.errors.append(f"{kind}: {note}")

    def end_to_end(self) -> dict[str, dict]:
        def median(values: list[float]) -> float:
            if not values:
                raise BenchError("a metric has no samples")
            return statistics.median(values)

        return {
            "setup_s": {"value": median(self.setup), "unit": "s"},
            "compute_s": {"value": median(self.compute), "unit": "s"},
            "replay_s": {"value": median(self.replay), "unit": "s"},
            "peak_rss_mib": {"value": self.peak_rss_kib / 1024, "unit": "MiB"},
        }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
