"""Service front-end — warm-cache request throughput and dedup speedup.

Two measurements over a live ``repro serve`` socket (ephemeral port,
in-process service):

* **warm requests/sec** — ``POST /v1/runs`` for a scenario whose
  envelope is already in the results store: the request never touches
  the pipeline, so this is the serving overhead (HTTP + store lookup);
* **warm byte path** — keep-alive ``GET /v1/results/<fp>`` (full
  envelope, headline view, conditional 304): pre-rendered bytes out of
  the :class:`~repro.service.bytescache.BytesLRU`, no JSON touched —
  the 50x-over-baseline serving gate; next to them, the keep-alive
  warm ``POST /v1/runs``, whose store-served job answers with the
  same cached bytes;
* **dedup speedup** — N concurrent identical *cold* requests share one
  pipeline execution; the batch finishes in roughly the time of one
  run instead of N, and the service counters prove a single execution;
* **metrics overhead** — the warm request timed again on a second
  server built with ``metrics=False`` (null registry): instrumentation
  must stay within noise of the uninstrumented path;
* **multi-worker scaling** — on a box with 2+ CPUs, the same warm GET
  storm against ``repro serve --workers 2`` subprocess fleets must
  out-serve ``--workers 1`` by ≥1.7x (skipped, and recorded as
  skipped, on single-CPU machines).

The measurements are appended to ``BENCH_pipeline.json`` as a
``service``-labelled trajectory entry (same provenance block as
``repro bench``), so the serving path has a perf history per revision
instead of numbers that evaporate with the terminal.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.perf.bench import append_entry, entry_header
from repro.reporting import format_table
from repro.service import ExpansionService, make_server
from repro.synth import generate_paper_dataset

from conftest import OUTPUT_DIR

REPO_ROOT = Path(__file__).resolve().parent.parent

N_WARM_REQUESTS = 25
N_CONCURRENT_CLIENTS = 6

#: Keep-alive rounds for the byte-path measurements (cheap requests;
#: more rounds keep the mean out of the noise).
N_BYTE_REQUESTS = 150

#: The acceptance floor for warm byte serving: 50x the 4.4 req/s the
#: parse-per-request warm path measured before the byte cache.
MIN_WARM_BYTES_REQUESTS_PER_S = 220.0


def _measure_keepalive(
    url: str, path: str, rounds: int, headers: dict | None = None,
    expect_status: int = 200, batches: int = 3, method: str = "GET",
    body: bytes | None = None,
) -> float:
    """Best-of-``batches`` mean seconds per warm request, one connection.

    The body is drained into a reusable buffer (the multi-MB envelope
    would otherwise spend the measurement allocating client-side), and
    the fastest batch is taken — the server's capability, not the
    bench process's scheduling luck, is what is being gated.
    """
    host, _, port = url.removeprefix("http://").partition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=1200)
    sink = bytearray(1 << 20)
    try:
        def one() -> None:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            while response.readinto(sink):
                pass
            assert response.status == expect_status, response.status

        one()  # unmeasured: connection setup and cache fill
        best = float("inf")
        for _ in range(batches):
            started = time.perf_counter()
            for _ in range(rounds):
                one()
            best = min(best, (time.perf_counter() - started) / rounds)
        return best
    finally:
        conn.close()


def _measure_fleet_throughput(
    store_dir: Path, dataset_doc: dict, workers: int, clients: int,
    seconds: float,
) -> float:
    """Aggregate warm GET req/s of a ``--workers N`` subprocess fleet."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--store-dir", str(store_dir), "--workers", str(workers),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    try:
        base = proc.stdout.readline().strip().rsplit(" ", 1)[-1]
        assert base.startswith("http://"), base
        host, _, port = base.removeprefix("http://").partition(":")
        address = (host, int(port))
        deadline = time.monotonic() + 60
        while True:  # wait for a worker to accept
            try:
                http.client.HTTPConnection(*address, timeout=5).connect()
                break
            except OSError:
                assert time.monotonic() < deadline, "fleet never came up"
                time.sleep(0.05)
        body = json.dumps(dataset_doc).encode()
        conn = http.client.HTTPConnection(*address, timeout=1200)
        conn.request("PUT", "/v1/datasets/paper", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()  # a keep-alive connection takes no new request before
        assert response.status in (200, 201)
        conn.request(
            "POST", "/v1/runs",
            body=json.dumps(
                {"dataset": {"kind": "named", "name": "paper"}}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        fingerprint = json.loads(response.read())["fingerprint"]
        conn.close()
        path = f"/v1/results/{fingerprint}?fields=headline"
        counts = [0] * clients
        stop_at = time.monotonic() + seconds

        def storm(slot: int) -> None:
            client = http.client.HTTPConnection(*address, timeout=1200)
            try:
                while time.monotonic() < stop_at:
                    client.request("GET", path)
                    reply = client.getresponse()
                    reply.read()
                    if reply.status == 200:
                        counts[slot] += 1
            finally:
                client.close()

        threads = [
            threading.Thread(target=storm, args=(slot,))
            for slot in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        return sum(counts) / max(elapsed, 1e-9)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def _post_run(url: str, overrides: dict) -> dict:
    body = json.dumps(
        {"dataset": {"kind": "named", "name": "paper"}, "overrides": overrides}
    ).encode()
    request = urllib.request.Request(
        url + "/v1/runs", data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=1200) as response:
        return json.loads(response.read())


def _measure_warm(url: str, rounds: int) -> float:
    started = time.perf_counter()
    for _ in range(rounds):
        _post_run(url, {})
    return (time.perf_counter() - started) / rounds


def test_service_throughput_and_dedup(benchmark):
    dataset = generate_paper_dataset(seed=7)
    service = ExpansionService(
        cache_dir=OUTPUT_DIR / ".cache", max_workers=N_CONCURRENT_CLIENTS
    )
    service.register_dataset("paper", dataset)
    server = make_server(service, port=0).start_background()
    try:
        url = server.url

        # ------------------------------------------------------------------
        # Warm-cache requests/sec: first request computes (or loads the
        # shared bench stage cache); the rest hit the results store.
        # ------------------------------------------------------------------
        envelope = _post_run(url, {})
        assert envelope["outputs"]["run"]["headline"]["table3_selected"]

        warm = benchmark.pedantic(
            lambda: _post_run(url, {}), rounds=N_WARM_REQUESTS, iterations=1
        )
        warm_seconds = benchmark.stats.stats.mean
        requests_per_second = 1.0 / max(warm_seconds, 1e-9)
        assert warm["fingerprint"] == envelope["fingerprint"]
        executions_after_warm = service.pipeline_executions

        # ------------------------------------------------------------------
        # Metrics overhead: the same warm request against a second
        # server whose service runs the null registry (metrics=False).
        # Both sides are timed by the same manual loop so the ratio is
        # apples-to-apples; the instrumented path has to stay within
        # noise of the uninstrumented one.
        # ------------------------------------------------------------------
        metrics_on_seconds = _measure_warm(url, N_WARM_REQUESTS)
        plain_service = ExpansionService(
            cache_dir=OUTPUT_DIR / ".cache",
            max_workers=N_CONCURRENT_CLIENTS,
            metrics=False,
        )
        plain_service.register_dataset("paper", dataset)
        plain_server = make_server(plain_service, port=0).start_background()
        try:
            _post_run(plain_server.url, {})  # warm its results store
            metrics_off_seconds = _measure_warm(
                plain_server.url, N_WARM_REQUESTS
            )
        finally:
            plain_server.stop()
            plain_service.close()
        metrics_ratio = metrics_on_seconds / max(metrics_off_seconds, 1e-9)
        assert metrics_ratio < 2.0, (
            f"metrics-enabled serving is {metrics_ratio:.2f}x the "
            "null-registry path — instrumentation left the noise band"
        )

        # ------------------------------------------------------------------
        # Degraded (read-only) mode: with the store-write circuit
        # breaker open the service sheds new work with 503 +
        # Retry-After but keeps serving warm envelopes — measure what
        # read-only mode still delivers.
        # ------------------------------------------------------------------
        service.breaker.trip()
        try:
            _post_run(url, {})
            raise AssertionError("open breaker accepted a POST /v1/runs")
        except urllib.error.HTTPError as error:
            assert error.code == 503, f"expected 503, got {error.code}"
            assert int(error.headers["Retry-After"]) >= 1
            error.read()
        fingerprint = envelope["fingerprint"]
        started = time.perf_counter()
        for _ in range(N_WARM_REQUESTS):
            with urllib.request.urlopen(
                f"{url}/v1/results/{fingerprint}", timeout=1200
            ) as response:
                response.read()
        degraded_get_seconds = (
            time.perf_counter() - started
        ) / N_WARM_REQUESTS
        degraded_requests_per_s = 1.0 / max(degraded_get_seconds, 1e-9)
        service.breaker.reset()

        # ------------------------------------------------------------------
        # Warm byte path: keep-alive GETs served straight from the
        # BytesLRU — the full multi-MB envelope, the headline view, and
        # a conditional GET collapsing to an empty 304.  The full-body
        # rate is the acceptance gate: ≥50x the 4.4 req/s the old
        # parse-per-request warm path measured.
        # ------------------------------------------------------------------
        fingerprint = envelope["fingerprint"]
        full_path = f"/v1/results/{fingerprint}"
        warm_bytes_seconds = _measure_keepalive(
            url, full_path, N_BYTE_REQUESTS
        )
        warm_bytes_requests_per_s = 1.0 / max(warm_bytes_seconds, 1e-9)
        headline_seconds = _measure_keepalive(
            url, full_path + "?fields=headline", N_BYTE_REQUESTS
        )
        headline_requests_per_s = 1.0 / max(headline_seconds, 1e-9)
        conditional_seconds = _measure_keepalive(
            url, full_path, N_BYTE_REQUESTS,
            headers={"If-None-Match": f'"{fingerprint}"'},
            expect_status=304,
        )
        conditional_requests_per_s = 1.0 / max(conditional_seconds, 1e-9)
        post_seconds = _measure_keepalive(
            url, "/v1/runs", N_BYTE_REQUESTS, method="POST",
            body=json.dumps(
                {"dataset": {"kind": "named", "name": "paper"}}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        post_requests_per_s = 1.0 / max(post_seconds, 1e-9)
        assert warm_bytes_requests_per_s >= MIN_WARM_BYTES_REQUESTS_PER_S, (
            f"warm byte path serves {warm_bytes_requests_per_s:.0f} req/s, "
            f"under the {MIN_WARM_BYTES_REQUESTS_PER_S:.0f} floor "
            "(50x the pre-cache baseline)"
        )
        bytes_cache_stats = service.results.bytes_cache.stats()

        # ------------------------------------------------------------------
        # Multi-worker scaling: --workers 2 must beat --workers 1 by
        # ≥1.7x on aggregate warm GET throughput — only meaningful with
        # at least two CPUs to put the second process on.
        # ------------------------------------------------------------------
        cpus = os.cpu_count() or 1
        if cpus >= 2:
            dataset_doc = dataset.to_dict()
            single_rate = _measure_fleet_throughput(
                OUTPUT_DIR / "fleet-1", dataset_doc, workers=1,
                clients=4, seconds=5.0,
            )
            fleet_rate = _measure_fleet_throughput(
                OUTPUT_DIR / "fleet-2", dataset_doc, workers=2,
                clients=4, seconds=5.0,
            )
            worker_scaling = fleet_rate / max(single_rate, 1e-9)
            assert worker_scaling >= 1.7, (
                f"--workers 2 scaled only {worker_scaling:.2f}x over one "
                f"worker on {cpus} CPUs"
            )
            workers_block: dict = {
                "cpus": cpus,
                "single_worker_requests_per_s": round(single_rate, 1),
                "two_worker_requests_per_s": round(fleet_rate, 1),
                "scaling": round(worker_scaling, 2),
            }
        else:
            worker_scaling = None
            workers_block = {
                "cpus": cpus,
                "skipped": "needs >= 2 CPUs to measure process scaling",
            }

        # ------------------------------------------------------------------
        # Dedup speedup: a changed community seed invalidates the three
        # Louvain stages (the expensive cone), so each batch is real
        # work.  Session-unique seeds keep the runs genuinely cold even
        # though the bench stage cache persists on disk.
        # ------------------------------------------------------------------
        seed_base = int(time.time()) % 1_000_000_000
        started = time.perf_counter()
        _post_run(url, {"community.seed": seed_base})
        single_cold_seconds = time.perf_counter() - started

        responses: list[dict] = []
        barrier = threading.Barrier(N_CONCURRENT_CLIENTS)

        def client() -> None:
            barrier.wait()
            responses.append(_post_run(url, {"community.seed": seed_base + 1}))

        threads = [
            threading.Thread(target=client)
            for _ in range(N_CONCURRENT_CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        concurrent_seconds = time.perf_counter() - started

        assert len({response["fingerprint"] for response in responses}) == 1
        batch_executions = service.pipeline_executions - executions_after_warm
        assert batch_executions == 2, "dedup failed: each batch should run once"
        speedup = (
            N_CONCURRENT_CLIENTS * single_cold_seconds
            / max(concurrent_seconds, 1e-9)
        )

        print()
        print(
            format_table(
                ["Measure", "Value"],
                [
                    ["warm request latency", f"{warm_seconds * 1000:.1f} ms"],
                    ["warm requests/sec", f"{requests_per_second:.1f}"],
                    [
                        "warm req/s, metrics on",
                        f"{1.0 / max(metrics_on_seconds, 1e-9):.1f}",
                    ],
                    [
                        "warm req/s, metrics off",
                        f"{1.0 / max(metrics_off_seconds, 1e-9):.1f}",
                    ],
                    ["metrics overhead ratio", f"{metrics_ratio:.3f}x"],
                    [
                        "degraded (breaker open) warm GET req/s",
                        f"{degraded_requests_per_s:.1f}",
                    ],
                    [
                        "warm bytes GET req/s (full envelope)",
                        f"{warm_bytes_requests_per_s:.1f}",
                    ],
                    [
                        "warm bytes GET req/s (headline view)",
                        f"{headline_requests_per_s:.1f}",
                    ],
                    [
                        "conditional GET 304 req/s",
                        f"{conditional_requests_per_s:.1f}",
                    ],
                    [
                        "warm POST /v1/runs req/s (keep-alive)",
                        f"{post_requests_per_s:.1f}",
                    ],
                    [
                        "--workers 2 scaling",
                        (
                            f"{worker_scaling:.2f}x"
                            if worker_scaling is not None
                            else f"skipped ({cpus} cpu)"
                        ),
                    ],
                    ["cold run (1 client)", f"{single_cold_seconds:.2f} s"],
                    [
                        f"cold batch ({N_CONCURRENT_CLIENTS} identical clients)",
                        f"{concurrent_seconds:.2f} s",
                    ],
                    ["pipeline executions in batch", batch_executions - 1],
                    ["dedup speedup vs no-dedup", f"{speedup:.1f}x"],
                ],
                title="SERVICE FRONT-END: WARM THROUGHPUT + REQUEST DEDUP",
            )
        )

        # Fold the serving-path numbers into the same persisted
        # trajectory the pipeline benches append to.
        entry = entry_header("service", anchor=REPO_ROOT)
        entry["service"] = {
            "warm_requests": N_WARM_REQUESTS,
            "warm_latency_ms": round(warm_seconds * 1000, 2),
            "warm_requests_per_s": round(requests_per_second, 1),
            "metrics_on_requests_per_s": round(
                1.0 / max(metrics_on_seconds, 1e-9), 1
            ),
            "metrics_off_requests_per_s": round(
                1.0 / max(metrics_off_seconds, 1e-9), 1
            ),
            "metrics_overhead_ratio": round(metrics_ratio, 3),
            "degraded": {
                "writes_shed_with": 503,
                "warm_get_latency_ms": round(degraded_get_seconds * 1000, 2),
                "warm_get_requests_per_s": round(degraded_requests_per_s, 1),
            },
            "cold_single_s": round(single_cold_seconds, 3),
            "cold_batch_clients": N_CONCURRENT_CLIENTS,
            "cold_batch_s": round(concurrent_seconds, 3),
            "dedup_speedup": round(speedup, 2),
            "warm_bytes": {
                "rounds": N_BYTE_REQUESTS,
                "warm_bytes_requests_per_s": round(
                    warm_bytes_requests_per_s, 1
                ),
                "headline_requests_per_s": round(headline_requests_per_s, 1),
                "conditional_304_requests_per_s": round(
                    conditional_requests_per_s, 1
                ),
                "warm_post_requests_per_s": round(post_requests_per_s, 1),
                "cache": {
                    key: bytes_cache_stats[key]
                    for key in ("entries", "bytes", "hits", "misses")
                },
            },
            "workers": workers_block,
        }
        path = append_entry(entry, REPO_ROOT / "BENCH_pipeline.json")
        print(f"service entry appended to {path}")
    finally:
        server.stop()
        service.close()
