"""HTTP conformance battery: validators, framing, keep-alive, warm bytes.

Exercises the front-end's protocol contract rather than its payloads:
strong ``ETag``/``Last-Modified`` validators with correct conditional
semantics (304s), ``HEAD`` answering with exactly its ``GET``'s
headers, an exact ``Content-Length`` on every response (error paths
included — a missing one silently kills keep-alive), many requests
over one connection, and the byte-cache invariant that a warm response
is byte-identical to the cold one it memoised.

Runs on every storage backend via ``REPRO_TEST_STORE_BACKEND`` (the CI
matrix), like ``test_service_http.py``.
"""

import http.client
import json
import os
import threading
import time

import pytest

from repro.service import ExpansionService, make_server
from repro.service.store import render_headline

#: Response headers legitimately allowed to differ between two
#: otherwise-identical exchanges (each request mints its own trace id).
_VOLATILE_HEADERS = {"date", "x-repro-trace-id"}


def build_service(tmp_path_factory, **kwargs):
    """An :class:`ExpansionService` honouring the CI backend matrix."""
    backend = os.environ.get("REPRO_TEST_STORE_BACKEND")
    if backend:
        return ExpansionService(
            store_dir=(
                None
                if backend == "memory"
                else tmp_path_factory.mktemp("conformance-store")
            ),
            store_backend=backend,
            **kwargs,
        )
    return ExpansionService(
        cache_dir=tmp_path_factory.mktemp("conformance-stage-cache"), **kwargs
    )


@pytest.fixture(scope="module")
def server(small_raw, tmp_path_factory):
    service = build_service(tmp_path_factory, max_workers=4)
    service.register_dataset("small", small_raw)
    http_server = make_server(service, port=0).start_background()
    yield http_server
    http_server.stop()
    service.close()


@pytest.fixture(scope="module")
def fingerprint(server, small_raw):
    """A stored result to serve warm (and its envelope bytes)."""
    status, headers, body = exchange(
        server, "POST", "/v1/runs",
        body={"dataset": {"kind": "named", "name": "small"}},
    )
    assert status == 200
    return json.loads(body)["fingerprint"]


def exchange(server, method, path, *, headers=None, body=None, conn=None):
    """(status, headers, bytes) for one exchange, errors included.

    Uses :mod:`http.client` (not urllib) so the connection — and with
    it keep-alive behaviour — is under the test's control.  Passing
    ``conn`` reuses an open connection.
    """
    own = conn is None
    if own:
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
    data = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=data, headers=headers or {})
    response = conn.getresponse()
    payload = response.read()
    result = (response.status, dict(response.getheaders()), payload)
    if own:
        conn.close()
    return result


def header(headers, name):
    for key, value in headers.items():
        if key.lower() == name.lower():
            return value
    return None


class TestConditionalResults:
    def test_result_carries_strong_validators(self, server, fingerprint):
        status, headers, _ = exchange(
            server, "GET", f"/v1/results/{fingerprint}"
        )
        assert status == 200
        assert header(headers, "ETag") == f'"{fingerprint}"'
        assert header(headers, "Last-Modified") is not None

    def test_if_none_match_yields_empty_304(self, server, fingerprint):
        _, headers, body = exchange(
            server, "GET", f"/v1/results/{fingerprint}"
        )
        status, headers, body = exchange(
            server, "GET", f"/v1/results/{fingerprint}",
            headers={"If-None-Match": header(headers, "ETag")},
        )
        assert status == 304
        assert body == b""
        assert header(headers, "Content-Length") == "0"
        # The 304 still carries the validators it matched against.
        assert header(headers, "ETag") == f'"{fingerprint}"'

    def test_fresh_if_modified_since_yields_304(self, server, fingerprint):
        _, headers, _ = exchange(
            server, "GET", f"/v1/results/{fingerprint}"
        )
        status, _, body = exchange(
            server, "GET", f"/v1/results/{fingerprint}",
            headers={"If-Modified-Since": header(headers, "Last-Modified")},
        )
        assert status == 304
        assert body == b""

    def test_stale_validators_yield_full_200(self, server, fingerprint):
        status, _, body = exchange(
            server, "GET", f"/v1/results/{fingerprint}",
            headers={"If-None-Match": '"0000beef"'},
        )
        assert status == 200
        assert json.loads(body)["fingerprint"] == fingerprint
        status, _, body = exchange(
            server, "GET", f"/v1/results/{fingerprint}",
            headers={"If-Modified-Since": "Thu, 01 Jan 1970 00:00:00 GMT"},
        )
        assert status == 200
        assert body != b""

    def test_if_none_match_wins_over_if_modified_since(
        self, server, fingerprint
    ):
        # RFC 9110: a present If-None-Match is evaluated INSTEAD of
        # If-Modified-Since — a non-matching tag means 200 even when
        # the modification date would say 304.
        _, headers, _ = exchange(
            server, "GET", f"/v1/results/{fingerprint}"
        )
        status, _, _ = exchange(
            server, "GET", f"/v1/results/{fingerprint}",
            headers={
                "If-None-Match": '"0000beef"',
                "If-Modified-Since": header(headers, "Last-Modified"),
            },
        )
        assert status == 200

    def test_narrowed_views_revalidate_too(self, server, fingerprint):
        for view in ("?fields=headline", "?section=outputs.run.headline"):
            path = f"/v1/results/{fingerprint}{view}"
            status, headers, _ = exchange(server, "GET", path)
            assert status == 200
            etag = header(headers, "ETag")
            assert etag == f'"{fingerprint}"'
            status, _, body = exchange(
                server, "GET", path, headers={"If-None-Match": etag}
            )
            assert (status, body) == (304, b"")


class TestConditionalDatasets:
    def test_dataset_repush_moves_etag_and_revalidation(
        self, server, small_raw
    ):
        status, headers, _ = exchange(server, "GET", "/v1/datasets/small")
        assert status == 200
        old_etag = header(headers, "ETag")
        assert old_etag
        status, _, _ = exchange(
            server, "GET", "/v1/datasets/small",
            headers={"If-None-Match": old_etag},
        )
        assert status == 304
        # Re-push different content: digest — and with it the ETag —
        # must move, and the old tag must stop validating.
        altered = small_raw.to_dict()
        altered["rentals"] = altered["rentals"][:-1]
        status, _, _ = exchange(
            server, "PUT", "/v1/datasets/small", body=altered
        )
        assert status == 200
        status, headers, body = exchange(
            server, "GET", "/v1/datasets/small",
            headers={"If-None-Match": old_etag},
        )
        assert status == 200
        new_etag = header(headers, "ETag")
        assert new_etag != old_etag
        assert json.loads(body)["digest"] == new_etag.strip('"')


class TestHead:
    def paths(self, fingerprint):
        return [
            "/v1/healthz",
            "/v1/jobs",
            "/v1/datasets",
            "/v1/datasets/small",
            f"/v1/results/{fingerprint}",
            f"/v1/results/{fingerprint}?fields=headline",
            "/v1/results/0000beef",  # 404 path
            "/v1/nope",  # unrouted 404
        ]

    def test_head_matches_get_headers_with_empty_body(
        self, server, fingerprint
    ):
        for path in self.paths(fingerprint):
            get_status, get_headers, get_body = exchange(server, "GET", path)
            head_status, head_headers, head_body = exchange(
                server, "HEAD", path
            )
            assert head_status == get_status, path
            assert head_body == b"", path
            stable = {
                key.lower(): value
                for key, value in get_headers.items()
                if key.lower() not in _VOLATILE_HEADERS
            }
            head_stable = {
                key.lower(): value
                for key, value in head_headers.items()
                if key.lower() not in _VOLATILE_HEADERS
            }
            assert head_stable == stable, path
            # In particular: the GET body's exact length is declared.
            assert header(head_headers, "Content-Length") == str(
                len(get_body)
            ), path

    def test_head_honours_conditionals(self, server, fingerprint):
        status, _, body = exchange(
            server, "HEAD", f"/v1/results/{fingerprint}",
            headers={"If-None-Match": f'"{fingerprint}"'},
        )
        assert (status, body) == (304, b"")


class TestFraming:
    def test_exact_content_length_everywhere(self, server, fingerprint):
        cases = [
            ("GET", "/v1/healthz"),
            ("GET", "/v1/metrics"),
            ("GET", "/v1/jobs"),
            ("GET", "/v1/jobs/job-999999"),  # 404
            ("GET", "/v1/datasets"),
            ("GET", "/v1/datasets/absent"),  # 404
            ("GET", f"/v1/results/{fingerprint}"),
            ("GET", f"/v1/results/{fingerprint}?fields=everything"),  # 400
            ("GET", "/v1/results/NOT-HEX"),  # 400
            ("GET", "/v1/nope"),  # 404
            ("DELETE", "/v1/jobs/job-999999"),  # 404
            ("POST", "/v1/nope"),  # 404
        ]
        for method, path in cases:
            status, headers, body = exchange(server, method, path)
            declared = header(headers, "Content-Length")
            assert declared is not None, (method, path)
            assert int(declared) == len(body), (method, path, status)

    def test_malformed_body_400_keeps_connection_usable(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request(
                "POST", "/v1/runs", body=b'{"dataset": [broken',
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 500 or response.status == 400
            assert int(response.headers["Content-Length"]) == len(body)
            # Framing survived; whether the server kept the connection
            # is its call — but it must have *said* so either way.
            if response.will_close:
                assert response.headers.get("Connection") == "close"
        finally:
            conn.close()

    def test_oversized_body_400_announces_connection_close(self, server):
        # Regression: the 400 for an over-limit Content-Length drops
        # the connection (the body is never read), and must SAY so —
        # a keep-alive client without the header waits on a dead
        # socket until its own timeout.
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.putrequest("PUT", "/v1/datasets/huge")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str((128 << 20) + 1))
            conn.endheaders()
            response = conn.getresponse()
            body = response.read()
            assert response.status == 400
            assert b"bytes" in body
            assert int(response.headers["Content-Length"]) == len(body)
            assert response.headers.get("Connection") == "close"
            assert response.will_close
        finally:
            conn.close()

    def test_keep_alive_serves_50_requests_on_one_connection(
        self, server, fingerprint
    ):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        paths = [
            "/v1/healthz",
            f"/v1/results/{fingerprint}?fields=headline",
            "/v1/datasets",
            f"/v1/results/{fingerprint}",
            "/v1/results/0000beef",  # a 404 must not kill the connection
        ]
        try:
            for index in range(50):
                status, headers, body = exchange(
                    server, "GET", paths[index % len(paths)], conn=conn
                )
                assert status in (200, 404), index
                assert int(header(headers, "Content-Length")) == len(body)
        finally:
            conn.close()


class TestWarmBytes:
    def test_warm_responses_are_byte_identical_to_cold(
        self, server, fingerprint
    ):
        views = [
            f"/v1/results/{fingerprint}",
            f"/v1/results/{fingerprint}?fields=headline",
            f"/v1/results/{fingerprint}?section=outputs.run.headline",
            (
                f"/v1/results/{fingerprint}"
                "?section=outputs.run.day.slice_partition.assignment"
                "&page=1&page_size=50"
            ),
        ]
        # Drop every cached view so the first pass below really is the
        # cold parse-and-render path the warm pass is compared against.
        server.service.results.bytes_cache.invalidate(fingerprint)
        for path in views:
            _, _, cold = exchange(server, "GET", path)
            _, _, warm = exchange(server, "GET", path)
            assert warm == cold, path

    def test_warm_hits_count_and_parse_free(self, server, fingerprint):
        cache = server.service.results.bytes_cache
        path = f"/v1/results/{fingerprint}"
        exchange(server, "GET", path)  # ensure warm
        before = cache.stats()
        for _ in range(5):
            status, _, _ = exchange(server, "GET", path)
            assert status == 200
        after = cache.stats()
        assert after["hits"] - before["hits"] == 5
        assert after["misses"] == before["misses"]

    def test_warm_post_sends_the_stored_bytes(self, server):
        """A store-served ``POST /v1/runs`` answers with the cached body."""
        run = {"dataset": {"kind": "named", "name": "small"}}
        _, _, first = exchange(server, "POST", "/v1/runs", body=run)
        fingerprint = json.loads(first)["fingerprint"]
        _, _, stored = exchange(server, "GET", f"/v1/results/{fingerprint}")
        cache = server.service.results.bytes_cache
        before = cache.stats()
        status, headers, posted = exchange(server, "POST", "/v1/runs", body=run)
        assert status == 200
        assert posted == stored
        assert int(header(headers, "Content-Length")) == len(posted)
        after = cache.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]

    def test_compute_seeds_the_headline_view(self, server):
        """The first ``?fields=headline`` after a run is a byte-cache hit,
        with the bytes a view built from the stored envelope has."""
        status, _, body = exchange(
            server, "POST", "/v1/runs",
            body={
                "dataset": {"kind": "named", "name": "small"},
                "overrides": {"community.seed": 777},
            },
        )
        assert status == 200
        fingerprint = json.loads(body)["fingerprint"]
        path = f"/v1/results/{fingerprint}?fields=headline"
        cache = server.service.results.bytes_cache
        before = cache.stats()
        status, _, seeded = exchange(server, "GET", path)
        assert status == 200
        assert cache.stats()["misses"] == before["misses"]
        assert seeded == render_headline(json.loads(body))
        # Dropped, the view is built again from the stored bytes.
        cache.invalidate(fingerprint)
        status, _, built = exchange(server, "GET", path)
        assert status == 200
        assert cache.stats()["misses"] > before["misses"]
        assert built == seeded


@pytest.mark.slow
class TestWarmLoad:
    def test_concurrent_warm_load_is_parse_free_and_fast(
        self, server, fingerprint
    ):
        """8 concurrent keep-alive clients hammer one warm fingerprint.

        Asserts the two warm-path promises: zero byte-cache misses
        after warm-up (no JSON is parsed or rendered under load) and a
        pinned per-request latency bound far under the ~227 ms cold
        parse cost the cache replaced.
        """
        clients = 8
        per_client = 25
        path = f"/v1/results/{fingerprint}?fields=headline"
        exchange(server, "GET", f"/v1/results/{fingerprint}")
        exchange(server, "GET", path)  # warm both served views
        cache = server.service.results.bytes_cache
        before = cache.stats()
        latencies: list[float] = []
        errors: list[str] = []
        lock = threading.Lock()

        def storm() -> None:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=60)
            local: list[float] = []
            try:
                for _ in range(per_client):
                    started = time.perf_counter()
                    status, _, body = exchange(
                        server, "GET", path, conn=conn
                    )
                    local.append(time.perf_counter() - started)
                    if status != 200 or not body:
                        with lock:
                            errors.append(f"status={status}")
                        return
            except OSError as error:
                with lock:
                    errors.append(repr(error))
            finally:
                conn.close()
            with lock:
                latencies.extend(local)

        threads = [threading.Thread(target=storm) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(latencies) == clients * per_client
        after = cache.stats()
        assert after["misses"] == before["misses"], (
            "warm load re-rendered payloads: the byte cache missed"
        )
        assert after["hits"] - before["hits"] >= clients * per_client
        latencies.sort()
        p95 = latencies[int(len(latencies) * 0.95) - 1]
        # Generous for a loaded 1-CPU box, impossible for a path that
        # re-parses the multi-MB envelope per request.
        assert p95 < 0.2, f"p95 warm latency {p95:.3f}s"
