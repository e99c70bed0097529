"""The stdlib HTTP front-end over :class:`ExpansionService`.

``repro serve`` binds a :class:`ThreadingHTTPServer` (one thread per
connection, no third-party dependencies) whose handler translates the
routes in :data:`ROUTES` onto the service.  The full request/response
reference with curl examples lives in ``docs/API.md``; a test diffs
that document against :data:`ROUTES` so the two cannot drift.

Scenario submission bodies are :class:`ScenarioSpec` dicts; the
``type`` tag and the ``outputs`` list may be omitted (each endpoint
fills in its default), so ``{"dataset": {"kind": "synthetic",
"seed": 7}}`` is a complete request.

Result delivery scales down from "the whole envelope" — multi-MB at
paper scale — through three progressively narrower views:

* ``?fields=headline``: a ~1.5 KB summary (identity + headline blocks);
* ``?section=<dotted.path>[&page=N&page_size=M]``: one addressed
  subtree, list sections paginated so a client reassembles exactly the
  bytes of the stored envelope without one oversized response;
* ``/v1/results/<fp>/slices``: the per-slice community assignment as
  NDJSON, written chunk by chunk — the serialised whole never exists
  on either side of the socket.

The warm read path serves *pre-rendered bytes*: results and dataset
metadata come out of the service's byte caches
(:mod:`repro.service.bytescache`) with strong validators — ``ETag``
(the fingerprint / content digest) and ``Last-Modified`` — so a warm
``GET`` writes cached bytes straight to the socket without touching
storage or JSON, a conditional ``GET`` (``If-None-Match`` /
``If-Modified-Since``) collapses to an empty 304, and ``HEAD`` answers
with exactly a ``GET``'s headers.  Every response carries
``Content-Length`` (the streaming NDJSON route excepted — it declares
``Transfer-Encoding: chunked`` instead), so HTTP/1.1 keep-alive holds
across every route and error path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import threading
import time
from email.utils import formatdate, parsedate_to_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable, Iterator
from urllib.parse import parse_qs

from ..data import MobyDataset, rental_records_from_rows
from ..exceptions import (
    DatasetConflictError,
    DatasetTooLargeError,
    JobCancelledError,
    JobFailedError,
    JobTimeoutError,
    ReproError,
    ServiceOverloadedError,
)
from ..obs import TRACE_HEADER, JsonEventLog, is_trace_id, new_trace_id
from ..serialize import (
    DEFAULT_PAGE_SIZE,
    canonical_json,
    paginate,
    resolve_section,
)
from .bytescache import CachedBytes
from .jobs import Job
from .spec import OUTPUT_RUN, OUTPUT_SWEEP, ScenarioSpec
from .service import ExpansionService
from .store import HEADLINE_VIEW, render_headline

#: Cap scenario request bodies well above any realistic spec.
MAX_BODY_BYTES = 1 << 20

#: Cap dataset upload bodies; the JSON row form of the paper-scale
#: dataset is ~10 MB, so this leaves an order of magnitude of headroom
#: while still bounding per-request memory.
MAX_DATASET_BODY_BYTES = 128 << 20

#: Every route the front-end serves, as ``(method, path template)``.
#: This is the registry ``docs/API.md`` is diffed against — add the
#: handler and the documentation together.
ROUTES: tuple[tuple[str, str], ...] = (
    ("GET", "/v1/healthz"),
    ("GET", "/v1/metrics"),
    ("POST", "/v1/runs"),
    ("POST", "/v1/sweeps"),
    ("GET", "/v1/jobs"),
    ("GET", "/v1/jobs/<id>"),
    ("DELETE", "/v1/jobs/<id>"),
    ("GET", "/v1/results/<fingerprint>"),
    ("GET", "/v1/results/<fingerprint>/slices"),
    ("GET", "/v1/datasets"),
    ("GET", "/v1/datasets/<name>"),
    ("PUT", "/v1/datasets/<name>"),
    ("PATCH", "/v1/datasets/<name>"),
    ("DELETE", "/v1/datasets/<name>"),
)

#: ``Content-Range: bytes <start>-<end>/<total>`` — the only form the
#: ranged dataset upload accepts (``*`` totals are rejected: the store
#: pre-flights the size cap against the declared total).
_CONTENT_RANGE = re.compile(r"bytes (\d+)-(\d+)/(\d+)")

#: Client integrity header: hex SHA-256 of the request body.  Verified
#: against the streamed digest when present; mismatch is a 400.
INTEGRITY_HEADER = "X-Repro-Content-SHA256"

#: The temporal blocks ``/slices`` can stream, in envelope order.
_SLICE_BLOCKS = ("day", "hour")


def route_template(method: str, path: str) -> str:
    """The :data:`ROUTES` template matching one request path.

    Metrics and access logs label by *template* (``/v1/jobs/<id>``),
    never by raw path — per-id label values would grow the label set
    without bound.  Unmatched requests share one bucket.  ``HEAD``
    matches its ``GET`` route: same handler, same resource, no body.
    """
    if method == "HEAD":
        method = "GET"
    path = path.split("?", 1)[0].rstrip("/") or "/"
    segments = path.split("/")
    for route_method, template in ROUTES:
        if route_method != method:
            continue
        parts = template.split("/")
        if len(parts) != len(segments):
            continue
        if all(
            part.startswith("<") or part == segment
            for part, segment in zip(parts, segments)
        ):
            return template
    return "(unmatched)"


def _slice_stream_lines(
    envelope: dict, fingerprint: str, output: str, block: str
) -> Iterator[str]:
    """NDJSON lines for one temporal block's per-slice assignment.

    The first line is a header (stream identity plus slice/entry
    counts); each following line carries one slice's share of the
    ``slice_partition`` assignment, pairs in their stored order.
    Concatenating every line's ``assignment`` and sorting by the JSON
    encoding of the node key reproduces the envelope's assignment list
    exactly (that is the canonical order it was stored in).
    """
    outputs = envelope.get("outputs", {})
    if output not in outputs:
        raise KeyError(f"envelope has no {output!r} output")
    if block not in _SLICE_BLOCKS:
        raise KeyError(
            f"unknown temporal block {block!r}; expected one of "
            f"{_SLICE_BLOCKS}"
        )
    temporal = outputs[output].get(block)
    if not isinstance(temporal, dict) or "slice_partition" not in temporal:
        raise KeyError(
            f"output {output!r} carries no {block!r} slice partition "
            "(headline-only or non-run output?)"
        )
    pairs = temporal["slice_partition"]["assignment"]
    by_slice: dict[int, list] = {}
    for pair in pairs:
        # Node keys are encoded (station, slice) tuples — slice last.
        by_slice.setdefault(pair[0][-1], []).append(pair)
    compact = {"sort_keys": True, "separators": (",", ":")}
    yield json.dumps(
        {
            "type": "SliceStream",
            "fingerprint": fingerprint,
            "output": output,
            "block": block,
            "n_slices": temporal.get("n_slices", len(by_slice)),
            "total_entries": len(pairs),
        },
        **compact,
    ) + "\n"
    for index in sorted(by_slice):
        yield json.dumps(
            {"slice": index, "assignment": by_slice[index]}, **compact
        ) + "\n"


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ExpansionService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: ExpansionService,
        access_log: JsonEventLog | None = None,
        *,
        sock=None,
    ):
        if sock is not None:
            # Adopt an externally prepared socket (the pre-fork path:
            # each worker binds its own SO_REUSEPORT socket, or inherits
            # the parent's accept socket).  Listening on an
            # already-listening socket just refreshes the backlog.
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()[:2]
            # server_bind() never ran; fill in what it would have set.
            self.server_name, self.server_port = self.server_address
            self.server_activate()
        else:
            super().__init__(address, _Handler)
        self.service = service
        #: Structured request log (``repro serve --access-log``); the
        #: opener owns closing it — the server only writes lines.
        self.access_log = access_log
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Background lifecycle (tests and embedded use)
    # ------------------------------------------------------------------

    def start_background(self) -> "ServiceHTTPServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and join the background thread."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.server_close()

    @property
    def url(self) -> str:
        """Base URL of the bound socket (useful with port 0)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # TCP_NODELAY: headers and a small body leave as separate writes;
    # with Nagle on, the body write stalls ~40ms behind the peer's
    # delayed ACK — which would dwarf a warm byte-cache response.
    disable_nagle_algorithm = True

    #: Suppress the response body (``HEAD``); headers — including the
    #: exact ``Content-Length`` the ``GET`` would carry — still go out.
    _head_only = False

    # Quiet by default: the CLI prints one line per request instead of
    # BaseHTTPRequestHandler's stderr chatter.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    @property
    def service(self) -> ExpansionService:
        return self.server.service

    # ------------------------------------------------------------------
    # Observability envelope around every request
    # ------------------------------------------------------------------

    def send_response(self, code: int, message: str | None = None) -> None:
        super().send_response(code, message)
        self._status = int(code)
        trace = getattr(self, "trace_id", "")
        if trace:
            self.send_header(TRACE_HEADER, trace)

    def _handle(self, method: str, dispatch: Callable[[], None]) -> None:
        """Run one request with trace id, request metrics and log line.

        The trace id is adopted from the client's ``X-Repro-Trace-Id``
        header when it looks like one (so a caller's id follows the
        request through job, journal and logs) and minted otherwise;
        either way it is echoed on the response.
        """
        claimed = (self.headers.get(TRACE_HEADER) or "").strip().lower()
        self.trace_id = claimed if is_trace_id(claimed) else new_trace_id()
        self._status = 0
        self._head_only = method == "HEAD"
        start = time.perf_counter()
        try:
            dispatch()
        except ConnectionError:
            # The client went away mid-exchange; there is no socket
            # left to answer on.
            self.close_connection = True
        except Exception as error:  # the framing backstop
            # No handler error may leave a keep-alive client waiting on
            # a response that never comes: answer 500 with an exact
            # Content-Length if headers have not gone out, and drop the
            # connection either way (request state is unknown).
            self.close_connection = True
            if self._status == 0:
                try:
                    self._send_error(
                        500,
                        f"internal error: {type(error).__name__}: {error}",
                    )
                except OSError:
                    pass
        finally:
            elapsed = time.perf_counter() - start
            route = route_template(method, self.path)
            self.service.obs.observe_http(
                method, route, self._status, elapsed
            )
            log = self.server.access_log
            if log is not None:
                log.emit(
                    "http",
                    trace_id=self.trace_id,
                    method=method,
                    path=self.path,
                    route=route,
                    status=self._status,
                    duration_s=round(elapsed, 6),
                )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        self._handle("GET", self._route_get)

    def do_HEAD(self) -> None:
        # HEAD runs the GET handlers end to end — same status, same
        # headers (Content-Length included) — with the body suppressed
        # at the send seam, so the two can never disagree.
        self._handle("HEAD", self._route_get)

    def do_POST(self) -> None:
        self._handle("POST", self._route_post)

    def do_PUT(self) -> None:
        self._handle("PUT", self._route_put)

    def do_PATCH(self) -> None:
        self._handle("PATCH", self._route_patch)

    def do_DELETE(self) -> None:
        self._handle("DELETE", self._route_delete)

    def _route_get(self) -> None:
        path, _, query = self.path.partition("?")
        path = path.rstrip("/")
        if path == "/v1/healthz":
            self._send_json(200, self.service.stats())
        elif path == "/v1/metrics":
            self._get_metrics()
        elif path == "/v1/datasets":
            self._send_json(
                200,
                {"type": "DatasetList", "datasets": self.service.datasets.list()},
            )
        elif path.startswith("/v1/datasets/"):
            self._get_dataset(path.removeprefix("/v1/datasets/"))
        elif path == "/v1/jobs":
            self._list_jobs()
        elif path.startswith("/v1/jobs/"):
            self._get_job(path.removeprefix("/v1/jobs/"))
        elif path.startswith("/v1/results/"):
            rest = path.removeprefix("/v1/results/")
            if rest.endswith("/slices"):
                self._stream_slices(rest.removesuffix("/slices"), query)
            else:
                self._get_result(rest, query)
        else:
            self._send_error(404, f"no such resource: {path}")

    def _route_post(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/v1/runs":
            if self._refuse_degraded():
                return
            self._submit(default_outputs=(OUTPUT_RUN,))
        elif path == "/v1/sweeps":
            if self._refuse_degraded():
                return
            self._submit(default_outputs=(OUTPUT_SWEEP,))
        else:
            self._send_error(404, f"no such resource: {path}")

    def _route_put(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path.startswith("/v1/datasets/"):
            if self._refuse_degraded():
                return
            self._put_dataset(path.removeprefix("/v1/datasets/"))
        else:
            self._send_error(404, f"no such resource: {path}")

    def _route_patch(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path.startswith("/v1/datasets/"):
            if self._refuse_degraded():
                return
            self._append_dataset(path.removeprefix("/v1/datasets/"))
        else:
            self._send_error(404, f"no such resource: {path}")

    def _refuse_degraded(self) -> bool:
        """503 + Retry-After when the store-write breaker is open.

        Mutating requests are refused while the service is degraded;
        warm reads (results, datasets, jobs, healthz, metrics) keep
        being served — they never write.  The ``allow()`` probe that
        fails here is also what arms half-open recovery: once the
        reset timeout passes, one request is admitted and its store
        writes decide whether the breaker closes again.
        """
        if self.service.breaker.allow():
            return False
        retry_after = max(1, round(self.service.breaker.retry_after_s()))
        self._send_error(
            503,
            "service is in read-only degraded mode (store writes are "
            "failing); warm results and datasets are still served",
            headers={"Retry-After": str(retry_after)},
        )
        return True

    def _route_delete(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path.startswith("/v1/jobs/"):
            self._cancel_job(path.removeprefix("/v1/jobs/"))
        elif path.startswith("/v1/datasets/"):
            self._delete_dataset(path.removeprefix("/v1/datasets/"))
        else:
            self._send_error(404, f"no such resource: {path}")

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _get_metrics(self) -> None:
        registry = self.service.registry
        if not registry.enabled:
            self._send_error(
                404, "metrics are disabled on this server (metrics=False)"
            )
            return
        self._send_text(
            200,
            registry.render(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # ------------------------------------------------------------------
    # Scenario submission
    # ------------------------------------------------------------------

    def _submit(self, default_outputs: tuple[str, ...]) -> None:
        try:
            body = self._read_body()
            wait = bool(body.pop("wait", True))
            # Opt-in: responses carry a ``meta`` block (trace/job ids).
            # Off by default so the response body stays byte-identical
            # to the stored envelope every other surface serves.
            want_meta = bool(body.pop("meta", False))
            timeout = body.pop("timeout", None)
            if timeout is not None:
                timeout = float(timeout)
            body.setdefault("outputs", list(default_outputs))
            spec = ScenarioSpec.from_dict(body)
        except (ReproError, ValueError, TypeError, KeyError) as error:
            self._send_error(400, str(error))
            return
        try:
            job = self.service.submit(spec, trace_id=self.trace_id)
        except ServiceOverloadedError as error:
            self._send_error(
                429,
                str(error),
                headers={
                    "Retry-After": str(max(1, round(error.retry_after_s)))
                },
            )
            return
        except ReproError as error:
            self._send_error(400, str(error))
            return
        if not wait:
            self._send_json(202, job.to_dict())
            return
        try:
            # The bytes, not a parse: only a meta response needs a dict.
            payload = job.wait_bytes(timeout)
        except JobTimeoutError as error:
            # The *job* hit its deadline_s (or the watchdog reaped it) —
            # distinct from the request-level wait timeout below, which
            # leaves the job running and answers 202.
            self._send_json(504, job.to_dict(), note=str(error))
            return
        except JobFailedError as error:
            self._send_error(500, str(error))
            return
        except JobCancelledError:
            # Another client cancelled the job this request had joined.
            self._send_json(409, job.to_dict(), note="job was cancelled")
            return
        except ReproError as error:  # timeout
            self._send_json(202, job.to_dict(), note=str(error))
            return
        if want_meta:
            # The stored envelope is never touched — only this response
            # body gains the block (a deduplicated submission reports
            # the executing job's trace id, not this request's).
            self._send_text(
                200,
                canonical_json(
                    {
                        **json.loads(payload),
                        "meta": {
                            "job_id": job.job_id,
                            "trace_id": job.trace_id,
                        },
                    }
                ),
            )
            return
        # The stored canonical bytes, unchanged — the same object the
        # byte cache serves to GET /v1/results/<fp>.
        self._send_bytes(200, payload)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def _list_jobs(self) -> None:
        """Every retained job document, oldest first.

        Over a shared ``--store-dir`` this includes jobs journalled by
        previous processes — the restart-visibility listing.
        """
        self._send_json(
            200,
            {
                "type": "JobList",
                "jobs": [job.to_dict() for job in self.service.jobs()],
            },
        )

    def _get_job(self, job_id: str) -> None:
        job: Job | None = self.service.job(job_id)
        if job is None:
            self._send_error(404, f"no such job: {job_id}")
        else:
            self._send_json(200, job.to_dict())

    def _cancel_job(self, job_id: str) -> None:
        job = self.service.cancel(job_id)
        if job is None:
            # Unknown id: 404, distinct from the already-terminal 409
            # below so clients can tell "never existed / pruned" from
            # "exists but can no longer be cancelled".
            self._send_error(404, f"no such job: {job_id}")
        elif job.finished and job.status != "cancelled":
            # Already terminal (done/failed/timeout) — the cancel has
            # nothing to act on and the job's outcome stands.
            self._send_json(
                409,
                job.to_dict(),
                note=f"job already finished as {job.status!r}; "
                "cancel has no effect",
            )
        else:
            self._send_json(202, job.to_dict())

    # ------------------------------------------------------------------
    # Results: whole, headline, paginated section, NDJSON slices
    # ------------------------------------------------------------------

    def _get_result(self, fingerprint: str, query: str = "") -> None:
        params = parse_qs(query)
        try:
            fields = self._single_param(params, "fields")
            section = self._single_param(params, "section")
            if fields is not None and fields != "headline":
                raise ValueError(
                    f"unsupported fields selection {fields!r}; "
                    "only fields=headline is available"
                )
            if fields is not None and section is not None:
                raise ValueError("fields and section are mutually exclusive")
            if section is not None:
                self._get_section(fingerprint, section, params)
                return
            if fields == "headline":
                entry = self.service.results.view_entry(
                    fingerprint, HEADLINE_VIEW, render_headline
                )
            else:
                entry = self.service.results.raw_entry(fingerprint)
        except ValueError as error:
            self._send_error(400, str(error))
            return
        if entry is None:
            self._send_error(404, f"no result stored for {fingerprint}")
            return
        self._serve_entry(entry)

    def _get_section(
        self, fingerprint: str, section: str, params: dict
    ) -> None:
        try:
            page_param = self._single_param(params, "page")
            page_size_param = self._single_param(params, "page_size")
            page = int(page_param) if page_param is not None else None
            if page is None and page_size_param is not None:
                raise ValueError("page_size without page")
            page_size = (
                int(page_size_param)
                if page_size_param is not None
                else DEFAULT_PAGE_SIZE
            )
        except ValueError as error:
            self._send_error(400, str(error))
            return

        def build(envelope: dict) -> bytes:
            # Runs only on a cold (fingerprint, section, page) view;
            # warm pages are served as cached bytes without a parse.
            value = resolve_section(envelope, section)
            document: dict[str, Any] = {
                "type": "ResultSection",
                "fingerprint": fingerprint,
                "section": section,
            }
            if page is not None:
                document.update(paginate(value, page=page, page_size=page_size))
            else:
                document["value"] = value
            return canonical_json(document).encode("utf-8")

        try:
            entry = self.service.results.view_entry(
                fingerprint, ("section", section, page, page_size), build
            )
        except KeyError as error:
            self._send_error(404, str(error.args[0]))
            return
        except ValueError as error:
            self._send_error(400, str(error))
            return
        if entry is None:
            self._send_error(404, f"no result stored for {fingerprint}")
            return
        self._serve_entry(entry)

    def _stream_slices(self, fingerprint: str, query: str) -> None:
        params = parse_qs(query)
        try:
            output = self._single_param(params, "output") or "run"
            block = self._single_param(params, "block") or "day"
            entry = self.service.results.raw_entry(fingerprint)
        except ValueError as error:
            self._send_error(400, str(error))
            return
        if entry is None:
            self._send_error(404, f"no result stored for {fingerprint}")
            return
        try:
            lines = _slice_stream_lines(
                json.loads(entry.payload), fingerprint, output, block
            )
            first = next(lines)  # resolve errors before any bytes go out
        except KeyError as error:
            self._send_error(404, str(error.args[0]))
            return
        self._send_chunked([first], lines)

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------

    def _get_dataset(self, name: str) -> None:
        entry = self.service.datasets.meta_bytes(name)
        if entry is None:
            self._send_error(404, f"no dataset named {name!r}")
        else:
            self._serve_entry(entry)

    def _put_dataset(self, name: str) -> None:
        if self.headers.get("Content-Range"):
            self._put_dataset_fragment(name)
            return
        try:
            body = self._read_body(limit=MAX_DATASET_BODY_BYTES)
            dataset = MobyDataset.from_dict(body)
        except (ReproError, ValueError, TypeError, KeyError) as error:
            self._send_error(400, str(error))
            return
        try:
            overwrote = name in self.service.datasets
            meta = self.service.register_dataset(name, dataset)
        except DatasetTooLargeError as error:
            self._send_error(413, str(error))
            return
        except ReproError as error:
            self._send_error(400, str(error))
            return
        self._send_json(200 if overwrote else 201, meta)

    def _put_dataset_fragment(self, name: str) -> None:
        """One ``Content-Range`` fragment of a resumable dataset upload.

        Fragments must arrive in order; the session buffers them (spool
        file past 8 MB, so a 100 MB+ body never materialises in memory)
        and the assembled JSON is parsed and stored when the last byte
        lands.  Intermediate fragments answer ``202`` with the received
        count; a non-sequential offset answers ``416`` carrying the
        offset to resume from.
        """
        header = self.headers.get("Content-Range", "")
        match = _CONTENT_RANGE.fullmatch(header.strip())
        if match is None:
            self._send_error(
                400,
                f"malformed Content-Range {header!r}; expected "
                "'bytes <start>-<end>/<total>'",
            )
            return
        start, end, total = (int(group) for group in match.groups())
        if total > MAX_DATASET_BODY_BYTES:
            self.close_connection = True
            self._send_error(
                413, f"dataset body over {MAX_DATASET_BODY_BYTES} bytes"
            )
            return
        try:
            data = self._read_raw_body(limit=MAX_DATASET_BODY_BYTES)
            overwrote = name in self.service.datasets
            doc = self.service.datasets.upload_fragment(
                name, data, start=start, end=end, total=total
            )
        except DatasetConflictError as error:
            self._send_error(416, str(error))
            return
        except DatasetTooLargeError as error:
            self._send_error(413, str(error))
            return
        except (ReproError, ValueError, TypeError, KeyError) as error:
            self._send_error(400, str(error))
            return
        if doc.get("complete"):
            self._send_json(200 if overwrote else 201, doc)
        else:
            self._send_json(202, doc)

    def _append_dataset(self, name: str) -> None:
        """``PATCH /v1/datasets/<name>``: append rentals onto a dataset.

        The body is ``{"rentals": [[id, bike_id, started_at, ended_at,
        rental_location_id, return_location_id], ...]}`` — the row shape
        of the full upload.  Appended ids must strictly exceed every
        stored id (``409`` otherwise); the response is the updated
        metadata document with the rolled-forward chain digest, so the
        resource's ``ETag`` moves with every accepted append.
        """
        try:
            body = self._read_body(limit=MAX_DATASET_BODY_BYTES)
            rentals = rental_records_from_rows(body.get("rentals", []))
        except (ReproError, ValueError, TypeError, KeyError) as error:
            self._send_error(400, str(error))
            return
        try:
            meta = self.service.append_dataset(name, rentals)
        except DatasetConflictError as error:
            self._send_error(409, str(error))
            return
        except DatasetTooLargeError as error:
            self._send_error(413, str(error))
            return
        except ReproError as error:
            self._send_error(400, str(error))
            return
        if meta is None:
            self._send_error(404, f"no dataset named {name!r}")
        else:
            self._send_json(200, meta)

    def _delete_dataset(self, name: str) -> None:
        if self.service.delete_dataset(name):
            self._send_json(200, {"deleted": name})
        else:
            self._send_error(404, f"no dataset named {name!r}")

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _single_param(params: dict, name: str) -> str | None:
        """The at-most-once query parameter ``name``, or None."""
        values = params.get(name)
        if not values:
            return None
        if len(values) > 1:
            raise ValueError(f"query parameter {name!r} given twice")
        return values[0]

    def _read_raw_body(self, limit: int = MAX_BODY_BYTES) -> bytes:
        """Drain the request body in 64 KiB chunks with a rolling digest.

        Large dataset bodies never pass through one giant
        ``rfile.read`` buffer-doubling call, and the digest comes for
        free on the way past: when the client sent
        ``X-Repro-Content-SHA256``, a mismatch (truncated proxy, bit
        rot) is a ``400`` before any of the bytes are acted on.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length > limit:
            # The body stays unread; drop the connection after the 400
            # so keep-alive does not parse those bytes as a request.
            self.close_connection = True
            raise ValueError(f"request body over {limit} bytes")
        sha = hashlib.sha256()
        chunks: list[bytes] = []
        remaining = length
        while remaining:
            chunk = self.rfile.read(min(remaining, 64 * 1024))
            if not chunk:
                self.close_connection = True
                raise ValueError(
                    f"request body truncated at {length - remaining} "
                    f"of {length} bytes"
                )
            sha.update(chunk)
            chunks.append(chunk)
            remaining -= len(chunk)
        claimed = (self.headers.get(INTEGRITY_HEADER) or "").strip().lower()
        if claimed and claimed != sha.hexdigest():
            raise ValueError(
                f"{INTEGRITY_HEADER} does not match the received body"
            )
        return b"".join(chunks)

    def _read_body(self, limit: int = MAX_BODY_BYTES) -> dict:
        raw = self._read_raw_body(limit)
        payload = json.loads(raw.decode("utf-8") or "{}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _send_bytes(
        self,
        status: int,
        data: bytes,
        content_type: str | None = "application/json",
        headers: dict[str, str] | None = None,
    ) -> None:
        """The one seam every non-streaming response goes through.

        Guarantees the keep-alive invariants: an exact
        ``Content-Length`` on every response, an explicit
        ``Connection: close`` whenever the handler decided to drop the
        connection (so clients stop waiting instead of timing out on a
        dead socket), and body suppression for ``HEAD`` *after* the
        headers are computed — a ``HEAD`` carries exactly the headers
        of its ``GET``.
        """
        self.send_response(status)
        if content_type is not None:
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if data and not self._head_only:
            self.wfile.write(data)

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_bytes(
            status, text.encode("utf-8"), content_type, headers
        )

    def _not_modified(self, entry: CachedBytes) -> bool:
        """Whether the request's validators match ``entry``.

        ``If-None-Match`` wins over ``If-Modified-Since`` when both are
        present (RFC 9110 §13.1.3).  Comparison is the weak one: a
        ``W/`` prefix on a client tag is stripped, because the cached
        tags are strong and a weak match suffices for 304.
        """
        inm = self.headers.get("If-None-Match")
        if inm is not None:
            for candidate in inm.split(","):
                tag = candidate.strip()
                if tag == "*":
                    return True
                if tag.startswith("W/"):
                    tag = tag[2:]
                if tag.strip('"') == entry.etag:
                    return True
            return False
        ims = self.headers.get("If-Modified-Since")
        if ims is not None:
            try:
                since = parsedate_to_datetime(ims).timestamp()
            except (TypeError, ValueError, OverflowError):
                return False
            # Last-Modified is served at whole-second resolution, so
            # compare the truncated stamp against the parsed header.
            return int(entry.last_modified) <= since
        return False

    def _serve_entry(
        self,
        entry: CachedBytes,
        content_type: str = "application/json",
    ) -> None:
        """Serve cached bytes with validators, honouring conditionals."""
        validators = {
            "ETag": f'"{entry.etag}"',
            "Last-Modified": formatdate(entry.last_modified, usegmt=True),
        }
        if self._not_modified(entry):
            self._send_bytes(304, b"", None, validators)
        else:
            self._send_bytes(200, entry.payload, content_type, validators)

    def _send_chunked(
        self,
        head: Iterable[str],
        rest: Iterator[str],
        content_type: str = "application/x-ndjson",
    ) -> None:
        """Stream ``head`` then ``rest`` with chunked transfer encoding.

        One chunk per NDJSON line: the full response body never exists
        as a single string, which is the point of the streaming route.
        """
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Transfer-Encoding", "chunked")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self._head_only:
            return
        for line in itertools.chain(head, rest):
            data = line.encode("utf-8")
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data)
            self.wfile.write(b"\r\n")
        self.wfile.write(b"0\r\n\r\n")

    def _send_json(self, status: int, payload: dict, note: str | None = None) -> None:
        if note is not None:
            payload = {**payload, "note": note}
        self._send_text(status, canonical_json(payload))

    def _send_error(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_text(
            status, canonical_json({"error": message}), headers=headers
        )


def make_server(
    service: ExpansionService,
    host: str = "127.0.0.1",
    port: int = 8722,
    access_log: JsonEventLog | None = None,
) -> ServiceHTTPServer:
    """Bind (but do not start) the HTTP front-end.

    ``port=0`` binds an ephemeral port — read it back from ``.url``.
    """
    return ServiceHTTPServer((host, port), service, access_log=access_log)
