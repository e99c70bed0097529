"""Job objects and the durable job journal.

A job is the unit the HTTP API reports on (``GET /v1/jobs/<id>``) and
the handle :meth:`ExpansionService.submit` hands back.  Identical
concurrent submissions share one job — the fingerprint, not the job
id, is a result's durable identity (``GET /v1/results/<fp>``), so job
metadata (timestamps, status) deliberately stays *outside* the result
envelope, keeping envelopes byte-identical across surfaces.

A job is a status document, not a second copy of its answer: a done
job holds a reference to the envelope's canonical bytes — the very
object the results store's byte cache serves — and never a parsed
envelope or decoded text.  :meth:`Job.wait_bytes` hands those bytes to
byte consumers (the HTTP front-end, ``--format json``);
:meth:`Job.wait` parses them on demand for in-process callers.

When the service runs over a shared store (``--store-dir``), every
lifecycle transition is journalled through a :class:`JobStore` — one
canonical-JSON job document per id in a ``jobs`` namespace — so a
restarted ``repro serve`` lists prior jobs, serves their results from
the results store, and re-queues the jobs that were still pending (or
interrupted mid-run) at shutdown.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..exceptions import (
    JobCancelledError,
    JobFailedError,
    JobTimeoutError,
    ServiceError,
)
from ..serialize import canonical_json
from ..store import Namespace
from .spec import ScenarioSpec

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"


@dataclass
class Job:
    """One scenario submission and its (eventual) result envelope."""

    job_id: str
    spec: ScenarioSpec
    fingerprint: str
    status: str = PENDING
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: How many submissions this job absorbed (1 + deduplicated ones).
    subscribers: int = 1
    #: Trace id of the submission that created this job (see
    #: :mod:`repro.obs.trace`).  Journalled with the job, echoed as
    #: ``X-Repro-Trace-Id`` by the HTTP front-end, and stamped on every
    #: access-log line the job's lifecycle emits — the join key between
    #: a slow request and its per-stage ``timings`` block.
    trace_id: str | None = None
    _event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: The envelope's canonical bytes once done: the payload object the
    #: results store seeded into (or read through) its byte cache, never
    #: a copy.  ``None`` until done, and for a job restored from the
    #: journal, whose envelope the results store serves.
    payload: bytes | None = field(default=None, repr=False, compare=False)
    #: Wall-clock block (a ``PerfReport`` envelope): the ``resolve``
    #: section timed at submit, the ``results`` lookup, and the stages
    #: when the pipeline ran.  Job metadata only — never part of the
    #: result envelope, which stays byte-identical across surfaces.
    timings: dict | None = field(default=None, repr=False, compare=False)
    #: Set by :meth:`request_cancel`; the pipeline polls it at stage
    #: boundaries (cancellation is cooperative — a running stage body
    #: always finishes, so the stage cache never holds a torn value).
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: Monotonic stamp of the job's last stage-boundary cancel poll —
    #: the liveness signal the watchdog compares against.  Runtime
    #: state only, never journalled.
    heartbeat: float | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Lifecycle (driven by the service)
    # ------------------------------------------------------------------
    # Terminal transitions are first-wins: a watchdog that timed a job
    # out must not be overwritten by the worker completing late, and
    # vice versa.

    def mark_running(self) -> None:
        """Transition pending -> running (the worker picked the job up)."""
        self.status = RUNNING
        self.started_at = time.time()

    def complete(self, payload: bytes) -> None:
        """Terminal success: record the envelope bytes, release waiters."""
        if self.finished:
            return
        self.payload = payload
        self.status = DONE
        self.finished_at = time.time()
        self._event.set()

    def fail(self, error: str) -> None:
        """Terminal failure: record the message and release waiters."""
        if self.finished:
            return
        self.error = error
        self.status = FAILED
        self.finished_at = time.time()
        self._event.set()

    def mark_timed_out(self, reason: str) -> None:
        """Terminal timeout: deadline exceeded or heartbeat gone stale."""
        if self.finished:
            return
        self.error = reason
        self.status = TIMEOUT
        self.finished_at = time.time()
        self._event.set()

    def request_cancel(self) -> None:
        """Flag the job for cooperative cancellation.

        A no-op once the job is terminal — cancelling a finished job
        never un-finishes it (the race a client loses gracefully).
        """
        if not self.finished:
            self.cancel_event.set()

    def mark_cancelled(self) -> None:
        """Terminal cancellation: no envelope; waiters get the error."""
        if self.finished:
            return
        self.status = CANCELLED
        self.finished_at = time.time()
        self._event.set()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the job is done, failed, cancelled or timed out."""
        return self.status in (DONE, FAILED, CANCELLED, TIMEOUT)

    @property
    def cancel_requested(self) -> bool:
        """True while a cancel is pending but the job is not terminal."""
        return self.cancel_event.is_set() and not self.finished

    def wait(self, timeout: float | None = None) -> dict:
        """Block until the job finishes and return its envelope, parsed.

        Each call parses :meth:`wait_bytes`'s payload afresh; the job
        keeps no dict.
        """
        return json.loads(self.wait_bytes(timeout))

    def wait_bytes(self, timeout: float | None = None) -> bytes:
        """Block until the job finishes; its envelope's canonical bytes.

        Raises :class:`JobFailedError` if the job failed,
        :class:`JobTimeoutError` if it hit its deadline or went stale,
        :class:`JobCancelledError` if it was cancelled, and
        :class:`ServiceError` on (wait) timeout.
        """
        if not self._event.wait(timeout):
            raise ServiceError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        if self.status == TIMEOUT:
            raise JobTimeoutError(
                f"job {self.job_id} timed out: {self.error}"
            )
        if self.status == FAILED:
            raise JobFailedError(
                f"job {self.job_id} failed: {self.error}"
            )
        if self.status == CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        if self.payload is None:
            # A job restored from the journal finished in a previous
            # process; its envelope lives in the results store.
            raise ServiceError(
                f"job {self.job_id} finished in a previous process; fetch "
                f"its envelope from the results store as {self.fingerprint}"
            )
        return self.payload

    def to_dict(self) -> dict[str, Any]:
        """Job status document (the ``/v1/jobs/<id>`` body)."""
        payload: dict[str, Any] = {
            "type": "Job",
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "subscribers": self.subscribers,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cancel_requested": self.cancel_requested,
        }
        # The deadline is journalled as a *job* field: the spec's
        # to_dict stays canonical (it is embedded in result envelopes,
        # which must be byte-identical for every submitter regardless
        # of their deadline).
        if self.spec.deadline_s is not None:
            payload["deadline_s"] = self.spec.deadline_s
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.error is not None:
            payload["error"] = self.error
        if self.timings is not None:
            payload["timings"] = self.timings
        if self.status == DONE:
            payload["result_url"] = f"/v1/results/{self.fingerprint}"
        return payload

    @classmethod
    def from_document(cls, payload: dict[str, Any]) -> "Job":
        """Restore a job from its journalled :meth:`to_dict` document.

        Terminal jobs come back finished (waiters are released; the
        envelope itself lives in the results store under the job's
        fingerprint).  Derived fields (``cancel_requested``,
        ``result_url``) are recomputed, not read.
        """
        spec = ScenarioSpec.from_dict(payload["spec"])
        if payload.get("deadline_s") is not None:
            # Rehydrate the job-level deadline onto the spec so a
            # re-queued job keeps its budget across restarts.
            spec = dataclasses.replace(spec, deadline_s=payload["deadline_s"])
        job = cls(
            job_id=str(payload["job_id"]),
            spec=spec,
            fingerprint=str(payload["fingerprint"]),
            status=str(payload.get("status", PENDING)),
            error=payload.get("error"),
            created_at=float(payload.get("created_at") or time.time()),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            subscribers=int(payload.get("subscribers", 1)),
            trace_id=payload.get("trace_id"),
        )
        if job.status not in (PENDING, RUNNING, DONE, FAILED, CANCELLED, TIMEOUT):
            raise ServiceError(f"unknown job status {job.status!r}")
        job.timings = payload.get("timings")
        if payload.get("cancel_requested"):
            job.cancel_event.set()  # a journalled cancel survives restarts
        if job.finished:
            job._event.set()
        return job


# ---------------------------------------------------------------------------
# The durable job journal
# ---------------------------------------------------------------------------

#: Canonical job-id shape (``job-000001``); the journal's key encoding.
_JOB_ID = re.compile(r"^job-[0-9]{1,12}$")


def jobs_namespace(backend) -> Namespace:
    """The canonical job-journal namespace policy over ``backend``."""
    return Namespace(
        backend,
        key_pattern=_JOB_ID,
        key_label="job id",
        suffix=".json",
    )


class JobStore:
    """Job documents journalled through one ``jobs`` namespace.

    Writes are atomic whole-document replacements (last transition
    wins), so the journal always holds a parseable snapshot of every
    job's most recent state — exactly what a restarted service adopts.
    """

    def __init__(self, namespace: Namespace, *, breaker=None) -> None:
        self.namespace = namespace
        #: Optional :class:`~repro.resilience.breaker.CircuitBreaker`
        #: observing journal writes alongside the results store.
        self.breaker = breaker

    def put(self, job: Job) -> None:
        """Journal ``job``'s current state (best-effort on a full disk)."""
        try:
            self.namespace.put(
                job.job_id, canonical_json(job.to_dict()).encode("utf-8")
            )
        except OSError:
            if self.breaker is not None:
                self.breaker.record_failure()
        else:
            if self.breaker is not None:
                self.breaker.record_success()

    def delete(self, job_id: str) -> bool:
        """Drop one journalled document (retention pruning)."""
        return self.namespace.delete(job_id)

    def get(self, job_id: str) -> Job | None:
        """Load one journalled job by id, or ``None``.

        The cross-worker lookup path: a pre-fork sibling that never saw
        ``job_id`` submitted reads the owning worker's last journalled
        snapshot straight from the shared namespace.  Garbled or
        foreign documents read as absent, mirroring :meth:`load`.
        """
        if not _JOB_ID.match(job_id):
            return None
        data = self.namespace.get(job_id)
        if data is None:
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
            if not isinstance(payload, dict) or payload.get("type") != "Job":
                return None
            return Job.from_document(payload)
        except (ServiceError, KeyError, TypeError, ValueError):
            return None

    def load(self) -> Iterator[Job]:
        """Restore every journalled job, oldest id first.

        Garbled documents (torn writes from a crash, foreign files) are
        skipped — losing one status document never blocks a restart.
        """
        def counter(job_id: str) -> int:
            try:
                return int(job_id.split("-", 1)[1])
            except ValueError:
                return 0

        for job_id in sorted(self.namespace.keys(), key=counter):
            data = self.namespace.get(job_id)
            if data is None:
                continue
            try:
                payload = json.loads(data.decode("utf-8"))
                if not isinstance(payload, dict) or payload.get("type") != "Job":
                    continue
                yield Job.from_document(payload)
            except (ServiceError, KeyError, TypeError, ValueError):
                continue

    def max_counter(self) -> int:
        """The highest numeric job-id suffix present (0 when empty)."""
        highest = 0
        for job_id in self.namespace.keys():
            try:
                highest = max(highest, int(job_id.split("-", 1)[1]))
            except ValueError:
                continue
        return highest
