"""`ExpansionService`: the one engine behind every API surface.

The Python API, the CLI and the HTTP front-end all reduce to the same
three calls — build a :class:`~repro.service.spec.ScenarioSpec`,
``submit()`` it, ``wait()`` on the job — so behaviour (caching,
deduplication, result persistence) is defined here exactly once.

Request flow::

    submit(spec)
      └─ resolve dataset ref ──► content digest
           └─ spec.fingerprint(digest)
                ├─ identical job already in flight?  join it (dedup)
                ├─ envelope in the results store?    done, no compute
                └─ else: queue on the bounded worker pool
                     └─ PipelineRunner against the shared StageCache
                          └─ envelope ──► results store

A CSV ref resolves to its digest through a persisted memo keyed by the
files' content hash, so a stored scenario is served without parsing a
row; the rows are built only once a job misses the results store.  The
pipeline runner, the dataset generator and the report renderers are
imported on that miss path too, so a process that only answers stored
scenarios never loads them.

Two clients racing on the same scenario therefore share one pipeline
execution, and a scenario computed by any surface is warm for all of
them — the stage cache dedupes *stage* work across different specs,
the results store and in-flight table dedupe *whole scenarios*.

Storage is one pluggable subsystem (:mod:`repro.store`).  Constructed
with ``store_dir``/``store_backend`` the service roots its stage
cache, results store, dataset store *and job journal* in namespaces of
a single :class:`~repro.store.Store` — stop the process, start a new
one over the same directory, and prior jobs are listed, their results
served, and the jobs that were still queued (or interrupted mid-run)
are re-queued and resume against the warm stage cache.  Without a
store every component is in memory, except that ``cache_dir`` gives
the stage cache alone a directory of its own.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import locale
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Mapping

#: Resolved (dataset, digest) pairs kept in memory; a sweep over many
#: seeds must not accumulate full datasets without bound.
DATASET_CACHE_SLOTS = 8

#: Bump when the CSV readers or ``dataset_digest`` change what a CSV
#: pair's bytes mean: every persisted source → digest memo entry then
#: misses instead of pairing new rows with an old digest.
CSV_SOURCE_SCHEMA = 1

#: The files of a CSV dataset directory, in memo-key order.
_CSV_FILES = ("locations.csv", "rentals.csv")

#: What a memo entry must hold to count as a hit (a SHA-256 digest).
_DIGEST = re.compile(r"[0-9a-f]{64}")

from ..data import MobyDataset
from ..data.csvio import read_locations, read_rentals
from ..exceptions import (
    DataError,
    PipelineCancelledError,
    ServiceError,
    ServiceOverloadedError,
)
from ..obs import (
    NULL_REGISTRY,
    JsonEventLog,
    MetricsRegistry,
    ServiceMetrics,
    new_trace_id,
)
from ..perf import NULL_TIMER, StageTimer
from ..pipeline.cache import StageCache, stage_namespace
from ..resilience import CircuitBreaker, Watchdog
from ..pipeline.fingerprint import dataset_digest
from ..pipeline.fingerprint import fingerprint as content_fingerprint
from ..serialize import ENVELOPE_VERSION, canonical_json
from ..store import ObjectLRU, Store
from .datasets import (
    DEFAULT_MAX_DATASET_BYTES,
    DatasetStore,
    datasets_namespace,
)
from .jobs import PENDING, RUNNING, TIMEOUT, Job, JobStore, jobs_namespace
from .spec import (
    OUTPUT_REBALANCE,
    OUTPUT_REPORT,
    OUTPUT_RUN,
    OUTPUT_SWEEP,
    DatasetRef,
    ScenarioSpec,
)
from .store import ResultsStore, results_namespace


class _CsvBytes:
    """A CSV pair's bytes, hashed at submit, parsed only if a job needs rows.

    :meth:`take` hands the bytes out once and forgets them, so a queued
    job holds them until its parse at most — never through the pipeline.
    """

    __slots__ = ("files", "encoding")

    def __init__(self, files: tuple[bytes, ...], encoding: str) -> None:
        self.files: tuple[bytes, ...] | None = files
        self.encoding = encoding

    def take(self) -> tuple[bytes, ...]:
        files, self.files = self.files, None
        return files


def _parse_csv(files: tuple[bytes, ...], encoding: str) -> MobyDataset:
    """The rows of a CSV pair, decoded as ``open(path, newline="")`` reads
    the files in :meth:`MobyDataset.from_csv` (same rows, same digest)."""
    locations, rentals = (
        io.TextIOWrapper(io.BytesIO(data), encoding=encoding, newline="")
        for data in files
    )
    return MobyDataset.from_records(
        read_locations(locations), read_rentals(rentals)
    )


class ExpansionService:
    """Runs scenario specs as deduplicated jobs over shared caches.

    Parameters
    ----------
    store / store_dir / store_backend:
        The shared storage subsystem.  ``store_dir`` roots every
        namespace (stage cache, results, datasets, job journal) in one
        :class:`~repro.store.Store` tree; ``store_backend`` picks the
        layout (``dir``, ``sharded``, or ``memory``).  With a job
        journal present the service restores prior jobs on
        construction and re-queues the ones a previous process left
        pending or running.
    cache:
        A shared :class:`StageCache`; built from ``cache_dir`` /
        ``cache_bytes`` / ``cache_entries`` or the store's ``stage``
        namespace when omitted.
    max_workers:
        Bound on concurrently executing jobs.
    retain_jobs:
        Keep at most this many *terminal* (done/failed/cancelled) jobs
        in the job table, pruned oldest-first; in-flight jobs never
        count against the limit.  ``None`` disables pruning.
    datasets:
        A :class:`DatasetStore` for ``named`` dataset refs; built from
        the store's ``datasets`` namespace and the ``dataset*`` caps
        when omitted (memory-only without a store).
    metrics:
        The observability registry: ``True`` (default) builds a fresh
        :class:`~repro.obs.MetricsRegistry`, ``False`` installs the
        no-op null registry, or pass a registry to share one across
        services.  Exposed as :attr:`registry` (what ``GET
        /v1/metrics`` renders); the instrument set is :attr:`obs`.
    healthz_ttl:
        Occupancy-scan cache TTL, in seconds, applied to every store
        namespace the service reports on (``/v1/healthz`` and the
        scrape-time store metrics read the same cached scan).  ``0``
        disables the cache; ``None`` keeps the namespace default.
    event_log:
        A :class:`~repro.obs.JsonEventLog` receiving one structured
        line per job lifecycle transition (``repro serve
        --access-log`` adds per-request lines through the same log).
    max_queue:
        Admission bound: at most this many jobs may be admitted but
        not yet finished (queued + running).  Past it, :meth:`submit`
        raises :class:`~repro.exceptions.ServiceOverloadedError` (the
        HTTP front-end turns that into 429 + Retry-After) instead of
        queueing without bound.  ``None`` (default) disables shedding.
        Joining an in-flight identical job never counts — dedup adds
        no load.
    breaker:
        The :class:`~repro.resilience.CircuitBreaker` observing result
        and journal writes; built with defaults when omitted.  While
        open the HTTP front-end serves read-only (mutating requests
        get 503 + Retry-After); state is in :meth:`stats` and the
        metrics scrape.
    watchdog_stale_s:
        Fail a *running* job whose stage-boundary heartbeat is older
        than this many seconds (the ``timeout`` terminal state), so a
        worker wedged inside a stage doesn't leak its pool slot.
        ``None`` (default) disables the watchdog — legitimate paper
        runs may spend minutes inside one stage.
    watchdog_interval_s:
        How often the watchdog thread scans the job table.
    """

    def __init__(
        self,
        *,
        store: Store | None = None,
        store_dir: str | Path | None = None,
        store_backend: str | None = None,
        cache: StageCache | None = None,
        cache_dir: str | Path | None = None,
        cache_bytes: int | None = None,
        cache_entries: int | None = None,
        max_workers: int = 2,
        retain_jobs: int | None = 1024,
        datasets: DatasetStore | None = None,
        max_dataset_bytes: int | None = DEFAULT_MAX_DATASET_BYTES,
        max_datasets_bytes: int | None = None,
        max_datasets: int | None = None,
        resume_jobs: bool = True,
        metrics: MetricsRegistry | bool = True,
        healthz_ttl: float | None = None,
        event_log: JsonEventLog | None = None,
        max_queue: int | None = None,
        breaker: CircuitBreaker | None = None,
        watchdog_stale_s: float | None = None,
        watchdog_interval_s: float = 1.0,
        worker: int = 0,
    ) -> None:
        if max_workers < 1:
            raise ServiceError("max_workers must be at least 1")
        if retain_jobs is not None and retain_jobs < 1:
            raise ServiceError("retain_jobs must be positive (or None)")
        if healthz_ttl is not None and healthz_ttl < 0:
            raise ServiceError("healthz_ttl must be non-negative (or None)")
        if max_queue is not None and max_queue < 1:
            raise ServiceError("max_queue must be positive (or None)")
        if watchdog_stale_s is not None and watchdog_stale_s <= 0:
            raise ServiceError("watchdog_stale_s must be positive (or None)")
        if isinstance(metrics, MetricsRegistry):
            self.registry = metrics
        else:
            self.registry = MetricsRegistry() if metrics else NULL_REGISTRY
        #: Pre-fork worker index (0 for a single-process service); a
        #: ``worker`` label on healthz and metrics tells responses from
        #: the processes behind one ``SO_REUSEPORT`` port apart.
        self.worker = worker
        self.obs = ServiceMetrics(self.registry)
        self.obs.bind_worker(worker)
        self.event_log = event_log
        self.healthz_ttl = healthz_ttl
        self.retain_jobs = retain_jobs
        if store is None and (store_dir is not None or store_backend is not None):
            store = Store(store_dir, store_backend)
        self.store = store
        # Per component: an explicit object wins, then (for the stage
        # cache) ``cache_dir``, then the shared store's namespace, then
        # memory.
        if cache is not None:
            self.cache = cache
        elif cache_dir is not None or store is None or store.backend_kind == "memory":
            # A memory "durable" tier would just duplicate every stage
            # value as an unbounded in-RAM pickle next to the bounded
            # ObjectLRU — no durability bought; skip it entirely.
            self.cache = StageCache(
                cache_dir, max_bytes=cache_bytes, max_entries=cache_entries
            )
        else:
            self.cache = StageCache(
                namespace=stage_namespace(
                    store.backend("stage"),
                    max_bytes=cache_bytes,
                    max_entries=cache_entries,
                )
            )
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        if store is None:
            self.results = ResultsStore(breaker=self.breaker)
        else:
            self.results = ResultsStore(
                namespace=results_namespace(store.backend("results")),
                breaker=self.breaker,
            )
        # Schema verdicts of published envelopes, memoised by content
        # next to the CSV source memo: a later process reading the same
        # bytes back skips the parse.
        self.results.verdicts = self.cache
        if datasets is not None:
            self.datasets = datasets
        elif store is None:
            self.datasets = DatasetStore(
                max_dataset_bytes=max_dataset_bytes,
                max_total_bytes=max_datasets_bytes,
                max_datasets=max_datasets,
            )
        else:
            self.datasets = DatasetStore(
                namespace=datasets_namespace(
                    store.backend("datasets"),
                    max_dataset_bytes=max_dataset_bytes,
                    max_total_bytes=max_datasets_bytes,
                    max_datasets=max_datasets,
                )
            )
        self.jobstore = (
            JobStore(jobs_namespace(store.backend("jobs")), breaker=self.breaker)
            if store is not None
            else None
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._mutex = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._datasets: ObjectLRU = ObjectLRU(DATASET_CACHE_SLOTS)
        self._job_counter = 0
        #: How many times a pipeline actually executed (not deduplicated,
        #: not served from the results store).  The dedup tests and the
        #: ``/v1/healthz`` document read this.
        self.pipeline_executions = 0
        #: How many of those executions ran in incremental mode (merged
        #: a parent lineage delta instead of recomputing from scratch).
        self.incremental_runs = 0
        #: Terminal jobs dropped by the retention policy.
        self.jobs_pruned = 0
        #: Jobs adopted from a previous process's journal, and how many
        #: of them were re-queued (pending/running at shutdown).
        self.jobs_restored = 0
        self.jobs_requeued = 0
        #: Submissions refused because the admission queue was full.
        self.jobs_shed = 0
        #: Running jobs the watchdog timed out on a stale heartbeat.
        self.watchdog_failures = 0
        self.max_queue = max_queue
        #: Jobs admitted to the pool and not yet finished (the number
        #: the admission bound compares against).
        self._pending = 0
        # The observability plane reads the same live objects healthz
        # does: namespaces at scrape time (their TTL-cached occupancy
        # scans), the job table under the mutex.
        namespaces: dict[str, Any] = {
            "results": self.results.namespace,
            "datasets": self.datasets.namespace,
        }
        if self.cache.namespace is not None:
            namespaces["stage"] = self.cache.namespace
        if self.jobstore is not None:
            namespaces["jobs"] = self.jobstore.namespace
        if healthz_ttl is not None:
            for namespace in namespaces.values():
                namespace.occupancy_ttl_s = float(healthz_ttl)
        self.obs.bind_namespaces(namespaces)
        self.obs.bind_job_table(self._jobs_by_state)
        self.obs.bind_breaker(self.breaker.snapshot)
        self.obs.bind_bytes_cache(self.results.bytes_cache.stats)
        self.obs.bind_ingestion(self.datasets.ingestion_stats)
        self.watchdog_stale_s = watchdog_stale_s
        self.watchdog: Watchdog | None = None
        if watchdog_stale_s is not None:
            self.watchdog = Watchdog(
                self._watchdog_scan, interval_s=watchdog_interval_s
            ).start()
        if self.jobstore is not None:
            self._restore_jobs(resume=resume_jobs)

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------

    def register_dataset(self, name: str, dataset: MobyDataset) -> dict:
        """Store ``dataset`` under ``name`` for ``named`` refs.

        The metadata document returned is what ``PUT /v1/datasets/<name>``
        responds with (name, content digest, row counts, bytes).
        Overwrites replace content and digest; scenarios already
        resolved against the old content keep their results — the spec
        fingerprint tracks the digest, not the name.
        """
        meta = self.datasets.put(name, dataset)
        self._forget_named(name, keep=meta["digest"])
        return meta

    def append_dataset(self, name: str, rentals: list) -> dict | None:
        """Append rental records onto a stored dataset (``PATCH``).

        Returns the updated metadata document (new chain digest, counts,
        append lineage) or ``None`` when no dataset is stored under
        ``name``.  The store rolls the content digest forward in O(delta)
        and re-chains only the temporal slices the delta touches, so a
        resubmitted scenario recomputes just those slices.  Cached
        byte-views keyed by the old digest miss naturally — the digest
        moved — and the rows resolved under it are dropped from memory.
        """
        meta = self.datasets.append(name, rentals)
        if meta is not None:
            self._forget_named(name, keep=meta["digest"])
        return meta

    def delete_dataset(self, name: str) -> bool:
        """Drop a named dataset; returns whether it existed."""
        existed = self.datasets.delete(name)
        self._forget_named(name)
        return existed

    def _forget_named(self, name: str, keep: str | None = None) -> None:
        """Drop ``name``'s memoised rows, except those of digest ``keep``.

        A superseded digest is never resolved again, so its rows (tens
        of MiB at paper scale) would only occupy a memo slot.
        """
        for key in list(self._datasets):
            if key[:2] == ("named", name) and key[2] != keep:
                self._datasets.pop(key)

    def _resolve_ref(
        self, ref: DatasetRef, timer: StageTimer = NULL_TIMER
    ) -> tuple[MobyDataset | _CsvBytes, str]:
        """(rows, content digest) for one dataset ref, timed as ``resolve``.

        Resolutions are memoised in a small LRU keyed by content: a
        synthetic seed, a named dataset's stored digest, or a CSV
        pair's dataset digest.  A CSV ref whose digest comes from the
        persisted memo may hand out its unparsed bytes instead of rows
        (see :meth:`_resolve_csv` and :meth:`_rows`).
        """
        with timer.section("resolve"):
            if ref.kind == "csv":
                return self._resolve_csv(ref.path, timer)
            if ref.kind == "synthetic":
                key: tuple = ("synthetic", ref.seed)
            else:
                # The digest is only the memo key here; the pair
                # actually handed out below is taken atomically from the
                # store, so a racing overwrite costs at most a memo miss
                # — never a digest paired with the wrong rows.
                named_digest = self.datasets.digest(ref.name)
                if named_digest is None:
                    raise ServiceError(
                        f"no dataset registered as {ref.name!r}"
                    )
                key = ("named", ref.name, named_digest)
            cached = self._datasets.get(key)
            if cached is not None:
                return cached
            if ref.kind == "named":
                # Content replaced behind this service's back (a ranged
                # upload, another worker's PATCH): drop the stale rows
                # before loading the current ones.
                self._forget_named(ref.name, keep=named_digest)
            if ref.kind == "synthetic":
                from ..synth import SyntheticMobyGenerator

                with timer.section("generate"):
                    raw = SyntheticMobyGenerator(seed=ref.seed).generate()
                with timer.section("digest"):
                    resolved = (raw, dataset_digest(raw))
            else:
                # Atomic (rows, digest) — the store digested the rows at
                # put time under the same lock, so this never recomputes
                # and never mixes versions.  Re-key the memo on the
                # digest the pair actually carries.
                with timer.section("load"):
                    resolved = self.datasets.get_with_digest(ref.name)
                if resolved is None:
                    raise ServiceError(
                        f"no dataset registered as {ref.name!r}"
                    )
                key = ("named", ref.name, resolved[1])
            self._datasets.put(key, resolved)
            return resolved

    def _resolve_csv(
        self, path: str, timer: StageTimer
    ) -> tuple[MobyDataset | _CsvBytes, str]:
        """(rows or unparsed bytes, dataset digest) for a CSV directory.

        The digest is memoised in the stage cache under the SHA-256 of
        both files' bytes (plus the schema and text encoding they are
        decoded with), so it survives restarts and follows the stage
        namespace's quotas.  A content hash, not file identity: an edit
        that keeps size and mtime still moves the key.  On a memo hit
        the rows are built later, and only if a job misses the results
        store; on a miss they are parsed here, from the same bytes that
        were hashed, so rows and digest always describe one version of
        the files.  An evicted, unreadable or non-digest entry is a miss.
        """
        root = Path(path)
        try:
            with timer.section("read"):
                files = tuple((root / name).read_bytes() for name in _CSV_FILES)
        except OSError as error:
            raise ServiceError(
                f"cannot load csv dataset from {path!r}: {error}"
            ) from error
        encoding = codecs.lookup(locale.getpreferredencoding(False)).name
        with timer.section("hash"):
            source_key = content_fingerprint(
                "source",
                CSV_SOURCE_SCHEMA,
                encoding,
                *(hashlib.sha256(data).hexdigest() for data in files),
            )
        with timer.section("memo"):
            digest = self.cache.get(source_key)
        if isinstance(digest, str) and _DIGEST.fullmatch(digest):
            cached = self._datasets.get(("csv", digest))
            if cached is not None:
                return cached
            return _CsvBytes(files, encoding), digest
        try:
            with timer.section("parse"):
                raw = _parse_csv(files, encoding)
        except (csv.Error, DataError, KeyError, TypeError, ValueError) as error:
            raise ServiceError(
                f"cannot load csv dataset from {path!r}: {error}"
            ) from error
        with timer.section("digest"):
            digest = dataset_digest(raw)
        self.cache.put(source_key, digest)
        resolved = (raw, digest)
        self._datasets.put(("csv", digest), resolved)
        return resolved

    def _rows(
        self, source: MobyDataset | _CsvBytes, digest: str, timer: StageTimer
    ) -> MobyDataset:
        """The rows behind a resolved source; CSV bytes are parsed once.

        Called by a job that missed the results store.  Another job may
        have parsed the same content meanwhile, so the memo comes first.
        """
        if isinstance(source, MobyDataset):
            return source
        files = source.take()
        key = ("csv", digest)
        cached = self._datasets.get(key)
        if cached is not None:
            return cached[0]
        with timer.section("resolve"), timer.section("parse"):
            raw = _parse_csv(files, source.encoding)
        self._datasets.put(key, (raw, digest))
        return raw

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: ScenarioSpec | Mapping[str, Any],
        trace_id: str | None = None,
    ) -> Job:
        """Queue a scenario; identical in-flight requests share one job.

        ``trace_id`` (minted when omitted) is journalled with the job
        and rides every observability signal the job emits; a
        submission that joins an in-flight job keeps that job's
        original trace id — one execution, one trace.
        """
        if isinstance(spec, Mapping):
            spec = ScenarioSpec.from_dict(spec)
        timer = StageTimer()
        raw, digest, resolved, fingerprint = self._resolve_spec(spec, timer)
        with self._mutex:
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                inflight.subscribers += 1
                self.obs.dedup_hits.inc()
                return inflight
            self._check_admission_locked()
        job_id = self._claim_job_id()
        with self._mutex:
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                # Lost the race to an identical submission while the id
                # was being claimed: join it (the claimed id is a gap).
                inflight.subscribers += 1
                self.obs.dedup_hits.inc()
                return inflight
            self._check_admission_locked()
            job = Job(
                job_id=job_id,
                spec=spec,
                fingerprint=fingerprint,
                trace_id=trace_id or new_trace_id(),
            )
            self._jobs[job.job_id] = job
            self._inflight[fingerprint] = job
            self._pending += 1
            pruned = self._prune_jobs_locked()
        # Journal I/O happens outside the mutex: unlinking pruned
        # documents (or a slow disk) must not stall concurrent
        # submissions and status lookups.
        if self.jobstore is not None:
            for job_id in pruned:
                self.jobstore.delete(job_id)
        self._journal(job)
        self._pool.submit(self._execute, job, raw, digest, resolved, timer)
        return job

    def _check_admission_locked(self) -> None:
        """Shed the submission when the admission queue is full.

        Caller holds the mutex.  Dedup joins never reach here — an
        identical in-flight job absorbs the submission without adding
        load — so only genuinely new work is bounded.
        """
        if self.max_queue is None or self._pending < self.max_queue:
            return
        self.jobs_shed += 1
        self.obs.jobs_shed.inc()
        raise ServiceOverloadedError(
            f"admission queue is full ({self._pending} jobs admitted, "
            f"bound {self.max_queue}); retry shortly",
            retry_after_s=1.0,
        )

    def _claim_job_id(self) -> str:
        """Allocate the next unused job id.

        The counter moves under the mutex, but the journal probe — one
        backend stat per candidate, needed because another process on
        the same store (a one-shot CLI embedder next to a server) may
        have journalled ids this counter never saw — runs *outside* it,
        so a slow disk cannot stall concurrent status lookups.
        Overwriting a foreign document would silently erase history.
        """
        while True:
            with self._mutex:
                self._job_counter += 1
                candidate = f"job-{self._job_counter:06d}"
            if self.jobstore is None or candidate not in self.jobstore.namespace:
                return candidate

    def _resolve_spec(
        self, spec: ScenarioSpec, timer: StageTimer = NULL_TIMER
    ) -> tuple[MobyDataset | _CsvBytes, str, list | None, str]:
        """Resolve a spec's data and identity: (raw, digest, sweep, fp).

        For a dataset-axis sweep every named dataset is resolved up
        front — the fingerprint must track all of their content
        digests — and the resolved ``(name, raw, digest)`` triples ride
        along to execution so the envelope is built from exactly the
        content that was fingerprinted.
        """
        if spec.sweep_datasets:
            resolved = [
                (name, *self._resolve_ref(DatasetRef.named(name), timer))
                for name in spec.sweep_datasets
            ]
            fingerprint = spec.fingerprint(
                "",
                sweep_dataset_digests=[
                    (name, digest) for name, _, digest in resolved
                ],
            )
            _, raw, digest = resolved[0]
            return raw, digest, resolved, fingerprint
        raw, digest = self._resolve_ref(spec.dataset, timer)
        return raw, digest, None, spec.fingerprint(digest)

    def _journal(self, job: Job) -> None:
        """Persist ``job``'s current state to the job journal, if any.

        Every call also feeds the observability plane — but only when
        the status actually moved since the last journal write (cancel
        re-journals the same state), so the transition counter and the
        event log see each lifecycle edge exactly once.
        """
        if self.jobstore is not None:
            self.jobstore.put(job)
        status = job.status
        if getattr(job, "_obs_status", None) == status:
            return
        job._obs_status = status
        self.obs.observe_transition(status)
        if self.event_log is not None:
            self.event_log.emit(
                "job",
                trace_id=job.trace_id or "",
                job_id=job.job_id,
                status=status,
                fingerprint=job.fingerprint,
                subscribers=job.subscribers,
                error=job.error,
            )

    def _restore_jobs(self, resume: bool = True) -> None:
        """Adopt a previous process's journalled jobs (constructor path).

        Terminal jobs come back as status documents whose envelopes the
        results store still serves; jobs that were pending or running
        at shutdown are re-queued — re-resolved and executed afresh,
        resuming from whatever the stage cache already holds.  One-shot
        embedders (the CLI subcommands) pass ``resume=False`` so a
        short-lived service over a long-lived store never hijacks
        another process's backlog; the jobs stay pending in the journal
        for the next resuming service.
        """
        assert self.jobstore is not None
        requeue: list[Job] = []
        self._job_counter = max(self._job_counter, self.jobstore.max_counter())
        for job in self.jobstore.load():
            self._jobs[job.job_id] = job
            self.jobs_restored += 1
            if job.status in (PENDING, RUNNING) and resume:
                job.status = PENDING
                job.started_at = None
                requeue.append(job)
        for job in requeue:
            self.jobs_requeued += 1
            with self._mutex:
                self._pending += 1  # restored backlog counts as admitted
            self._journal(job)  # back to pending before the pool runs it
            self._pool.submit(self._execute_restored, job)

    def _execute_restored(self, job: Job) -> None:
        """Re-run one re-queued job: resolve late, then execute normally.

        Dataset resolution happens here (on the worker) rather than in
        the constructor so a large backlog cannot stall startup; a
        dataset that no longer resolves fails the job instead of the
        restart.  A fresh submission racing a restored job on the same
        fingerprint may execute alongside it — the shared stage cache's
        per-key locks make the overlap cheap and both land the same
        envelope — while dedup bookkeeping stays correct: each job only
        clears its own in-flight registration.
        """
        timer = StageTimer()
        try:
            raw, digest, resolved, fingerprint = self._resolve_spec(
                job.spec, timer
            )
        except Exception as error:
            job.fail(f"{type(error).__name__}: {error}")
            self._journal(job)
            with self._mutex:
                self._pending -= 1
            return
        job.fingerprint = fingerprint  # content may have moved meanwhile
        with self._mutex:
            self._inflight.setdefault(fingerprint, job)
        self._execute(job, raw, digest, resolved, timer)

    def _prune_jobs_locked(self) -> list[str]:
        """Drop the oldest terminal jobs beyond :attr:`retain_jobs`.

        Caller holds the mutex and is responsible for deleting the
        returned ids from the job journal *after* releasing it.  The
        job *table* is what grows without bound on a long-lived service
        — result envelopes live in the results store under their
        fingerprint, so pruning a job never loses a result, only its
        status document.
        """
        if self.retain_jobs is None:
            return []
        # Only terminal jobs count against the limit — a burst of
        # in-flight work must never push finished documents out early.
        terminal = [
            job_id for job_id, job in self._jobs.items() if job.finished
        ]  # insertion = age order
        excess = len(terminal) - self.retain_jobs
        pruned = terminal[:max(0, excess)]
        for job_id in pruned:
            del self._jobs[job_id]
            self.jobs_pruned += 1
        return pruned

    def run(
        self,
        spec: ScenarioSpec | Mapping[str, Any],
        timeout: float | None = None,
    ) -> dict:
        """Submit and wait; returns the result envelope, parsed on demand."""
        return self.submit(spec).wait(timeout)

    def job(self, job_id: str) -> Job | None:
        """Look a job up by id.

        Falls back to the shared job journal when the id is not in this
        process's table: under ``repro serve --workers N`` the worker
        that executed a job journals it, and any *other* worker
        answering ``GET /v1/jobs/<id>`` reads the document from the
        shared store — cross-worker job visibility without any
        inter-process channel beyond the journal itself.
        """
        with self._mutex:
            job = self._jobs.get(job_id)
        if job is not None:
            return job
        if self.jobstore is not None:
            return self.jobstore.get(job_id)
        return None

    def jobs(self) -> list[Job]:
        """Every retained job — including restored ones — oldest first."""
        with self._mutex:
            return list(self._jobs.values())

    def _jobs_by_state(self) -> dict[str, int]:
        """``{status: count}`` over the job table (scrape-time gauge)."""
        counts: dict[str, int] = {}
        with self._mutex:
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    def cancel(self, job_id: str) -> Job | None:
        """Request cooperative cancellation of a job.

        Returns the job (``None`` if unknown).  A queued job is
        cancelled before it starts; a running one stops at its next
        stage boundary, so every stage value already computed stays
        cached and consistent.  A job that finishes first simply stays
        ``done`` — losing the race never discards a result.  Note the
        cancel applies to the *job*, which deduplicated submissions may
        share: every waiter of a cancelled job sees
        :class:`~repro.exceptions.JobCancelledError`.
        """
        job = self.job(job_id)
        if job is not None:
            job.request_cancel()
            # Journal the request so a cancel of a queued job survives a
            # restart instead of resurrecting the revoked scenario.
            self._journal(job)
            if job.finished:
                # The worker's terminal write may have landed *before*
                # our snapshot: re-journal so the record can never end
                # as "running + cancel requested" for a job that in
                # fact completed (a restart would wrongly cancel it).
                self._journal(job)
        return job

    def _watchdog_scan(self) -> None:
        """Fail running jobs whose stage-boundary heartbeat went stale.

        A wedged worker (hung syscall, deadlocked extension) never
        reaches the next stage boundary, so its own deadline check
        never fires; this is the backstop that frees its waiters.  The
        pool *thread* may stay wedged — threads cannot be killed — but
        the job reports ``timeout`` and releases everyone blocked on
        it.  Terminal transitions are first-wins, so a worker that
        wakes up late cannot overwrite the verdict.
        """
        assert self.watchdog_stale_s is not None
        now = time.monotonic()
        with self._mutex:
            running = [
                job for job in self._jobs.values() if job.status == RUNNING
            ]
        for job in running:
            last = job.heartbeat
            if last is None or now - last <= self.watchdog_stale_s:
                continue
            job.mark_timed_out(
                f"heartbeat stale for {now - last:.1f}s "
                f"(watchdog bound {self.watchdog_stale_s}s)"
            )
            if job.status == TIMEOUT:  # we won the terminal race
                self.watchdog_failures += 1
                self.obs.watchdog_failures.inc()
                self._journal(job)

    def stats(self) -> dict[str, Any]:
        """Service counters (the ``/v1/healthz`` document)."""
        with self._mutex:
            n_jobs = len(self._jobs)
            n_inflight = len(self._inflight)
            n_pending = self._pending
        # Occupancy numbers come from the namespaces' TTL-cached scans
        # (see Namespace.stats), never fresh per-request directory
        # walks — healthz must stay cheap under monitoring pollers.
        results_stats = self.results.namespace.stats()
        datasets_stats = self.datasets.namespace.stats()
        breaker = self.breaker.snapshot()
        return {
            "status": "degraded" if breaker["state"] == "open" else "ok",
            "worker": self.worker,
            "healthz_ttl_s": self.results.namespace.occupancy_ttl_s,
            "jobs": n_jobs,
            "jobs_pruned": self.jobs_pruned,
            "jobs_restored": self.jobs_restored,
            "jobs_requeued": self.jobs_requeued,
            "retain_jobs": self.retain_jobs,
            "in_flight": n_inflight,
            "queue": {
                "pending": n_pending,
                "max_queue": self.max_queue,
                "jobs_shed": self.jobs_shed,
            },
            "breaker": breaker,
            "watchdog": {
                "stale_s": self.watchdog_stale_s,
                "failures": self.watchdog_failures,
            },
            "pipeline_executions": self.pipeline_executions,
            "results_stored": results_stats["entries"],
            "datasets": {
                "stored": datasets_stats["entries"],
                "bytes": datasets_stats["bytes"],
                "evictions": self.datasets.evictions,
            },
            "ingestion": {
                **self.datasets.ingestion_stats(),
                "incremental_runs": self.incremental_runs,
            },
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "evictions": self.cache.evictions,
            },
            "bytes_cache": self.results.bytes_cache.stats(),
            "store": self._store_stats(),
        }

    def _store_stats(self) -> dict[str, Any]:
        """Per-namespace occupancy of the storage subsystem.

        Every namespace the service persists through reports its
        entries/bytes and hit/store/eviction counters — regardless of
        whether it came from one ``--store-dir`` tree, a deprecated
        per-store directory alias, or memory.
        """
        blocks: dict[str, Any] = {
            "backend": (
                self.store.backend_kind if self.store is not None else None
            ),
            "results": self.results.namespace.stats(),
            "datasets": self.datasets.namespace.stats(),
        }
        if self.cache.namespace is not None:
            blocks["stage"] = self.cache.namespace.stats()
        if self.jobstore is not None:
            blocks["jobs"] = self.jobstore.namespace.stats()
        return blocks

    def close(self) -> None:
        """Finish queued jobs and shut the worker pool down."""
        if self.watchdog is not None:
            self.watchdog.stop()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ExpansionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(
        self,
        job: Job,
        raw: MobyDataset | _CsvBytes,
        digest: str,
        resolved: list | None = None,
        timer: StageTimer | None = None,
    ) -> None:
        """Serve ``job`` from the results store, or run it.

        ``timer`` carries the ``resolve`` section recorded at submit;
        the ``results`` lookup and, when the pipeline runs, its stage
        sections join it in the job's ``timings``.  Either way the job
        completes with the byte cache's own payload object: a store hit
        parses nothing and copies nothing.
        """
        if timer is None:
            timer = StageTimer()
        try:
            if job.cancel_event.is_set():
                # Cancelled while queued: never starts, reports cancelled
                # (a stored result is deliberately NOT served — the
                # client asked this job to stop, not for its answer).
                job.mark_cancelled()
                return
            with timer.section("results"):
                stored = self.results.raw_entry(job.fingerprint)
            if stored is not None and stored.current:
                job.timings = timer.report().to_dict()
                self.obs.store_served.inc()
                job.complete(stored.payload)
                return
            # Absent, garbled or written by an older envelope schema
            # (e.g. v1 sweeps without child fingerprints): compute, and
            # overwrite instead of silently serving a stale shape.
            job.mark_running()
            job.heartbeat = time.monotonic()
            self._journal(job)
            with self._mutex:
                self.pipeline_executions += 1
            self.obs.pipeline_executions.inc()
            # The stage-boundary cancel poll doubles as the liveness
            # and deadline check: every poll stamps the heartbeat the
            # watchdog watches, then enforces cancel and (execution-
            # measured) deadline.  Deadline expiry surfaces as the same
            # PipelineCancelledError cancellation does — stages never
            # stop mid-body, so the stage cache stays consistent — and
            # is reclassified below.
            started_monotonic = time.monotonic()
            deadline_s = job.spec.deadline_s
            deadline_hit = threading.Event()

            def check_cancel() -> bool:
                job.heartbeat = time.monotonic()
                if job.cancel_event.is_set():
                    return True
                if (
                    deadline_s is not None
                    and time.monotonic() - started_monotonic > deadline_s
                ):
                    deadline_hit.set()
                    return True
                return False

            raw = self._rows(raw, digest, timer)
            incremental: dict[str, Any] = {}
            envelope = self._build_envelope(
                job.spec,
                raw,
                digest,
                timer,
                cancel=check_cancel,
                sweep_resolved=resolved,
                incremental_out=incremental,
            )
            envelope["fingerprint"] = job.fingerprint
            # Timings are job metadata (they vary run to run), not part
            # of the canonical envelope — envelopes stay byte-identical
            # across surfaces and replays.  The incremental block rides
            # along: slices_reused/slices_recomputed describe *this*
            # execution, not the result.
            timings = timer.report().to_dict()
            if incremental:
                timings["incremental"] = incremental
            job.timings = timings
            job.complete(self.results.put(job.fingerprint, envelope))
        except PipelineCancelledError:
            if job.cancel_event.is_set():
                job.mark_cancelled()  # an explicit cancel wins the tie
            elif deadline_hit.is_set():
                job.mark_timed_out(
                    f"deadline of {deadline_s}s exceeded at a stage boundary"
                )
            else:
                job.mark_cancelled()
        except Exception as error:
            job.fail(f"{type(error).__name__}: {error}")
        finally:
            self._journal(job)
            with self._mutex:
                self._pending -= 1
                # Only clear the entry this job owns: a restored job
                # racing a fresh identical submission must not evict the
                # other job's in-flight registration (that would break
                # dedup for later submissions of the same scenario).
                if self._inflight.get(job.fingerprint) is job:
                    del self._inflight[job.fingerprint]

    def _build_envelope(
        self,
        spec: ScenarioSpec,
        raw: MobyDataset,
        digest: str,
        timer: "StageTimer | None" = None,
        cancel: "Any | None" = None,
        sweep_resolved: list | None = None,
        incremental_out: dict | None = None,
    ) -> dict[str, Any]:
        """Compute every requested output into one envelope dict.

        ``incremental_out``, when given, receives the runner's
        :meth:`~repro.pipeline.runner.PipelineRunner.incremental_report`
        — run metadata (like timings), never envelope content, so
        incremental and cold envelopes stay byte-identical.
        """
        config = spec.config()
        outputs: dict[str, Any] = {}
        result = None
        if {OUTPUT_RUN, OUTPUT_REBALANCE, OUTPUT_REPORT} & set(spec.outputs):
            from ..pipeline.runner import PipelineRunner

            # Named datasets carry append lineage; the runner validates
            # it against the digest it was handed (a raced overwrite or
            # append just reads as "no lineage" → a cold run).
            lineage = None
            if spec.dataset.kind == "named":
                lineage = self.datasets.lineage(spec.dataset.name)
            runner = PipelineRunner(
                raw,
                config,
                cache=self.cache,
                raw_digest=digest,
                timer=timer,
                cancel=cancel,
                stage_observer=self.obs.observe_stage,
                lineage=lineage,
            )
            result = runner.run()
            report = runner.incremental_report()
            if report.get("mode") == "incremental":
                with self._mutex:
                    self.incremental_runs += 1
            self.obs.observe_incremental(report)
            if incremental_out is not None:
                incremental_out.update(report)
        if OUTPUT_RUN in spec.outputs:
            run_output = result.to_dict()
            # Wall-clock timings are job metadata, not canonical result
            # content — drop them so envelopes replay byte-identically.
            run_output.pop("timings", None)
            outputs[OUTPUT_RUN] = run_output
        if OUTPUT_SWEEP in spec.outputs:
            outputs[OUTPUT_SWEEP] = self._sweep_output(
                spec, raw, digest, cancel=cancel, resolved=sweep_resolved
            )
        if OUTPUT_REBALANCE in spec.outputs:
            from ..analysis.rebalancing import plan_weekend_rebalancing

            plan = plan_weekend_rebalancing(
                result.network,
                result.day.station_partition,
                spec.fleet_size,
            )
            outputs[OUTPUT_REBALANCE] = {
                "fleet_size": spec.fleet_size,
                "plan": plan.to_dict(),
            }
        if OUTPUT_REPORT in spec.outputs:
            from ..reporting.markdown import render_markdown_report

            outputs[OUTPUT_REPORT] = {
                "title": spec.report_title,
                "markdown": render_markdown_report(
                    result, title=spec.report_title
                ),
            }
        envelope: dict[str, Any] = {
            "type": "ResultEnvelope",
            "envelope_version": ENVELOPE_VERSION,
            "spec": spec.to_dict(),
            "dataset_digest": digest,
            "outputs": outputs,
        }
        if spec.sweep_datasets and sweep_resolved is not None:
            # A dataset-axis sweep has no single base dataset; identity
            # is the per-name digest map.
            del envelope["dataset_digest"]
            envelope["dataset_digests"] = {
                name: ds_digest for name, _, ds_digest in sweep_resolved
            }
        return envelope

    def _sweep_output(
        self,
        spec: ScenarioSpec,
        raw: MobyDataset,
        digest: str,
        cancel: "Any | None" = None,
        resolved: list | None = None,
    ) -> dict[str, Any]:
        """The sweep block, with every child individually addressable.

        Each grid point is also persisted in the results store as a
        complete single-run envelope under the fingerprint of the
        equivalent run spec (base overrides merged with the grid
        point's).  The sweep block lists those fingerprints, so clients
        can fetch one child's full envelope — paginated or streamed —
        without re-downloading the sweep; and a later ``POST /v1/runs``
        for that exact scenario is served from the store, no compute.

        With ``sweep_datasets`` the config grid additionally crosses a
        dataset axis (``resolved``: one ``(name, raw, digest)`` per
        swept dataset): all datasets share one stage cache, children
        carry a ``dataset`` field, and the block gains a ``datasets``
        list pairing each name with the content digest it resolved to.
        """
        from ..pipeline.runner import run_sweep
        from ..reporting.experiments import sweep_summary

        grid = spec.sweep_grid()
        axes = resolved if resolved is not None else [(None, raw, digest)]
        scenarios = []
        labelled: list[tuple[str, Any]] = []
        for name, axis_raw, axis_digest in axes:
            results = run_sweep(
                axis_raw,
                [config for _, config in grid],
                cache=self.cache,
                cancel=cancel,
                stage_observer=self.obs.observe_stage,
            )
            for (overrides, _), result in zip(grid, results):
                label_parts = [
                    f"{path}={value}" for path, value in overrides.items()
                ]
                if name is not None:
                    label_parts.insert(0, f"dataset={name}")
                label = ", ".join(label_parts) or "paper defaults"
                child_spec = ScenarioSpec(
                    dataset=(
                        DatasetRef.named(name)
                        if name is not None
                        else spec.dataset
                    ),
                    overrides={**dict(spec.overrides), **overrides},
                    outputs=(OUTPUT_RUN,),
                )
                child_fingerprint = child_spec.fingerprint(axis_digest)
                child_run = result.to_dict()
                child_run.pop("timings", None)
                self.results.put(
                    child_fingerprint,
                    {
                        "type": "ResultEnvelope",
                        "envelope_version": ENVELOPE_VERSION,
                        "fingerprint": child_fingerprint,
                        "spec": child_spec.to_dict(),
                        "dataset_digest": axis_digest,
                        "outputs": {OUTPUT_RUN: child_run},
                    },
                )
                scenario = {
                    "label": label,
                    "overrides": overrides,
                    "fingerprint": child_fingerprint,
                    "result_url": f"/v1/results/{child_fingerprint}",
                    "headline": result.headline(),
                }
                if name is not None:
                    scenario["dataset"] = name
                scenarios.append(scenario)
                labelled.append((label, result))
        block: dict[str, Any] = {
            "axes": {
                path: list(values) for path, values in sorted(spec.sweep_axes)
            },
            "scenarios": scenarios,
            "table": sweep_summary(
                labelled,
                title=f"SCENARIO SWEEP ({len(labelled)} configs)",
            ),
        }
        if resolved is not None:
            block["datasets"] = [
                {"name": name, "digest": axis_digest}
                for name, _, axis_digest in resolved
            ]
        return block


def canonical_envelope(envelope: dict) -> str:
    """The canonical text every surface serves for ``envelope``."""
    return canonical_json(envelope)
