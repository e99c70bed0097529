"""The results store: completed envelopes keyed by spec fingerprint.

Envelopes are stored as their :func:`repro.serialize.canonical_json`
bytes — the exact bytes every surface serves — in a
:class:`~repro.store.Namespace` (one ``<fingerprint>.json`` per result
under a directory backend, written atomically; memory-backed when no
directory is given).  A warm store lets a restarted service answer
``GET /v1/results/<fp>`` and repeated submissions without touching the
pipeline at all.

Key validation, atomic publish and (optional) quota eviction are the
namespace's; this class only translates envelope dicts to and from
canonical text.  A :class:`~repro.service.bytescache.BytesLRU` fronts
the namespace with *rendered response payloads*: the full envelope's
encoded bytes plus every narrowed view the HTTP layer has served from
it (``fields=headline``, paginated sections), each carrying the strong
validators (ETag = fingerprint, a ``Last-Modified`` stamp) conditional
GETs revalidate against.  Entries are content-addressed — a
fingerprint can only ever map to one byte sequence — so the front can
never serve stale data; an explicit overwrite (schema upgrade
recompute) still invalidates every cached view first.

The full body's cache entry also carries the schema verdict the service
needs before it answers a submission from the store
(:attr:`CachedBytes.current`).  It is judged once per bytes object:
from the dict in hand at :meth:`ResultsStore.put`, or when the bytes are
read from the backend — never on a byte-cache hit — and it is dropped
with the bytes it describes.  A backend read looks the verdict up in a
content-addressed memo first (:attr:`ResultsStore.verdicts`, the stage
cache of the owning service): ``put`` records the verdict of every
payload it publishes under the SHA-256 of its bytes, so a new process
that reads those bytes back hashes them (milliseconds) instead of
parsing them (tens of milliseconds per MB).  Other bytes — damaged,
written elsewhere, or whose entry was evicted — miss the memo and are
parsed once, as before.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Hashable

from ..pipeline.fingerprint import fingerprint as content_fingerprint
from ..serialize import ENVELOPE_VERSION, canonical_json
from ..store import HEX_KEY, DirBackend, MemoryBackend, Namespace
from .bytescache import BytesLRU, CachedBytes

#: The byte-cache view key of the full stored envelope.
FULL_VIEW = "full"

#: The byte-cache view key of the ``?fields=headline`` reduction.
HEADLINE_VIEW = "headline"


def _headline_view(envelope: dict) -> dict:
    """A ``fields=headline`` reduction of a stored result envelope.

    Keeps the request/identity metadata and each output's headline-size
    content; the multi-MB blocks (the expanded network, the
    ``slice_partition`` of every temporal structure, the hierarchy
    levels) are dropped.
    """
    slim: dict[str, Any] = {
        key: envelope[key]
        for key in (
            "type",
            "envelope_version",
            "fingerprint",
            "spec",
            "dataset_digest",
        )
        if key in envelope
    }
    slim["fields"] = "headline"
    outputs: dict[str, Any] = {}
    for name, payload in envelope.get("outputs", {}).items():
        if name == "run":
            outputs[name] = {"headline": payload.get("headline")}
        elif name == "sweep":
            outputs[name] = {
                "axes": payload.get("axes"),
                "scenarios": [
                    {
                        "label": scenario.get("label"),
                        "overrides": scenario.get("overrides"),
                        "fingerprint": scenario.get("fingerprint"),
                        "result_url": scenario.get("result_url"),
                        "headline": scenario.get("headline"),
                    }
                    for scenario in payload.get("scenarios", [])
                ],
            }
        elif name == "rebalance":
            outputs[name] = payload  # already headline-sized
        elif name == "report":
            outputs[name] = {"title": payload.get("title")}
        else:
            outputs[name] = payload
    slim["outputs"] = outputs
    return slim


def render_headline(envelope: dict) -> bytes:
    """The ``?fields=headline`` payload bytes of ``envelope``."""
    return canonical_json(_headline_view(envelope)).encode("utf-8")


def _is_current(envelope: Any) -> bool:
    """Whether ``envelope`` has the current envelope schema.

    The envelope version is what makes the results store safe to
    persist across upgrades: a stale-shape envelope (or a truncated
    file) reads as a miss for *new submissions*, which recompute and
    overwrite it.  Direct ``GET /v1/results/<fp>`` still serves
    whatever bytes are stored — fetching by explicit fingerprint means
    "give me exactly that stored result".
    """
    return (
        isinstance(envelope, dict)
        and envelope.get("envelope_version") == ENVELOPE_VERSION
    )


def _parses_current(data: bytes) -> bool:
    """:func:`_is_current` for stored bytes: one full parse."""
    try:
        return _is_current(json.loads(data))
    except ValueError:  # truncated/garbled entry (UnicodeDecodeError too)
        return False


def verdict_key(data: bytes) -> str:
    """The verdict-memo key of stored envelope ``data``.

    The verdict is a function of the bytes and of the envelope schema
    they are judged against, and the key covers both.
    """
    return content_fingerprint(
        "envelope-verdict", ENVELOPE_VERSION, hashlib.sha256(data).hexdigest()
    )


def results_namespace(backend) -> Namespace:
    """The canonical results namespace policy over ``backend``.

    Result keys are plain hex digests (:data:`repro.store.HEX_KEY`) —
    anything else is rejected before it can touch storage.
    """
    return Namespace(
        backend,
        key_pattern=HEX_KEY,
        key_label="result fingerprint",
        suffix=".json",
    )


class ResultsStore:
    """Canonical-JSON envelope store over one results namespace."""

    def __init__(
        self,
        results_dir: str | Path | None = None,
        *,
        namespace: Namespace | None = None,
        bytes_cache: BytesLRU | None = None,
        breaker=None,
    ) -> None:
        if namespace is None:
            backend = (
                DirBackend(results_dir) if results_dir is not None else MemoryBackend()
            )
            namespace = results_namespace(backend)
        self.namespace = namespace
        #: Rendered envelope payloads (full body + narrowed views) as
        #: ready-to-write bytes; see :mod:`repro.service.bytescache`.
        self.bytes_cache = bytes_cache if bytes_cache is not None else BytesLRU()
        #: Optional :class:`~repro.resilience.breaker.CircuitBreaker`
        #: observing publish outcomes — the service's degradation signal.
        self.breaker = breaker
        #: The schema-verdict memo: a
        #: :class:`~repro.pipeline.cache.StageCache` keyed by
        #: :func:`verdict_key`, set by the owning service to its stage
        #: cache.  ``None`` judges every backend read by a parse.
        self.verdicts = None

    @property
    def results_dir(self) -> Path | None:
        """Root of the store when it is directory-backed."""
        backend = self.namespace.backend
        return backend.root if isinstance(backend, DirBackend) else None

    # ------------------------------------------------------------------
    # The warm byte path
    # ------------------------------------------------------------------

    def _last_modified(self, fingerprint: str) -> float:
        """A ``Last-Modified``-grade stamp for one stored entry.

        Directory backends stamp entries with real file mtimes (and the
        unbounded results namespace never rewrites them on reads, so the
        stamp is the publish time).  The memory backend's stamps are a
        monotonic *counter*, not wall-clock — recognisable as tiny
        values — so fall back to "now": the stamp only moves a
        conditional GET toward an unnecessary 200, never staleness.
        """
        stat = self.namespace.entry_stat(fingerprint)
        if stat is not None and stat.accessed > 1e9:
            return stat.accessed
        return time.time()

    def _seed(self, fingerprint: str, data: bytes, current: bool) -> CachedBytes:
        return self.bytes_cache.put(
            fingerprint,
            FULL_VIEW,
            data,
            etag=fingerprint,
            last_modified=self._last_modified(fingerprint),
            current=current,
        )

    def raw_entry(self, fingerprint: str) -> CachedBytes | None:
        """The stored envelope as cached payload bytes, or ``None``.

        Warm fingerprints come straight from the byte cache — no
        backend read, no decode, no parse; only the first read of a
        fingerprint touches backend bytes, and judges them once for the
        entry's schema verdict (:attr:`CachedBytes.current`).
        """
        entry = self.bytes_cache.get(fingerprint, FULL_VIEW)
        if entry is not None:
            self.namespace.count_front_hit()
            return entry
        data = self.namespace.get(fingerprint)
        if data is None:
            return None
        return self._seed(fingerprint, data, self._judge(data))

    def _judge(self, data: bytes) -> bool:
        """The schema verdict of backend bytes: the memo's, else a parse.

        A parsed verdict is memoised too, so bytes stored before the
        memo existed are parsed by their first reader only.
        """
        if self.verdicts is None:
            return _parses_current(data)
        key = verdict_key(data)
        current = self.verdicts.get(key)
        if not isinstance(current, bool):
            current = _parses_current(data)
            self.verdicts.put(key, current)
        return current

    def view_entry(
        self,
        fingerprint: str,
        view: Hashable,
        build: Callable[[dict], bytes],
    ) -> CachedBytes | None:
        """One rendered view of a stored envelope, cached as bytes.

        ``build`` receives the parsed envelope and returns the view's
        payload bytes; it runs only on a cold view — a warm hit never
        parses JSON.  Exceptions from ``build`` (an unknown section, a
        bad page) propagate uncached, so error responses are never
        pinned into the cache.  Returns ``None`` when no envelope is
        stored under ``fingerprint``.
        """
        entry = self.bytes_cache.get(fingerprint, view)
        if entry is not None:
            self.namespace.count_front_hit()
            return entry
        full = self.raw_entry(fingerprint)
        if full is None:
            return None
        payload = build(json.loads(full.payload))
        return self.bytes_cache.put(
            fingerprint,
            view,
            payload,
            etag=full.etag,
            last_modified=full.last_modified,
        )

    # ------------------------------------------------------------------
    # Text/dict compatibility surface
    # ------------------------------------------------------------------

    def raw(self, fingerprint: str) -> str | None:
        """The stored canonical-JSON text, or ``None``.

        Decodes the cached payload per call; byte-path consumers (the
        HTTP layer) use :meth:`raw_entry` and skip the decode entirely.
        """
        entry = self.raw_entry(fingerprint)
        return entry.payload.decode("utf-8") if entry is not None else None

    def get(self, fingerprint: str) -> dict | None:
        """The stored envelope as a dict (parsed per call), or ``None``."""
        entry = self.raw_entry(fingerprint)
        if entry is None:
            return None
        try:
            return json.loads(entry.payload)
        except ValueError:
            return None  # truncated/garbled entry: treat as a miss

    def put(self, fingerprint: str, envelope: dict) -> bytes:
        """Store ``envelope``; returns the payload seeded into the byte cache.

        The headline view is rendered from the dict in hand too, so the
        first ``GET ?fields=headline`` after a run parses nothing.
        """
        self.namespace.check_key(fingerprint)
        data = canonical_json(envelope).encode("utf-8")
        try:
            self.namespace.put(fingerprint, data)
        except OSError:
            # A full/readonly disk degrades to best-effort persistence;
            # the breaker turns a *streak* of these into read-only mode.
            if self.breaker is not None:
                self.breaker.record_failure()
        else:
            if self.breaker is not None:
                self.breaker.record_success()
        # Views rendered from any previous bytes die with the overwrite
        # (schema-upgrade recompute); the fresh full body and headline
        # are seeded so the first GETs after a run are already warm.
        self.bytes_cache.invalidate(fingerprint)
        current = _is_current(envelope)
        if self.verdicts is not None:
            self.verdicts.put(verdict_key(data), current)
        entry = self._seed(fingerprint, data, current)
        self.bytes_cache.put(
            fingerprint,
            HEADLINE_VIEW,
            render_headline(envelope),
            etag=entry.etag,
            last_modified=entry.last_modified,
        )
        return entry.payload

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.namespace

    def __len__(self) -> int:
        return self.namespace.entries()
