"""repro.service — the typed scenario/job API every surface shares.

Three skins over one service layer:

* **Python** — build a :class:`ScenarioSpec`, hand it to an
  :class:`ExpansionService`, get a JSON-safe result envelope back::

      from repro.service import DatasetRef, ExpansionService, ScenarioSpec

      service = ExpansionService(store_dir="store")
      envelope = service.run(ScenarioSpec(dataset=DatasetRef.synthetic(7)))
      envelope["outputs"]["run"]["headline"]["table4_gbasic"]

* **HTTP** — ``repro serve`` exposes the same service over the routes
  in :data:`repro.service.http.ROUTES`: scenario submission
  (``POST /v1/runs``, ``POST /v1/sweeps``), job status and
  cancellation (``GET``/``DELETE /v1/jobs/<id>``), named dataset
  management (``PUT``/``GET``/``DELETE /v1/datasets/<name>``), and
  result retrieval — whole, ``?fields=headline``, paginated
  ``?section=...&page=N``, or NDJSON slice streaming
  (``/v1/results/<fp>/slices``).  See ``docs/API.md``.
* **CLI** — ``repro run/sweep/rebalance/report`` are thin clients that
  render the same envelopes (``--format json`` prints them verbatim);
  ``repro datasets/results/cancel`` speak to a running server.

Identical concurrent requests are deduplicated by spec fingerprint;
completed envelopes persist in a :class:`ResultsStore`; uploaded
datasets live in a content-digested :class:`DatasetStore`; all
pipeline work shares one :class:`~repro.pipeline.cache.StageCache`.
Every one of those stores — plus the :class:`JobStore` journal that
makes jobs survive restarts — is a thin adapter over one namespace of
the pluggable storage subsystem (:mod:`repro.store`), rooted together
under ``ExpansionService(store_dir=...)`` / ``repro serve
--store-dir``.
"""

from .._lazy import lazy_exports

#: Public name -> defining module, imported on first use: a CLI replay
#: needs the service, the stores and the spec, never the HTTP server.
_EXPORTS = {
    "ALL_OUTPUTS": ".spec",
    "BytesLRU": ".bytescache",
    "CANCELLED": ".jobs",
    "CachedBytes": ".bytescache",
    "DONE": ".jobs",
    "DatasetRef": ".spec",
    "DatasetStore": ".datasets",
    "ExpansionService": ".service",
    "FAILED": ".jobs",
    "Job": ".jobs",
    "JobStore": ".jobs",
    "OUTPUT_REBALANCE": ".spec",
    "OUTPUT_REPORT": ".spec",
    "OUTPUT_RUN": ".spec",
    "OUTPUT_SWEEP": ".spec",
    "PENDING": ".jobs",
    "ROUTES": ".http",
    "RUNNING": ".jobs",
    "ResultsStore": ".store",
    "ScenarioSpec": ".spec",
    "ServiceHTTPServer": ".http",
    "canonical_envelope": ".service",
    "make_server": ".http",
    "serve_prefork": ".prefork",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(_EXPORTS)
