"""Layer spans recorded from the benchmark's side of the program's API.

:func:`install` wraps public functions and methods of the ``repro``
package — where the program looks them up, never per-row helpers —
so that each call records a span: name, start, end, the span that was
open on the same thread when it started (its parent), and a few counts
taken from the call's arguments or result.  Spans stay in memory and
:meth:`Recorder.dump` writes them out when the process ends.

:func:`layer_metrics` runs in the benchmark process: it reads every
process's span file, gives each span to the timed operation whose time
window contains its start (one operation is in flight at a time), and
turns the spans into per-operation layer metrics.  A ``_s`` metric is
self time: a span's duration minus the time its child spans cover.

A probe whose target no longer exists is skipped; its metrics are
reported as missing (``null``) instead of failing the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

Measure = Callable[[Any, tuple, dict, Any], dict]


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    ``span`` names the span family, whose self time is ``<span>_s``;
    ``target`` is ``module:Attr.path``; ``measure`` returns the counts
    a call adds, from (self-or-first-arg, args, kwargs, result).  Counts
    are taken only at the outermost span of a family, so a parser
    calling a parser counts its rows once.
    """

    span: str
    target: str
    measure: Measure | None = None


def _dataset_rows(_self, _args, _kwargs, result) -> dict:
    return {"data.rows_parsed": result.n_locations + result.n_rentals}


def _queries(_self, args, kwargs, _result) -> dict:
    centers = args[1] if len(args) > 1 else kwargs["centers"]
    return {"geo.queries": len(centers)}


def _one(metric: str) -> Measure:
    return lambda _self, _args, _kwargs, _result: {metric: 1}


def _envelope_bytes(_self, args, kwargs, result) -> dict:
    payload = args[0] if args else kwargs.get("payload")
    if isinstance(payload, dict) and payload.get("type") == "ResultEnvelope":
        return {"serialize.envelope_bytes": len(result.encode("utf-8"))}
    return {}


def _bytes_read(_self, _args, _kwargs, result) -> dict:
    return {"store.bytes_read": len(result) if isinstance(result, bytes) else 0}


def _bytes_written(_self, args, kwargs, _result) -> dict:
    data = args[-1] if len(args) > 2 else kwargs.get("data", kwargs.get("files"))
    if isinstance(data, dict):
        return {"store.bytes_written": sum(len(v) for v in data.values())}
    return {"store.bytes_written": len(data) if isinstance(data, bytes) else 0}


def _cache_get(_self, _args, _kwargs, result) -> dict:
    from repro.pipeline.cache import MISS

    return {"pipeline.cache_gets": 1,
            "pipeline.cache_hits": int(result is not MISS)}


def _queue_wait(job, _args, _kwargs, _result) -> dict:
    return {"service.queue_wait_s": max(0.0, job.started_at - job.created_at),
            "service.pipeline_executions": 1}


_PARSE = "data.parse"
_READ = "store.read"
_WRITE = "store.write"
_NS = "repro.store.namespace:Namespace."

PROBES: tuple[Probe, ...] = (
    Probe("synth.generate", "repro.synth:SyntheticMobyGenerator.generate"),
    Probe(_PARSE, "repro.data.dataset:MobyDataset.from_csv", _dataset_rows),
    Probe(_PARSE, "repro.data.dataset:MobyDataset.from_dict", _dataset_rows),
    Probe(_PARSE, "repro.data.dataset:MobyDataset.from_records", _dataset_rows),
    # The readers' rows are counted by the ``from_records`` they feed.
    Probe(_PARSE, "repro.data.csvio:read_locations"),
    Probe(_PARSE, "repro.data.csvio:read_rentals"),
    Probe("data.clean", "repro.data.cleaning:clean_dataset_with_rules"),
    Probe("pipeline.digest", "repro.pipeline.fingerprint:dataset_digest"),
    Probe("pipeline.digest", "repro.pipeline.fingerprint:dataset_slice_digests"),
    Probe("pipeline.digest", "repro.pipeline.fingerprint:rentals_digest"),
    Probe("pipeline.digest", "repro.pipeline.fingerprint:slice_digests"),
    Probe("pipeline.stage", "repro.pipeline.runner:PipelineRunner.stage"),
    Probe("pipeline.cache_get", "repro.pipeline.cache:StageCache.get", _cache_get),
    Probe("pipeline.cache_put", "repro.pipeline.cache:StageCache.put"),
    Probe("pipeline.incremental", "repro.pipeline.incremental:incremental_clean"),
    Probe("pipeline.incremental", "repro.pipeline.incremental:merge_candidate_flow"),
    Probe("pipeline.incremental", "repro.pipeline.incremental:merge_selected_network"),
    Probe("cluster.hac", "repro.cluster.hac:cluster_locations"),
    Probe("geo.query", "repro.geo.index:GridIndex.within_many", _queries),
    Probe("geo.query", "repro.geo.index:GridIndex.nearest_many", _queries),
    Probe("core.project", "repro.core.candidates:project_candidate_flow"),
    Probe("core.select", "repro.core.selection:select_stations"),
    Probe("core.assign", "repro.core.graphs:assign_locations_to_stations"),
    Probe("core.to_dict", "repro.core.results:ExpansionResult.to_dict"),
    Probe("core.from_dict", "repro.core.results:ExpansionResult.from_dict"),
    Probe("community.louvain", "repro.community.louvain:louvain",
          _one("community.louvain_calls")),
    Probe("community.aggregate", "repro.community.temporal:aggregate_slice",
          _one("pipeline.slices_recomputed")),
    Probe("community.temporal",
          "repro.community.temporal:detect_temporal_communities_from_aggregates"),
    Probe("serialize.canonical_json", "repro.serialize:canonical_json",
          _envelope_bytes),
    *(Probe(_READ, _NS + name, _bytes_read)
      for name in ("get", "peek", "get_part", "peek_part", "open_read",
                   "open_part_read")),
    *(Probe(_WRITE, _NS + name, _bytes_written)
      for name in ("put", "put_entry", "put_part", "open_write",
                   "open_part_write")),
    Probe("service.open", "repro.service.service:ExpansionService.__init__"),
    Probe("service.submit", "repro.service.service:ExpansionService.submit"),
    Probe("service.job_wait", "repro.service.jobs:Job.wait"),
    Probe("service.mark_running", "repro.service.jobs:Job.mark_running",
          _queue_wait),
    Probe("service.dataset_put", "repro.service.datasets:DatasetStore.put"),
    Probe("service.dataset_append", "repro.service.datasets:DatasetStore.append"),
    *(Probe("service.dataset_load", "repro.service.datasets:DatasetStore." + name,
            _one("service.dataset_loads"))
      for name in ("get", "get_with_digest")),
    Probe("service.results_put", "repro.service.store:ResultsStore.put"),
    *(Probe("service.results_get", "repro.service.store:ResultsStore." + name)
      for name in ("get", "raw", "raw_entry", "view_entry")),
    *(Probe("reporting.render", f"repro.reporting.experiments:experiment_table{n}")
      for n in range(1, 7)),
    Probe("reporting.render", "repro.reporting.tables:format_table"),
)

#: Every per-layer metric of one operation kind, with its unit: a probe's
#: self time (``<span>_s``), a count its ``measure`` returns, or the
#: cache hit ratio :func:`_totals` derives.
LAYER_METRICS: dict[str, str] = {
    "cli.startup_s": "s",
    "synth.generate_s": "s",
    "data.parse_s": "s",
    "data.rows_parsed": "count",
    "data.clean_s": "s",
    "pipeline.digest_s": "s",
    **{f"pipeline.stage.{name}_s": "s"
       for name in ("clean", "candidates", "selection", "network", "basic",
                    "day", "hour")},
    "pipeline.stages_executed": "count",
    "pipeline.cache_get_s": "s",
    "pipeline.cache_put_s": "s",
    "pipeline.cache_hit_ratio": "ratio",
    "pipeline.incremental_s": "s",
    "pipeline.slices_recomputed": "count",
    "cluster.hac_s": "s",
    "geo.query_s": "s",
    "geo.queries": "count",
    "core.project_s": "s",
    "core.select_s": "s",
    "core.assign_s": "s",
    "core.to_dict_s": "s",
    "core.from_dict_s": "s",
    "community.louvain_s": "s",
    "community.louvain_calls": "count",
    "community.aggregate_s": "s",
    "community.temporal_s": "s",
    "serialize.canonical_json_s": "s",
    "serialize.envelope_bytes": "B",
    "store.write_s": "s",
    "store.read_s": "s",
    "store.bytes_written": "B",
    "store.bytes_read": "B",
    "service.open_s": "s",
    "service.submit_s": "s",
    "service.job_wait_s": "s",
    "service.queue_wait_s": "s",
    "service.dataset_loads": "count",
    "service.dataset_put_s": "s",
    "service.dataset_append_s": "s",
    "service.dataset_load_s": "s",
    "service.results_put_s": "s",
    "service.results_get_s": "s",
    "service.pipeline_executions": "count",
    "http.request_s": "s",
    "http.requests": "count",
    "http.bytes_sent": "B",
    "reporting.render_s": "s",
}

#: Layer metrics also reported for the set-up phase.
SETUP_METRICS = ("cli.startup_s", "synth.generate_s", "data.parse_s",
                 "service.open_s", "service.dataset_put_s")

#: The HTTP handler methods, reached through ``make_server``'s server.
_HTTP_METHODS = ("do_GET", "do_HEAD", "do_POST", "do_PUT", "do_PATCH",
                 "do_DELETE")


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float) -> None:
        """A span recorded after the fact, outside any other span."""
        self.spans.append([name, start, end, None, threading.get_ident(), {}])

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             measure: Measure | None,
             before: Callable[[], Any] | None = None,
             after: Callable[[Any, Any], dict] | None = None):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        outer = all(entry[1] != name for entry in stack)
        index = len(self.spans)
        record = [name, time.monotonic(), None,
                  stack[-1][0] if stack else None, threading.get_ident(), {}]
        self.spans.append(record)
        stack.append((index, name))
        token = before() if before is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.monotonic()
            stack.pop()
        if outer:
            values = {}
            if measure is not None:
                values.update(measure(args[0] if args else None, args,
                                      kwargs, result))
            if after is not None:
                values.update(after(token, args[0] if args else None))
            record[5] = values
        return result

    def dump(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as handle:
            handle.write(json.dumps({"pid": os.getpid(),
                                     "missing": self.missing}) + "\n")
            now = time.monotonic()
            for record in self.spans:
                if record[2] is None:  # still open when the process ended
                    record[2] = now
                handle.write(json.dumps(record) + "\n")


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(recorder: Recorder, probe: Probe, fn: Callable) -> Callable:
    if probe.span == "pipeline.stage":
        # One family per stage, and "executed" read from the runner's
        # own execution count around the call (a cache hit leaves it).
        def stage(runner, name, *args, **kwargs):
            def executed(before, _runner):
                return {"pipeline.stages_executed":
                        runner.executions.get(name, 0) - before}

            return recorder.call(
                f"pipeline.stage.{name}", fn, (runner, name, *args), kwargs, None,
                before=lambda: runner.executions.get(name, 0), after=executed)

        return functools.wraps(fn)(stage)

    def wrapper(*args, **kwargs):
        return recorder.call(probe.span, fn, args, kwargs, probe.measure)

    return functools.wraps(fn)(wrapper)


def _install_probe(recorder: Recorder, probe: Probe) -> bool:
    try:
        owner, attr = _resolve(probe.target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        return False
    if isinstance(owner, type):
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(recorder, probe, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(_wrap(recorder, probe, raw.__func__)))
        else:
            setattr(owner, attr, _wrap(recorder, probe, raw))
        return True
    _replace_everywhere(raw, _wrap(recorder, probe, raw))
    return True


def _replace_everywhere(raw: Callable, wrapped: Callable) -> None:
    """Swap a module-level function in every loaded ``repro`` module that
    looked it up by name, the defining module included."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)


class _CountingWriter:
    """A response stream proxy that counts the bytes written through it."""

    def __init__(self, raw) -> None:
        self.raw = raw
        self.written = 0

    def write(self, data) -> int:
        self.written += len(data)
        return self.raw.write(data)

    def __getattr__(self, name: str):
        return getattr(self.raw, name)


def _patch_handler(recorder: Recorder, handler: type) -> None:
    """Wrap the HTTP handler's ``do_*`` methods (once per class)."""
    if getattr(handler, "_e2ebench_patched", False):
        return
    handler._e2ebench_patched = True
    for method in _HTTP_METHODS:
        fn = getattr(handler, method, None)
        if fn is None:
            continue

        def request(self, _fn=fn):
            writer = _CountingWriter(self.wfile)
            self.wfile = writer

            def sent(_before, _handler):
                return {"http.requests": 1, "http.bytes_sent": writer.written}

            try:
                return recorder.call("http.request", _fn, (self,), {}, None,
                                     after=sent)
            finally:
                self.wfile = writer.raw

        setattr(handler, method, functools.wraps(fn)(request))


def install(recorder: Recorder) -> None:
    """Install every probe; unresolvable targets are noted as missing."""
    for probe in PROBES:
        if not _install_probe(recorder, probe):
            recorder.missing.append(probe.span)
    try:
        http = importlib.import_module("repro.service.http")
        make_server = http.make_server
    except (ImportError, AttributeError):
        recorder.missing.append("http.request")
        return

    @functools.wraps(make_server)
    def traced_make_server(*args, **kwargs):
        server = make_server(*args, **kwargs)
        _patch_handler(recorder, server.RequestHandlerClass)
        return server

    _replace_everywhere(make_server, traced_make_server)


# ---------------------------------------------------------------------------
# Benchmark side: spans -> per-operation layer metrics
# ---------------------------------------------------------------------------


def read_spans(directory: Path) -> tuple[list[dict], set[str]]:
    """Every span of every traced process, with self time filled in."""
    spans: list[dict] = []
    missing: set[str] = set()
    for path in sorted(directory.glob("*.jsonl")):
        with open(path) as handle:
            header = json.loads(handle.readline())
            missing.update(header["missing"])
            records = [json.loads(line) for line in handle]
        base = len(spans)
        child_time = [0.0] * len(records)
        for _, start, end, parent, _, _ in records:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent, thread, values) in enumerate(records):
            spans.append({
                "name": name, "start": start, "end": end,
                "parent": None if parent is None else base + parent,
                "pid": header["pid"], "thread": thread, "values": values,
                "self_s": (end - start) - child_time[index],
                "operation": None,
            })
    return spans, missing


def assign_operations(spans: list[dict], windows: list[tuple[str, float, float]],
                      setup: tuple[float, float]) -> None:
    """Give each span to the operation whose window holds its start."""
    ordered = sorted(range(len(windows)), key=lambda index: windows[index][1])
    starts = [windows[index][1] for index in ordered]
    for span in spans:
        start = span["start"]
        if setup[0] <= start <= setup[1]:
            span["operation"] = "setup"
            continue
        position = bisect.bisect_right(starts, start) - 1
        if position >= 0:
            index = ordered[position]
            kind, _, end = windows[index]
            if start <= end:
                span["operation"] = f"{kind}#{index}"


def _totals(spans: list[dict]) -> dict[str, float]:
    """Summed self times (``<name>_s``) and counts of some spans."""
    totals: dict[str, float] = {}
    for span in spans:
        key = f"{span['name']}_s"
        totals[key] = totals.get(key, 0.0) + span["self_s"]
        for metric, value in span["values"].items():
            totals[metric] = totals.get(metric, 0.0) + value
    gets = totals.get("pipeline.cache_gets", 0.0)
    totals["pipeline.cache_hit_ratio"] = (
        totals.get("pipeline.cache_hits", 0.0) / gets if gets else 0.0)
    return totals


#: Metrics whose probe family is not their own name minus ``_s``.
_FAMILY = {
    "data.rows_parsed": "data.parse",
    "pipeline.stages_executed": "pipeline.stage",
    "pipeline.cache_hit_ratio": "pipeline.cache_get",
    "pipeline.slices_recomputed": "community.aggregate",
    "geo.queries": "geo.query",
    "community.louvain_calls": "community.louvain",
    "serialize.envelope_bytes": "serialize.canonical_json",
    "store.bytes_written": "store.write",
    "store.bytes_read": "store.read",
    "service.queue_wait_s": "service.mark_running",
    "service.pipeline_executions": "service.mark_running",
    "service.dataset_loads": "service.dataset_load",
    "http.requests": "http.request",
    "http.bytes_sent": "http.request",
    **{f"pipeline.stage.{name}_s": "pipeline.stage"
       for name in ("clean", "candidates", "selection", "network", "basic",
                    "day", "hour")},
}


def _missing_metrics(missing: set[str]) -> set[str]:
    return {metric for metric in LAYER_METRICS
            if _FAMILY.get(metric, metric.removesuffix("_s")) in missing}


def layer_metrics(spans: list[dict], missing: set[str],
                  windows: list[tuple[str, float, float]],
                  setups: int = 1) -> dict[str, dict]:
    """Per-layer metrics: the mean per operation of each kind, and per set-up.

    The cache hit ratio is taken over all operations of a kind together.
    """
    absent = _missing_metrics(missing)
    by_operation: dict[str, list[dict]] = {}
    for span in spans:
        if span["operation"] is not None:
            by_operation.setdefault(span["operation"], []).append(span)
    result: dict[str, dict] = {}

    def emit(prefix: str, metric: str, value: float) -> None:
        result[f"{prefix}.{metric}"] = {
            "value": None if metric in absent else value,
            "unit": LAYER_METRICS[metric],
        }

    for kind in ("compute", "replay"):
        operations = [f"{kind}#{index}"
                      for index, window in enumerate(windows) if window[0] == kind]
        totals = [_totals(by_operation.get(op, [])) for op in operations]
        pooled = _totals([span for op in operations
                          for span in by_operation.get(op, [])])
        for metric in LAYER_METRICS:
            if metric == "pipeline.cache_hit_ratio":
                value = pooled[metric]
            else:
                value = sum(op.get(metric, 0.0) for op in totals) / max(1, len(totals))
            emit(kind, metric, value)
    setup = _totals(by_operation.get("setup", []))
    for metric in SETUP_METRICS:
        emit("setup", metric, setup.get(metric, 0.0) / setups)
    return result


def write_span_file(spans: list[dict], path: Path) -> None:
    """The merged span file: one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps({"id": index, **span}) + "\n")


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run prints."""
    names = [(f"{kind}.{metric}", unit)
             for kind in ("compute", "replay")
             for metric, unit in LAYER_METRICS.items()]
    names += [(f"setup.{metric}", LAYER_METRICS[metric])
              for metric in SETUP_METRICS]
    names += [("trace.compute_overhead_s", "s"), ("trace.replay_overhead_s", "s")]
    return names
