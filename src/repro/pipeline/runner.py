"""The staged pipeline runner and the multi-scenario sweep driver.

``PipelineRunner`` executes the expansion stage DAG declared in
:data:`EXPANSION_STAGES`.  Each stage value is looked up in a
:class:`~repro.pipeline.cache.StageCache` under its content-addressed
fingerprint before the body runs, and execution counts are kept per
stage so tests (and benches) can assert that a warm run recomputes
nothing.  Stages run one after another in topological order: the DAG
is a chain up to ``network``, so there is nothing worth overlapping.

**Incremental mode.**  When the runner is handed the ``lineage`` of an
append-mode dataset (see :meth:`repro.service.datasets.DatasetStore.
lineage`) and the stage cache still holds the previous run over the
parent dataset, the stage bodies switch from recompute to *merge*: the
appended rentals are classified against the previous run's cleaning
decisions, their edges and trips are spliced onto the previous graph
values, and the temporal stages re-aggregate only the slices whose
content digest moved (untouched slices come back warm from per-slice
cache entries).  Every merge is guarded by the exactness conditions in
:mod:`repro.pipeline.incremental` and falls back to the cold body when
one fails, so results are byte-identical either way.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..community.louvain import louvain
from ..community.temporal import (
    aggregate_slice,
    detect_temporal_communities_from_aggregates,
)
from ..config import PAPER_CONFIG, PipelineConfig
from ..core.candidates import condense_locations, project_candidate_flow
from ..core.graphs import (
    SelectedNetwork,
    assign_locations_to_stations,
    build_station_set,
    project_trip,
)
from ..core.results import ExpansionResult
from ..core.selection import select_stations
from ..data import MobyDataset
from ..data.cleaning import clean_dataset_with_rules
from ..exceptions import PipelineCancelledError, PipelineError
from ..perf.timer import NULL_TIMER, StageTimer
from .cache import MISS, StageCache
from .fingerprint import (
    SLICE_COUNTS,
    dataset_digest,
    dataset_slice_digests,
    fingerprint,
    locations_digest,
)
from .incremental import (
    CleanAux,
    incremental_clean,
    merge_candidate_flow,
    merge_selected_network,
)
from .stage import Stage

N_DAY_SLICES = 7
N_HOUR_SLICES = 24

#: Bump when a stage's semantics change: old cache entries become
#: unreachable instead of silently stale.  (2: the ``clean`` stage value
#: grew a :class:`~repro.pipeline.incremental.CleanAux` third element;
#: 3: its cleaned ``MobyDataset`` holds plain id-keyed row dicts.)
CACHE_SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# Stage bodies
# ---------------------------------------------------------------------------


def _stage_clean(runner: "PipelineRunner") -> tuple:
    parent = runner.lineage_parent()
    if parent is not None:
        parent_digest, parent_max = parent
        prefix = runner.prefix_value("clean", parent_digest)
        if prefix is not MISS:
            delta = runner.raw.rentals_after(parent_max)
            value = incremental_clean(runner.raw, delta, prefix, parent_digest)
            if value is not None:
                runner.note_incremental("clean")
                return value
    cleaned, report, rules = clean_dataset_with_rules(runner.raw)
    aux = CleanAux(
        rule_sets=rules,
        final_location_ids=frozenset(
            row["location_id"] for row in cleaned.location_rows()
        ),
        clean_locations_digest=locations_digest(cleaned),
    )
    return cleaned, report, aux


def _stage_candidates(runner: "PipelineRunner", clean: tuple):
    cleaned, _, aux = clean
    if aux.parent_digest is not None:
        prefix = runner.prefix_value("candidates", aux.parent_digest)
        if prefix is not MISS:
            runner.note_incremental("candidates")
            return merge_candidate_flow(prefix, aux.delta_survivors)
    # The HAC condensation depends only on the cleaned location table,
    # so it is cached value-addressed — appends (and config changes
    # outside the clustering section) reuse it even when the trip
    # projection must rerun.
    hac_key = fingerprint(
        "hac",
        CACHE_SCHEMA_VERSION,
        runner.config.clustering,
        aux.clean_locations_digest,
    )
    clustering = runner.sub_cached(
        hac_key, lambda: condense_locations(cleaned, runner.config.clustering)
    )
    return project_candidate_flow(cleaned, clustering)


def _stage_selection(runner: "PipelineRunner", candidates):
    return select_stations(candidates, runner.config.selection)


def _stage_network(runner: "PipelineRunner", clean: tuple, candidates, selection):
    cleaned, _, aux = clean
    stations = build_station_set(cleaned, candidates, selection)
    # The nearest-station assignment depends only on the station roster
    # and the cleaned locations — value-addressed like the HAC above.
    assign_key = fingerprint(
        "assign", CACHE_SCHEMA_VERSION, stations, aux.clean_locations_digest
    )
    location_to_station = runner.sub_cached(
        assign_key, lambda: assign_locations_to_stations(cleaned, stations)
    )
    if aux.parent_digest is not None:
        prefix = runner.prefix_value("network", aux.parent_digest)
        if prefix is not MISS:
            merged = merge_selected_network(
                prefix, stations, location_to_station, aux.delta_survivors
            )
            if merged is not None:
                runner.note_incremental("network")
                return merged
    trips = [
        project_trip(row, location_to_station) for row in cleaned.rental_rows()
    ]
    return SelectedNetwork(
        stations=stations,
        location_to_station=location_to_station,
        trips=trips,
    )


def _stage_basic(runner: "PipelineRunner", network):
    return louvain(network.g_basic(), runner.config.community)


def _stage_day(runner: "PipelineRunner", network):
    return detect_temporal_communities_from_aggregates(
        runner.slice_aggregates("day", network), runner.config.temporal
    )


def _stage_hour(runner: "PipelineRunner", network):
    return detect_temporal_communities_from_aggregates(
        runner.slice_aggregates("hour", network), runner.config.temporal
    )


#: The expansion DAG (paper Section IV), in topological order.
EXPANSION_STAGES: tuple[Stage, ...] = (
    Stage("clean", (), _stage_clean),
    Stage("candidates", ("clean",), _stage_candidates, ("clustering",)),
    Stage("selection", ("candidates",), _stage_selection, ("selection",)),
    Stage("network", ("clean", "candidates", "selection"), _stage_network),
    Stage("basic", ("network",), _stage_basic, ("community",)),
    Stage("day", ("network",), _stage_day, ("temporal",)),
    Stage("hour", ("network",), _stage_hour, ("temporal",)),
)


class PipelineRunner:
    """Executes the expansion DAG with content-addressed caching.

    Parameters
    ----------
    raw:
        The raw dataset the pipeline consumes.
    config:
        Stage configuration bundle (the paper's defaults).
    stages:
        The DAG to run; defaults to :data:`EXPANSION_STAGES`.
    cache:
        A shared :class:`StageCache` (e.g. across a sweep).  When
        omitted, a private cache is created from ``cache_dir``.
    cache_dir:
        Optional on-disk cache directory for cross-process warm runs.
    lineage:
        Optional append-lineage document of the raw dataset (the
        ``lineage`` block of :meth:`repro.service.datasets.DatasetStore.
        meta`): its chain ``digest`` must equal ``raw_digest``, its
        ``history`` names the ancestor snapshots and its ``slices``
        carry the per-slice content digests.  When present and valid,
        stage bodies merge the appended delta onto the previous run's
        cached values instead of recomputing (see
        :mod:`repro.pipeline.incremental`); when absent, stale, or the
        cache no longer holds the previous run, the run is simply cold.
    timer:
        Optional :class:`~repro.perf.StageTimer`; every stage records a
        ``stage:<name>`` section (with a ``cached`` flag) and the run's
        report lands on :attr:`ExpansionResult.timings`.
    cancel:
        Optional zero-argument callable polled at every stage boundary
        (before a stage body runs).  Returning ``True`` aborts the run with
        :class:`~repro.exceptions.PipelineCancelledError`.  Stage
        bodies are never interrupted mid-flight, so everything already
        computed is cached consistently and a resubmitted run resumes
        from those warm stages.
    stage_observer:
        Optional ``(stage_name, wall_seconds, cached)`` callback fired
        as each stage resolves — the live feed behind the
        ``repro_stage_seconds`` histogram (:mod:`repro.obs`), streaming
        mid-run instead of waiting for the end-of-run report.  Observer
        errors are deliberately not caught: observability hooks are
        wired by the service layer, not user code.
    """

    def __init__(
        self,
        raw: MobyDataset,
        config: PipelineConfig = PAPER_CONFIG,
        *,
        stages: Sequence[Stage] = EXPANSION_STAGES,
        cache: StageCache | None = None,
        cache_dir: str | Path | None = None,
        raw_digest: str | None = None,
        lineage: Mapping[str, Any] | None = None,
        timer: "StageTimer | None" = None,
        cancel: Callable[[], bool] | None = None,
        stage_observer: Callable[[str, float, bool], None] | None = None,
    ) -> None:
        self.raw = raw
        self.config = config
        self.stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise PipelineError(f"duplicate stage name {stage.name!r}")
            self.stages[stage.name] = stage
        for stage in stages:
            for dep in stage.inputs:
                if dep not in self.stages:
                    raise PipelineError(
                        f"stage {stage.name!r} inputs unknown stage {dep!r}"
                    )
        self.cache = cache if cache is not None else StageCache(cache_dir)
        self.timer = timer
        self.cancel = cancel
        self.stage_observer = stage_observer
        self.executions: dict[str, int] = {}
        self.lineage = dict(lineage) if lineage else None
        self._values: dict[str, Any] = {}
        self._keys: dict[tuple[str, str], str] = {}
        self._raw_digest = raw_digest
        self._lineage_parent: tuple[str, int] | None | str = "unresolved"
        self._slice_digests: dict[str, list[str]] | None = None
        self._assign_digest: str | None = None
        self._incremental_mutex = threading.Lock()
        self.incremental_stats: dict[str, Any] = {
            "stages_merged": [],
            "slices_reused": 0,
            "slices_recomputed": 0,
        }

    # ------------------------------------------------------------------
    # Fingerprints
    # ------------------------------------------------------------------

    @property
    def raw_digest(self) -> str:
        """Digest of the raw dataset (computed once, lazily)."""
        if self._raw_digest is None:
            self._raw_digest = dataset_digest(self.raw)
        return self._raw_digest

    def key(self, name: str) -> str:
        """Content-addressed cache key of stage ``name``.

        Root stages are keyed off the dataset digest; every other stage
        chains its parents' keys, so an upstream change invalidates the
        whole downstream cone and nothing else.
        """
        return self.key_for_root(name, self.raw_digest)

    def key_for_root(self, name: str, root_digest: str) -> str:
        """:meth:`key` with the dataset-digest root swapped out.

        An incremental run addresses the *previous* run's stage values
        by rebuilding their keys from the parent dataset's digest — the
        config part is this runner's own, which is exactly the
        constraint: only a previous run under the same config is a
        valid merge prefix.
        """
        memo = (name, root_digest)
        if memo not in self._keys:
            stage = self.stages[name]
            parents = [self.key_for_root(dep, root_digest) for dep in stage.inputs]
            sections = {
                section: getattr(self.config, section)
                for section in stage.config_sections
            }
            self._keys[memo] = fingerprint(
                "stage",
                CACHE_SCHEMA_VERSION,
                stage.name,
                sections,
                parents if parents else root_digest,
            )
        return self._keys[memo]

    # ------------------------------------------------------------------
    # Incremental (append-mode) machinery
    # ------------------------------------------------------------------

    def lineage_parent(self) -> tuple[str, int] | None:
        """(parent digest, parent max rental id) when lineage validates.

        The lineage must describe *this* dataset — its chain digest has
        to equal :attr:`raw_digest` — and carry at least one ancestor.
        Anything else (no lineage, stale lineage, a never-appended
        dataset) returns ``None`` and the runner stays cold.
        """
        if self._lineage_parent == "unresolved":
            self._lineage_parent = self._resolve_lineage_parent()
        return self._lineage_parent  # type: ignore[return-value]

    def _resolve_lineage_parent(self) -> tuple[str, int] | None:
        lineage = self.lineage
        if not lineage:
            return None
        if lineage.get("digest") != self.raw_digest:
            return None
        history = lineage.get("history") or []
        if not history:
            return None
        parent = history[-1]
        digest = parent.get("digest")
        max_rental_id = parent.get("max_rental_id")
        if not isinstance(digest, str) or not isinstance(max_rental_id, int):
            return None
        return digest, max_rental_id

    def prefix_value(self, name: str, parent_digest: str) -> Any:
        """The previous run's value of ``name``, or :data:`MISS`."""
        return self.cache.get(self.key_for_root(name, parent_digest))

    def note_incremental(self, name: str) -> None:
        """Record that stage ``name`` resolved by merging, not recompute."""
        with self._incremental_mutex:
            if name not in self.incremental_stats["stages_merged"]:
                self.incremental_stats["stages_merged"].append(name)

    def incremental_report(self) -> dict[str, Any]:
        """A JSON-safe snapshot of the run's incremental accounting."""
        with self._incremental_mutex:
            stats = {
                "stages_merged": sorted(
                    self.incremental_stats["stages_merged"]
                ),
                "slices_reused": self.incremental_stats["slices_reused"],
                "slices_recomputed": self.incremental_stats["slices_recomputed"],
            }
        stats["mode"] = (
            "incremental" if stats["stages_merged"] else "cold"
        )
        return stats

    def sub_cached(self, key: str, compute: Callable[[], Any]) -> Any:
        """A value-addressed sub-stage entry (HAC, assignment, slices).

        Same get/put discipline as :meth:`stage`, but keyed by the
        *content* the computation consumes rather than by DAG position —
        the entries survive appends that leave that content untouched.
        Serialised through :meth:`StageCache.key_lock` (a dedicated
        per-key lock) because this always runs inside a held — striped —
        stage lock.
        """
        with self.cache.key_lock(key):
            value = self.cache.get(key)
            if value is MISS:
                value = compute()
                self.cache.put(key, value)
        return value

    def slice_digest_rows(self) -> dict[str, list[str]]:
        """Per-slice content digests of the raw rentals, by slice kind.

        Served from the dataset's stored lineage when it matches this
        dataset (appends advance only the touched slices' chains, so
        untouched slices keep their digests — the whole point), computed
        in one pass over the raw rows otherwise.
        """
        with self._incremental_mutex:
            if self._slice_digests is None:
                rows: dict[str, list[str]] | None = None
                lineage = self.lineage
                if lineage and lineage.get("digest") == self.raw_digest:
                    slices = lineage.get("slices") or {}
                    candidate = {
                        kind: list(slices.get(kind) or [])
                        for kind in SLICE_COUNTS
                    }
                    if all(
                        len(candidate[kind]) == count
                        for kind, count in SLICE_COUNTS.items()
                    ):
                        rows = candidate
                if rows is None:
                    rows = dataset_slice_digests(self.raw)
                self._slice_digests = rows
            return self._slice_digests

    def assignment_digest(self, network: SelectedNetwork) -> str:
        """Digest of the nearest-station assignment (cheap, memoised).

        A temporal slice's OD bucket is a pure function of (that
        slice's raw rentals, this assignment): a rental survives
        cleaning iff both its references are assigned, and its bucket
        entry is the two assigned station ids.  Slice digest plus this
        digest therefore address the slice aggregate exactly.
        """
        with self._incremental_mutex:
            if self._assign_digest is None:
                payload = ",".join(
                    f"{location}:{station}"
                    for location, station in sorted(
                        network.location_to_station.items()
                    )
                )
                self._assign_digest = hashlib.sha256(
                    payload.encode("ascii")
                ).hexdigest()
            return self._assign_digest

    def slice_aggregates(self, kind: str, network: SelectedNetwork) -> list:
        """Per-slice aggregates of ``network``, warm slices served cached.

        Each slice's aggregate is cached under (slice content digest,
        assignment digest); an append touches only the slices its new
        trips start in, so an incremental rerun re-aggregates those and
        reads the rest back.
        """
        buckets = (
            network.day_slice_buckets()
            if kind == "day"
            else network.hour_slice_buckets()
        )
        digests = self.slice_digest_rows()[kind]
        assign = self.assignment_digest(network)
        keys = [
            fingerprint(
                "slice", CACHE_SCHEMA_VERSION, kind, index, digests[index], assign
            )
            for index in range(len(buckets))
        ]
        aggregates: list[Any] = [None] * len(buckets)
        missing: list[int] = []
        for index, key in enumerate(keys):
            value = self.cache.get(key)
            if value is MISS:
                missing.append(index)
            else:
                aggregates[index] = value
        for index in missing:
            value = aggregate_slice(buckets[index])
            self.cache.put(keys[index], value)
            aggregates[index] = value
        with self._incremental_mutex:
            self.incremental_stats["slices_reused"] += len(buckets) - len(missing)
            self.incremental_stats["slices_recomputed"] += len(missing)
        return aggregates

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def check_cancel(self) -> None:
        """Raise :class:`PipelineCancelledError` if cancellation was asked.

        Called between stages only — never inside a body — so the stage
        cache always holds complete values when the run unwinds.
        """
        if self.cancel is not None and self.cancel():
            raise PipelineCancelledError("pipeline run cancelled")

    def stage(self, name: str) -> Any:
        """The value of stage ``name`` (memo -> cache -> execute)."""
        if name in self._values:
            return self._values[name]
        self.check_cancel()
        stage = self.stages[name]
        inputs = [self.stage(dep) for dep in stage.inputs]
        key = self.key(name)
        timer = self.timer if self.timer is not None else NULL_TIMER
        start = time.perf_counter()
        with timer.section(f"stage:{name}"):
            with self.cache.lock(key):
                value = self.cache.get(key)
                cached = value is not MISS
                if not cached:
                    value = stage.fn(self, *inputs)
                    self.executions[name] = self.executions.get(name, 0) + 1
                    self.cache.put(key, value)
        timer.add(f"stage:{name}", 0.0, calls=0, cached=cached)
        if self.stage_observer is not None:
            self.stage_observer(name, time.perf_counter() - start, cached)
        self._values[name] = value
        return value

    def values(self) -> dict[str, Any]:
        """Every stage value, computing any that are still pending."""
        try:
            self._run_dag()
        finally:
            self.close()
        return dict(self._values)

    def run(self) -> ExpansionResult:
        """Run the full DAG and bundle the paper's result shape."""
        cleaned, report, _aux = self.stage("clean")
        if cleaned.n_rentals == 0:
            raise PipelineError("cleaning removed every rental — nothing to do")
        try:
            self._run_dag()
        finally:
            self.close()
        return ExpansionResult(
            cleaned=cleaned,
            cleaning_report=report,
            candidates=self._values["candidates"],
            selection=self._values["selection"],
            network=self._values["network"],
            basic=self._values["basic"],
            day=self._values["day"],
            hour=self._values["hour"],
            timings=(
                self.timer.report().to_dict() if self.timer is not None else None
            ),
        )

    def _topological_order(self) -> list[str]:
        order: list[str] = []
        seen: set[str] = set()

        def visit(name: str, trail: tuple[str, ...]) -> None:
            if name in seen:
                return
            if name in trail:
                raise PipelineError(f"stage cycle through {name!r}")
            for dep in self.stages[name].inputs:
                visit(dep, trail + (name,))
            seen.add(name)
            order.append(name)

        for name in self.stages:
            visit(name, ())
        return order

    def _run_dag(self) -> None:
        for name in self._topological_order():
            self.stage(name)

    def close(self) -> None:
        """Flush the stage cache's debounced access stamps."""
        self.cache.close()

    def __enter__(self) -> "PipelineRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Multi-scenario sweeps
# ---------------------------------------------------------------------------


def config_grid(
    base: PipelineConfig, axes: Mapping[str, Sequence[Any]]
) -> list[tuple[dict[str, Any], PipelineConfig]]:
    """Cross product of dotted-path override axes.

    >>> from repro.config import PAPER_CONFIG
    >>> grid = config_grid(PAPER_CONFIG, {"temporal.coupling": [0.1, 0.2]})
    >>> [overrides["temporal.coupling"] for overrides, _ in grid]
    [0.1, 0.2]
    """
    if not axes:
        return [({}, base)]
    keys = list(axes)
    grid: list[tuple[dict[str, Any], PipelineConfig]] = []
    for combo in itertools.product(*(axes[key] for key in keys)):
        overrides = dict(zip(keys, combo))
        grid.append((overrides, base.derive(overrides)))
    return grid


def run_sweep(
    raw: MobyDataset,
    configs: Sequence[PipelineConfig],
    *,
    cache: StageCache | None = None,
    cache_dir: str | Path | None = None,
    cancel: Callable[[], bool] | None = None,
    stage_observer: Callable[[str, float, bool], None] | None = None,
) -> list[ExpansionResult]:
    """Run the pipeline once per config, sharing every common stage.

    All configs run over the same dataset and share one cache, so the
    stages a config does not change (typically ``clean`` and often
    ``candidates``/``network``) are computed once for the whole grid.
    Results come back in ``configs`` order.  ``cancel`` and
    ``stage_observer`` are threaded into every runner (the per-stage
    boundary checks and the per-stage metrics feed of
    :class:`PipelineRunner`).
    """
    if not configs:
        return []
    if cancel is not None and cancel():
        raise PipelineCancelledError("sweep cancelled before it started")
    digest = dataset_digest(raw)
    shared = cache if cache is not None else StageCache(cache_dir)
    return [
        PipelineRunner(
            raw,
            config,
            cache=shared,
            raw_digest=digest,
            cancel=cancel,
            stage_observer=stage_observer,
        ).run()
        for config in configs
    ]
