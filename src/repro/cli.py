"""Command-line interface — a thin client over :mod:`repro.service`.

The subcommands cover the library's end-to-end workflow:

* ``generate`` — write the calibrated synthetic dataset to CSV;
* ``clean`` — run the six-rule cleaning pipeline over a CSV dataset;
* ``run`` — the full expansion pipeline: prints every paper table and
  (optionally) renders the figures; ``--store-dir`` keeps the stages
  and the result warm for the next run;
* ``sweep`` — run a parameter grid (``--set section.field=v1,v2``)
  and/or a dataset axis (``--datasets a,b,c`` over named datasets)
  through the staged runner with one shared cache;
* ``rebalance`` — build the Friday-night rebalancing plan;
* ``report`` — write the full paper-vs-measured markdown report;
* ``serve`` — expose the same service over HTTP (see ``docs/API.md``);
* ``bench`` — append a benchmark entry to ``BENCH_pipeline.json``.

``run``, ``sweep``, ``rebalance`` and ``report`` all build a
:class:`~repro.service.ScenarioSpec`, submit it to an in-process
:class:`~repro.service.ExpansionService`, and render the resulting
envelope — exactly what an HTTP client of ``repro serve`` receives.
``--format json`` prints the canonical envelope verbatim, byte-
identical to the ``POST /v1/runs`` response for the same scenario.
``--store-dir`` points every service-backed subcommand at the same
storage tree a ``repro serve --store-dir`` persists (stage cache,
results, datasets, job journal — see :mod:`repro.store`), so CLI runs
and the server share warm state.

Three subcommands are clients of a *running* ``repro serve`` instead
(they take ``--url``):

* ``datasets`` — ``push``/``list``/``rm`` named datasets that later
  run specs can reference as ``{"kind": "named", "name": ...}``;
* ``results`` — fetch a stored envelope by fingerprint, whole or as a
  headline view, a paginated section, or an NDJSON slice stream;
* ``cancel`` — request cooperative cancellation of a queued or
  running job;
* ``metrics`` — scrape the server's Prometheus exposition
  (``GET /v1/metrics``, see ``docs/OBSERVABILITY.md``).

Invoke as ``python -m repro <subcommand> --help``.

Each subcommand imports the code it runs when it runs: a ``repro run``
answered from the results store loads the service and the table
layouts, never the pipeline, the HTTP server or numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .exceptions import ConfigError

if TYPE_CHECKING:
    from .service import DatasetRef, ExpansionService, Job, ScenarioSpec


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Options every service-backed subcommand shares."""
    parser.add_argument("--store-dir", type=Path, default=None,
                        help="root of the shared storage subsystem: stage "
                             "cache, result envelopes, named datasets and "
                             "the job journal all live under this one tree "
                             "(see repro.store)")
    parser.add_argument("--store-backend", choices=("dir", "sharded"),
                        default=None,
                        help="on-disk layout under --store-dir: 'dir' (flat, "
                             "the default) or 'sharded' (digest-prefix "
                             "fan-out for very large stores)")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        help="evict least-recently-used cache pickles once "
                             "the stage cache under --store-dir exceeds "
                             "this many bytes")
    parser.add_argument("--cache-entries", type=int, default=None,
                        help="evict least-recently-used cache pickles once "
                             "the stage cache under --store-dir exceeds "
                             "this many entries")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="text renders the paper tables; json prints the "
                             "canonical result envelope")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dockless BSS network-expansion pipeline (ICDE 2024 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="write the synthetic Moby dataset to CSV"
    )
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", type=Path, required=True,
                          help="output directory for locations.csv/rentals.csv")

    clean = subparsers.add_parser(
        "clean", help="apply the six cleaning rules to a CSV dataset"
    )
    clean.add_argument("--data", type=Path, required=True,
                       help="directory holding locations.csv/rentals.csv")
    clean.add_argument("--out", type=Path, default=None,
                       help="where to write the cleaned dataset (optional)")

    run = subparsers.add_parser(
        "run", help="run the full expansion pipeline and print every table"
    )
    run.add_argument("--seed", type=int, default=7,
                     help="seed for the synthetic dataset (ignored with --data)")
    run.add_argument("--data", type=Path, default=None,
                     help="run over a CSV dataset instead of generating one")
    run.add_argument("--figures", type=Path, default=None,
                     help="directory to render the paper figures into")
    run.add_argument("--timings", action="store_true",
                     help="print the per-stage wall-clock breakdown after "
                          "the tables")
    _add_service_arguments(run)

    sweep = subparsers.add_parser(
        "sweep", help="run a parameter grid through the staged runner"
    )
    sweep.add_argument("--seed", type=int, default=7,
                       help="seed for the synthetic dataset (ignored with --data)")
    sweep.add_argument("--data", type=Path, default=None,
                       help="sweep over a CSV dataset instead of generating one")
    sweep.add_argument("--set", dest="axes", action="append", default=[],
                       metavar="SECTION.FIELD=V1,V2,...",
                       help="one sweep axis as comma-separated values; repeat "
                            "for a cross product (e.g. --set temporal.coupling=0.08,0.12)")
    sweep.add_argument("--datasets", default=None, metavar="NAME1,NAME2,...",
                       help="sweep the config grid over these named datasets "
                            "(stored under --store-dir by 'repro datasets "
                            "push' against a server on the same store, or "
                            "registered in-process); one envelope, every "
                            "(dataset, config) child individually "
                            "addressable")
    _add_service_arguments(sweep)

    rebalance = subparsers.add_parser(
        "rebalance", help="plan Friday-night fleet rebalancing"
    )
    rebalance.add_argument("--seed", type=int, default=7)
    rebalance.add_argument("--fleet", type=int, default=95,
                           help="fleet size in bikes")
    _add_service_arguments(rebalance)

    report = subparsers.add_parser(
        "report", help="write the full paper-vs-measured markdown report"
    )
    report.add_argument("--seed", type=int, default=7)
    report.add_argument("--out", type=Path, required=True,
                        help="markdown file to write")
    _add_service_arguments(report)

    serve = subparsers.add_parser(
        "serve", help="serve the expansion service over HTTP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8722)
    serve.add_argument("--store-dir", type=Path, default=None,
                       help="one directory tree persisting everything: stage "
                            "cache, result envelopes, named datasets and the "
                            "job journal — a restarted serve over the same "
                            "store lists prior jobs, serves their results "
                            "and re-queues the ones left pending")
    serve.add_argument("--store-backend", choices=("dir", "sharded"),
                       default=None,
                       help="on-disk layout under --store-dir ('sharded' "
                            "fans entries out by digest prefix)")
    serve.add_argument("--cache-bytes", type=int, default=None,
                       help="LRU-evict cache pickles under --store-dir "
                            "beyond this many bytes")
    serve.add_argument("--cache-entries", type=int, default=None,
                       help="LRU-evict cache pickles under --store-dir "
                            "beyond this many entries")
    serve.add_argument("--workers", type=int, default=1,
                       help="pre-fork this many serving processes sharing "
                            "one port (SO_REUSEPORT when available); more "
                            "than 1 requires --store-dir, the shared "
                            "journal that makes the fleet one service")
    serve.add_argument("--job-workers", type=int, default=2,
                       help="concurrently executing jobs per process")
    serve.add_argument("--retain-jobs", type=int, default=1024,
                       help="keep at most this many finished jobs in the "
                            "job table (oldest pruned first)")
    serve.add_argument("--max-dataset-bytes", type=int, default=None,
                       help="reject a single dataset upload over this many "
                            "serialised bytes (default: 64MiB)")
    serve.add_argument("--max-datasets-bytes", type=int, default=None,
                       help="LRU-evict stored datasets once the store "
                            "exceeds this many bytes")
    serve.add_argument("--max-datasets", type=int, default=None,
                       help="LRU-evict stored datasets beyond this count")
    serve.add_argument("--access-log", type=str, default=None,
                       metavar="PATH",
                       help="write one single-line JSON record per HTTP "
                            "request and per job transition to PATH "
                            "('-' for stderr)")
    serve.add_argument("--healthz-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="occupancy-scan cache TTL for /v1/healthz and "
                            "the store metrics (0 disables the cache; "
                            "default: 5s)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable the metrics registry; GET /v1/metrics "
                            "answers 404 and instruments become no-ops")
    serve.add_argument("--queue-size", type=int, default=None,
                       metavar="N",
                       help="bound the admission queue: refuse new runs "
                            "with 429 + Retry-After while N jobs are "
                            "already admitted (default: unbounded)")
    serve.add_argument("--watchdog-stale", type=float, default=None,
                       metavar="SECONDS",
                       help="fail a running job as 'timeout' once its "
                            "stage-boundary heartbeat is older than this "
                            "(default: watchdog off)")

    datasets = subparsers.add_parser(
        "datasets", help="manage named datasets on a running repro serve"
    )
    dataset_commands = datasets.add_subparsers(
        dest="datasets_command", required=True
    )
    push = dataset_commands.add_parser(
        "push", help="upload a dataset under a name (PUT /v1/datasets/<name>)"
    )
    push.add_argument("name", help="dataset name (later run specs use "
                                   '{"kind": "named", "name": <name>})')
    push.add_argument("--url", default="http://127.0.0.1:8722",
                      help="base URL of the running server")
    push.add_argument("--data", type=Path, default=None,
                      help="CSV directory to upload (default: generate the "
                           "synthetic dataset from --seed)")
    push.add_argument("--seed", type=int, default=7,
                      help="synthetic seed when --data is not given")
    push.add_argument("--append", action="store_true",
                      help="append the rows of --data/rentals.csv onto the "
                           "stored dataset (PATCH /v1/datasets/<name>) "
                           "instead of replacing it; appended rental ids "
                           "must exceed every stored id")
    listing = dataset_commands.add_parser(
        "list", help="list stored datasets (GET /v1/datasets)"
    )
    listing.add_argument("--url", default="http://127.0.0.1:8722")
    remove = dataset_commands.add_parser(
        "rm", help="delete a named dataset (DELETE /v1/datasets/<name>)"
    )
    remove.add_argument("name")
    remove.add_argument("--url", default="http://127.0.0.1:8722")

    results = subparsers.add_parser(
        "results", help="fetch a stored result envelope from a running server"
    )
    results.add_argument("fingerprint", help="result fingerprint (from a job "
                                             "document or sweep scenario)")
    results.add_argument("--url", default="http://127.0.0.1:8722")
    results.add_argument("--fields", choices=("headline",), default=None,
                         help="headline: the ~1.5KB summary view")
    results.add_argument("--section", default=None, metavar="DOTTED.PATH",
                         help="address one envelope subtree, e.g. "
                              "outputs.run.day.slice_partition.assignment")
    results.add_argument("--page", type=int, default=None,
                         help="1-based page of a list section")
    results.add_argument("--page-size", type=int, default=None,
                         help="items per page (server default: 500)")
    results.add_argument("--stream", choices=("day", "hour"), default=None,
                         help="stream this temporal block's per-slice "
                              "assignment as NDJSON instead")

    cancel = subparsers.add_parser(
        "cancel", help="request cancellation of a job (DELETE /v1/jobs/<id>)"
    )
    cancel.add_argument("job_id")
    cancel.add_argument("--url", default="http://127.0.0.1:8722")

    metrics = subparsers.add_parser(
        "metrics",
        help="print a running server's metrics (GET /v1/metrics, "
             "Prometheus text format)",
    )
    metrics.add_argument("--url", default="http://127.0.0.1:8722")

    bench = subparsers.add_parser(
        "bench", help="run the calibrated benchmark matrix and append to "
                      "BENCH_pipeline.json"
    )
    bench.add_argument("--quick", action="store_true",
                       help="first scale only, one timing repetition per "
                            "kernel")
    bench.add_argument("--out", type=Path, default=None,
                       help="trajectory file (default: BENCH_pipeline.json "
                            "at the repo root / current directory)")
    bench.add_argument("--scales", default="1,2,4",
                       help="comma-separated workload scales (trip volume "
                            "multipliers)")
    bench.add_argument("--label", default=None,
                       help="label stored on the trajectory entry")
    bench.add_argument("--check", action="store_true",
                       help="fail (exit 1) when the incremental gate "
                            "rejects the fresh entry; needs --incremental")
    bench.add_argument("--incremental", action="store_true",
                       help="run the incremental-recompute rung instead: "
                            "cold paper run, ~5%% append, delta-aware "
                            "re-run; with --check the re-run must be >=3x "
                            "faster than cold and bit-identical")
    bench.add_argument("--min-speedup", type=float, default=None,
                       help="gate floor for cold wall / incremental wall "
                            "(default: 3.0; only with --incremental)")
    return parser


# ---------------------------------------------------------------------------
# HTTP client plumbing shared by datasets/results/cancel
# ---------------------------------------------------------------------------


def _http_request(
    url: str,
    method: str = "GET",
    body: Any | None = None,
    timeout: float = 600.0,
) -> tuple[int, str]:
    """One JSON exchange with a running server; (status, body text).

    HTTP error statuses come back as values, not exceptions — the
    subcommands print the server's ``{"error": ...}`` document and
    exit non-zero.  Connection failures raise ``URLError`` and are
    translated by :func:`_client_call`.
    """
    import urllib.error
    import urllib.request

    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _client_call(
    url: str, method: str = "GET", body: Any | None = None
) -> tuple[int, str] | None:
    """:func:`_http_request` with connection errors reported, not raised."""
    import urllib.error

    try:
        return _http_request(url, method, body)
    except urllib.error.URLError as error:
        print(
            f"cannot reach {url}: {error.reason} "
            "(is `repro serve` running?)",
            file=sys.stderr,
        )
        return None


def _print_response(status: int, text: str) -> int:
    """Print a server response; non-2xx goes to stderr with exit 1."""
    if 200 <= status < 300:
        print(text)
        return 0
    print(text, file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Service plumbing shared by run/sweep/rebalance/report
# ---------------------------------------------------------------------------


def _dataset_ref(args: argparse.Namespace) -> DatasetRef:
    from .service.spec import DatasetRef

    if getattr(args, "data", None) is not None:
        return DatasetRef.csv(args.data)
    return DatasetRef.synthetic(args.seed)


def _make_service(args: argparse.Namespace) -> ExpansionService:
    """An in-process service wired from the subcommand's arguments.

    With ``--store-dir`` everything (stage pickles, result envelopes,
    named datasets, the job journal) persists under one tree — the same
    tree a ``repro serve --store-dir`` uses, so CLI runs and the server
    share warm stages, stored results and uploaded datasets.  Without
    it the service lives in memory for this one command.
    """
    from .service.service import ExpansionService

    store_dir = getattr(args, "store_dir", None)
    if store_dir is None and getattr(args, "store_backend", None):
        # Same verdict `repro serve` reaches (StoreError from Store):
        # a backend choice without a tree is a mistake, never a no-op.
        raise ConfigError("--store-backend requires --store-dir")
    return ExpansionService(
        store_dir=store_dir,
        store_backend=getattr(args, "store_backend", None),
        cache_bytes=getattr(args, "cache_bytes", None),
        cache_entries=getattr(args, "cache_entries", None),
        # One-shot commands must not hijack a serve's journalled
        # backlog; pending jobs stay queued for a resuming server.
        resume_jobs=False,
    )


def _run_scenario(args: argparse.Namespace, spec: ScenarioSpec) -> Job:
    """Run a spec on an in-process service; returns the finished job.

    The job holds the envelope's stored bytes: ``--format json`` writes
    them out unchanged, and ``job.wait()`` parses them for the tables.
    """
    with _make_service(args) as service:
        job = service.submit(spec)
        job.wait_bytes()
        return job


def _print_payload(payload: bytes) -> None:
    """Write stored envelope bytes to stdout as they are, plus a newline."""
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:  # a text-only stand-in for stdout
        print(payload.decode("utf-8"))
        return
    sys.stdout.flush()
    stream.write(payload)
    stream.write(b"\n")
    stream.flush()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    from .synth import SyntheticMobyGenerator

    dataset = SyntheticMobyGenerator(seed=args.seed).generate()
    dataset.to_csv(args.out)
    print(
        f"wrote {dataset.n_locations:,} locations and "
        f"{dataset.n_rentals:,} rentals to {args.out}"
    )
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    from .data import MobyDataset, clean_dataset
    from .reporting import experiment_table1

    raw = MobyDataset.from_csv(args.data)
    cleaned, report = clean_dataset(raw)
    print(experiment_table1(report).text)
    for outcome in report.outcomes:
        print(
            f"  rule {outcome.rule}: -{outcome.locations_removed} locations, "
            f"-{outcome.rentals_removed} rentals"
        )
    if args.out is not None:
        cleaned.to_csv(args.out)
        print(f"cleaned dataset written to {args.out}")
    return 0


def _parse_axis(spec: str) -> tuple[str, list]:
    """Parse one ``--set section.field=v1,v2`` sweep axis."""
    path, _, raw_values = spec.partition("=")
    if not raw_values or "." not in path:
        raise ConfigError(
            f"bad sweep axis {spec!r}; expected SECTION.FIELD=V1,V2,..."
        )

    def coerce(text: str):
        text = text.strip()
        if text.lower() == "none":
            return None
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                continue
        return text

    return path.strip(), [coerce(value) for value in raw_values.split(",")]


def _cmd_run(args: argparse.Namespace) -> int:
    from .service.spec import ScenarioSpec

    job = _run_scenario(
        args, ScenarioSpec(dataset=_dataset_ref(args), outputs=("run",))
    )
    if args.format == "json":
        _print_payload(job.payload)
        if args.timings and job.timings is not None:
            # stdout stays pure canonical JSON; the breakdown goes to
            # stderr so `--format json --timings` honours both flags.
            from .perf import PerfReport

            print("PER-STAGE WALL CLOCK", file=sys.stderr)
            print(
                PerfReport.from_dict(job.timings).render(indent=2),
                file=sys.stderr,
            )
        return 0
    from .reporting.paper_tables import tables_from_envelope

    # The tables are counted from the envelope dict itself; no pipeline
    # object is rebuilt unless figures are asked for.
    run = job.wait()["outputs"]["run"]
    for output in tables_from_envelope(run):
        print(output.text)
        print()
    if args.figures is not None:
        from .core.results import ExpansionResult
        from .viz import render_community_map, render_selected_map

        result = ExpansionResult.from_dict(run)
        args.figures.mkdir(parents=True, exist_ok=True)
        render_selected_map(result.network).save(
            args.figures / "fig2_selected_map.svg"
        )
        for name, partition in (
            ("fig3_gbasic", result.basic.partition),
            ("fig4_gday", result.day.station_partition),
            ("fig6_ghour", result.hour.station_partition),
        ):
            render_community_map(
                result.network, partition, name
            ).save(args.figures / f"{name}.svg")
        print(f"figures written to {args.figures}")
    if args.timings and job.timings is not None:
        from .perf import PerfReport

        print("PER-STAGE WALL CLOCK")
        print(PerfReport.from_dict(job.timings).render(indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .service.spec import ScenarioSpec

    axes: dict[str, list] = {}
    for spec in args.axes:
        path, values = _parse_axis(spec)
        if path in axes:
            raise ConfigError(
                f"sweep axis {path!r} given twice; list every value in one "
                f"--set (e.g. --set {path}=v1,v2)"
            )
        axes[path] = values
    sweep_datasets = tuple(
        name.strip() for name in (args.datasets or "").split(",") if name.strip()
    )
    job = _run_scenario(
        args,
        ScenarioSpec(
            dataset=_dataset_ref(args),
            outputs=("sweep",),
            sweep_axes=axes,
            sweep_datasets=sweep_datasets,
        ),
    )
    if args.format == "json":
        _print_payload(job.payload)
        return 0
    print(job.wait()["outputs"]["sweep"]["table"])
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    from .analysis.rebalancing import RebalancingPlan
    from .reporting.tables import format_table
    from .service.spec import ScenarioSpec

    job = _run_scenario(
        args,
        ScenarioSpec(
            dataset=_dataset_ref(args),
            outputs=("rebalance",),
            fleet_size=args.fleet,
        ),
    )
    if args.format == "json":
        _print_payload(job.payload)
        return 0
    plan = RebalancingPlan.from_dict(job.wait()["outputs"]["rebalance"]["plan"])
    rows = [
        [
            demand.community,
            demand.n_stations,
            demand.trips,
            f"{demand.weekend_share:.2f}",
            "receiver" if demand.is_receiver else "donor",
        ]
        for demand in plan.demands
    ]
    print(
        format_table(
            ["Community", "Stations", "Trips", "Weekend share", "Role"],
            rows,
            title="COMMUNITY DEMAND PROFILE",
        )
    )
    print(
        f"\n{plan.total_bikes_moved} of {args.fleet} bikes move "
        f"from {plan.donors} to {plan.receivers}:"
    )
    for transfer in plan.transfers:
        print(
            f"  {transfer.n_bikes} bikes: community {transfer.from_community} "
            f"(pickup {transfer.pickup_stations}) -> community "
            f"{transfer.to_community} (drop {transfer.dropoff_stations})"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .service.spec import ScenarioSpec

    job = _run_scenario(
        args,
        ScenarioSpec(
            dataset=_dataset_ref(args),
            outputs=("report",),
            report_title=f"Expansion pipeline report (seed {args.seed})",
        ),
    )
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(job.wait()["outputs"]["report"]["markdown"])
    if args.format == "json":
        _print_payload(job.payload)
    else:
        print(f"report written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import JsonEventLog
    from .service.datasets import DEFAULT_MAX_DATASET_BYTES
    from .service.http import make_server
    from .service.service import ExpansionService

    def build_service(
        event_log: "JsonEventLog | None", worker: int, resume_jobs: bool
    ) -> ExpansionService:
        return ExpansionService(
            store_dir=args.store_dir,
            store_backend=args.store_backend,
            cache_bytes=args.cache_bytes,
            cache_entries=args.cache_entries,
            max_workers=args.job_workers,
            retain_jobs=args.retain_jobs,
            max_dataset_bytes=(
                args.max_dataset_bytes
                if args.max_dataset_bytes is not None
                else DEFAULT_MAX_DATASET_BYTES
            ),
            max_datasets_bytes=args.max_datasets_bytes,
            max_datasets=args.max_datasets,
            resume_jobs=resume_jobs,
            metrics=not args.no_metrics,
            healthz_ttl=args.healthz_ttl,
            event_log=event_log,
            max_queue=args.queue_size,
            watchdog_stale_s=args.watchdog_stale,
            worker=worker,
        )

    if args.workers > 1:
        if args.store_dir is None:
            print(
                "error: --workers > 1 requires --store-dir (the shared "
                "journal is what makes the worker fleet one service)",
                file=sys.stderr,
            )
            return 2
        from .service.prefork import serve_prefork

        def factory(index: int):
            # Built inside the forked child: thread pools, metrics
            # registries and log handles must never cross a fork.
            event_log = (
                JsonEventLog(args.access_log)
                if args.access_log is not None
                else None
            )
            # Worker 0 is the sole claimant of a previous fleet's
            # journalled backlog — N resuming workers would re-run it
            # N times.
            service = build_service(event_log, index, resume_jobs=index == 0)
            return service, event_log

        return serve_prefork(
            factory,
            host=args.host,
            port=args.port,
            workers=args.workers,
            announce=lambda url: print(
                f"repro service listening on {url}", flush=True
            ),
        )

    event_log = (
        JsonEventLog(args.access_log) if args.access_log is not None else None
    )
    service = build_service(event_log, 0, resume_jobs=True)
    server = make_server(
        service, host=args.host, port=args.port, access_log=event_log
    )
    print(f"repro service listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.close()
        if event_log is not None:
            event_log.close()
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    if args.datasets_command == "push":
        if getattr(args, "append", False):
            if args.data is None:
                raise ConfigError(
                    "datasets push --append needs --data (a directory "
                    "holding the delta rentals.csv)"
                )
            from .data.csvio import read_rentals

            rows = [
                [
                    rental.rental_id,
                    rental.bike_id,
                    rental.started_at.isoformat(),
                    rental.ended_at.isoformat(),
                    rental.rental_location_id,
                    rental.return_location_id,
                ]
                for rental in read_rentals(args.data / "rentals.csv")
            ]
            response = _client_call(
                f"{base}/v1/datasets/{args.name}",
                "PATCH",
                {"rentals": rows},
            )
        else:
            from .data import MobyDataset
            from .synth import SyntheticMobyGenerator

            if args.data is not None:
                dataset = MobyDataset.from_csv(args.data)
            else:
                dataset = SyntheticMobyGenerator(seed=args.seed).generate()
            response = _client_call(
                f"{base}/v1/datasets/{args.name}", "PUT", dataset.to_dict()
            )
    elif args.datasets_command == "list":
        response = _client_call(f"{base}/v1/datasets")
    else:  # rm
        response = _client_call(f"{base}/v1/datasets/{args.name}", "DELETE")
    if response is None:
        return 1
    return _print_response(*response)


def _cmd_results(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    if args.stream is not None:
        if args.fields or args.section or args.page or args.page_size:
            raise ConfigError("--stream excludes --fields/--section/--page")
        import urllib.error
        import urllib.request

        url = (
            f"{base}/v1/results/{args.fingerprint}/slices"
            f"?output=run&block={args.stream}"
        )
        try:
            request = urllib.request.Request(url)
            with urllib.request.urlopen(request, timeout=600) as response:
                # NDJSON: relay the stream line by line as it arrives.
                for line in response:
                    sys.stdout.write(line.decode("utf-8"))
            return 0
        except urllib.error.HTTPError as error:
            print(error.read().decode("utf-8"), file=sys.stderr)
            return 1
        except urllib.error.URLError as error:
            print(f"cannot reach {base}: {error.reason}", file=sys.stderr)
            return 1
    query: list[str] = []
    if args.fields:
        query.append(f"fields={args.fields}")
    if args.section:
        query.append(f"section={args.section}")
    if args.page is not None:
        query.append(f"page={args.page}")
    if args.page_size is not None:
        query.append(f"page_size={args.page_size}")
    suffix = f"?{'&'.join(query)}" if query else ""
    response = _client_call(f"{base}/v1/results/{args.fingerprint}{suffix}")
    if response is None:
        return 1
    return _print_response(*response)


def _cmd_cancel(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    response = _client_call(f"{base}/v1/jobs/{args.job_id}", "DELETE")
    if response is None:
        return 1
    return _print_response(*response)


def _cmd_metrics(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    response = _client_call(f"{base}/v1/metrics")
    if response is None:
        return 1
    status, text = response
    if 200 <= status < 300:
        # Exposition text, not JSON: print verbatim (it ends in \n).
        sys.stdout.write(text)
        return 0
    print(text, file=sys.stderr)
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf.bench import run_bench

    if args.check and not args.incremental:
        print(
            "error: --check gates the incremental rung; add --incremental",
            file=sys.stderr,
        )
        return 2
    if args.incremental:
        from .perf.bench import (
            INCREMENTAL_MIN_SPEEDUP,
            check_incremental_gate,
            run_incremental_bench,
        )

        entry = run_incremental_bench(
            out=args.out, label=args.label, echo=print
        )
        block = entry["incremental"]
        print(
            f"incremental re-run after a {block['delta_rentals']}-trip "
            f"append: {block['incremental_wall_s']:.2f}s vs "
            f"{block['cold_wall_s']:.2f}s cold "
            f"({block['speedup']:.2f}x; {block['slices_recomputed']} "
            f"slices recomputed, {block['slices_reused']} reused)"
        )
        if args.check or args.min_speedup is not None:
            min_speedup = (
                args.min_speedup
                if args.min_speedup is not None
                else INCREMENTAL_MIN_SPEEDUP
            )
            ok, message = check_incremental_gate(entry, min_speedup)
            print(message)
            if not ok:
                return 1
        return 0

    scales = tuple(int(part) for part in str(args.scales).split(",") if part)
    entry = run_bench(
        scales=scales,
        quick=args.quick,
        out=args.out,
        label=args.label,
        echo=print,
    )
    headline = entry["end_to_end"][0]
    suffix = (
        f" ({entry['speedup_vs_origin']:.2f}x vs trajectory origin)"
        if "speedup_vs_origin" in entry
        else ""
    )
    print(f"cold paper run: {headline['wall_s']:.2f}s{suffix}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "clean": _cmd_clean,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "rebalance": _cmd_rebalance,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "datasets": _cmd_datasets,
    "results": _cmd_results,
    "cancel": _cmd_cancel,
    "metrics": _cmd_metrics,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if getattr(args, "store_dir", None) is None:
        # The cache quotas bound the durable stage tier, which only a
        # --store-dir has: without one they would bound nothing.
        for flag, value in (
            ("--cache-bytes", getattr(args, "cache_bytes", None)),
            ("--cache-entries", getattr(args, "cache_entries", None)),
        ):
            if value is not None:
                print(f"error: {flag} requires --store-dir", file=sys.stderr)
                return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
