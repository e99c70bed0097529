"""repro — reproduction of "Graph-Based Optimisation of Network
Expansion in a Dockless Bike Sharing System" (ICDE 2024).

The package implements the paper's full pipeline over a calibrated
synthetic stand-in for the proprietary Moby Bikes dataset:

>>> from repro import NetworkExpansionOptimiser, generate_paper_dataset
>>> result = NetworkExpansionOptimiser(generate_paper_dataset()).run()
>>> result.basic.modularity > 0
True

The methodology is executed as a staged DAG by
:class:`~repro.pipeline.PipelineRunner` (``clean`` -> ``candidates``
-> ``selection`` -> ``network`` -> ``basic``/``day``/``hour``), with
content-addressed caching of every stage value.
``NetworkExpansionOptimiser`` is a thin facade over it; both produce
identical results, pinned by the golden regression suite in
``tests/test_golden_paper.py``:

>>> from repro import PipelineRunner
>>> runner = PipelineRunner(generate_paper_dataset())  # cache_dir=...
>>> runner.run().selection.n_selected > 0
True

Parameter grids share one cache through :func:`~repro.pipeline.run_sweep`
(CLI: ``repro sweep``), so a sweep only recomputes the stages a config
actually changes — see ``examples/scenario_sweep.py``.

For serving, :mod:`repro.service` wraps the runner in a typed
scenario/job API: :class:`~repro.service.ScenarioSpec` requests are
fingerprinted, deduplicated and executed by an
:class:`~repro.service.ExpansionService` whose JSON result envelopes
are shared verbatim by the Python API, the CLI (``--format json``)
and the ``repro serve`` HTTP endpoints:

>>> from repro.service import DatasetRef, ExpansionService, ScenarioSpec
>>> service = ExpansionService()
>>> spec = ScenarioSpec(dataset=DatasetRef.synthetic(7))  # doctest: +SKIP
>>> service.run(spec)["outputs"]["run"]["headline"]  # doctest: +SKIP

Sub-packages: :mod:`repro.geo` (geospatial substrate), :mod:`repro.data`
(the two Moby tables + cleaning), :mod:`repro.synth` (dataset generator),
:mod:`repro.graphdb` (property graph), :mod:`repro.cluster` (HAC),
:mod:`repro.community` (Louvain & friends), :mod:`repro.metrics`,
:mod:`repro.core` (the expansion pipeline), :mod:`repro.pipeline` (the
staged runner), :mod:`repro.viz` and :mod:`repro.reporting`.
"""

from ._lazy import lazy_exports

__version__ = "1.2.0"

#: Public name -> defining module, imported on first use, so that
#: ``import repro`` (and every ``python -m repro`` command) loads only
#: the code a caller actually touches.
_EXPORTS = {
    "ClusteringConfig": ".config",
    "CommunityConfig": ".config",
    "DatasetRef": ".service",
    "ExpansionResult": ".core",
    "ExpansionService": ".service",
    "MobyDataset": ".data",
    "NetworkExpansionOptimiser": ".core",
    "PAPER_CONFIG": ".config",
    "PipelineConfig": ".config",
    "PipelineRunner": ".pipeline",
    "ReproError": ".exceptions",
    "ScenarioSpec": ".service",
    "SelectionConfig": ".config",
    "StageCache": ".pipeline",
    "SyntheticMobyGenerator": ".synth",
    "TemporalCommunityConfig": ".config",
    "clean_dataset": ".data",
    "config_grid": ".pipeline",
    "generate_paper_dataset": ".synth",
    "run_sweep": ".pipeline",
    "validate_expansion": ".core",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(_EXPORTS)
