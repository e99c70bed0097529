"""The end-to-end network-expansion pipeline (the paper's methodology).

:class:`NetworkExpansionOptimiser` is a thin facade over the staged
:class:`~repro.pipeline.PipelineRunner`: it chains the three steps of
Section IV — graph construction, station ranking and selection, and
community detection at three temporal granularities — over a raw
dataset.  Each stage can still be invoked on its own for the benches,
and the runner underneath adds content-addressed caching (pass
``cache_dir``); for a given pipeline version, cached, facade and
direct-runner execution all produce identical results, pinned by the
golden suite in ``tests/test_golden_paper.py``.

>>> from repro.synth import generate_paper_dataset
>>> from repro.core import NetworkExpansionOptimiser
>>> result = NetworkExpansionOptimiser(generate_paper_dataset()).run()
>>> result.selection.n_selected > 0
True
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from ..community import LouvainResult, TemporalCommunityResult
from ..config import PAPER_CONFIG, PipelineConfig
from ..data import CleaningReport, MobyDataset
from ..pipeline.cache import StageCache
from ..pipeline.runner import (
    N_DAY_SLICES,
    N_HOUR_SLICES,
    PipelineRunner,
    config_grid,
    run_sweep,
)
from .candidates import CandidateNetwork
from .graphs import SelectedNetwork
from .results import ExpansionResult
from .selection import SelectionResult

__all__ = [
    "ExpansionResult",
    "N_DAY_SLICES",
    "N_HOUR_SLICES",
    "NetworkExpansionOptimiser",
]


class NetworkExpansionOptimiser:
    """Stages and runs the full expansion pipeline over a raw dataset.

    A facade over :class:`~repro.pipeline.PipelineRunner`; the public
    stage methods and the :class:`ExpansionResult` shape are unchanged
    from the pre-runner implementation.
    """

    def __init__(
        self,
        raw: MobyDataset,
        config: PipelineConfig = PAPER_CONFIG,
        *,
        cache: StageCache | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.raw = raw
        self.config = config
        self.runner = PipelineRunner(
            raw, config, cache=cache, cache_dir=cache_dir
        )

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def clean(self) -> tuple[MobyDataset, CleaningReport]:
        """Stage 0: apply the six cleaning rules."""
        cleaned, report, _aux = self.runner.stage("clean")
        return cleaned, report

    def condense(self) -> CandidateNetwork:
        """Stage 1: HAC condensation into the candidate graph."""
        return self.runner.stage("candidates")

    def select(self) -> SelectionResult:
        """Stage 2: Algorithm 1 over the candidate graph."""
        return self.runner.stage("selection")

    def build_network(self) -> SelectedNetwork:
        """Stage 2b: reassign locations and trips to the expanded network."""
        return self.runner.stage("network")

    def detect_basic(self) -> LouvainResult:
        """Stage 3a: Louvain on G_Basic."""
        return self.runner.stage("basic")

    def detect_day(self) -> TemporalCommunityResult:
        """Stage 3b: multislice Louvain on G_Day (7 slices)."""
        return self.runner.stage("day")

    def detect_hour(self) -> TemporalCommunityResult:
        """Stage 3c: multislice Louvain on G_Hour (24 slices)."""
        return self.runner.stage("hour")

    # ------------------------------------------------------------------
    # One-shot
    # ------------------------------------------------------------------

    def run(self) -> ExpansionResult:
        """Run every stage and bundle the results."""
        return self.runner.run()

    def run_sweep(
        self,
        configs: Sequence[PipelineConfig] | Mapping[str, Sequence[Any]],
    ) -> list[ExpansionResult]:
        """Run a parameter grid over this dataset, sharing the cache.

        ``configs`` is either explicit :class:`PipelineConfig` objects
        or a mapping of dotted-path axes (``{"temporal.coupling":
        [0.1, 0.2]}``) expanded as a cross product around this
        optimiser's config.  Stages a config does not change are
        computed once for the whole sweep.
        """
        if isinstance(configs, Mapping):
            configs = [config for _, config in config_grid(self.config, configs)]
        return run_sweep(self.raw, configs, cache=self.runner.cache)
