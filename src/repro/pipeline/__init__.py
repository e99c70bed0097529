"""Staged pipeline runner: the expansion DAG with content-addressed caching.

The paper's methodology (Section IV) is a strict stage DAG::

    clean ──> candidates ──> selection ──> network ──┬──> basic
                                                     ├──> day
                                                     └──> hour

:class:`PipelineRunner` executes that DAG serially, in topological
order, with content-addressed caching — every stage value is keyed by
a fingerprint chaining the dataset digest, the stage's relevant
configuration sections, and its parents' keys — backed by an in-memory
LRU and an optional on-disk cache directory.  :func:`run_sweep` shares
one cache across a whole parameter grid so a sweep only recomputes the
stages a config actually changes.

:class:`~repro.core.NetworkExpansionOptimiser` is a thin facade over
this runner; use the runner directly for sweeps and warm caches.
"""

from .._lazy import lazy_exports

# Eager: the function ``fingerprint`` shares its name with the submodule
# it lives in, and a lazy export would be shadowed by that submodule
# once anything imports ``repro.pipeline.fingerprint`` directly.
from .fingerprint import config_digest, dataset_digest, fingerprint

#: The runner (and the whole pipeline it imports) loads on first use.
_EXPORTS = {
    "EXPANSION_STAGES": ".runner",
    "PipelineRunner": ".runner",
    "Stage": ".stage",
    "StageCache": ".cache",
    "config_grid": ".runner",
    "run_sweep": ".runner",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(
    [*_EXPORTS, "config_digest", "dataset_digest", "fingerprint"]
)
