"""The :class:`Stage` abstraction: one node of the pipeline DAG."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import PipelineRunner


class StageFn(Protocol):
    """A stage body: ``fn(runner, *input_values) -> value``."""

    def __call__(self, runner: "PipelineRunner", *inputs: Any) -> Any: ...


@dataclass(frozen=True)
class Stage:
    """One named unit of work in the pipeline DAG.

    Attributes
    ----------
    name:
        Unique stage name; also its handle in :meth:`PipelineRunner.stage`.
    inputs:
        Names of upstream stages whose values the body consumes, in the
        order the body expects them.
    fn:
        The body.  It receives the runner (for config and the stage
        cache) followed by one positional argument per input stage.
    config_sections:
        :class:`~repro.config.PipelineConfig` attribute names this stage
        reads.  Only these feed the stage's fingerprint, so changing an
        unrelated section leaves the stage's cache entry warm.
    """

    name: str
    inputs: tuple[str, ...]
    fn: Callable[..., Any]
    config_sections: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a stage needs a non-empty name")
        if self.name in self.inputs:
            raise ValueError(f"stage {self.name!r} cannot input itself")
