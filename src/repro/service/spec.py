"""Typed scenario requests.

A :class:`ScenarioSpec` is the one request shape every API surface
speaks — the Python :class:`~repro.service.ExpansionService`, the CLI
subcommands and the HTTP endpoints all build one, so "what should the
service compute" is defined exactly once.  A spec names

* a **dataset** (:class:`DatasetRef`: a synthetic seed, a CSV
  directory, or a dataset the hosting process registered by name),
* **config overrides** as the same dotted ``section.field`` paths the
  sweep grid uses — validated eagerly through
  :meth:`repro.config.PipelineConfig.validate_override_path`,
* the **requested outputs** (``run``, ``sweep``, ``rebalance``,
  ``report``) with their parameters (sweep axes, fleet size, report
  title).

Specs are canonically fingerprinted with the same content-addressed
machinery as pipeline stages (:mod:`repro.pipeline.fingerprint`):
parameters that cannot influence the requested outputs — the fleet
size of a spec that never rebalances, say — are excluded, so two
requests for the same computation collapse onto the same fingerprint
and the service deduplicates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..config import PAPER_CONFIG, PipelineConfig
from ..exceptions import ServiceError
from ..pipeline.fingerprint import fingerprint

#: The outputs a scenario may request, in envelope order.
OUTPUT_RUN = "run"
OUTPUT_SWEEP = "sweep"
OUTPUT_REBALANCE = "rebalance"
OUTPUT_REPORT = "report"
ALL_OUTPUTS = (OUTPUT_RUN, OUTPUT_SWEEP, OUTPUT_REBALANCE, OUTPUT_REPORT)

#: Bump when the spec's semantics change so old fingerprints (and the
#: result envelopes stored under them) stop matching new requests.
SPEC_SCHEMA_VERSION = 1

_DATASET_KINDS = ("synthetic", "csv", "named")


@dataclass(frozen=True)
class DatasetRef:
    """Where a scenario's raw dataset comes from.

    ``synthetic`` generates the calibrated synthetic dataset from
    ``seed``; ``csv`` loads ``locations.csv``/``rentals.csv`` from
    ``path``; ``named`` refers to a dataset the hosting process
    registered on its service (useful for tests and embedded use).
    The service digests the resolved dataset's content, so two refs
    that resolve to identical rows share cache entries and results.
    """

    kind: str = "synthetic"
    seed: int = 7
    path: str | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _DATASET_KINDS:
            raise ServiceError(
                f"unknown dataset kind {self.kind!r}; expected one of "
                f"{_DATASET_KINDS}"
            )
        # Strict types: ``True`` would otherwise generate seed 1's data
        # and share its fingerprint, yet serialise as ``true``.
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ServiceError(
                f"dataset seed must be an integer, got {self.seed!r}"
            )
        for field_name in ("path", "name"):
            value = getattr(self, field_name)
            if value is not None and (not isinstance(value, str) or not value):
                raise ServiceError(
                    f"dataset {field_name} must be a non-empty string, "
                    f"got {value!r}"
                )
        if self.kind == "csv" and not self.path:
            raise ServiceError("csv dataset refs need a path")
        if self.kind == "named" and not self.name:
            raise ServiceError("named dataset refs need a name")

    @classmethod
    def synthetic(cls, seed: int = 7) -> "DatasetRef":
        """A calibrated synthetic dataset from ``seed``."""
        return cls(kind="synthetic", seed=seed)

    @classmethod
    def csv(cls, path: Any) -> "DatasetRef":
        """A CSV dataset directory."""
        return cls(kind="csv", path=str(path))

    @classmethod
    def named(cls, name: str) -> "DatasetRef":
        """A dataset registered on the service by name."""
        return cls(kind="named", name=name)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe envelope (only the fields the kind uses)."""
        payload: dict[str, Any] = {"kind": self.kind}
        if self.kind == "synthetic":
            payload["seed"] = self.seed
        elif self.kind == "csv":
            payload["path"] = self.path
        else:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DatasetRef":
        """Inverse of :meth:`to_dict` (unknown kinds rejected)."""
        if not isinstance(payload, Mapping):
            raise ServiceError("dataset ref must be an object")
        kind = payload.get("kind", "synthetic")
        return cls(
            kind=kind,
            seed=payload.get("seed", 7),
            path=payload.get("path"),
            name=payload.get("name"),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated, fingerprintable request against the service."""

    dataset: DatasetRef = field(default_factory=DatasetRef)
    overrides: tuple[tuple[str, Any], ...] = ()
    outputs: tuple[str, ...] = (OUTPUT_RUN,)
    sweep_axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    #: A dataset axis for sweeps: named datasets the whole config grid
    #: is run over, producing one envelope with every (dataset, config)
    #: child individually addressable.  When set, ``outputs`` must be
    #: exactly ``("sweep",)`` and ``dataset`` is ignored — identity
    #: comes from the named datasets' content digests.
    sweep_datasets: tuple[str, ...] = ()
    fleet_size: int = 95
    report_title: str | None = None
    #: Wall-clock budget (seconds) for the job's *execution* — measured
    #: from the moment a worker picks it up, enforced cooperatively at
    #: stage boundaries, journalled as the ``timeout`` terminal state.
    #: Excluded from the fingerprint AND from :meth:`to_dict`: a
    #: deadline bounds how long the service may spend, it never changes
    #: what is computed, so a deadline-bearing request deduplicates
    #: against (and is served by) the same cached envelope — whose
    #: embedded spec must stay byte-identical for every submitter.
    #: Accepted on input (:meth:`from_dict`); journalled as a *job*
    #: field, not a spec field.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        # Normalise mapping/list inputs into the hashable tuple forms
        # (callers may pass plain dicts; JSON bodies always do).
        object.__setattr__(
            self, "overrides", _normalise_pairs(self.overrides, "overrides")
        )
        object.__setattr__(
            self,
            "sweep_axes",
            tuple(
                (path, tuple(values))
                for path, values in _normalise_pairs(
                    self.sweep_axes, "sweep_axes"
                )
            ),
        )
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "sweep_datasets", tuple(self.sweep_datasets))
        if not self.outputs:
            raise ServiceError("a scenario must request at least one output")
        for output in self.outputs:
            if output not in ALL_OUTPUTS:
                raise ServiceError(
                    f"unknown output {output!r}; expected a subset of "
                    f"{ALL_OUTPUTS}"
                )
        if len(set(self.outputs)) != len(self.outputs):
            raise ServiceError("outputs must not repeat")
        if self.sweep_axes and OUTPUT_SWEEP not in self.outputs:
            raise ServiceError("sweep_axes given but 'sweep' not requested")
        if self.sweep_datasets:
            from .datasets import check_dataset_name

            if self.outputs != (OUTPUT_SWEEP,):
                raise ServiceError(
                    "sweep_datasets requires outputs to be exactly "
                    "('sweep',) — the dataset axis has no single base "
                    "dataset for other outputs to run over"
                )
            if len(set(self.sweep_datasets)) != len(self.sweep_datasets):
                raise ServiceError("sweep_datasets must not repeat")
            for name in self.sweep_datasets:
                check_dataset_name(name)
        if self.fleet_size <= 0:
            raise ServiceError("fleet_size must be positive")
        if self.deadline_s is not None:
            if not isinstance(self.deadline_s, (int, float)) or isinstance(
                self.deadline_s, bool
            ):
                raise ServiceError("deadline_s must be a number of seconds")
            if self.deadline_s <= 0:
                raise ServiceError("deadline_s must be positive")
        # Unknown override keys and invalid values fail here with the
        # same ConfigError derive raises (reused validation).  Axis
        # points are checked one at a time — linear in values, not in
        # the cartesian grid the sweep will eventually run.
        base = self.config()
        for path, values in self.sweep_axes:
            if not values:
                raise ServiceError(f"sweep axis {path!r} has no values")
            for value in values:
                base.derive({path: value})

    # ------------------------------------------------------------------
    # Derived configuration
    # ------------------------------------------------------------------

    def config(self) -> PipelineConfig:
        """The pipeline configuration this spec's overrides derive."""
        return PAPER_CONFIG.derive(dict(self.overrides))

    def sweep_grid(self) -> list[tuple[dict[str, Any], PipelineConfig]]:
        """The sweep's (overrides, config) grid around :meth:`config`."""
        from ..pipeline import config_grid

        return config_grid(
            self.config(), {path: list(values) for path, values in self.sweep_axes}
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def fingerprint(
        self,
        dataset_digest: str,
        *,
        sweep_dataset_digests: Sequence[tuple[str, str]] = (),
    ) -> str:
        """Canonical content-addressed identity of this request.

        ``dataset_digest`` is the resolved dataset's content digest
        (:func:`repro.pipeline.fingerprint.dataset_digest`), so the
        identity tracks what the data *is*, not where it came from.
        Output parameters only contribute when their output is
        requested.  A dataset-axis sweep takes its data identity from
        ``sweep_dataset_digests`` — the resolved ``(name, digest)``
        pair per swept dataset — instead of the (unused) base ref.
        """
        if self.sweep_datasets:
            resolved = tuple(tuple(pair) for pair in sweep_dataset_digests)
            if tuple(name for name, _ in resolved) != self.sweep_datasets:
                raise ServiceError(
                    "sweep_dataset_digests must resolve sweep_datasets "
                    "name-for-name, in order"
                )
            data_identity: Any = resolved
        else:
            data_identity = dataset_digest
        parts: list[Any] = [
            "scenario",
            SPEC_SCHEMA_VERSION,
            data_identity,
            tuple(sorted(self.overrides, key=lambda pair: pair[0])),
            tuple(sorted(self.outputs)),
        ]
        if OUTPUT_SWEEP in self.outputs:
            parts.append(
                tuple(sorted(self.sweep_axes, key=lambda pair: pair[0]))
            )
        if OUTPUT_REBALANCE in self.outputs:
            parts.append(("fleet_size", self.fleet_size))
        if OUTPUT_REPORT in self.outputs:
            parts.append(("report_title", self.report_title))
        return fingerprint(*parts)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe envelope (deterministically ordered)."""
        payload: dict[str, Any] = {
            "type": "ScenarioSpec",
            "dataset": self.dataset.to_dict(),
            "overrides": dict(
                sorted(self.overrides, key=lambda pair: pair[0])
            ),
            "outputs": list(self.outputs),
        }
        if OUTPUT_SWEEP in self.outputs:
            payload["sweep_axes"] = {
                path: list(values)
                for path, values in sorted(
                    self.sweep_axes, key=lambda pair: pair[0]
                )
            }
            if self.sweep_datasets:
                payload["sweep_datasets"] = list(self.sweep_datasets)
        if OUTPUT_REBALANCE in self.outputs:
            payload["fleet_size"] = self.fleet_size
        if OUTPUT_REPORT in self.outputs:
            payload["report_title"] = self.report_title
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; validates like the constructor.

        The ``type`` tag is optional on input — HTTP bodies and plain
        ``submit({...})`` dicts may omit it — but a *wrong* tag (some
        other envelope passed by mistake) is rejected.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("a scenario spec must be a JSON object")
        if payload.get("type", "ScenarioSpec") != "ScenarioSpec":
            raise ServiceError(
                f"expected a 'ScenarioSpec' envelope, got {payload['type']!r}"
            )
        sweep_datasets = payload.get("sweep_datasets", ())
        if isinstance(sweep_datasets, str) or not isinstance(
            sweep_datasets, Sequence
        ):
            raise ServiceError("sweep_datasets must be a list of names")
        return cls(
            dataset=DatasetRef.from_dict(payload.get("dataset", {})),
            overrides=payload.get("overrides", ()),
            outputs=tuple(payload.get("outputs", (OUTPUT_RUN,))),
            sweep_axes=payload.get("sweep_axes", ()),
            sweep_datasets=tuple(sweep_datasets),
            fleet_size=payload.get("fleet_size", 95),
            report_title=payload.get("report_title"),
            deadline_s=payload.get("deadline_s"),
        )


def _normalise_pairs(value: Any, what: str) -> tuple[tuple[str, Any], ...]:
    """Coerce a mapping or pair sequence into a tuple of (str, value)."""
    if isinstance(value, Mapping):
        items = list(value.items())
    elif isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        items = [tuple(item) for item in value]
    else:
        raise ServiceError(f"{what} must be a mapping or a pair sequence")
    pairs = []
    seen = set()
    for item in items:
        if len(item) != 2 or not isinstance(item[0], str):
            raise ServiceError(f"bad {what} entry {item!r}")
        if item[0] in seen:
            raise ServiceError(f"{what} key {item[0]!r} given twice")
        seen.add(item[0])
        pairs.append((item[0], item[1]))
    return tuple(pairs)
