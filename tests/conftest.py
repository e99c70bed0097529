"""Shared fixtures.

Two dataset scales are provided:

* ``small_world`` / ``small_raw`` — a reduced synthetic city (fast;
  most unit and integration tests use it);
* ``paper_result`` — the full paper-calibrated pipeline run, built
  once per session and shared by the calibration/integration tests.
"""

from __future__ import annotations

import json

import pytest

from repro import NetworkExpansionOptimiser
from repro.synth import (
    GeneratorConfig,
    NoiseConfig,
    SyntheticMobyGenerator,
    TripSamplerConfig,
)

try:
    import numpy  # noqa: F401 - availability probe only

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


def require_numpy() -> None:
    """Skip the requesting test when numpy is unavailable.

    Synthetic dataset generation is numpy-only by design (its demand
    surfaces use ``np.exp``, which is not bit-reproducible in pure
    Python — a divergent dataset would invalidate every fingerprint),
    so every fixture that generates a world skips on the no-numpy leg.
    """
    if not HAVE_NUMPY:
        pytest.skip("synthetic dataset generation needs numpy")


def small_generator_config(seed: int = 11) -> GeneratorConfig:
    """A fast, reduced-scale generator configuration."""
    return GeneratorConfig(
        seed=seed,
        n_stations=30,
        n_adhoc_spots=220,
        n_clean_rentals=6_000,
        n_clean_locations=2_400,
        n_bikes=40,
        trips=TripSamplerConfig(),
        noise=NoiseConfig(
            n_locations_outside=6,
            n_locations_in_bay=5,
            n_locations_missing_coords=5,
            n_locations_unreferenced=4,
            n_rentals_missing_id=25,
            n_rentals_dangling_id=20,
            rentals_per_bad_station=5,
        ),
    )


@pytest.fixture(scope="session")
def small_world():
    """A reduced generated world (raw dataset + latent layout)."""
    require_numpy()
    return SyntheticMobyGenerator(
        seed=11, config=small_generator_config(seed=11)
    ).generate_world()


@pytest.fixture(scope="session")
def small_raw(small_world):
    """The reduced raw dataset."""
    return small_world.raw


@pytest.fixture(scope="session")
def small_result(small_raw):
    """A full pipeline run over the reduced dataset."""
    return NetworkExpansionOptimiser(small_raw).run()


@pytest.fixture(scope="session")
def paper_result():
    """The full paper-calibrated pipeline run (seed 7).  Slow; shared.

    Runs through the legacy :class:`NetworkExpansionOptimiser` facade.
    """
    from repro.synth import generate_paper_dataset

    require_numpy()
    return NetworkExpansionOptimiser(generate_paper_dataset(seed=7)).run()


@pytest.fixture(scope="session")
def paper_runner_result():
    """The same paper run, straight through :class:`PipelineRunner`.

    Slow; shared.
    """
    from repro import PipelineRunner
    from repro.synth import generate_paper_dataset

    require_numpy()
    return PipelineRunner(generate_paper_dataset(seed=7)).run()


@pytest.fixture()
def envelope_parses(monkeypatch):
    """Every ``json.loads`` call that returns a result envelope.

    Returns the list each such call appends its input's length to, so a
    test can pin how often the serving path parses stored envelopes.
    """
    loads = json.loads
    parses: list[int] = []

    def counting(data, *args, **kwargs):
        value = loads(data, *args, **kwargs)
        if isinstance(value, dict) and value.get("type") == "ResultEnvelope":
            parses.append(len(data))
        return value

    monkeypatch.setattr(json, "loads", counting)
    return parses


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate tests/goldens/*.json from the current pipeline",
    )
