"""Shared fixtures.

``paper_params`` is the exact Table-2 configuration; ``fast_params``
coarsens the measurement sampling so unit tests stay quick while
exercising the same code paths.  Scenario fixtures are session-scoped —
the frozen walks are immutable, so one trace serves every test.
"""

from __future__ import annotations

import numpy as np
import pytest

# the registry contract both kernel families' tests bind to
pytest.register_assert_rewrite("registry_contract")

from repro.core import FuzzyHandoverSystem, build_handover_flc
from repro.experiments import SCENARIO_CROSSING, SCENARIO_PINGPONG
from repro.sim import MeasurementSampler, SimulationParameters


@pytest.fixture(scope="session")
def paper_params() -> SimulationParameters:
    """The paper's Table-2 defaults."""
    return SimulationParameters()


@pytest.fixture(scope="session")
def fast_params() -> SimulationParameters:
    """Coarser measurement sampling for quick unit tests."""
    return SimulationParameters(measurement_spacing_km=0.2)


@pytest.fixture(scope="session")
def paper_flc():
    """One shared instance of the paper's controller (stateless)."""
    return build_handover_flc()


@pytest.fixture()
def fuzzy_system(paper_params) -> FuzzyHandoverSystem:
    """A fresh (stateful) pipeline per test."""
    return FuzzyHandoverSystem(cell_radius_km=paper_params.cell_radius_km)


@pytest.fixture(scope="session")
def pingpong_trace(paper_params):
    return SCENARIO_PINGPONG.generate(paper_params)


@pytest.fixture(scope="session")
def crossing_trace(paper_params):
    return SCENARIO_CROSSING.generate(paper_params)


@pytest.fixture(scope="session")
def crossing_series(paper_params, crossing_trace):
    """Measured (noise-free) series of the crossing walk."""
    layout = paper_params.make_layout()
    sampler = MeasurementSampler(
        layout,
        paper_params.make_propagation(),
        spacing_km=paper_params.measurement_spacing_km,
    )
    return sampler.measure(crossing_trace)


@pytest.fixture(scope="session")
def pingpong_series(paper_params, pingpong_trace):
    layout = paper_params.make_layout()
    sampler = MeasurementSampler(
        layout,
        paper_params.make_propagation(),
        spacing_km=paper_params.measurement_spacing_km,
    )
    return sampler.measure(pingpong_trace)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
