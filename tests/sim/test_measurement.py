"""Measurement-sampler and series tests."""

import math

import numpy as np
import pytest

from repro.mobility import Trace
from repro.radio import ShadowFading
from repro.sim import MeasurementSampler, MeasurementSeries, SimulationParameters


@pytest.fixture(scope="module")
def stack():
    params = SimulationParameters()
    layout = params.make_layout()
    prop = params.make_propagation()
    return params, layout, prop


def straight_trace(length_km=2.0):
    return Trace(np.array([[0.0, 0.0], [length_km, 0.0]]))


class TestSeriesValidation:
    def test_shape_checks(self, stack):
        _, layout, _ = stack
        n = 5
        good = dict(
            positions_km=np.zeros((n, 2)),
            distance_km=np.zeros(n),
            power_dbw=np.zeros((n, layout.n_cells)),
            layout=layout,
        )
        MeasurementSeries(**good)  # sanity
        with pytest.raises(ValueError):
            MeasurementSeries(**{**good, "distance_km": np.zeros(n + 1)})
        with pytest.raises(ValueError):
            MeasurementSeries(**{**good, "power_dbw": np.zeros((n, 3))})
        with pytest.raises(ValueError):
            MeasurementSeries(**{**good, "positions_km": np.zeros((n, 3))})


class TestSampler:
    def test_epoch_spacing_respected(self, stack):
        _, layout, prop = stack
        sampler = MeasurementSampler(layout, prop, spacing_km=0.05)
        series = sampler.measure(straight_trace())
        gaps = np.diff(series.distance_km)
        assert np.all(gaps <= 0.05 + 1e-9)
        assert series.n_epochs >= 40

    def test_power_matrix_matches_direct_model(self, stack):
        _, layout, prop = stack
        sampler = MeasurementSampler(layout, prop, spacing_km=0.1)
        series = sampler.measure(straight_trace())
        direct = prop.power_from_sites(layout.bs_positions, series.positions_km)
        np.testing.assert_allclose(series.power_dbw, direct)

    @pytest.mark.backend
    def test_backend_override_pins_propagation(self, stack):
        _, layout, prop = stack
        sampler = MeasurementSampler(
            layout, prop.with_backend("reference"), spacing_km=0.1
        )
        assert sampler.propagation.backend == "reference"
        # bit-identical measurements: the override never moves physics
        default = MeasurementSampler(layout, prop, spacing_km=0.1)
        np.testing.assert_array_equal(
            sampler.measure(straight_trace()).power_dbw,
            default.measure(straight_trace()).power_dbw,
        )

    def test_power_of_and_distances(self, stack):
        _, layout, prop = stack
        sampler = MeasurementSampler(layout, prop, spacing_km=0.1)
        series = sampler.measure(straight_trace())
        p00 = series.power_of((0, 0))
        assert p00.shape == (series.n_epochs,)
        d = series.distances_to_bs((0, 0))
        # walking straight away: distance grows monotonically
        assert np.all(np.diff(d) > 0)
        # power falls once past the dipole's under-mast null (the first
        # sample sits directly below the antenna where sin(θ-φ) ~ 0)
        assert np.all(np.diff(p00[2:]) < 0)
        assert p00[0] < p00[2]  # the null is visibly weaker

    def test_strongest_cell_switches_along_east_walk(self, stack):
        _, layout, prop = stack
        sampler = MeasurementSampler(layout, prop, spacing_km=0.05)
        series = sampler.measure(straight_trace(layout.grid.spacing_km))
        idx = series.strongest_cell_indices()
        assert layout.cells[idx[0]] == (0, 0)
        assert layout.cells[idx[-1]] == (2, -1)

    def test_fading_perturbs_but_preserves_geometry(self, stack):
        _, layout, prop = stack
        clean = MeasurementSampler(layout, prop, spacing_km=0.1)
        noisy = MeasurementSampler(
            layout, prop, spacing_km=0.1,
            fading=ShadowFading(sigma_db=4.0, decorrelation_km=0.1, rng=1),
        )
        t = straight_trace()
        s_clean = clean.measure(t)
        s_noisy = noisy.measure(t)
        np.testing.assert_allclose(s_clean.positions_km, s_noisy.positions_km)
        assert not np.allclose(s_clean.power_dbw, s_noisy.power_dbw)
        resid = s_noisy.power_dbw - s_clean.power_dbw
        assert abs(resid.mean()) < 1.5
        assert resid.std() == pytest.approx(4.0, rel=0.25)

    def test_zero_sigma_fading_is_noop(self, stack):
        _, layout, prop = stack
        s1 = MeasurementSampler(layout, prop, spacing_km=0.1).measure(
            straight_trace()
        )
        s2 = MeasurementSampler(
            layout, prop, spacing_km=0.1, fading=ShadowFading(sigma_db=0.0)
        ).measure(straight_trace())
        np.testing.assert_allclose(s1.power_dbw, s2.power_dbw)

    def test_spacing_validation(self, stack):
        _, layout, prop = stack
        with pytest.raises(ValueError):
            MeasurementSampler(layout, prop, spacing_km=0.0)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf])
    def test_non_finite_spacing_rejected_at_construction(self, stack, spacing):
        _, layout, prop = stack
        with pytest.raises(ValueError, match="spacing_km"):
            MeasurementSampler(layout, prop, spacing_km=spacing)


class TestSeriesSlicing:
    def test_epoch_slice(self, stack):
        _, layout, prop = stack
        sampler = MeasurementSampler(layout, prop, spacing_km=0.1)
        series = sampler.measure(straight_trace())
        sub = series.epoch_slice(3, 8)
        assert sub.n_epochs == 5
        np.testing.assert_allclose(
            sub.power_dbw, series.power_dbw[3:8]
        )
        assert len(series) == series.n_epochs
