"""Propagation-model tests: received-power law, calibration band,
site matrices and crossovers."""

import math

import numpy as np
import pytest

from repro.radio import DipoleAntenna, PropagationModel


def paper_model(**overrides) -> PropagationModel:
    kwargs = dict(
        antenna=DipoleAntenna(),
        frequency_hz=2.0e9,
        rx_height_m=1.5,
    )
    kwargs.update(overrides)
    return PropagationModel(**kwargs)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            paper_model(frequency_hz=0.0)
        with pytest.raises(ValueError):
            paper_model(rx_height_m=0.0)
        with pytest.raises(ValueError):
            paper_model(rx_gain=-1.0)

    def test_wavelength(self):
        assert paper_model().wavelength == pytest.approx(0.1499, rel=1e-3)

    def test_effective_aperture_formula(self):
        m = paper_model()
        lam = m.wavelength
        assert m.effective_aperture_m2 == pytest.approx(
            1.5 * lam * lam / (4 * math.pi)
        )


class TestReceivedPower:
    def test_calibration_band_at_one_km(self):
        # DESIGN.md substitution #2: ~-90 dBW at the 1 km cell corner,
        # matching the paper's SSN universe and Table 3/4 neighbour rows
        p = paper_model().received_power_dbw(1.0)
        assert -95.0 < p < -85.0

    def test_band_over_paper_figure_range(self):
        # Figs. 9-13 plot -140..-60 dB over 0..7 km
        d = np.linspace(0.1, 7.0, 100)
        p = np.asarray(paper_model().received_power_dbw(d))
        assert p.max() < -60.0
        assert p.min() > -140.0

    def test_monotone_decreasing(self):
        d = np.linspace(0.2, 7.0, 300)
        p = np.asarray(paper_model().received_power_dbw(d))
        assert np.all(np.diff(p) < 0)

    def test_exponent_slope(self):
        # field ~ 1/r^1.1 means power drops ~22 dB per decade
        m = paper_model()
        drop = m.received_power_dbw(1.0) - m.received_power_dbw(10.0)
        assert drop == pytest.approx(22.0, abs=0.5)

    def test_double_power_adds_3db(self):
        lo = paper_model()
        hi = paper_model(antenna=DipoleAntenna(power_w=20.0))
        delta = hi.received_power_dbw(1.0) - lo.received_power_dbw(1.0)
        assert delta == pytest.approx(10 * math.log10(2.0), abs=1e-9)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            paper_model().received_power_w(-1.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(paper_model().received_power_dbw(1.0), float)


class TestSiteMatrix:
    def test_shape(self):
        m = paper_model()
        bs = np.array([[0.0, 0.0], [math.sqrt(3), 0.0]])
        pts = np.random.default_rng(0).uniform(-2, 2, size=(5, 2))
        out = m.power_from_sites(bs, pts)
        assert out.shape == (5, 2)

    def test_matches_scalar_path(self):
        m = paper_model()
        bs = np.array([[0.0, 0.0]])
        pts = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = m.power_from_sites(bs, pts)
        assert out[0, 0] == pytest.approx(m.received_power_dbw(1.0))
        assert out[1, 0] == pytest.approx(m.received_power_dbw(2.0))

    def test_closer_site_is_stronger(self):
        m = paper_model()
        bs = np.array([[0.0, 0.0], [3.0, 0.0]])
        out = m.power_from_sites(bs, np.array([[0.5, 0.0]]))
        assert out[0, 0] > out[0, 1]

    def test_shape_validation(self):
        m = paper_model()
        with pytest.raises(ValueError):
            m.power_from_sites(np.zeros((2, 3)), np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2, 1), (4, 3)])
    def test_non_matrix_sites_rejected_by_name(self, shape):
        with pytest.raises(ValueError, match="bs_positions_km"):
            paper_model().power_from_sites(np.zeros(shape), np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2, 1), (4, 3)])
    def test_non_matrix_points_rejected_by_name(self, shape):
        with pytest.raises(ValueError, match="points_km"):
            paper_model().power_from_sites(np.zeros((2, 2)), np.zeros(shape))

    @pytest.mark.parametrize("n_ues, n_epochs", [(0, 5), (3, 0), (0, 0)])
    def test_empty_batch_keeps_its_shape(self, n_ues, n_epochs):
        bs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = paper_model().power_from_sites_batch(
            bs, np.zeros((n_ues, n_epochs, 2))
        )
        assert out.shape == (n_ues, n_epochs, 3)
        assert out.dtype == np.float64


class TestCrossover:
    def test_identical_models_cross_at_midpoint(self):
        m = paper_model()
        x = m.crossover_distance_km(m, spacing_km=2.0)
        assert x == pytest.approx(1.0, abs=0.01)

    def test_stronger_tx_pushes_crossover_away(self):
        weak = paper_model()
        strong = paper_model(antenna=DipoleAntenna(power_w=20.0))
        x = strong.crossover_distance_km(weak, spacing_km=2.0)
        assert x > 1.0

    def test_validation(self):
        m = paper_model()
        with pytest.raises(ValueError):
            m.crossover_distance_km(m, spacing_km=0.0)
