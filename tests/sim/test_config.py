"""SimulationParameters tests: Table-2 defaults, validation, factories."""

import pytest

from repro.geometry import CellLayout
from repro.mobility import RandomWalk
from repro.radio import DipoleAntenna, PropagationModel, ShadowFading
from repro.sim import PAPER_SPEEDS_KMH, SimulationParameters


class TestDefaults:
    def test_paper_table_2_values(self):
        p = SimulationParameters()
        assert p.distribution_law == "gaussian"
        assert p.tx_power_w == 10.0
        assert p.frequency_mhz == 2000.0
        assert p.tilt_deg == 3.0
        assert p.tx_height_m == 40.0
        assert p.rx_height_m == 1.5
        assert p.mean_step_km == 0.6
        assert p.path_loss_exponent == 1.1
        assert p.n_repetitions == 10

    def test_cell_radius_default_is_1km(self):
        # Table 2 lists 1/2 km; the measured distances of Tables 3/4
        # pin the experiments to 1 km (see config module docstring)
        assert SimulationParameters().cell_radius_km == 1.0

    def test_paper_speed_sweep(self):
        assert PAPER_SPEEDS_KMH == (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"distribution_law": "uniform"},
            {"n_walks": 0},
            {"cell_radius_km": 0.0},
            {"tx_power_w": -10.0},
            {"frequency_mhz": 0.0},
            {"mean_step_km": 0.0},
            {"measurement_spacing_km": 0.0},
            {"rings": 0},
            {"n_repetitions": 0},
            {"step_sigma_km": -0.1},
            {"shadow_sigma_db": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationParameters(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shadow_sigma_db", float("nan")),
            ("shadow_sigma_db", float("inf")),
            ("shadow_decorrelation_km", float("nan")),
            ("shadow_decorrelation_km", -1.0),
        ],
    )
    def test_bad_fading_parameters_rejected_naming_the_field(
        self, field, value
    ):
        # a NaN sigma used to build no fading process at all (nan > 0 is
        # False), so the fleet ran noise-free without a word
        with pytest.raises(ValueError, match=field):
            SimulationParameters(**{field: value})


class TestFactories:
    def test_layout(self):
        p = SimulationParameters(cell_radius_km=2.0, rings=1)
        layout = p.make_layout()
        assert isinstance(layout, CellLayout)
        assert layout.cell_radius_km == 2.0
        assert layout.n_cells == 7

    def test_antenna(self):
        a = SimulationParameters(tx_power_w=20.0).make_antenna()
        assert isinstance(a, DipoleAntenna)
        assert a.power_w == 20.0
        assert a.path_loss_exponent == 1.1

    def test_propagation(self):
        m = SimulationParameters().make_propagation()
        assert isinstance(m, PropagationModel)
        assert m.frequency_hz == pytest.approx(2.0e9)
        assert m.rx_height_m == 1.5

    def test_walk(self):
        w = SimulationParameters(n_walks=5).make_walk()
        assert isinstance(w, RandomWalk)
        assert w.n_walks == 5
        assert w.mean_step_km == 0.6
        # n_walks override
        assert SimulationParameters(n_walks=5).make_walk(10).n_walks == 10

    def test_fading(self):
        f = SimulationParameters(shadow_sigma_db=4.0).make_fading(rng=3)
        assert isinstance(f, ShadowFading)
        assert f.sigma_db == 4.0

    def test_with_override(self):
        p = SimulationParameters()
        q = p.with_(tx_power_w=20.0)
        assert q.tx_power_w == 20.0
        assert p.tx_power_w == 10.0  # original untouched
        assert q.frequency_mhz == p.frequency_mhz

    def test_frozen(self):
        p = SimulationParameters()
        with pytest.raises(Exception):
            p.tx_power_w = 99.0  # type: ignore[misc]

    @pytest.mark.backend
    def test_pathloss_backend_threads_into_propagation(self):
        assert SimulationParameters().make_propagation().backend is None
        p = SimulationParameters(pathloss_backend="reference")
        assert p.make_propagation().backend == "reference"

    @pytest.mark.backend
    def test_pathloss_backend_validation(self):
        with pytest.raises(ValueError, match="pathloss_backend"):
            SimulationParameters(pathloss_backend="")
        with pytest.raises(ValueError, match="pathloss_backend"):
            SimulationParameters(pathloss_backend=3)  # type: ignore[arg-type]


class TestDescribe:
    def test_contains_table_2_rows(self):
        text = SimulationParameters().describe()
        for needle in (
            "Gaussian Distribution",
            "10 W",
            "2000 MHz",
            "3 deg",
            "40 m",
            "1.5 m",
            "0.6 km",
            "1.1",
        ):
            assert needle in text, needle
