"""Simulation parameters (paper Table 2) and component factories.

:class:`SimulationParameters` is the single source of truth for an
experiment's physical and stochastic configuration.  Its defaults are
the paper's Table 2 values; the class also knows how to build the
concrete substrate objects (layout, propagation model, walk model,
fading process) so experiments never wire those by hand.

Note on the cell radius: Table 2 lists "1 km, 2 km" and the prose of
Sec. 5 says 2 km, but the measured distances of Tables 3/4 (0.85–1.02 km
for an MS *at the three-cell corner*) are only consistent with a 1 km
circumradius — at a corner the MS is exactly one radius from each BS.
We therefore default to 1 km and record the discrepancy in
EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from ..geometry.layout import CellLayout
from ..kernels import validate_backend_pin
from ..mobility.random_walk import RandomWalk
from ..radio.antenna import DipoleAntenna
from ..radio.fading import ShadowFading
from ..radio.propagation import PropagationModel

__all__ = [
    "SimulationParameters",
    "PAPER_SPEEDS_KMH",
    "DEFAULT_BASE_SEED",
    "DEFAULT_FADING_BASE_SEED",
]

#: The speed sweep of Tables 3/4, km/h.
PAPER_SPEEDS_KMH: tuple[float, ...] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)

#: Default per-fleet seeding bases — UE ``i`` walks ``DEFAULT_BASE_SEED
#: + i`` and (when shadowed) fades with ``DEFAULT_FADING_BASE_SEED +
#: i``.  Shared by :class:`repro.sim.fleet.FleetSpec` and the
#: :class:`repro.sim.population.PopulationSpec` every fleet spec holds,
#: which must agree on both seeds, so they live in one place.
DEFAULT_BASE_SEED = 1000
DEFAULT_FADING_BASE_SEED = 424_243


@dataclass(frozen=True)
class SimulationParameters:
    """Experiment configuration (defaults = paper Table 2).

    Parameters
    ----------
    distribution_law:
        Step-length law of the random walk; the paper uses Gaussian.
    n_walks:
        Walk legs per trace (paper: 5 for Fig. 7, 10 for Fig. 8).
    cell_radius_km:
        Hexagon circumradius (see module docstring on 1 vs 2 km).
    tx_power_w:
        BS transmission power (paper: 10 W; Table 2 also lists 20 W).
    frequency_mhz:
        Carrier (paper: 2000 MHz).
    tilt_deg, tx_height_m, rx_height_m:
        Antenna geometry (paper: 3°, 40 m, 1.5 m).
    mean_step_km:
        Average walk-leg length (paper: 0.6 km).
    step_sigma_km:
        Std-dev of the Gaussian leg length (not printed in the paper;
        0.2 km keeps legs in a plausible 0.2–1.2 km band).
    path_loss_exponent:
        Field exponent ``n`` (paper: 1.1).
    rings:
        Layout size: rings of cells around (0, 0).
    measurement_spacing_km:
        Distance between consecutive measurement epochs along the walk.
    shadow_sigma_db / shadow_decorrelation_km:
        Log-normal shadowing; 0 dB disables it (the deterministic
        experiment paths use 0 and inject fading only where the paper
        averages over repetitions).
    n_repetitions:
        Monte-Carlo repetitions to average (paper: 10).
    pathloss_backend:
        Pathloss-kernel backend for the propagation model.
    flc_backend:
        FLC inference-backend for every handover pipeline built under
        this configuration.  Approximate kernels (``lut``/``numba``)
        speed up the controller without changing any handover decision
        — see
        :meth:`repro.core.system.FuzzyHandoverSystem.decision_outputs_batch`.

    Both backend pins are ``None`` (the name policy) or a name; see
    :mod:`repro.kernels`.
    """

    distribution_law: Literal["gaussian"] = "gaussian"
    n_walks: int = 5
    cell_radius_km: float = 1.0
    tx_power_w: float = 10.0
    frequency_mhz: float = 2000.0
    tilt_deg: float = 3.0
    tx_height_m: float = 40.0
    rx_height_m: float = 1.5
    mean_step_km: float = 0.6
    step_sigma_km: float = 0.2
    path_loss_exponent: float = 1.1
    rings: int = 2
    measurement_spacing_km: float = 0.05
    shadow_sigma_db: float = 0.0
    shadow_decorrelation_km: float = 0.1
    n_repetitions: int = 10
    pathloss_backend: str | None = None
    flc_backend: str | None = None

    def __post_init__(self) -> None:
        if self.distribution_law != "gaussian":
            raise ValueError(
                f"unsupported distribution law {self.distribution_law!r}"
            )
        positive = {
            "cell_radius_km": self.cell_radius_km,
            "tx_power_w": self.tx_power_w,
            "frequency_mhz": self.frequency_mhz,
            "tx_height_m": self.tx_height_m,
            "rx_height_m": self.rx_height_m,
            "mean_step_km": self.mean_step_km,
            "measurement_spacing_km": self.measurement_spacing_km,
        }
        for name, v in positive.items():
            if v <= 0 or not math.isfinite(v):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.n_walks < 1:
            raise ValueError(f"n_walks must be >= 1, got {self.n_walks}")
        if self.rings < 1:
            raise ValueError(f"rings must be >= 1, got {self.rings}")
        if self.n_repetitions < 1:
            raise ValueError(
                f"n_repetitions must be >= 1, got {self.n_repetitions}"
            )
        if self.step_sigma_km < 0:
            raise ValueError(f"step_sigma_km must be >= 0, got {self.step_sigma_km}")
        if not (
            self.shadow_sigma_db >= 0 and math.isfinite(self.shadow_sigma_db)
        ):
            raise ValueError(
                f"shadow_sigma_db must be finite and >= 0, "
                f"got {self.shadow_sigma_db}"
            )
        if not self.shadow_decorrelation_km >= 0:  # NaN fails too
            raise ValueError(
                f"shadow_decorrelation_km must be >= 0, "
                f"got {self.shadow_decorrelation_km}"
            )
        validate_backend_pin(self.pathloss_backend, "pathloss_backend")
        validate_backend_pin(self.flc_backend, "flc_backend")

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def make_layout(self) -> CellLayout:
        """The hexagonal layout of this configuration."""
        return CellLayout(cell_radius_km=self.cell_radius_km, rings=self.rings)

    def make_antenna(self) -> DipoleAntenna:
        return DipoleAntenna(
            power_w=self.tx_power_w,
            height_m=self.tx_height_m,
            tilt_deg=self.tilt_deg,
            path_loss_exponent=self.path_loss_exponent,
        )

    def make_propagation(self) -> PropagationModel:
        return PropagationModel(
            antenna=self.make_antenna(),
            frequency_hz=self.frequency_mhz * 1e6,
            rx_height_m=self.rx_height_m,
            backend=self.pathloss_backend,
        )

    def make_walk(self, n_walks: int | None = None) -> RandomWalk:
        """The paper's random walk with this configuration's step law."""
        return RandomWalk(
            n_walks=self.n_walks if n_walks is None else n_walks,
            mean_step_km=self.mean_step_km,
            step_sigma_km=self.step_sigma_km,
        )

    def make_fading(
        self,
        rng=None,
        sigma_db: float | None = None,
        decorrelation_km: float | None = None,
    ) -> ShadowFading:
        """A shadowing process under this configuration.

        ``sigma_db`` / ``decorrelation_km`` override the configured
        profile (the population layer's per-cohort fading hook); ``None``
        inherits the Table-2 values of this parameter set.
        """
        return ShadowFading(
            sigma_db=self.shadow_sigma_db if sigma_db is None else sigma_db,
            decorrelation_km=(
                self.shadow_decorrelation_km
                if decorrelation_km is None
                else decorrelation_km
            ),
            rng=rng,
        )

    def with_(self, **overrides) -> "SimulationParameters":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Table-2-style parameter listing."""
        rows = [
            ("Distribution Law", "Gaussian Distribution"),
            ("Number of Walks", str(self.n_walks)),
            ("Cell Radius", f"{self.cell_radius_km:g} km"),
            ("Transmission Power", f"{self.tx_power_w:g} W"),
            ("Frequency", f"{self.frequency_mhz:g} MHz"),
            ("Transmission Antenna Beam Tilting", f"{self.tilt_deg:g} deg"),
            ("Transmission Antenna Height", f"{self.tx_height_m:g} m"),
            ("Receiving Antenna Height", f"{self.rx_height_m:g} m"),
            ("Average Value for a Walk", f"{self.mean_step_km:g} km"),
            ("n", f"{self.path_loss_exponent:g}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
