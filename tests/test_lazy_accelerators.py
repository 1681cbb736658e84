"""The default path never tries to import the optional accelerators.

The numba and jax kernels register only when a kernel lookup misses
its registry (:mod:`repro.kernels`), so a run on the default kernels,
``lut`` included, never pays an accelerator import.  A fresh
interpreter records and refuses every ``numba``/``jax`` import, so the
check holds whether or not the packages are installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import json
import sys


class RefuseAccelerators:
    def __init__(self):
        self.attempts = []

    def find_spec(self, name, path=None, target=None):
        root = name.partition(".")[0]
        if root in ("numba", "jax"):
            self.attempts.append(root)
            raise ModuleNotFoundError(f"{name} refused", name=name)
        return None


finder = RefuseAccelerators()
sys.meta_path.insert(0, finder)

from repro.fuzzy import available_flc_backends
from repro.radio import available_backends, resolve_backend
from repro.serve import replay_in_process
from repro.sim import (
    FleetSpec, SimulationParameters, record_fleet_trace, run_fleet,
)


def spec(**pins):
    params = SimulationParameters(measurement_spacing_km=0.2, **pins)
    return FleetSpec(n_ues=4, n_walks=2, base_seed=5, params=params)


run_fleet(spec(), max_workers=1)
run_fleet(spec(flc_backend="lut"), max_workers=1)
replay_in_process(record_fleet_trace(spec()))
assert resolve_backend("auto", probe=False) == "auto"
default_path = list(finder.attempts)
available_backends()
available_flc_backends()
print(json.dumps({"default": default_path, "all": finder.attempts}))
"""


def test_only_a_listing_attempts_the_accelerator_imports():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("REPRO_PATHLOSS_BACKEND", "REPRO_FLC_BACKEND"):
        env.pop(var, None)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout
    attempts = json.loads(out.splitlines()[-1])
    assert attempts["default"] == []
    # the pathloss listing tries numba and jax, the FLC listing numba
    assert attempts["all"] == ["numba", "jax", "numba"]
