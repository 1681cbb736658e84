"""A fleet range split into UE blocks on threads gives the unsplit bytes.

:meth:`~repro.sim.population.PopulationSpec.run_metrics` runs a range
as ``min(usable CPUs, n // MIN_BLOCK_UES)`` contiguous UE blocks
through :func:`repro.fanout.fan_out`.  Tests force a split at a small
size by patching ``MIN_BLOCK_UES`` to 1 and ``repro.fanout.usable_cpus``
to the block count, with ``max_workers=1`` so every shard runs in this
process and sees the patches.  Every split must pickle exactly as the
unsplit run, and the threads must share one LUT build, one ``auto``
kernel probe (on the caller) and at most one thread per usable CPU.  A
range whose kernel runs a thread pool of its own (numba) stays one
block.  The shipped floor is pinned on two CPUs, unpatched.
"""

import pickle
import sys
import threading
import time
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import fanout
from repro.fuzzy import compiled
from repro.fuzzy.compiled import LUT_ERROR_BOUND, lut_build_count
from repro.radio import backends
from repro.sim import (
    FleetSpec,
    PolicyConfig,
    PopulationSpec,
    SimulationParameters,
    UECohort,
    measurement,
    named_population,
    population,
    run_fleet,
)
from repro.sim.population import POPULATION_MIXES

pytestmark = pytest.mark.population


@contextmanager
def blocks(k):
    """Split every range of at least ``k`` UEs into ``k`` blocks."""
    with mock.patch.object(population, "MIN_BLOCK_UES", 1), \
            mock.patch.object(fanout, "usable_cpus", lambda: k):
        yield


#: the measurement layer's size threshold and tile size: materialised,
#: or 3-epoch tiles
TILES = {"materialised": (float("inf"), 16), "tiled": (0, 3)}


@contextmanager
def tiles(name):
    threshold, tile_epochs = TILES[name]
    with mock.patch.multiple(
        measurement,
        AUTO_TILE_THRESHOLD=threshold,
        DEFAULT_TILE_EPOCHS=tile_epochs,
    ):
        yield


_URBAN = {c.name: c for c in POPULATION_MIXES["urban_mix"]}


def mixed_policies() -> PopulationSpec:
    """Three cohorts with different thresholds, POTLC gates, PRTLC
    switches and CSSP lags, one of them fading."""
    return PopulationSpec(
        n_ues=31,
        cohorts=(
            UECohort(
                name="a",
                model=_URBAN["pedestrian"].model,
                fraction=0.4,
                speed_range_kmh=(3.0, 6.0),
                policy=PolicyConfig(threshold=0.6, cssp_lag=3),
            ),
            UECohort(
                name="b",
                model=_URBAN["vehicular"].model,
                fraction=0.35,
                speeds_kmh=(30.0, 60.0),
                shadow_sigma_db=4.0,
                policy=PolicyConfig(
                    threshold=0.75, potlc_gate_dbw=-80.0, prtlc_enabled=False
                ),
            ),
            UECohort(
                name="c",
                model=_URBAN["stationary"].model,
                fraction=0.25,
            ),
        ),
        params=SimulationParameters(
            measurement_spacing_km=0.2, flc_backend="lut"
        ),
        base_seed=4242,
    )


SPECS = {
    "lut": lambda: FleetSpec(
        n_ues=29, n_walks=4, base_seed=900,
        params=SimulationParameters(
            measurement_spacing_km=0.2, flc_backend="lut"
        ),
    ),
    "reference": lambda: FleetSpec(
        n_ues=29, n_walks=4, base_seed=901,
        params=SimulationParameters(
            measurement_spacing_km=0.2, flc_backend="reference"
        ),
    ),
    "urban_mix fading": lambda: FleetSpec.from_population(
        named_population(
            "urban_mix",
            30,
            SimulationParameters(
                measurement_spacing_km=0.2, shadow_sigma_db=6.0
            ),
            base_seed=902,
        )
    ),
    "mixed policies": lambda: FleetSpec.from_population(mixed_policies()),
}


def pickled(spec, n_shards=1):
    return pickle.dumps(run_fleet(spec, n_shards=n_shards, max_workers=1))


@pytest.mark.parametrize("tile_path", sorted(TILES))
@pytest.mark.parametrize("fleet", sorted(SPECS))
def test_every_split_pickles_as_the_unsplit_run(fleet, tile_path):
    spec = SPECS[fleet]()
    with tiles(tile_path):
        want = pickled(spec)
        for k in (1, 2, 3, 8):
            for n_shards in (1, 3):
                with blocks(k):
                    got = pickled(spec, n_shards)
                assert got == want, (fleet, tile_path, k, n_shards)


def test_eight_blocks_at_a_one_microsecond_switch_interval():
    """Threads switching every microsecond: a task taken twice or a
    block's state touched by another thread would show in the bytes."""
    specs = [SPECS["urban_mix fading"](), SPECS["mixed policies"]()]
    want = [pickled(spec) for spec in specs]
    got = []

    def run():
        with blocks(8):
            got.extend(pickled(spec) for spec in specs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=120.0)
        assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_blocks_share_one_cold_lut_build(monkeypatch):
    monkeypatch.setattr(compiled, "_LUT_CACHE", {})
    before = lut_build_count()
    with blocks(2):
        run_fleet(SPECS["lut"](), max_workers=1)
    assert lut_build_count() == before + 1


def test_blocks_share_one_auto_kernel_probe_on_the_caller(monkeypatch):
    """``"auto"`` is probed before the blocks start: on the caller's
    thread and outside any fan-out, where the ``numpy`` kernel it times
    fans out as it would unsplit, not inline in a block."""
    monkeypatch.setattr(backends.KERNELS, "auto_choice", None)
    probes = []
    listed = backends.available_backends

    def counted():
        in_fan_out = getattr(fanout._fanning, "active", False)
        probes.append((threading.get_ident(), in_fan_out))
        return listed()

    monkeypatch.setattr(backends, "available_backends", counted)
    spec = FleetSpec(
        n_ues=29, n_walks=4,
        params=SimulationParameters(
            measurement_spacing_km=0.2, pathloss_backend="auto"
        ),
    )
    with blocks(2):
        run_fleet(spec, max_workers=1)
    assert probes == [(threading.get_ident(), False)]


def thread_starts(monkeypatch) -> list:
    """Names of the threads started from here on."""
    names = []
    start = threading.Thread.start

    def counted(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return names


def test_a_split_runs_at_most_one_thread_per_cpu(monkeypatch):
    """Four blocks on four CPUs: the range starts three threads beside
    the caller, and the pathloss kernel inside a block runs its point
    blocks inline instead of starting threads of its own."""
    chain = backends._chain
    active = []

    def watched(*args):
        active.append(threading.active_count())
        chain(*args)

    monkeypatch.setattr(backends, "_chain", watched)
    monkeypatch.setattr(backends, "_BLOCK_POINTS", 16)
    before = threading.active_count()
    started = thread_starts(monkeypatch)
    with blocks(4), tiles("materialised"):
        run_fleet(SPECS["lut"](), max_workers=1)
    assert len(started) == 3
    assert active and max(active) <= before + 3


def test_unsplit_range_keeps_the_all_cpu_kernel(monkeypatch):
    """Below the block floor a range is one block on the caller, and
    its kernel still fans out."""
    monkeypatch.setattr(backends, "_BLOCK_POINTS", 16)
    started = thread_starts(monkeypatch)
    with mock.patch.object(fanout, "usable_cpus", lambda: 2), \
            tiles("materialised"):
        run_fleet(SPECS["lut"](), max_workers=1)
    assert started
    assert all(name.startswith("fan-out") for name in started)


def simulators(monkeypatch) -> list:
    """The ``(lo, hi)`` of every block simulator built from here on."""
    built = []
    simulator = PopulationSpec.simulator

    def counted(self, lo=0, hi=None, system=None):
        built.append((lo, hi))
        return simulator(self, lo, hi, system)

    monkeypatch.setattr(PopulationSpec, "simulator", counted)
    return built


@pytest.mark.parametrize("flc", ["lut", "reference"])
def test_the_shipped_floor_on_two_cpus(flc, monkeypatch):
    """Whatever the FLC kernel, 3,999 UEs run as one block and 4,000 as
    two."""
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
    built = simulators(monkeypatch)
    for n_ues in (3_999, 4_000):
        run_fleet(
            FleetSpec(
                n_ues=n_ues, n_walks=1,
                params=SimulationParameters(
                    measurement_spacing_km=0.5, flc_backend=flc
                ),
            ),
            max_workers=1,
        )
    assert built[0] == (0, 3_999)
    assert sorted(built[1:]) == [(0, 2_000), (2_000, 4_000)]


def test_a_4000_ue_urban_mix_splits_with_its_one_thread_bytes(monkeypatch):
    """The smallest range that splits on two CPUs, three cohorts with
    per-UE fading on the reference FLC: two blocks, the one-thread
    bytes."""
    spec = FleetSpec.from_population(
        named_population(
            "urban_mix",
            4_000,
            SimulationParameters(shadow_sigma_db=6.0),
            base_seed=906,
        )
    )
    with mock.patch.object(fanout, "usable_cpus", lambda: 1):
        want = pickled(spec)
    built = simulators(monkeypatch)
    with mock.patch.object(fanout, "usable_cpus", lambda: 2):
        assert pickled(spec) == want
    assert sorted(built) == [(0, 2_000), (2_000, 4_000)]


def test_a_slow_optional_flc_registration_serves_every_block(monkeypatch):
    """``--flc-backend numba`` on a cold process: the optional kernel's
    registration takes a while, and a block that asks for it meanwhile
    must wait for it, not be told the backend is unknown."""
    want = pickled(SPECS["lut"]())
    kernels = compiled.KERNELS
    monkeypatch.setattr(
        kernels,
        "entries",
        {k: v for k, v in kernels.entries.items() if k != "numba"},
    )
    monkeypatch.setattr(kernels, "probed", False)

    def slow_registration():
        time.sleep(0.3)
        compiled.register_flc_backend(
            "numba", compiled._lut_factory, error_bound=LUT_ERROR_BOUND
        )

    monkeypatch.setattr(kernels, "optional", [slow_registration])
    spec = FleetSpec(  # SPECS["lut"] on the stand-in "numba"
        n_ues=29, n_walks=4, base_seed=900,
        params=SimulationParameters(
            measurement_spacing_km=0.2, flc_backend="numba"
        ),
    )
    built = simulators(monkeypatch)
    with blocks(2):
        assert pickled(spec) == want
    assert len(built) == 2


#: stand-ins for kernels that run a thread pool of their own
OWN_THREADS = {
    "pathloss": dict(pathloss_backend="pool-kernel"),
    "pathloss auto": dict(pathloss_backend="auto"),
    "flc": dict(flc_backend="pool-kernel"),
}


@pytest.mark.parametrize("kernel", sorted(OWN_THREADS))
def test_a_kernel_with_its_own_threads_keeps_one_block(kernel, monkeypatch):
    """K blocks would enter a numba kernel from K threads at once,
    each launching its own parallel region; the range stays one block,
    with the unsplit bytes."""
    for kernels in (backends.KERNELS, compiled.KERNELS):
        monkeypatch.setattr(kernels, "entries", dict(kernels.entries))
    backends.register_backend(
        "pool-kernel", backends.reference_kernel, own_threads=True
    )
    compiled.register_flc_backend(
        "pool-kernel", compiled._lut_factory,
        error_bound=LUT_ERROR_BOUND, own_threads=True,
    )
    monkeypatch.setattr(backends.KERNELS, "auto_choice", "pool-kernel")
    spec = FleetSpec(
        n_ues=29, n_walks=4, base_seed=903,
        params=SimulationParameters(
            measurement_spacing_km=0.2, **OWN_THREADS[kernel]
        ),
    )
    want = pickled(spec)
    built = simulators(monkeypatch)
    with blocks(4):
        assert pickled(spec) == want
    assert built == [(0, 29)]


@pytest.mark.backend
@pytest.mark.flc_backend
@pytest.mark.parametrize(
    "pin", [dict(pathloss_backend="numba"), dict(flc_backend="numba")]
)
def test_numba_ranges_stay_one_block(pin, monkeypatch):
    """The real numba kernels (skipped without numba): a forced split
    runs as one block and gives the unsplit bytes."""
    pytest.importorskip("numba")
    spec = FleetSpec(
        n_ues=29, n_walks=4, base_seed=904,
        params=SimulationParameters(measurement_spacing_km=0.2, **pin),
    )
    want = pickled(spec)
    built = simulators(monkeypatch)
    with blocks(4):
        assert pickled(spec) == want
    assert built == [(0, 29)]
