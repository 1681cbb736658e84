"""Shadow fading and speed-penalty tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import (
    SPEED_PENALTY_DB_PER_KMH,
    ShadowFading,
    apply_speed_penalty,
    speed_penalty_db,
)
from repro.radio import fading
from repro.radio.fading import FadingBank, ShadowFadingStream


class TestSpeedPenalty:
    def test_paper_values(self):
        # "for each 10 km/h the signal strength is decreased 2 db"
        assert speed_penalty_db(10.0) == pytest.approx(2.0)
        assert speed_penalty_db(50.0) == pytest.approx(10.0)
        assert speed_penalty_db(0.0) == 0.0

    def test_constant(self):
        assert SPEED_PENALTY_DB_PER_KMH == pytest.approx(0.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            speed_penalty_db(-1.0)

    def test_apply(self):
        assert apply_speed_penalty(-90.0, 30.0) == pytest.approx(-96.0)

    def test_array(self):
        out = apply_speed_penalty(np.array([-90.0, -100.0]), 10.0)
        np.testing.assert_allclose(out, [-92.0, -102.0])

    @given(st.floats(0, 300))
    @settings(max_examples=40)
    def test_property_linear(self, v):
        assert speed_penalty_db(v) == pytest.approx(0.2 * v)


class TestShadowFadingConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShadowFading(sigma_db=-1.0)
        with pytest.raises(ValueError):
            ShadowFading(decorrelation_km=-0.5)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"sigma_db": float("nan")}, "sigma_db"),
            ({"sigma_db": float("inf")}, "sigma_db"),
            ({"decorrelation_km": float("nan")}, "decorrelation_km"),
        ],
    )
    def test_non_finite_parameters_rejected_naming_the_field(
        self, kwargs, field
    ):
        # a NaN decorrelation used to yield NaN power that only failed
        # later, inside the FLC's fuzzifier
        with pytest.raises(ValueError, match=field):
            ShadowFading(**kwargs)

    def test_rng_coercion(self):
        f = ShadowFading(rng=42)
        assert isinstance(f.rng, np.random.Generator)


class TestIidFading:
    def test_zero_sigma_is_silent(self):
        f = ShadowFading(sigma_db=0.0)
        assert np.all(f.sample_iid((10, 3)) == 0.0)

    def test_statistics(self):
        f = ShadowFading(sigma_db=4.0, rng=0)
        x = f.sample_iid((20000,))
        assert abs(x.mean()) < 0.15
        assert x.std() == pytest.approx(4.0, rel=0.05)

    def test_reproducible(self):
        a = ShadowFading(sigma_db=4.0, rng=7).sample_iid((100,))
        b = ShadowFading(sigma_db=4.0, rng=7).sample_iid((100,))
        np.testing.assert_array_equal(a, b)


class TestCorrelatedFading:
    def test_shapes(self):
        f = ShadowFading(sigma_db=4.0, decorrelation_km=0.1, rng=1)
        d = np.linspace(0, 5, 50)
        out = f.sample_along(d, n_sources=3)
        assert out.shape == (50, 3)

    def test_empty_trace(self):
        f = ShadowFading(sigma_db=4.0, rng=1)
        assert f.sample_along(np.array([]), 2).shape == (0, 2)

    def test_zero_sigma(self):
        f = ShadowFading(sigma_db=0.0, decorrelation_km=0.1)
        assert np.all(f.sample_along(np.linspace(0, 1, 10)) == 0.0)

    def test_marginal_std_preserved(self):
        f = ShadowFading(sigma_db=4.0, decorrelation_km=0.2, rng=3)
        d = np.arange(0, 400, 0.05)
        out = f.sample_along(d, n_sources=1)[:, 0]
        assert out.std() == pytest.approx(4.0, rel=0.1)

    def test_correlation_decays_with_distance(self):
        f = ShadowFading(sigma_db=4.0, decorrelation_km=0.5, rng=5)
        d = np.arange(0, 2000, 0.05)
        x = f.sample_along(d, n_sources=1)[:, 0]

        def autocorr(series, lag):
            return np.corrcoef(series[:-lag], series[lag:])[0, 1]

        short = autocorr(x, 1)    # 0.05 km apart
        long = autocorr(x, 100)   # 5 km apart
        assert short > 0.8
        assert abs(long) < 0.2

    def test_gudmundson_theoretical_rho(self):
        f = ShadowFading(sigma_db=4.0, decorrelation_km=0.5, rng=9)
        d = np.arange(0, 3000, 0.1)
        x = f.sample_along(d, n_sources=1)[:, 0]
        lag_km = 0.5
        lag = int(lag_km / 0.1)
        measured = np.corrcoef(x[:-lag], x[lag:])[0, 1]
        assert measured == pytest.approx(np.exp(-1.0), abs=0.08)

    def test_sources_independent(self):
        f = ShadowFading(sigma_db=4.0, decorrelation_km=0.1, rng=11)
        d = np.arange(0, 1000, 0.1)
        out = f.sample_along(d, n_sources=2)
        rho = np.corrcoef(out[:, 0], out[:, 1])[0, 1]
        assert abs(rho) < 0.1

    def test_zero_decorrelation_is_iid(self):
        f = ShadowFading(sigma_db=4.0, decorrelation_km=0.0, rng=13)
        d = np.arange(0, 500, 0.05)
        x = f.sample_along(d, n_sources=1)[:, 0]
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho) < 0.05

    def test_validation(self):
        f = ShadowFading(sigma_db=4.0)
        with pytest.raises(ValueError, match="1-D"):
            f.sample_along(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="n_sources"):
            f.sample_along(np.zeros(3), n_sources=0)


# ----------------------------------------------------------------------
# the fleet fading bank against its per-UE oracles
# ----------------------------------------------------------------------
CELLS = 5

#: per-UE fading profiles: no process, a zero sigma, i.i.d. and AR(1)
PROFILES = st.one_of(
    st.none(),
    st.just(("zero",)),
    st.tuples(st.just("iid"), st.floats(0.5, 9.0)),
    st.tuples(
        st.just("ar"),
        st.floats(0.5, 9.0),
        st.sampled_from([0.01, 0.05, 0.1, 0.37, 2.5]),
    ),
)


def make_profiles(kinds, seed):
    """Fresh processes for ``kinds``; equal arguments give twins that
    draw the same values."""
    out = []
    for i, kind in enumerate(kinds):
        rng = np.random.default_rng([seed, i])
        if kind is None:
            out.append(None)
        elif kind[0] == "zero":
            out.append(ShadowFading(0.0, 0.1, rng))
        elif kind[0] == "iid":
            out.append(ShadowFading(kind[1], 0.0, rng))
        else:
            out.append(ShadowFading(kind[1], kind[2], rng))
    return out


def fades(p):
    return p is not None and p.sigma_db > 0.0


@st.composite
def fleets(draw):
    n = draw(st.integers(1, 6))
    kinds = draw(st.lists(PROFILES, min_size=n, max_size=n))
    t_max = draw(st.integers(1, 40))
    lengths = np.array(
        draw(st.lists(st.integers(1, t_max), min_size=n, max_size=n))
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # walked distance with repeated points; past each walk's end either
    # the padding rule (the final distance) or values the bank must
    # ignore
    steps = rng.uniform(0.0, 0.2, size=(n, t_max))
    steps[rng.random((n, t_max)) < 0.1] = 0.0
    steps[:, 0] = 0.0
    distance = np.cumsum(steps, axis=1)
    if draw(st.booleans()):
        for i, t in enumerate(lengths):
            distance[i, t:] = distance[i, t - 1]
    base = rng.normal(-100.0, 8.0, size=(n, t_max, CELLS))
    tile = draw(st.sampled_from([1, 2, 3, 16, t_max, t_max + 5]))
    return {
        "kinds": kinds,
        "lengths": lengths,
        "distance": distance,
        "base": base,
        "seed": seed,
        "tile": tile,
    }


def bank_tiles(bank, case):
    """``(lo, tile bytes)`` of a bank pass over ``case``'s base power."""
    base, distance, lengths = case["base"], case["distance"], case["lengths"]
    t_max, tile = base.shape[1], case["tile"]
    for lo in range(0, t_max, tile):
        hi = min(lo + tile, t_max)
        out = base[:, lo:hi].copy()
        bank.add_to(out, distance[:, lo:hi], np.clip(lengths - lo, 0, hi - lo))
        yield lo, out


class TestFadingBankDifferential:
    """The bank is a vectorised :class:`ShadowFadingStream` per UE: the
    same bytes for every tile width, block length and block width, tile
    by tile and in one shot as ``sample_along`` draws.  This also pins,
    on the host that runs it, that ``np.exp`` over a whole block gives
    the bits it gives per UE."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(
        case=fleets(),
        block=st.sampled_from([1, 2, 3, 16]),
        block_ues=st.sampled_from([1, 2, 3, 256]),
    )
    def test_bank_matches_per_ue_oracles(self, case, block, block_ues):
        kinds, seed = case["kinds"], case["seed"]
        base, distance, lengths = (
            case["base"], case["distance"], case["lengths"]
        )
        with mock.patch.object(
            fading, "FADING_BLOCK_EPOCHS", block
        ), mock.patch.object(fading, "FADING_BLOCK_UES", block_ues):
            # tile by tile against one ShadowFadingStream per UE
            bank = FadingBank(make_profiles(kinds, seed), CELLS)
            streams = [
                ShadowFadingStream(p) if fades(p) else None
                for p in make_profiles(kinds, seed)
            ]
            tiles = []
            for lo, got in bank_tiles(bank, case):
                want = base[:, lo : lo + got.shape[1]].copy()
                for i, stream in enumerate(streams):
                    t = min(int(lengths[i]) - lo, got.shape[1])
                    if stream is not None and t > 0:
                        want[i, :t] += stream.sample_next(
                            distance[i, lo : lo + t], n_sources=CELLS
                        )
                assert got.tobytes() == want.tobytes(), f"tile at {lo}"
                tiles.append((lo, got))

            # one shot over the whole horizon against sample_along
            one_shot = base.copy()
            FadingBank(make_profiles(kinds, seed), CELLS).add_to(
                one_shot, distance, lengths
            )
            want = base.copy()
            for i, p in enumerate(make_profiles(kinds, seed)):
                if fades(p):
                    t = int(lengths[i])
                    want[i, :t] += p.sample_along(distance[i, :t], CELLS)
            assert one_shot.tobytes() == want.tobytes()
            assert np.concatenate([t for _, t in tiles], axis=1).tobytes() \
                == one_shot.tobytes()


class TestFadingBankRefusals:
    def test_shared_generator_refused(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="UEs 0 and 2 share"):
            FadingBank(
                [
                    ShadowFading(4.0, 0.1, rng),
                    None,
                    ShadowFading(6.0, 0.0, rng),
                ],
                CELLS,
            )
        shared = ShadowFading(4.0, 0.1, 9)
        with pytest.raises(ValueError, match="UEs 0 and 1 share"):
            FadingBank([shared, shared], CELLS)

    def test_shared_generator_of_silent_ues_allowed(self):
        # zero-sigma processes never draw, so they may share
        rng = np.random.default_rng(5)
        bank = FadingBank(
            [ShadowFading(0.0, 0.1, rng), ShadowFading(0.0, 0.1, rng)], CELLS
        )
        assert len(bank) == 0
