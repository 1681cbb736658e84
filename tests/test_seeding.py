"""Bulk seeding: :func:`repro.seeding.seeded_generators` against
``np.random.default_rng``, one seed at a time.

Every stream a fleet draws (walks, fading, speed ranges) is seeded
through this function, so these tests pin the installed NumPy's
``SeedSequence`` and ``PCG64`` seeding as much as the vectorised
reimplementation.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import seeding
from repro.seeding import seeded_generators

#: seeds at the 32-bit word boundaries of SeedSequence's entropy
BOUNDARY_SEEDS = (
    0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1, 2**64,
    2**96 - 1, 2**96, 2**127 + 3, 2**128, 2**130 + 7,
)

seed_values = st.one_of(
    st.integers(0, 2**32),
    st.integers(0, 2**64),
    st.integers(0, 2**130 - 1),
    st.sampled_from(BOUNDARY_SEEDS),
)


def assert_default_rng_states(gens, seeds):
    gens = list(gens)
    assert len(gens) == len(seeds)
    for gen, seed in zip(gens, seeds):
        assert gen.bit_generator.state == \
            np.random.default_rng(seed).bit_generator.state, seed


class TestDefaultRngIdentity:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(seeds=st.lists(seed_values, min_size=1, max_size=24))
    def test_list_of_seeds(self, seeds):
        assert_default_rng_states(seeded_generators(seeds), seeds)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        start=st.one_of(
            st.integers(0, 2**40), st.sampled_from(BOUNDARY_SEEDS)
        ),
        n=st.integers(1, 40),
        step=st.integers(1, 3),
    )
    def test_range(self, start, n, step):
        seeds = range(start, start + n * step, step)
        assert_default_rng_states(seeded_generators(seeds), seeds)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.int32, np.int64, np.uint32, np.uint64]),
        values=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=16),
    )
    def test_numpy_integer_arrays_and_scalars(self, dtype, values):
        arr = np.array(values, dtype=dtype)
        assert_default_rng_states(seeded_generators(arr), list(arr))
        scalars = [dtype(v) for v in values]
        assert_default_rng_states(seeded_generators(scalars), scalars)

    def test_word_boundary_seeds_and_a_fleet_range(self):
        seeds = list(BOUNDARY_SEEDS) + list(range(10_000_000, 10_002_000))
        assert_default_rng_states(seeded_generators(seeds), seeds)

    def test_draws_follow_the_same_stream(self):
        seeds = [7, 2**33 + 1, 2**70]
        for gen, seed in zip(seeded_generators(seeds), seeds):
            ref = np.random.default_rng(seed)
            assert gen.standard_normal(50).tobytes() == \
                ref.standard_normal(50).tobytes()
            assert gen.integers(0, 7, 9).tobytes() == \
                ref.integers(0, 7, 9).tobytes()

    def test_empty(self):
        assert list(seeded_generators([])) == []
        assert list(seeded_generators(range(0))) == []


class TestRefusals:
    @pytest.mark.parametrize(
        "seeds", [[3, -2], range(-2, 3), [2**70, -2], np.array([4, -2])]
    )
    def test_negative_seed_refused_by_name(self, seeds):
        with pytest.raises(ValueError, match="seed -2 is negative"):
            seeded_generators(seeds)
        with pytest.raises(ValueError):
            np.random.default_rng(-2)

    @pytest.mark.parametrize("seeds", [[1.0], [True], ["7"], [[1, 2]]])
    def test_non_integer_seeds_refused(self, seeds):
        with pytest.raises((TypeError, ValueError)):
            seeded_generators(seeds)

    def test_a_numpy_that_seeds_otherwise_fails_loudly(self, monkeypatch):
        real = seeding._pcg64_words
        monkeypatch.setattr(
            seeding, "_pcg64_words", lambda seeds: real(seeds) ^ np.uint64(1)
        )
        with pytest.raises(RuntimeError, match=np.__version__):
            seeded_generators(range(5))


def test_generators_pickle_with_their_state():
    gen = list(seeded_generators([3, 2**70]))[1]
    gen.standard_normal(5)
    again = pickle.loads(pickle.dumps(gen))
    assert again.bit_generator.state == gen.bit_generator.state
    assert again.standard_normal(5).tobytes() == \
        gen.standard_normal(5).tobytes()
