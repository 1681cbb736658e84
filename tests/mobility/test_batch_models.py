"""Batch generation of the extension mobility models.

``generate_batch_seeded(seeds)`` of :class:`ManhattanGrid`,
:class:`GaussMarkov` and :class:`RandomWaypoint` must equal padding
``generate_seeded(s)`` of every seed, bit for bit, whatever the model's
parameters.  The Manhattan batch decodes NumPy's ``integers`` and
``random`` draws from raw generator words, so it is pinned over the
parameters that change the decoding: ranges of one block, ranges that
are not powers of two, and turn probabilities of 0 and 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import (
    GaussMarkov,
    ManhattanGrid,
    RandomWalk,
    RandomWaypoint,
    TraceBatch,
)
from repro.mobility import manhattan

seed_lists = st.lists(
    st.one_of(st.integers(0, 2**32), st.integers(0, 2**70)),
    min_size=1,
    max_size=12,
)
starts = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))


def per_seed(model, seeds):
    return TraceBatch.from_traces(model.generate_seeded(s) for s in seeds)


def assert_same_batch(got, want):
    assert got.lengths.tolist() == want.lengths.tolist()
    assert got.positions.tobytes() == want.positions.tobytes()


class TestManhattanBatch:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        n_legs=st.integers(1, 14),
        block_km=st.floats(0.01, 2.0),
        max_blocks=st.one_of(
            st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12]), st.integers(1, 1000)
        ),
        p_turn=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        start=starts,
        seeds=seed_lists,
    )
    def test_matches_per_seed_walks(
        self, n_legs, block_km, max_blocks, p_turn, start, seeds
    ):
        model = ManhattanGrid(
            n_legs=n_legs, block_km=block_km, max_blocks=max_blocks,
            p_turn=p_turn, start=start,
        )
        assert_same_batch(
            model.generate_batch_seeded(seeds), per_seed(model, seeds)
        )

    @pytest.mark.parametrize("max_blocks", [1, 3, 4])
    def test_fleet_range_of_seeds(self, max_blocks):
        model = ManhattanGrid(n_legs=10, block_km=0.35, max_blocks=max_blocks)
        seeds = range(10_000_000, 10_001_500)
        assert_same_batch(
            model.generate_batch_seeded(seeds), per_seed(model, seeds)
        )

    def test_a_rejected_draw_regenerates_the_walk(self, monkeypatch):
        """A UE whose bounded draw Lemire's method would reject (and
        draw again) is decoded wrongly from the raw words; the batch
        regenerates it by the scalar path."""
        model = ManhattanGrid(n_legs=8, max_blocks=3)
        seeds = [11, 12, 13, 14, 15]
        real, calls = manhattan._lemire, []

        def rejecting(u32, span):
            values, rejects = real(u32, span)
            calls.append(span)
            if span == 3:  # the blocks draw: UE 2 "rejects", wrongly decoded
                values, rejects = values.copy(), rejects.copy()
                values[2] += 1
                rejects[2] = True
            return values, rejects

        monkeypatch.setattr(manhattan, "_lemire", rejecting)
        batch = model.generate_batch_seeded(seeds)
        assert 3 in calls
        assert_same_batch(batch, per_seed(model, seeds))

    def test_a_decoding_that_drifts_from_numpy_fails_loudly(
        self, monkeypatch
    ):
        real = manhattan._unit
        monkeypatch.setattr(manhattan, "_unit", lambda w: 1.0 - real(w))
        with pytest.raises(RuntimeError, match=np.__version__):
            ManhattanGrid(p_turn=0.5).generate_batch_seeded(range(3))

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            ManhattanGrid().generate_batch_seeded([])


class TestGaussMarkovBatch:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        n_steps=st.integers(1, 25),
        alpha=st.one_of(st.sampled_from([0.0, 1.0, 1]), st.floats(0.0, 1.0)),
        mean_speed_km=st.floats(0.01, 3.0),
        mean_heading_rad=st.floats(-7.0, 7.0),
        sigma_km=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        start=starts,
        seeds=seed_lists,
    )
    def test_matches_per_seed_walks(
        self, n_steps, alpha, mean_speed_km, mean_heading_rad, sigma_km,
        start, seeds,
    ):
        model = GaussMarkov(
            n_steps=n_steps, alpha=alpha, mean_speed_km=mean_speed_km,
            mean_heading_rad=mean_heading_rad, sigma_km=sigma_km,
            start=start,
        )
        assert_same_batch(
            model.generate_batch_seeded(seeds), per_seed(model, seeds)
        )

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            GaussMarkov().generate_batch_seeded([])


class TestRandomWaypointBatch:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        n_waypoints=st.integers(1, 15),
        x=st.tuples(st.floats(-9.0, 0.0), st.floats(0.1, 9.0)),
        y=st.tuples(st.floats(-9.0, 0.0), st.floats(0.1, 9.0)),
        custom_start=st.booleans(),
        seeds=seed_lists,
    )
    def test_matches_per_seed_walks(
        self, n_waypoints, x, y, custom_start, seeds
    ):
        model = RandomWaypoint(
            n_waypoints=n_waypoints,
            region_km=(x[0], x[1], y[0], y[1]),
            start=(x[0], y[1]) if custom_start else None,
        )
        assert_same_batch(
            model.generate_batch_seeded(seeds), per_seed(model, seeds)
        )

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            RandomWaypoint().generate_batch_seeded([])


def test_random_walk_batch_over_word_boundary_seeds():
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**127 + 3]
    for law in ("uniform", "gaussian"):
        model = RandomWalk(n_walks=6, angle_law=law)
        assert_same_batch(
            model.generate_batch_seeded(seeds), per_seed(model, seeds)
        )
