"""Mobility-model tests: the paper walk plus the extension models."""

import math

import numpy as np
import pytest

from repro.mobility import (
    GaussMarkov,
    ManhattanGrid,
    RandomWalk,
    RandomWaypoint,
)


class TestRandomWalk:
    def test_point_count(self):
        t = RandomWalk(n_walks=5).generate_seeded(1)
        assert t.n_points == 6

    def test_starts_at_origin(self):
        t = RandomWalk(n_walks=3).generate_seeded(1)
        np.testing.assert_allclose(t.start, [0.0, 0.0])

    def test_custom_start(self):
        t = RandomWalk(n_walks=3, start=(1.0, -2.0)).generate_seeded(1)
        np.testing.assert_allclose(t.start, [1.0, -2.0])

    def test_reproducible(self):
        a = RandomWalk(n_walks=8).generate_seeded(99)
        b = RandomWalk(n_walks=8).generate_seeded(99)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_different_seeds_differ(self):
        a = RandomWalk(n_walks=8).generate_seeded(1)
        b = RandomWalk(n_walks=8).generate_seeded(2)
        assert not np.allclose(a.positions, b.positions)

    def test_step_length_statistics(self):
        w = RandomWalk(n_walks=4000, mean_step_km=0.6, step_sigma_km=0.2)
        t = w.generate_seeded(0)
        steps = t.step_lengths()
        assert steps.mean() == pytest.approx(0.6, abs=0.02)
        assert steps.std() == pytest.approx(0.2, abs=0.02)

    def test_truncation_floor(self):
        w = RandomWalk(n_walks=3000, mean_step_km=0.1, step_sigma_km=0.3)
        steps = w.generate_seeded(0).step_lengths()
        assert steps.min() >= w.min_step_km - 1e-12

    def test_zero_sigma_fixed_steps(self):
        w = RandomWalk(n_walks=10, mean_step_km=0.6, step_sigma_km=0.0)
        np.testing.assert_allclose(w.generate_seeded(3).step_lengths(), 0.6)

    def test_gaussian_angle_law_persists(self):
        uni = RandomWalk(n_walks=300, angle_law="uniform")
        per = RandomWalk(n_walks=300, angle_law="gaussian", angle_sigma_rad=0.3)
        # persistent headings drift further from the start
        d_uni = np.hypot(*uni.generate_seeded(4).end)
        d_per = np.hypot(*per.generate_seeded(4).end)
        assert d_per > d_uni

    def test_requires_generator(self):
        with pytest.raises(TypeError, match="Generator"):
            RandomWalk().generate(42)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_walks": 0},
            {"mean_step_km": 0.0},
            {"mean_step_km": -1.0},
            {"step_sigma_km": -0.1},
            {"angle_law": "poisson"},
            {"angle_sigma_rad": 0.0},
            {"min_step_km": 0.0},
            {"min_step_km": 10.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            RandomWalk(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("step_sigma_km", math.nan),
            ("step_sigma_km", math.inf),
            ("angle_sigma_rad", math.nan),
            ("angle_sigma_rad", math.inf),
            ("start", (math.nan, 0.0)),
            ("start", (0.0, -math.inf)),
            ("start", (0.0, 0.0, 0.0)),
        ],
    )
    def test_non_finite_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            RandomWalk(**{field: value})


class TestRandomWaypoint:
    def test_within_region(self):
        m = RandomWaypoint(n_waypoints=50, region_km=(-2, 2, -1, 1))
        t = m.generate_seeded(0)
        assert np.all(t.positions[:, 0] >= -2) and np.all(t.positions[:, 0] <= 2)
        assert np.all(t.positions[:, 1] >= -1) and np.all(t.positions[:, 1] <= 1)

    def test_default_start_is_region_center(self):
        m = RandomWaypoint(region_km=(0, 4, -2, 2))
        np.testing.assert_allclose(m.generate_seeded(0).start, [2.0, 0.0])

    def test_point_count(self):
        assert RandomWaypoint(n_waypoints=7).generate_seeded(0).n_points == 8

    def test_reproducible(self):
        a = RandomWaypoint().generate_seeded(5).positions
        b = RandomWaypoint().generate_seeded(5).positions
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWaypoint(n_waypoints=0)
        with pytest.raises(ValueError):
            RandomWaypoint(region_km=(1, 1, 0, 2))
        with pytest.raises(ValueError, match="outside"):
            RandomWaypoint(region_km=(0, 1, 0, 1), start=(5.0, 5.0))


class TestGaussMarkov:
    def test_point_count(self):
        assert GaussMarkov(n_steps=12).generate_seeded(0).n_points == 13

    def test_alpha_one_is_straight_line(self):
        m = GaussMarkov(n_steps=30, alpha=1.0, sigma_km=0.3,
                        mean_heading_rad=0.0)
        t = m.generate_seeded(0)
        # with full memory and sqrt(1-a^2)=0 noise the velocity never
        # changes: all headings identical
        assert np.allclose(np.diff(t.headings()), 0.0)

    def test_alpha_zero_is_memoryless(self):
        m = GaussMarkov(n_steps=500, alpha=0.0, sigma_km=0.5)
        t = m.generate_seeded(1)
        dv = np.diff(t.positions, axis=0)
        # consecutive velocity correlation ~ 0
        rho = np.corrcoef(dv[:-1, 0], dv[1:, 0])[0, 1]
        assert abs(rho) < 0.15

    def test_high_alpha_more_persistent_than_low(self):
        lo = GaussMarkov(n_steps=200, alpha=0.1, sigma_km=0.3)
        hi = GaussMarkov(n_steps=200, alpha=0.95, sigma_km=0.3)
        d_lo = np.hypot(*lo.generate_seeded(2).end)
        d_hi = np.hypot(*hi.generate_seeded(2).end)
        assert d_hi > d_lo

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussMarkov(alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkov(alpha=-0.1)
        with pytest.raises(ValueError):
            GaussMarkov(n_steps=0)
        with pytest.raises(ValueError):
            GaussMarkov(mean_speed_km=0.0)
        with pytest.raises(ValueError):
            GaussMarkov(sigma_km=-1.0)


class TestManhattan:
    def test_axis_aligned_legs(self):
        t = ManhattanGrid(n_legs=40).generate_seeded(0)
        dv = np.diff(t.positions, axis=0)
        for step in dv:
            assert step[0] == 0.0 or step[1] == 0.0

    def test_block_multiples(self):
        m = ManhattanGrid(n_legs=40, block_km=0.25, max_blocks=4)
        steps = m.generate_seeded(1).step_lengths()
        multiples = steps / 0.25
        np.testing.assert_allclose(multiples, np.round(multiples), atol=1e-9)
        assert steps.max() <= 4 * 0.25 + 1e-9
        assert steps.min() >= 0.25 - 1e-9

    def test_no_u_turns(self):
        t = ManhattanGrid(n_legs=200, p_turn=1.0).generate_seeded(3)
        dv = np.diff(t.positions, axis=0)
        headings = np.arctan2(dv[:, 1], dv[:, 0])
        for h0, h1 in zip(headings, headings[1:]):
            diff = abs((h1 - h0 + np.pi) % (2 * np.pi) - np.pi)
            assert diff < np.pi - 1e-9  # never a 180-degree reversal

    def test_p_turn_zero_goes_straight(self):
        t = ManhattanGrid(n_legs=20, p_turn=0.0).generate_seeded(4)
        assert np.allclose(np.diff(t.headings()), 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ManhattanGrid(n_legs=0)
        with pytest.raises(ValueError):
            ManhattanGrid(block_km=0.0)
        with pytest.raises(ValueError):
            ManhattanGrid(max_blocks=0)
        with pytest.raises(ValueError):
            ManhattanGrid(p_turn=1.5)
