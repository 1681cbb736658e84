"""TraceBatch: padded lockstep form of many walks."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import RandomWalk, Trace, TraceBatch, base
from repro.sim import named_population


def ragged_traces(n=5, base_seed=10):
    walk = RandomWalk(mean_step_km=0.6, step_sigma_km=0.2)
    out = []
    for i in range(n):
        w = RandomWalk(
            n_walks=3 + i, mean_step_km=walk.mean_step_km,
            step_sigma_km=walk.step_sigma_km,
        )
        out.append(w.generate_seeded(base_seed + i))
    return out


class TestFromTraces:
    def test_round_trip_is_bit_identical(self):
        traces = ragged_traces()
        batch = TraceBatch.from_traces(traces)
        assert batch.n_traces == len(traces)
        assert batch.max_points == max(t.n_points for t in traces)
        for i, t in enumerate(traces):
            np.testing.assert_array_equal(
                batch.trace(i).positions, t.positions
            )

    def test_padding_repeats_final_position(self):
        traces = ragged_traces()
        batch = TraceBatch.from_traces(traces)
        for i, t in enumerate(traces):
            tail = batch.positions[i, t.n_points:]
            np.testing.assert_array_equal(
                tail, np.broadcast_to(t.positions[-1], tail.shape)
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TraceBatch.from_traces([])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TraceBatch(np.zeros((2, 3, 3)), np.array([3, 3]))
        with pytest.raises(ValueError):
            TraceBatch(np.zeros((2, 3, 2)), np.array([3]))
        with pytest.raises(ValueError):
            TraceBatch(np.zeros((2, 3, 2)), np.array([3, 4]))


class TestDerivedQuantities:
    def test_cumulative_distances_match_scalar(self):
        traces = ragged_traces()
        batch = TraceBatch.from_traces(traces)
        dist = batch.cumulative_distances()
        for i, t in enumerate(traces):
            np.testing.assert_array_equal(
                dist[i, : t.n_points], t.cumulative_distance()
            )
            # padded tail stays flat at the total length
            assert (dist[i, t.n_points:] == dist[i, t.n_points - 1]).all()

    def test_densify_matches_scalar(self):
        traces = ragged_traces()
        dense = TraceBatch.from_traces(traces).densify(0.1)
        for i, t in enumerate(traces):
            np.testing.assert_array_equal(
                dense.trace(i).positions, t.densify(0.1).positions
            )


def reference_cumulative_distances(batch):
    """``cumulative_distances`` as it was before it was built in place
    (diff, square, sum, sqrt, cumsum), verbatim: the byte oracle."""
    d = np.diff(batch.positions, axis=1)
    steps = np.sqrt((d * d).sum(axis=2))
    out = np.zeros((batch.n_traces, batch.max_points))
    np.cumsum(steps, axis=1, out=out[:, 1:])
    return out


class TestCumulativeDistances:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 30), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_bytes_equal_reference_expression(self, lengths, seed):
        rng = np.random.default_rng(seed)
        traces = []
        for n in lengths:
            pos = rng.uniform(-5.0, 5.0, size=(n, 2))
            pos[rng.random(n) < 0.2] = pos[0]  # some zero-length steps
            traces.append(Trace(pos))
        batch = TraceBatch.from_traces(traces)
        want = reference_cumulative_distances(batch)
        assert batch.cumulative_distances().tobytes() == want.tobytes()

    @pytest.mark.parametrize("lengths", [[1], [1, 1, 1], [1, 4, 1, 9]])
    def test_one_point_traces(self, lengths):
        rng = np.random.default_rng(3)
        batch = TraceBatch.from_traces(
            [Trace(rng.uniform(-1.0, 1.0, size=(n, 2))) for n in lengths]
        )
        got = batch.cumulative_distances()
        want = reference_cumulative_distances(batch)
        assert got.tobytes() == want.tobytes()
        assert (got[np.array(lengths) == 1] == 0.0).all()

    def test_peak_within_two_and_a_half_outputs(self):
        """One output-sized scratch: the traced peak stays within 2.5x
        the output (the diff/square/sum/sqrt temporaries took about 5x)."""
        batch = RandomWalk(n_walks=12).generate_batch_seeded(range(400))
        batch = batch.densify(0.02)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            out = batch.cumulative_distances()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes, (
            f"cumulative_distances peaked at {peak} bytes, "
            f"{peak / out.nbytes:.2f}x its {out.nbytes}-byte output"
        )


class TestGeneration:
    def test_batch_seeded_equals_scalar_walks(self):
        walk = RandomWalk(n_walks=6)
        batch = walk.generate_batch_seeded([5, 9, 11])
        for i, seed in enumerate([5, 9, 11]):
            np.testing.assert_array_equal(
                batch.trace(i).positions,
                walk.generate_seeded(seed).positions,
            )

    def test_generate_batch_shapes_and_start(self):
        walk = RandomWalk(n_walks=8, start=(1.0, -2.0))
        batch = walk.generate_batch_seeded(range(3, 13))
        assert batch.positions.shape == (10, 9, 2)
        assert (batch.lengths == 9).all()
        np.testing.assert_array_equal(
            batch.positions[:, 0], np.tile([1.0, -2.0], (10, 1))
        )

    def test_generate_batch_step_law(self):
        walk = RandomWalk(n_walks=50, mean_step_km=0.6, step_sigma_km=0.2)
        batch = walk.generate_batch_seeded(range(20))
        for i in range(batch.n_traces):
            steps = batch.trace(i).step_lengths()
            assert (steps >= walk.min_step_km).all()

    def test_generate_batch_validation(self):
        with pytest.raises(ValueError, match="at least one seed"):
            RandomWalk().generate_batch_seeded([])


def assert_bit_identical(got, want):
    """Same shape, lengths and bytes — padding and signed zeros
    included."""
    assert got.positions.shape == want.positions.shape
    np.testing.assert_array_equal(got.lengths, want.lengths)
    assert got.positions.tobytes() == want.positions.tobytes()


def scalar_densify(batch, spacing):
    """The oracle: per-trace :meth:`Trace.densify`, padded by
    :meth:`TraceBatch.from_traces`."""
    return TraceBatch.from_traces(t.densify(spacing) for t in batch.traces())


#: paper-like spacings plus powers of two, under which lattice
#: coordinates stay exact, so lattice segments are exact multiples of
#: the spacing (the ceil boundary)
SPACINGS = (0.05, 0.1, 0.25, 0.5, 1.0)


@st.composite
def ragged_batches(draw):
    spacing = draw(st.sampled_from(SPACINGS))
    free = st.floats(-5.0, 5.0, allow_nan=False)
    lattice = st.integers(-12, 12).map(lambda k: k * 0.25)
    point = st.tuples(free, free) | st.tuples(lattice, lattice)
    traces = []
    for _ in range(draw(st.integers(1, 7))):
        pts = [draw(point)]
        for _ in range(draw(st.integers(0, 6))):
            x, y = pts[-1]
            kind = draw(st.sampled_from(["free", "repeat", "multiple"]))
            if kind == "repeat":  # zero-length segment
                pts.append((x, y))
            elif kind == "multiple":
                k = draw(st.integers(-6, 6)) * spacing
                pts.append((x + k, y) if draw(st.booleans()) else (x, y + k))
            else:
                pts.append(draw(point))
        traces.append(Trace(np.array(pts)))
    return TraceBatch.from_traces(traces), spacing


class TestDensifyIdentity:
    """The fleet-wide densify against the scalar per-trace oracle."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=ragged_batches(), block=st.sampled_from([1, 2, 3, 1024]))
    def test_ragged_batches_bit_identical(self, case, block):
        batch, spacing = case
        with mock.patch.object(base, "DENSIFY_BLOCK_UES", block):
            got = batch.densify(spacing)
        assert_bit_identical(got, scalar_densify(batch, spacing))

    def test_all_single_point_batch(self):
        batch = TraceBatch(
            np.array([[[0.5, -1.0]], [[2.0, 3.0]], [[-0.0, 0.0]]]),
            np.ones(3, dtype=np.intp),
        )
        dense = batch.densify(0.1)
        assert dense.max_points == 1
        assert_bit_identical(dense, batch)
        assert_bit_identical(dense, scalar_densify(batch, 0.1))

    def test_single_point_rows_of_a_wider_batch(self):
        # rows of length 1 whose padding is not the final position: the
        # densified row is the final position alone
        batch = TraceBatch(
            np.array([[[1.0, 1.0], [9.0, 9.0]], [[0.0, 0.0], [0.3, 0.4]]]),
            np.array([1, 2]),
        )
        assert_bit_identical(batch.densify(0.1), scalar_densify(batch, 0.1))

    @pytest.mark.parametrize(
        "spacing", [0.0, -0.1, math.nan, math.inf, -math.inf]
    )
    def test_bad_spacing_rejected(self, spacing):
        batch = TraceBatch.from_traces(ragged_traces(n=2))
        with pytest.raises(ValueError, match="max_spacing_km"):
            batch.densify(spacing)


class TestSeededGenerationIdentity:
    @pytest.mark.parametrize(
        "walk",
        [
            RandomWalk(n_walks=7, angle_law="gaussian", angle_sigma_rad=0.4),
            RandomWalk(n_walks=4, step_sigma_km=0.0),
            RandomWalk(n_walks=5, start=(1.25, -3.5)),
            # sigma >> mean: most draws fall below min_step_km and run
            # the resample loop
            RandomWalk(n_walks=6, mean_step_km=0.05, step_sigma_km=2.0),
            RandomWalk(n_walks=1),
        ],
        ids=["gaussian", "sigma0", "start", "resample", "one-leg"],
    )
    def test_batch_equals_per_seed_walks(self, walk):
        seeds = [0, 3, 17, 2**40 + 5, 123_456]
        batch = walk.generate_batch_seeded(seeds)
        assert_bit_identical(
            batch,
            TraceBatch.from_traces(walk.generate_seeded(s) for s in seeds),
        )

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            RandomWalk().generate_batch_seeded([])


class TestConcatenate:
    def test_equals_one_from_traces_pass(self):
        traces = ragged_traces(n=7)
        parts = [traces[:2], traces[2:3], traces[3:]]
        joined = TraceBatch.concatenate(
            TraceBatch.from_traces(p) for p in parts
        )
        assert_bit_identical(joined, TraceBatch.from_traces(traces))

    def test_single_batch_passes_through(self):
        batch = TraceBatch.from_traces(ragged_traces(n=3))
        assert TraceBatch.concatenate([batch]) is batch

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one batch"):
            TraceBatch.concatenate([])

    def test_mixed_population_pads_once(self):
        """urban_mix (random-walk and Manhattan cohorts of different
        widths): the population batch is the per-UE walks padded once."""
        pop = named_population("urban_mix", 30, base_seed=400)
        for lo, hi in ((0, 30), (4, 21)):
            want = []
            for cohort, c_lo, c_hi in pop.cohort_slices():
                for g in range(max(lo, c_lo), min(hi, c_hi)):
                    want.append(cohort.model.generate_seeded(400 + g))
            assert_bit_identical(
                pop.traces(lo, hi), TraceBatch.from_traces(want)
            )
