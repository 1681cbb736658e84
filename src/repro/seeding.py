"""Many seeded generators at once.

A fleet seeds one stream per UE (its walk, its fading process, its
speed draw), and ``np.random.default_rng(seed)`` costs about 5 µs a
seed, most of it in ``SeedSequence.generate_state``'s ``errstate``.
:func:`seeded_generators` reproduces ``default_rng(seed)`` for every
seed of a range in one pass:

* ``SeedSequence``'s entropy mixing and ``generate_state(4, uint64)``
  are 32-bit arithmetic whose hash constants do not depend on the data,
  so they run once over all seeds as ``uint32`` arrays, grouped by the
  seeds' number of 32-bit words;
* each ``PCG64`` is then seeded from its four precomputed words through
  :class:`_PCG64Words`, a minimal ``ISeedSequence`` — NumPy's
  documented hook ("BitGenerator implementations should treat any
  object that adheres to this interface as a seed sequence").  It is
  registered as one on first use, since importing ``numpy.random``
  costs about 6 ms that a process seeding nothing need not pay.

The bit state equals ``default_rng(seed)``'s, and every call checks
that for its first seed, so a NumPy release that changes
``SeedSequence`` or ``PCG64`` seeding fails loudly instead of drawing
other streams.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

import numpy as np

__all__ = ["seeded_generators"]

# numpy/random/bit_generator.pyx: SeedSequence's hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


class _PCG64Words:
    """The four ``uint64`` words ``SeedSequence(seed).generate_state(4,
    np.uint64)`` returns, computed ahead; all ``PCG64`` asks of a seed
    sequence.  It cannot ``spawn()``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four uint64 words are held")
        return self.words


@functools.cache
def _register() -> None:
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PCG64Words)


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_PCG64Words(words)))


def _hashmix(
    value: np.ndarray, const: list[int], mult: int = _MULT_A
) -> np.ndarray:
    """``hashmix`` of ``value``, advancing the shared ``const[0]`` by
    ``mult`` (``generate_state`` hashes the same way with its own
    constants)."""
    value = value ^ np.uint32(const[0])
    const[0] = (const[0] * mult) & _MASK32
    value *= np.uint32(const[0])
    value ^= value >> np.uint32(16)
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    out ^= out >> np.uint32(16)
    return out


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``(n, 4)`` ``uint64`` PCG64 seeding words of ``n`` seeds whose
    entropy is ``(n, L)`` ``uint32`` words, least significant first."""
    const = [_INIT_A]
    n_words = entropy.shape[1]
    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [
        _hashmix(entropy[:, i] if i < n_words else zero, const)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[:, src], const))
    # generate_state(4, np.uint64): eight uint32 words cycling the pool,
    # paired little-endian into four uint64 words
    state = np.empty((entropy.shape[0], 2 * _POOL_SIZE), dtype=np.uint32)
    const = [_INIT_B]
    for i in range(2 * _POOL_SIZE):
        state[:, i] = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
    words = state.astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def _seed_array(seeds: Sequence[int]) -> np.ndarray:
    """The seeds as an integer array, or an object array of Python
    ints when some do not fit 64 bits."""
    if isinstance(seeds, range) and len(seeds):
        last = seeds[-1]
        if 0 <= min(seeds.start, last) and max(seeds.start, last) < 2**63:
            return np.arange(seeds.start, seeds.stop, seeds.step)
    arr = np.asarray(seeds)
    if arr.ndim != 1:
        raise ValueError(f"seeds must be one-dimensional, got {arr.shape}")
    if not arr.size or arr.dtype.kind in "iu":
        return arr
    # Python ints past int64 come out as an object array, or as floats
    # when mixed with small ones
    arr = np.asarray(seeds, dtype=object)
    if not all(
        isinstance(s, (int, np.integer)) and not isinstance(s, bool)
        for s in arr
    ):
        raise TypeError("seeds must be integers")
    return arr


def _pcg64_words(seeds: Sequence[int]) -> np.ndarray:
    """``(n, 4)`` ``uint64``: ``SeedSequence(s).generate_state(4,
    np.uint64)`` of every seed ``s``."""
    arr = _seed_array(seeds)
    negative = arr < 0
    if negative.any():
        raise ValueError(
            f"seed {int(arr[negative][0])} is negative; seeds must be "
            "non-negative, as default_rng's"
        )
    if arr.dtype.kind == "O":
        # beyond 64 bits: each seed's 32-bit words, least significant
        # first, zero-padded to the longest seed's
        lengths = np.array(
            [max(1, -(-int(s).bit_length() // 32)) for s in arr]
        )
        entropy = np.zeros((arr.shape[0], lengths.max()), dtype=np.uint32)
        for row, seed, n_words in zip(entropy, arr, lengths.tolist()):
            row[:n_words] = np.frombuffer(
                int(seed).to_bytes(4 * n_words, "little"), dtype="<u4"
            )
    else:
        arr = arr.astype(np.uint64)
        entropy = np.stack(
            [arr & np.uint64(_MASK32), arr >> np.uint64(32)], axis=1
        ).astype(np.uint32)
        lengths = np.where(entropy[:, 1] > 0, 2, 1)
    out = np.empty((arr.shape[0], 4), dtype=np.uint64)
    # SeedSequence's rounds depend on the entropy's word count only
    for n_words in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == n_words)
        out[rows] = _state_words(entropy[rows, :n_words])
    return out


def seeded_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(s)`` for every seed ``s``, in order, with
    the same bit state.

    ``seeds`` is a ``range``, a list or an array of non-negative
    integers (of any size); a negative seed is refused with
    ``ValueError``, as ``default_rng`` refuses it.  The seeding words of
    all seeds are computed here, at once; the generators are built one
    at a time as the iterator is consumed.  They cannot ``spawn()``:
    their seed sequence holds the derived words, not the entropy.

    Raises ``RuntimeError`` if the first generator's state differs from
    ``default_rng(seeds[0])``'s, which means the installed NumPy seeds
    ``PCG64`` another way.
    """
    words = _pcg64_words(seeds)
    if not words.shape[0]:
        return iter(())
    _register()
    first = _generator(words[0])
    if first.bit_generator.state != np.random.default_rng(
        seeds[0]
    ).bit_generator.state:
        raise RuntimeError(
            f"NumPy {np.__version__} seeds PCG64 differently from the "
            "SeedSequence algorithm repro.seeding reproduces"
        )
    return itertools.chain((first,), map(_generator, words[1:]))
