"""Deterministic random streams keyed by (seed, purpose, block).

Every stochastic routine in the package draws from a Philox generator whose
128-bit key packs the user seed in the high word and a purpose tag plus block
index in the low word.  Streams are therefore independent across purposes and
blocks, and a given (seed, purpose, block) always yields the same draws
regardless of chunking or platform.  A seed is an integer in [0, 2^64), so
distinct seeds never share a key; ``check_seed`` refuses anything else.

Philox is counter-based, so a stream can be moved past raw outputs it does
not need without computing them (``skip_raw``).
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "PURPOSE_SIMULATE",
    "PURPOSE_TRUTH",
    "PURPOSE_BOOTSTRAP",
    "PURPOSE_CALIBRATE",
    "BLOCK",
    "check_seed",
    "philox_stream",
    "skip_raw",
]

PURPOSE_SIMULATE = 1
PURPOSE_TRUTH = 2
PURPOSE_BOOTSTRAP = 3
# Drawn only by the calibration search in tests/oracles.py; reserved here so
# no library stream takes the tag.
PURPOSE_CALIBRATE = 4

# Rows per block when a routine chunks its draws.  Fixed: changing it would
# change which stream a given row draws from.
BLOCK = 262144

# Raw 64-bit outputs per Philox counter increment (its 4x64 output buffer).
_PHILOX_WORDS = 4


def check_seed(seed: int) -> int:
    """``seed`` as an int; ``ValueError`` unless an integer in [0, 2^64) (numpy's too)."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or not 0 <= value < (1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return value


def philox_stream(seed: int, purpose: int, block: int = 0) -> np.random.Generator:
    """Generator for one (seed, purpose, block) cell of the stream lattice."""
    if not 0 <= purpose < (1 << 16):
        raise ValueError("purpose must fit in 16 bits")
    if not 0 <= block < (1 << 48):
        raise ValueError("block must fit in 48 bits")
    key = (check_seed(seed) << 64) | (purpose << 48) | block
    return np.random.Generator(np.random.Philox(key=key))


def skip_raw(rng: np.random.Generator, k: int) -> None:
    """Move a Philox stream past its next ``k`` raw 64-bit outputs.

    Leaves exactly the state ``rng.bit_generator.random_raw(k)`` would, at
    the cost of at most eight raw outputs: the rest of the buffered counter
    block is drawn, the whole blocks after it are skipped with
    ``Philox.advance``, and the last block is drawn so the buffer holds what
    it would.  ``advance`` clears the buffered 32-bit half output, which is
    put back.  Only the bit generator is touched, never a ``Generator``
    method, so no variate is drawn.  ``Generator.random`` (float64) takes
    exactly one raw output per value, so skipping ``k`` outputs skips ``k``
    uniforms.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    bits = rng.bit_generator
    before = bits.state
    head = min(k, _PHILOX_WORDS - before["buffer_pos"])
    if head:
        bits.random_raw(head)
    k -= head
    if not k:
        return
    whole = (k - 1) // _PHILOX_WORDS
    if whole:
        bits.advance(whole)
    bits.random_raw(k - whole * _PHILOX_WORDS)
    if whole and (before["has_uint32"] or before["uinteger"]):
        after = bits.state
        after["has_uint32"] = before["has_uint32"]
        after["uinteger"] = before["uinteger"]
        bits.state = after
