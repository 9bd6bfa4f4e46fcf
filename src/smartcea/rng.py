"""Deterministic random streams keyed by (seed, purpose, block).

Every stochastic routine in the package draws from a Philox generator whose
128-bit key packs the user seed in the high word and a purpose tag plus block
index in the low word.  Streams are therefore independent across purposes and
blocks, and a given (seed, purpose, block) always yields the same draws
regardless of chunking or platform.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PURPOSE_SIMULATE",
    "PURPOSE_TRUTH",
    "PURPOSE_BOOTSTRAP",
    "PURPOSE_CALIBRATE",
    "BLOCK",
    "philox_stream",
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

_MASK64 = (1 << 64) - 1


def philox_stream(seed: int, purpose: int, block: int = 0) -> np.random.Generator:
    """Generator for one (seed, purpose, block) cell of the stream lattice."""
    if not 0 <= purpose < (1 << 16):
        raise ValueError("purpose must fit in 16 bits")
    if not 0 <= block < (1 << 48):
        raise ValueError("block must fit in 48 bits")
    key = ((int(seed) & _MASK64) << 64) | (purpose << 48) | block
    return np.random.Generator(np.random.Philox(key=key))
