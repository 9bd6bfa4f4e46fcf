"""Random streams: the Philox skip-ahead leaves the state a draw would, and
every seeded entry point takes only seeds in [0, 2^64)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartcea.dgp import DgpConfig, simulate_smart, true_values
from smartcea.inference import bootstrap_ci
from smartcea.rng import PURPOSE_SIMULATE, philox_stream, skip_raw

PROPERTY_SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

# Prefix draws that leave the Philox buffer at any position, including the
# 32-bit draws that buffer half of a raw output in ``has_uint32``.
PREFIX_DRAWS = {
    "raw": lambda rng, j: rng.bit_generator.random_raw(j),
    "random": lambda rng, j: rng.random(j),
    "normal": lambda rng, j: rng.standard_normal(j),
    "exponential": lambda rng, j: rng.standard_exponential(j),
    "float32": lambda rng, j: rng.random(j, dtype=np.float32),
    "uint32": lambda rng, j: rng.integers(0, 2**32, size=j, dtype=np.uint32),
}


def _state(rng):
    """The bit generator's full state as plain, comparable values."""
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(),
        state["state"]["key"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


def _next_draws(rng):
    return (
        rng.bit_generator.random_raw(5).tolist(),
        rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
        rng.random(3).tolist(),
        rng.standard_normal(3).tolist(),
    )


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**64 - 1),
    prefix=st.lists(
        st.tuples(st.sampled_from(sorted(PREFIX_DRAWS)), st.integers(0, 9)),
        max_size=6,
    ),
    k=st.integers(0, 3000),
)
# No skip; a half raw output held in has_uint32; a buffer left at its last
# slot; long prefixes and the largest skip.
@example(seed=0, prefix=[], k=0)
@example(seed=2**64 - 1, prefix=[("uint32", 1)], k=3)
@example(seed=3, prefix=[("raw", 3), ("float32", 1)], k=1)
@example(seed=7, prefix=[("normal", 9), ("exponential", 5), ("random", 9)], k=3000)
def test_skip_raw_leaves_the_state_random_raw_would(seed, prefix, k):
    skipped = philox_stream(seed, PURPOSE_SIMULATE, 0)
    drawn = philox_stream(seed, PURPOSE_SIMULATE, 0)
    for rng in (skipped, drawn):
        for kind, j in prefix:
            PREFIX_DRAWS[kind](rng, j)
    skip_raw(skipped, k)
    drawn.bit_generator.random_raw(k)
    assert _state(skipped) == _state(drawn)
    assert _next_draws(skipped) == _next_draws(drawn)


def test_skip_raw_touches_only_the_bit_generator():
    # An object with nothing but the bit generator: a Generator method call
    # would raise AttributeError.
    bits = philox_stream(3, PURPOSE_SIMULATE, 0).bit_generator
    skip_raw(SimpleNamespace(bit_generator=bits), 262144 - 1809)
    reference = philox_stream(3, PURPOSE_SIMULATE, 0)
    reference.bit_generator.random_raw(262144 - 1809)
    assert _state(SimpleNamespace(bit_generator=bits)) == _state(reference)


def test_skip_raw_rejects_a_negative_count():
    with pytest.raises(ValueError, match="nonnegative"):
        skip_raw(philox_stream(0, PURPOSE_SIMULATE, 0), -1)


BAD_SEEDS = [2**64, -1, 1.5]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_philox_stream_refuses_seeds_outside_the_rule(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        philox_stream(seed, PURPOSE_SIMULATE, 0)


@pytest.mark.parametrize(
    "purpose, block, message",
    [
        (1 << 16, 0, "purpose must fit in 16 bits"),
        (-1, 0, "purpose must fit in 16 bits"),
        (PURPOSE_SIMULATE, 1 << 48, "block must fit in 48 bits"),
        (PURPOSE_SIMULATE, -1, "block must fit in 48 bits"),
    ],
    ids=["purpose-2^16", "purpose-negative", "block-2^48", "block-negative"],
)
def test_philox_stream_refuses_a_cell_outside_the_lattice(purpose, block, message):
    with pytest.raises(ValueError) as err:
        philox_stream(3, purpose, block)
    assert str(err.value) == message


def test_numpy_integer_seeds_name_the_same_stream():
    for seed in (0, 7, 2**64 - 1):
        a = philox_stream(np.uint64(seed), PURPOSE_SIMULATE, 0).random(4)
        b = philox_stream(seed, PURPOSE_SIMULATE, 0).random(4)
        assert np.array_equal(a, b)


SEEDED = {
    "DgpConfig": lambda seed: DgpConfig(seed=seed),
    "true_values": lambda seed: true_values(DgpConfig(), mc_draws=10_000, seed=seed),
    "bootstrap_ci": lambda seed: bootstrap_ci(
        simulate_smart(DgpConfig(n=50, seed=1)), lambda d: 0.0, n_replicates=100, seed=seed
    ),
}


@pytest.mark.parametrize("entry", sorted(SEEDED))
@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_seeded_entry_points_refuse_seeds_outside_the_rule(entry, seed):
    # 2^64 would alias seed 0, -1 seed 2^64 - 1 and 1.5 seed 1.
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        SEEDED[entry](seed)
