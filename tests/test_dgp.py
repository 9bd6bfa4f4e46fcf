"""Benchmark generative process: determinism, truth table, calibration,
and the finite-support test bed."""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smartcea import dgp
from smartcea.core import RegimeSpec
from smartcea.dgp import (
    C_CONSTANTS,
    Y_CONSTANTS,
    DgpConfig,
    embedded_regimes,
    simulate_smart,
    true_values,
)
from smartcea.glm import expit, logit
from smartcea.inference import MIN_DENOMINATOR
from smartcea.rng import BLOCK

from discrete_bed import (
    DiscreteDgp,
    discrete_true_values,
    empirical_discrete,
    enumerate_paths,
    gcomp_discrete,
    make_discrete_dgp,
    sample_discrete,
)
from oracles import (
    CELL_INDEX_MAP,
    TARGET_EY,
    TARGET_ROUNDING,
    NoConsistentIndexing,
    calibrate_regime_indexing,
    per_regime_true_values,
    reference_simulate_smart,
    target_se,
)

# Independently computed high-precision Monte Carlo values (2e7 common-
# random-number draws), frozen here as the oracle for the generator's law.
ORACLE_EY = (0.60599, 0.86343, 0.60599, 0.85169, 0.64192, 0.87780, 0.64192, 0.86606)
ORACLE_EC = (3.9785, 7.0997, 6.3117, 6.6156, 4.0078, 7.3286, 6.3410, 6.8445)
ORACLE_EY_TOL = 0.0005  # ~4 oracle standard errors on a binary mean
ORACLE_EC_TOL = 0.01


def test_embedded_regimes_match_published_numbering():
    # (id, d1, d2_if_lapse, d2_if_no_lapse) of every regime, in order.
    assert [(r.id, r.d1, r.d2_if_lapse, r.d2_if_no_lapse) for r in embedded_regimes()] == [
        (1, 0, 1, 3),
        (2, 1, 1, 3),
        (3, 0, 2, 3),
        (4, 1, 2, 3),
        (5, 0, 1, 4),
        (6, 1, 1, 4),
        (7, 0, 2, 4),
        (8, 1, 2, 4),
    ]


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("c_constants", (_NAN,) * 8, "c_constants must be positive and finite"),
        ("c_constants", (*C_CONSTANTS[:7], _INF), "c_constants must be positive and finite"),
        ("c_constants", (-_INF, *C_CONSTANTS[1:]), "c_constants must be positive and finite"),
        ("c_constants", (0.0, *C_CONSTANTS[1:]), "c_constants must be positive and finite"),
        ("c_constants", (*C_CONSTANTS[:3], -0.5, *C_CONSTANTS[4:]),
         "c_constants must be positive and finite"),
        ("c_constants", C_CONSTANTS[:7], "must each have 8 entries"),
        ("cost_scale", _NAN, "cost_scale must be positive and finite"),
        ("cost_scale", _INF, "cost_scale must be positive and finite"),
        ("cost_scale", -_INF, "cost_scale must be positive and finite"),
        ("cost_scale", 0.0, "cost_scale must be positive and finite"),
        ("cost_scale", -5.0, "cost_scale must be positive and finite"),
    ],
    ids=["c-nan", "c-inf", "c-minus-inf", "c-zero", "c-negative", "c-seven",
         "scale-nan", "scale-inf", "scale-minus-inf", "scale-zero", "scale-negative"],
)
def test_config_refuses_costs_that_are_not_positive_and_finite(field, value, message):
    # A NaN rate gave an all-NaN truth table without an error, and an
    # infinite one all-zero costs; both are refused when the config is built.
    with pytest.raises(ValueError, match=message):
        DgpConfig(**{field: value})


@pytest.mark.parametrize("p", [0.0, 1.0, _NAN])
def test_config_refuses_outcome_probabilities_outside_the_open_unit_interval(p):
    with pytest.raises(ValueError) as err:
        DgpConfig(y_constants=(*Y_CONSTANTS[:7], p))
    assert str(err.value) == "y_constants must lie strictly inside (0, 1)"


def test_simulate_is_deterministic():
    a = simulate_smart(DgpConfig(n=400, seed=9))
    b = simulate_smart(DgpConfig(n=400, seed=9))
    for name in ("x1", "a1", "l2", "s2", "a2", "y", "c"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_simulate_seed_changes_output():
    a = simulate_smart(DgpConfig(n=400, seed=9))
    b = simulate_smart(DgpConfig(n=400, seed=10))
    assert not np.array_equal(a.x1, b.x1)


def test_simulate_prefix_stable():
    # Growing n extends the sample without disturbing earlier records.
    small = simulate_smart(DgpConfig(n=500, seed=3))
    large = simulate_smart(DgpConfig(n=1809, seed=3))
    for name in ("x1", "a1", "l2", "s2", "a2", "y", "c"):
        assert np.array_equal(getattr(small, name), getattr(large, name)[:500])


COLUMNS = ("x1", "a1", "l2", "s2", "a2", "y", "c")


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 7, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 1809, BLOCK - 1, BLOCK, BLOCK + 1])
def test_simulate_is_byte_identical_to_full_block_draws(n, seed):
    # Skipping the draws a short block does not read changes no byte.
    config = DgpConfig(n=n, seed=seed)
    fast = simulate_smart(config)
    full = reference_simulate_smart(config)
    for name in COLUMNS:
        got, want = getattr(fast, name), getattr(full, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _with_fast_thread_switching(fn):
    """fn() with the interpreter switching threads every microsecond, which
    would expose a draw buffer read before it is drawn or drawn over while it
    is read; asserts that no thread is left behind, also on an error."""
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(interval)
        assert threading.active_count() == threads


def test_simulate_trials_match_full_block_draws_trial_by_trial():
    # The helper draws each later block into the one normals buffer; the
    # multi-block trial followed by another is where it is refilled across
    # trials.
    configs = [
        DgpConfig(n=n, seed=seed)
        for n, seed in ((1, 0), (1809, 7), (BLOCK, 2**64 - 1), (BLOCK + 1, 3),
                        (3 * BLOCK + 129, 11), (5, 0))
    ]
    got = _with_fast_thread_switching(lambda: list(dgp.simulate_trials(configs)))
    assert len(got) == len(configs)
    for fast, config in zip(got, configs):
        full = reference_simulate_smart(config)
        for name in COLUMNS:
            assert getattr(fast, name).dtype == getattr(full, name).dtype, name
            assert getattr(fast, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize(
    "run",
    [lambda: simulate_smart(DgpConfig(n=3 * BLOCK + 129)),
     lambda: true_values(DgpConfig(), mc_draws=3 * BLOCK)],
    ids=["trials", "truth"],
)
def test_a_pipeline_raises_the_helper_threads_error_and_joins_it(monkeypatch, run):
    # Blocks after the first are drawn on the helper thread.
    error = RuntimeError("no stream for block 2")
    stream = dgp.philox_stream

    def fail_on_block_2(seed, purpose, block):
        if block == 2:
            raise error
        return stream(seed, purpose, block)

    monkeypatch.setattr(dgp, "philox_stream", fail_on_block_2)
    with pytest.raises(RuntimeError) as raised:
        _with_fast_thread_switching(run)
    assert raised.value is error


def _no_thread(*args):
    raise AssertionError("started a helper thread")


def test_one_block_trial_or_none_starts_no_thread(monkeypatch):
    monkeypatch.setattr(dgp, "ThreadPoolExecutor", _no_thread)
    assert _with_fast_thread_switching(lambda: list(dgp.simulate_trials([]))) == []
    one_block = _with_fast_thread_switching(lambda: simulate_smart(DgpConfig(n=BLOCK, seed=3)))
    assert one_block.n == BLOCK
    table = _with_fast_thread_switching(lambda: true_values(DgpConfig(), mc_draws=BLOCK))
    assert table.mc_draws == BLOCK


def _logged_draw(log, fail_at=None):
    """A toy draw for ``dgp._prefetched``: job k logs ("start", k, thread)
    and ("end", k), sleeping between them so that the other thread runs,
    and returns (k,), or raises ``fail_at[1]`` when k is ``fail_at[0]``."""
    def draw(k):
        log.append(("start", k, threading.get_ident()))
        time.sleep(0.002)
        if fail_at is not None and k == fail_at[0]:
            raise fail_at[1]
        log.append(("end", k))
        return (k,)
    return draw


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_prefetched_draws_in_order_one_job_at_a_time_one_ahead(monkeypatch, count):
    # The trial's one normals buffer needs no two jobs at once; the truth
    # table's two alternating buffers need job k + 2 to wait until the
    # caller is done with result k, that is, asks for result k + 1.
    if count < 2:
        monkeypatch.setattr(dgp, "ThreadPoolExecutor", _no_thread)
    log, got = [], []

    def consume():
        results = dgp._prefetched(_logged_draw(log), [(k,) for k in range(count)])
        while True:
            log.append(("ask", len(got)))
            try:
                got.append(next(results))
            except StopIteration:
                return

    _with_fast_thread_switching(consume)
    assert got == [(k,) for k in range(count)]
    jobs = [event[:2] for event in log if event[0] != "ask"]
    assert jobs == [(edge, k) for k in range(count) for edge in ("start", "end")]
    position = {event[:2]: i for i, event in enumerate(log)}
    for k in range(count - 2):
        assert position[("ask", k + 1)] < position[("start", k + 2)], k
    # Job 0 runs on the calling thread, every later job on one helper.
    main = threading.get_ident()
    threads = [event[2] for event in log if event[0] == "start"]
    helpers = set(threads[1:])
    assert threads[:1] == [main][:count] and main not in helpers and len(helpers) == (count > 1)


def test_prefetched_raises_the_helper_threads_error_and_joins_it():
    error = RuntimeError("job 2 failed")
    log = []
    results = dgp._prefetched(_logged_draw(log, fail_at=(2, error)), [(k,) for k in range(4)])
    with pytest.raises(RuntimeError) as raised:
        _with_fast_thread_switching(lambda: list(results))
    assert raised.value is error
    assert [event[:2] for event in log][-1] == ("start", 2)


def test_prefetched_closed_after_its_first_result_joins_the_helper():
    log = []

    def first_then_close():
        results = dgp._prefetched(_logged_draw(log), [(k,) for k in range(3)])
        first = next(results)
        results.close()
        return first

    assert _with_fast_thread_switching(first_then_close) == (0,)
    # Job 1, drawn ahead when the caller closed, ends before close returns;
    # job 2 never starts.
    assert [event[:2] for event in log] == [("start", 0), ("end", 0), ("start", 1), ("end", 1)]


def test_simulate_randomization_probabilities():
    data = simulate_smart(DgpConfig(n=1_000_000, seed=17))
    assert abs(data.a1.mean() - 0.5) < 0.005
    lapse = data.l2 == 1
    assert abs((data.a2[lapse] == 1).mean() - 0.5) < 0.005
    assert abs((data.a2[~lapse] == 3).mean() - 0.5) < 0.005
    # Branch supports respected everywhere.
    assert set(np.unique(data.a2[lapse])) == {1, 2}
    assert set(np.unique(data.a2[~lapse])) == {3, 4}


def test_observed_data_law_matches_oracle_moments():
    data = simulate_smart(DgpConfig(n=1_000_000, seed=23))
    # X1 standard normal, S2 centered at X1 + 2 A1.
    assert abs(data.x1[:, 0].mean()) < 0.005
    assert abs(data.x1[:, 0].std() - 1.0) < 0.005
    resid = data.s2 - (data.x1[:, 0] + 2.0 * data.a1)
    assert abs(resid.mean()) < 0.005
    assert abs(resid.std() - 1.0) < 0.005


def test_truth_table_matches_frozen_oracle():
    table = true_values(DgpConfig(seed=2), mc_draws=200_000, seed=2)
    for k in range(8):
        tol_y = ORACLE_EY_TOL + 4.0 * table.mc_se_ey[k]
        tol_c = ORACLE_EC_TOL + 4.0 * table.mc_se_ec[k]
        assert abs(table.ey[k] - ORACLE_EY[k]) < tol_y, f"ey regime {k + 1}"
        assert abs(table.ec[k] - ORACLE_EC[k]) < tol_c, f"ec regime {k + 1}"


def test_truth_table_published_anchor_regime_2():
    # The effect mean for regime 2 sits far from any degeneracy; compare it
    # against the published value directly.  (Cost columns carry both heavy
    # tails and published rounding; the frozen oracle test bounds those.)
    table = true_values(DgpConfig(seed=4), mc_draws=500_000, seed=4)
    assert abs(table.ey[1] - TARGET_EY[1]) < 0.005


def test_truth_shared_randomness_makes_equal_laws_exactly_equal():
    # Regimes 1 and 3 share d1 = 0 and the same outcome constants on every
    # reachable cell, so under common random numbers their effect draws
    # coincide pathwise; same for 5 and 7.
    assert Y_CONSTANTS[0] == Y_CONSTANTS[2]
    table = true_values(DgpConfig(seed=6), mc_draws=100_000, seed=6)
    assert table.ey[0] == table.ey[2]
    assert table.ey[4] == table.ey[6]
    assert table.rd_eff[2] == 0.0
    assert np.isnan(table.icer[2])


def test_truth_table_internal_identities():
    table = true_values(DgpConfig(seed=8), mc_draws=100_000, seed=8)
    assert table.rd_cost[0] == 0.0
    assert table.rd_eff[0] == 0.0
    assert np.isnan(table.icer[0])
    for k in range(1, 8):
        assert np.isclose(table.rd_eff[k], (table.ey[k] - table.ey[0]) * 100.0)
        assert np.isclose(table.rd_cost[k], table.ec[k] - table.ec[0])
        if np.isfinite(table.icer[k]):
            assert abs(table.icer[k] * table.rd_eff[k] - table.rd_cost[k]) < 1e-12


def test_truth_icer_is_undefined_below_the_ratio_rules_denominator():
    # inference.icer refuses |effect difference| < MIN_DENOMINATOR, and the
    # truth table states the same rule.
    regs = embedded_regimes()[:3]
    sum_y = np.array([5000.0, 5000.0 + 5e-11, 6000.0])
    sum_c = np.array([100.0, 200.0, 300.0])
    table = dgp._finish_truth(regs, sum_y, sum_c, sum_c**2, 10_000, reference_id=1)
    assert 0.0 < table.rd_eff[1] < MIN_DENOMINATOR
    assert np.isnan(table.icer[1])
    assert table.icer[2] == table.rd_cost[2] / table.rd_eff[2]


def test_truth_is_deterministic_given_seed():
    a = true_values(DgpConfig(seed=5), mc_draws=100_000, seed=5)
    b = true_values(DgpConfig(seed=5), mc_draws=100_000, seed=5)
    assert np.array_equal(a.ey, b.ey)
    assert np.array_equal(a.ec, b.ec)


def test_icer_for_lookup():
    table = true_values(DgpConfig(seed=5), mc_draws=100_000, seed=5)
    assert table.icer_for(2) == table.icer[1]
    with pytest.raises(KeyError):
        table.icer_for(99)


_TRUTH_FIELDS = ("ey", "ec", "rd_cost", "rd_eff", "icer", "mc_se_ey", "mc_se_ec")
_Y_7_8_SWAPPED = Y_CONSTANTS[:6] + (Y_CONSTANTS[7], Y_CONSTANTS[6])
# Cell (0, 1, 1) gets 1e-12 and cell (1, 1, 1) gets 1 - 1e-12: at seed 17
# expit(eta) rounds to exactly 1.0 on about 1,400 lapse rows per block of
# the d1 = 1 arm, and falls below 1e-15 on the d1 = 0 arm.
_Y_SATURATED = (1e-12, 1.0 - 1e-12) + Y_CONSTANTS[2:]
# Rates of 1e300 beside rates of 2.0 within one arm: regime 3 pairs lapse
# rate 2.0 with no-lapse rate 1e300, and regime 2 pairs 1e300 with 0.05.  A
# select computed as r_no_lapse + lapse * (r_lapse - r_no_lapse), or the
# other way round, gives rate 0 on the rows of the small rate.
_C_EXTREME = (1e-300, 1e300, 2.0, 2.0, 1e300, *C_CONSTANTS[5:])


@pytest.mark.parametrize(
    ("config", "regime_ids", "mc_draws", "reference_id"),
    [
        (DgpConfig(), None, 300_001, 1),
        (DgpConfig(), (8, 7, 6, 5, 4, 3, 2, 1), 524_289, 4),
        (DgpConfig(), (2, 4, 6), 262_144, 2),
        (DgpConfig(y_constants=_Y_7_8_SWAPPED), None, 300_001, 1),
        (DgpConfig(y_constants=_Y_SATURATED), None, 300_001, 1),
        (DgpConfig(), None, 10_000, 1),
        (DgpConfig(), (7, 2, 5, 1), 300_001, 5),
        (DgpConfig(c_constants=_C_EXTREME), None, 300_001, 1),
        (DgpConfig(y_constants=(0.7,) * 8, c_constants=(0.05,) * 8), None, 300_001, 1),
        (DgpConfig(), None, BLOCK + dgp._PIECE + 1, 1),
        (DgpConfig(), None, 2 * BLOCK, 1),
        (DgpConfig(), None, BLOCK + 129, 1),
        # Each normals buffer is filled again while the other is read.
        (DgpConfig(), None, 3 * BLOCK + 129, 1),
    ],
    ids=["partial-last-block", "reversed-reference-4", "one-arm", "y-7-8-swapped",
         "y-saturated", "min-draws", "shared-options", "extreme-rates",
         "equal-constants", "piece-plus-one", "two-full-blocks", "short-run-tail",
         "four-blocks"],
)
def test_truth_matches_per_regime_oracle_bit_for_bit(
    config, regime_ids, mc_draws, reference_id
):
    by_id = {r.id: r for r in embedded_regimes()}
    regimes = None if regime_ids is None else [by_id[i] for i in regime_ids]
    args = dict(regimes=regimes, mc_draws=mc_draws, seed=17, reference_id=reference_id)
    # The helper thread fills one normals buffer while the pieces read the other.
    got = _with_fast_thread_switching(lambda: true_values(config, **args))
    want = per_regime_true_values(config, **args)
    assert got.regimes == want.regimes
    for name in _TRUTH_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


_PIECE_CUT_LENGTHS = (
    1, 7, 8, 9, 127, 128, 129,
    dgp._PIECE - 1, dgp._PIECE, dgp._PIECE + 1, dgp._PIECE + 8,
    # The last blocks of 300,001 and of 2M draws, and a full block.
    300_001 - BLOCK, 2_000_000 - 7 * BLOCK, BLOCK,
)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("n", _PIECE_CUT_LENGTHS)
def test_piece_sums_added_in_the_pairwise_tree_are_ndarray_sum(n, scale):
    # true_values sums each piece of a block and adds the piece sums back
    # in the tree of numpy's pairwise summation.  Normal values of one scale
    # round differently in almost any other order of the additions; values
    # of widely mixed magnitudes would not show it, since the largest few
    # decide their sum.
    x = np.random.default_rng(n).standard_normal(n) * scale
    lengths = dgp._pairwise_pieces(n)
    assert sum(lengths) == n
    assert max(lengths) <= dgp._PIECE
    bounds = np.cumsum([0, *lengths])
    sums = (x[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:]))
    got = dgp._pairwise_add(n, sums)
    assert got == x.sum(), (
        "numpy's pairwise summation order changed: the piece sums, added in "
        "the tree that dgp._pairwise_pieces assumes, no longer give ndarray.sum()"
    )


def test_truth_table_memory_peak_of_two_blocks():
    # The two normals buffers take 8.4 MB (BLOCK float64 values for each of
    # two normals of two blocks), and a piece's uniforms, exponentials and
    # work buffers 1.1 MB.  The peak was 26.0 MB when the arithmetic ran on
    # whole blocks, and 11.3 MB with five full-block draw buffers.
    tracemalloc.start()
    try:
        true_values(DgpConfig(), mc_draws=2 * BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, f"{peak / 1e6:.1f} MB"


_U_STEP = 2.0**-53  # the grid of Generator.random: U = k * 2**-53


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    eta=st.floats(-40.0, 40.0),
    offset=st.integers(-64, 64) | st.integers(-(2**53), 2**53),
)
# The ends of the eta range, U clamped to the first and last grid point, and
# U a few steps either side of expit(0).
@example(eta=40.0, offset=-64)
@example(eta=-40.0, offset=64)
@example(eta=-20.0, offset=-(2**53))
@example(eta=10.0, offset=2**53)
@example(eta=0.0, offset=5)
@example(eta=0.0, offset=-5)
def test_logit_space_draw_matches_probability_space_draw(eta, offset):
    # true_values counts Y = 1{U < expit(eta)} as 1{logit(U) < eta}.  In
    # floating point the two can differ only where U lies within 4 grid
    # steps (4 ulp of numbers in [0.5, 1)) of expit(eta).  U = 0 is left
    # out: its logit is -inf, below every eta, and expit(eta) > 0 here.
    # In 2e6 pairs drawn like these, the two disagreed only within one
    # step.  A margin of 4 ulp of expit(eta) itself is too narrow near 0,
    # where the grid is far coarser than the ulp.
    p = float(expit(eta))
    k = min(max(round(p / _U_STEP) + offset, 1), 2**53 - 1)
    u = k * _U_STEP
    assume(abs(u - p) > 4 * _U_STEP)
    assert (float(logit(u)) < eta) == (u < p)


def _no_draws(*args):
    raise AssertionError("drew before validating the request")


def test_truth_rejects_unknown_reference_before_drawing(monkeypatch):
    bed = make_discrete_dgp(seed=5)
    monkeypatch.setattr(dgp, "philox_stream", _no_draws)
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(ValueError, match="reference regime 42"):
        true_values(DgpConfig(), mc_draws=10_000, reference_id=42)
    with pytest.raises(ValueError, match="reference regime 42"):
        discrete_true_values(bed, mc_draws=10_000, reference_id=42)


def test_truth_refuses_two_regimes_with_one_id_before_drawing(monkeypatch):
    # Both regimes 2 used to be evaluated, and icer_for(2) returned the first.
    monkeypatch.setattr(dgp, "philox_stream", _no_draws)
    regimes = [embedded_regimes()[0], RegimeSpec(2, 1, 1, 3), RegimeSpec(2, 0, 2, 4)]
    with pytest.raises(ValueError, match="regime id 2 names two regimes"):
        true_values(DgpConfig(), regimes=regimes, mc_draws=10_000)


def test_calibration_recovers_default_indexing():
    result = calibrate_regime_indexing(mc_draws=200_000, seed=14)
    assert result.regime_index_map == CELL_INDEX_MAP
    # Deviations from the published table combine its own Monte Carlo error
    # and rounding with the confirmation run's error; bound all three.
    se_e = target_se(result.mc_se_ey, 200_000)
    se_c = target_se(result.mc_se_ec, 200_000)
    assert np.all(np.abs(result.effect_deviation) < 4.0 * se_e + TARGET_ROUNDING)
    assert np.all(np.abs(result.cost_deviation) < 4.0 * se_c + TARGET_ROUNDING)


def test_calibration_gate_allows_for_the_tables_own_error():
    # The regime-3 cost entry sits about one table standard error from the
    # truth.  A gate built from the confirmation run's error alone rejected
    # this call (0.068 against 0.061) and tightened further with more draws.
    result = calibrate_regime_indexing(mc_draws=2_000_000, seed=14)
    assert result.regime_index_map == CELL_INDEX_MAP


def test_calibration_rejects_a_generator_the_table_contradicts():
    # With costs 5% off, the search settles on a wrong assignment whose
    # effect deviations each stay inside the per-entry gate; their sum of
    # squared z-scores does not.
    with pytest.raises(NoConsistentIndexing):
        calibrate_regime_indexing(
            config=DgpConfig(cost_scale=5.25), mc_draws=200_000, seed=14
        )


def test_calibration_follows_permuted_constants():
    # Permute where the constants sit in their vectors; the recovered map
    # must point each cell at the new position of its constants.
    y_swapped = (Y_CONSTANTS[1], Y_CONSTANTS[0]) + Y_CONSTANTS[2:]
    c_swapped = (C_CONSTANTS[1], C_CONSTANTS[0]) + C_CONSTANTS[2:]
    config = DgpConfig(y_constants=y_swapped, c_constants=c_swapped)
    result = calibrate_regime_indexing(config=config, mc_draws=200_000, seed=14)
    expected = dict(CELL_INDEX_MAP)
    expected[(0, 1, 1)], expected[(1, 1, 1)] = 2, 1
    assert result.regime_index_map == expected
    assert result.regime_index_map != CELL_INDEX_MAP


def test_cost_constants_align_with_cost_ordering():
    # Reference regime has by far the largest rate constant, hence the
    # cheapest mean cost; sanity-check the recorded constants themselves.
    assert C_CONSTANTS[0] == max(C_CONSTANTS)
    assert np.argmin(ORACLE_EC) == 0


# ------------------------------------------------------- finite-support bed


def test_enumerate_paths_probabilities_sum_to_one():
    dgp = make_discrete_dgp(seed=5)
    for regime in embedded_regimes():
        total = sum(p for p, *_ in enumerate_paths(dgp, regime))
        assert abs(total - 1.0) < 1e-12


def test_gcomp_hand_computed_example():
    # Fully symmetric tables: every path probability is a product of
    # halves, so ey is 0.5 and ec is the pmf mean regardless of regime.
    dgp = DiscreteDgp(
        p_x1=0.5,
        p_l2=np.full((2, 2), 0.5),
        p_s2=np.full((2, 2, 2), 0.5),
        p_y=np.full((2, 2, 2, 2, 2), 0.5),
        p_c=np.tile(np.array([0.2, 0.3, 0.5]), (2, 2, 2, 2, 2, 1)),
    )
    ey, ec = gcomp_discrete(dgp, RegimeSpec(id=1, d1=0, d2_if_lapse=1, d2_if_no_lapse=3))
    assert abs(ey - 0.5) < 1e-12
    assert abs(ec - (0.3 + 2 * 0.5)) < 1e-12


def test_gcomp_matches_monte_carlo_cross_check():
    dgp = make_discrete_dgp(seed=5)
    table = discrete_true_values(dgp, mc_draws=400_000, seed=9)
    for k, regime in enumerate(table.regimes):
        ey, ec = gcomp_discrete(dgp, regime)
        assert abs(table.ey[k] - ey) < 4.0 * table.mc_se_ey[k] + 1e-9
        assert abs(table.ec[k] - ec) < 4.0 * table.mc_se_ec[k] + 1e-9


def test_empirical_plug_in_consistent_with_gcomp():
    dgp = make_discrete_dgp(seed=5)
    data = sample_discrete(dgp, n=200_000, seed=3)
    regime = embedded_regimes()[1]
    ey_hat, ec_hat = empirical_discrete(data, regime)
    ey, ec = gcomp_discrete(dgp, regime)
    assert abs(ey_hat - ey) < 0.01
    assert abs(ec_hat - ec) < 0.02


def test_zero_cost_pmf_gives_zero_mean_cost():
    pmf = np.zeros((2, 2, 2, 2, 2, 3))
    pmf[..., 0] = 1.0  # all mass on cost 0
    dgp = DiscreteDgp(
        p_x1=0.5,
        p_l2=np.full((2, 2), 0.5),
        p_s2=np.full((2, 2, 2), 0.5),
        p_y=np.full((2, 2, 2, 2, 2), 0.5),
        p_c=pmf,
    )
    _, ec = gcomp_discrete(dgp, embedded_regimes()[0])
    assert ec == 0.0
