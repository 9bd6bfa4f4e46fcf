"""Benchmark generative process: determinism, truth table, calibration,
and the finite-support test bed."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


@pytest.mark.parametrize(
    ("config", "regime_ids", "mc_draws", "reference_id"),
    [
        (DgpConfig(), None, 300_001, 1),
        (DgpConfig(), (8, 7, 6, 5, 4, 3, 2, 1), 524_289, 4),
        (DgpConfig(), (2, 4, 6), 262_144, 2),
        (DgpConfig(y_constants=_Y_7_8_SWAPPED), None, 300_001, 1),
        (DgpConfig(y_constants=_Y_SATURATED), None, 300_001, 1),
    ],
    ids=["partial-last-block", "reversed-reference-4", "one-arm", "y-7-8-swapped",
         "y-saturated"],
)
def test_truth_matches_per_regime_oracle_bit_for_bit(
    config, regime_ids, mc_draws, reference_id
):
    by_id = {r.id: r for r in embedded_regimes()}
    regimes = None if regime_ids is None else [by_id[i] for i in regime_ids]
    args = dict(regimes=regimes, mc_draws=mc_draws, seed=17, reference_id=reference_id)
    got = true_values(config, **args)
    want = per_regime_true_values(config, **args)
    assert got.regimes == want.regimes
    for name in _TRUTH_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


_U_STEP = 2.0**-53  # the grid of Generator.random: U = k * 2**-53


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    eta=st.floats(-40.0, 40.0),
    offset=st.integers(-64, 64) | st.integers(-(2**53), 2**53),
)
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
