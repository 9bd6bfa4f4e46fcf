"""Regime-mean estimators: exact identities, convergence anchors, and
failure modes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartcea import estimate
from smartcea.core import OUTCOMES, Dataset, EstimationFailure, RegimeSpec, consistency_mask
from smartcea.dgp import DgpConfig, embedded_regimes, simulate_smart
from smartcea.estimate import (
    G_TRUNCATION,
    GModel,
    RegimeMeanRequest,
    ZeroSupport,
    _design,
    estimate_g,
    ipw_mean,
    regime_mean,
    tmle_mean,
)
from smartcea.glm import SeparationDetected, expit, fit_logistic, logit

from discrete_bed import empirical_discrete, gcomp_discrete, make_discrete_dgp, sample_discrete
from oracles import TARGET_EC, TARGET_EY, reference_tmle_mean
from trials import trial as shaped_trial, trials


def _request(regime, outcome, estimator, g, saturated=False):
    return RegimeMeanRequest(
        regime=regime, outcome=outcome, estimator=estimator, g=g, saturated=saturated
    )


def _synthetic(n=200, seed=0, a1_value=None, a2_by_a1=False):
    rng = np.random.default_rng(seed)
    a1 = np.full(n, a1_value) if a1_value is not None else rng.integers(0, 2, n)
    l2 = rng.integers(0, 2, n)
    s2 = rng.normal(size=n)
    if a2_by_a1:
        a2 = np.where(l2 == 1, np.where(a1 == 1, 1, 2), np.where(a1 == 1, 3, 4))
    else:
        a2 = np.where(l2 == 1, rng.integers(1, 3, n), rng.integers(3, 5, n))
    return Dataset(
        x1=rng.normal(size=n),
        a1=a1,
        l2=l2,
        s2=s2,
        a2=a2,
        y=rng.integers(0, 2, n),
        c=rng.exponential(size=n),
    )


def test_known_g_is_uniform_over_supports(g_known):
    assert np.allclose(g_known.p_a1, 0.5)
    assert np.allclose(g_known.p_a2, 0.5)


def test_fitted_g_recovers_design_probabilities():
    data = simulate_smart(DgpConfig(n=100_000, seed=31))
    g = estimate_g(data, "fitted")
    assert np.all(np.abs(g.p_a1 - 0.5) < 0.02)
    assert np.all(np.abs(g.p_a2 - 0.5) < 0.02)


def test_fitted_g_respects_truncation():
    # Stage-1 treatment that follows x1 closely, so fitted P(A1 = 1 | X1)
    # leaves [G_TRUNCATION, 1 - G_TRUNCATION] in both tails; record 0 got
    # the treatment its covariate makes least likely.
    rng = np.random.default_rng(3)
    n = 2000
    x1 = rng.normal(scale=2.0, size=n)
    x1[0] = -5.0
    a1 = (rng.random(n) < expit(3.0 * x1)).astype(np.int64)
    a1[0] = 1
    l2 = (rng.random(n) < 0.5).astype(np.int64)
    a2 = np.where(l2 == 1, 1, 3) + (rng.random(n) < 0.5)
    data = Dataset(
        x1=x1, a1=a1, l2=l2, s2=rng.normal(size=n), a2=a2,
        y=(rng.random(n) < 0.5).astype(np.int64), c=rng.exponential(size=n),
    )
    g = estimate_g(data, "fitted")
    for probs in (g.p_a1, g.p_a2):
        assert np.all(probs >= G_TRUNCATION)
        assert np.all(probs <= 1.0 - G_TRUNCATION)
    assert g.p_a1[0] == G_TRUNCATION


def test_fitted_g_truncates_at_one_percent_on_a_skewed_arm():
    # 15 of these 300 records take the rare stage-1 arm.  The fitted
    # P(A1 | X1) of the common arm passes 0.99 on 33 records, which are cut
    # to 1 - 0.01, and the rare arm's lowest stays inside (0.01, 0.02).  The
    # literal pins the truncation value; G_TRUNCATION pins only its use.
    g = estimate_g(shaped_trial(300, 46, arms="skewed"), "fitted")
    assert g.p_a1.max() == 1.0 - 0.01
    assert np.count_nonzero(g.p_a1 == 1.0 - 0.01) == 33
    assert 0.01 < g.p_a1.min() < 0.02


def test_estimate_g_rejects_unknown_kind(trial):
    with pytest.raises(ValueError):
        estimate_g(trial, "oracle")


def test_request_validation(trial, g_known, regimes):
    with pytest.raises(ValueError):
        _request(regimes[0], "z", "ipw", g_known)
    with pytest.raises(ValueError):
        _request(regimes[0], "y", "gcomp", g_known)


def test_degenerate_stage1_arm_raises_with_context():
    data = _synthetic(a1_value=1)
    with pytest.raises(SeparationDetected, match="stage 1"):
        estimate_g(data, "fitted")


def test_separated_stage2_branch_raises_with_context():
    # Stage-2 assignment perfectly determined by the stage-1 arm.
    data = _synthetic(n=400, a2_by_a1=True)
    with pytest.raises(SeparationDetected, match="stage 2, branch"):
        estimate_g(data, "fitted")


def test_fitted_g_refuses_a_trial_with_an_empty_branch():
    with pytest.raises(ZeroSupport) as err:
        estimate_g(shaped_trial(60, 1, branches="zero"), "fitted")
    assert str(err.value) == "no records observed on branch l2=1"


def test_zero_support_raises():
    data = _synthetic(a1_value=0)
    g = estimate_g(data, "known")
    regime = RegimeSpec(id=2, d1=1, d2_if_lapse=1, d2_if_no_lapse=3)
    with pytest.raises(ZeroSupport):
        ipw_mean(data, _request(regime, "y", "ipw", g))


def test_known_g_is_the_design_whatever_options_a_sample_saw():
    # Branch 1 only ever received option 1.  The design still randomized it
    # 1:1, so its known probability stays 1/2 (support inference gave 1).
    rng = np.random.default_rng(3)
    n = 200
    l2 = rng.integers(0, 2, n)
    data = Dataset(
        x1=rng.normal(size=n),
        a1=rng.integers(0, 2, n),
        l2=l2,
        s2=rng.normal(size=n),
        a2=np.where(l2 == 1, 1, rng.integers(3, 5, n)),
        y=rng.integers(0, 2, n),
        c=rng.exponential(size=n),
    )
    g = estimate_g(data, "known")
    assert np.all(g.p_a1 == 0.5)
    assert np.all(g.p_a2 == 0.5)


def test_ipw_solves_weighted_estimating_equation(trial, g_known, regimes):
    regime = regimes[1]
    est = ipw_mean(trial, _request(regime, "y", "ipw", g_known))
    mask = consistency_mask(trial, regime)
    w = np.zeros(trial.n)
    w[mask] = 1.0 / (g_known.p_a1[mask] * g_known.p_a2[mask])
    z = trial.outcome("y")
    assert abs(float(np.sum(w * (z - est.psi)))) < 1e-8
    assert est.psi == pytest.approx(float((w * z).sum() / w.sum()))


@pytest.mark.parametrize("g_kind", ["known", "fitted"])
def test_ipw_influence_curve_is_the_derivative_of_the_hajek_mean(
    trial, g_known, g_fitted, regimes, g_kind
):
    # Weighting one consistent record i by (1 + eps), g otherwise held fixed,
    # moves psi by eps * IC_i / n to first order.  An IC without its
    # 1 / mean(w) scale misses by that factor.
    g = {"known": g_known, "fitted": g_fitted}[g_kind]
    regime = regimes[1]
    i = int(np.flatnonzero(consistency_mask(trial, regime))[0])

    def ipw(p_a1):
        return ipw_mean(trial, _request(regime, "y", "ipw", GModel(p_a1=p_a1, p_a2=g.p_a2)))

    def reweighted_psi(eps):
        p_a1 = g.p_a1.copy()
        p_a1[i] /= 1.0 + eps
        return ipw(p_a1).psi

    eps = 1e-4
    slope = (reweighted_psi(eps) - reweighted_psi(-eps)) / (2.0 * eps)
    assert slope == pytest.approx(ipw(g.p_a1).ic[i] / trial.n, rel=1e-6)


def test_ipw_weights_average_to_one():
    data = simulate_smart(DgpConfig(n=100_000, seed=41))
    g = estimate_g(data, "known")
    regime = embedded_regimes()[1]
    mask = consistency_mask(data, regime)
    w = np.zeros(data.n)
    w[mask] = 1.0 / (g.p_a1[mask] * g.p_a2[mask])
    se = w.std(ddof=1) / np.sqrt(data.n)
    assert abs(w.mean() - 1.0) < 3.0 * se


def test_influence_curves_are_centered(trial, g_known, g_fitted, regimes):
    for regime in regimes:
        for outcome in ("y", "c"):
            for estimator, g in (("ipw", g_known), ("tmle", g_fitted)):
                est = regime_mean(trial, _request(regime, outcome, estimator, g))
                assert abs(float(est.ic.mean())) < 1e-6, (regime.id, outcome, estimator)


def test_estimators_are_record_order_invariant(trial, g_fitted, regimes):
    rng = np.random.default_rng(3)
    perm = rng.permutation(trial.n)
    shuffled = trial.take(perm)
    regime = regimes[3]
    for estimator in ("ipw", "tmle"):
        g_a = estimate_g(trial, "fitted")
        g_b = estimate_g(shuffled, "fitted")
        a = regime_mean(trial, _request(regime, "c", estimator, g_a))
        b = regime_mean(shuffled, _request(regime, "c", estimator, g_b))
        assert abs(a.psi - b.psi) < 1e-9


def test_tmle_scaling_invariance(trial, g_fitted, regimes):
    # An affine cost transform must pass through the estimator exactly.
    a, b = 2.5, 3.0
    scaled = Dataset(
        x1=trial.x1, a1=trial.a1, l2=trial.l2, s2=trial.s2, a2=trial.a2,
        y=trial.y, c=a * trial.c + b,
    )
    regime = regimes[5]
    g_scaled = estimate_g(scaled, "fitted")
    base = tmle_mean(trial, _request(regime, "c", "tmle", g_fitted))
    moved = tmle_mean(scaled, _request(regime, "c", "tmle", g_scaled))
    assert abs(moved.psi - (a * base.psi + b)) < 1e-8
    assert np.allclose(moved.ic, a * base.ic, atol=1e-8)


def test_tmle_constant_outcome_returns_constant():
    data = _synthetic(n=300, seed=8)
    flat = Dataset(
        x1=data.x1, a1=data.a1, l2=data.l2, s2=data.s2, a2=data.a2,
        y=data.y, c=np.full(data.n, 7.0),
    )
    g = estimate_g(flat, "known")
    est = tmle_mean(flat, _request(embedded_regimes()[0], "c", "tmle", g))
    assert est.psi == 7.0
    assert np.all(est.ic == 0.0)


def test_saturated_tmle_equals_nonparametric_plug_in():
    # With saturated working models on a finite-support bed, the targeted
    # estimate collapses to the sequential empirical plug-in.
    dgp = make_discrete_dgp(seed=5)
    data = sample_discrete(dgp, n=2000, seed=3)
    g_known = estimate_g(data, "known")
    g_sat = estimate_g(data, "saturated")
    for regime in embedded_regimes()[:4]:
        ey, ec = empirical_discrete(data, regime)
        for g in (g_known, g_sat):
            est_y = tmle_mean(data, _request(regime, "y", "tmle", g, saturated=True))
            est_c = tmle_mean(data, _request(regime, "c", "tmle", g, saturated=True))
            assert abs(est_y.psi - ey) < 1e-8
            assert abs(est_c.psi - ec) < 1e-8


def test_saturated_g_weights_give_the_empirical_plug_in():
    # Saturated g is each stratum's empirical treatment share, so the IPW
    # weights reproduce the sequential empirical plug-in exactly.
    dgp = make_discrete_dgp(seed=5)
    data = sample_discrete(dgp, n=2000, seed=3)
    g = estimate_g(data, "saturated")
    for regime in embedded_regimes():
        for outcome, want in zip(("y", "c"), empirical_discrete(data, regime)):
            est = ipw_mean(data, _request(regime, outcome, "ipw", g))
            assert abs(est.psi - want) < 1e-10, (regime.id, outcome)


def test_ipw_consistent_for_exact_truth():
    dgp = make_discrete_dgp(seed=5)
    data = sample_discrete(dgp, n=200_000, seed=7)
    g = estimate_g(data, "known")
    for regime in embedded_regimes()[:2]:
        ey, ec = gcomp_discrete(dgp, regime)
        est_y = ipw_mean(data, _request(regime, "y", "ipw", g))
        est_c = ipw_mean(data, _request(regime, "c", "ipw", g))
        assert abs(est_y.psi - ey) < 3.0 * est_y.se
        assert abs(est_c.psi - ec) < 3.0 * est_c.se


def test_large_sample_anchors_regime_2():
    # Effect by design-weighted IPW against the published mean; cost by
    # targeted regression with a fitted mechanism against the same frozen
    # oracle as the truth-table tests, since the cost influence curve is
    # heavy-tailed (se ~ 0.04 even at this n).
    oracle_ec_2 = 7.0997
    data = simulate_smart(DgpConfig(n=1_000_000, seed=19))
    regime = embedded_regimes()[1]
    g0 = estimate_g(data, "known")
    est_y = ipw_mean(data, _request(regime, "y", "ipw", g0))
    assert abs(est_y.psi - TARGET_EY[1]) < 0.004
    gn = estimate_g(data, "fitted")
    est_c = tmle_mean(data, _request(regime, "c", "tmle", gn))
    assert abs(est_c.psi - oracle_ec_2) < 4.0 * est_c.se
    assert abs(est_c.psi - TARGET_EC[1]) < 0.025 + 4.0 * est_c.se


def _estimate_outcome(estimator, data, request):
    """psi and the influence curve as bytes, or the failure's class and message."""
    try:
        est = estimator(data, request)
    except (EstimationFailure, ValueError) as err:
        return type(err), str(err)
    return np.float64(est.psi).tobytes(), est.ic.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    data=trials(20, 300),
    g_kind=st.sampled_from(["known", "fitted", "saturated"]),
    saturated=st.booleans(),
)
# One fragile shape of each part; the fitted g fails on one branch and falls
# back to the known one.
@example(data=shaped_trial(20, 1, arms="skewed"), g_kind="fitted", saturated=False)
@example(data=shaped_trial(300, 2, branches="skewed", effect="separated"), g_kind="fitted",
         saturated=True)
@example(data=shaped_trial(40, 3, branches="one", cost="huge"), g_kind="fitted",
         saturated=False)
@example(data=shaped_trial(60, 4, covariate="collinear", cost="zero"), g_kind="saturated",
         saturated=True)
@example(data=shaped_trial(30, 5, arms="one", effect="constant", cost="constant"),
         g_kind="known", saturated=False)
def test_tmle_equals_the_all_rows_oracle_bit_for_bit(data, g_kind, saturated):
    # Each stage reads only the rows its result reads; the oracle runs every
    # stage on all records and must give the same bytes or the same failure.
    try:
        g = estimate_g(data, g_kind)
    except EstimationFailure:
        g = estimate_g(data, "known")
    for regime in embedded_regimes():
        for outcome in ("y", "c"):
            request = _request(regime, outcome, "tmle", g, saturated=saturated)
            assert _estimate_outcome(tmle_mean, data, request) == _estimate_outcome(
                reference_tmle_mean, data, request
            ), (regime.id, outcome)


# Every kind of request a dataset's memo serves: each embedded regime and
# outcome, IPW (known g) and TMLE (fitted g), main terms and saturated.
_MEMO_REQUESTS = [
    (regime, outcome, estimator, saturated)
    for regime in embedded_regimes()
    for outcome in OUTCOMES
    for estimator in ("ipw", "tmle")
    for saturated in (False, True)
]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=trials(20, 300), order=st.permutations(_MEMO_REQUESTS))
@example(data=shaped_trial(120, 6), order=_MEMO_REQUESTS)
@example(data=shaped_trial(80, 7, covariate="collinear"), order=_MEMO_REQUESTS[::-1])
# On a generated trial s2 is continuous, so every saturated TMLE request
# fails at stage 2; on the discrete test bed it runs to the end.
@example(data=sample_discrete(make_discrete_dgp(8), n=300, seed=8), order=_MEMO_REQUESTS)
def test_no_estimate_depends_on_the_estimates_made_before_it(data, order):
    # Estimates share the dataset's memo; each must read as it would on a
    # fresh copy of the rows, whatever ran on the dataset before it.
    known = estimate_g(data, "known")
    try:
        fitted = estimate_g(data, "fitted")
    except EstimationFailure:
        fitted = known
    for regime, outcome, estimator, saturated in order:
        g = known if estimator == "ipw" else fitted
        request = _request(regime, outcome, estimator, g, saturated=saturated)
        fresh = data.take(np.arange(data.n))
        assert _estimate_outcome(regime_mean, data, request) == _estimate_outcome(
            regime_mean, fresh, request
        ), (regime.id, outcome, estimator, saturated)


def test_fluctuation_offset_is_the_clipped_linear_predictor(monkeypatch):
    # An outcome that rises with x1, and two regime-consistent records far out
    # on x1 with the outcome the trend predicts: their linear predictors lie
    # beyond the logits of 1e-10 and 1 - 1e-10 at both stages.
    rng = np.random.default_rng(5)
    n = 400
    data = _synthetic(n=n, seed=5)
    regime = embedded_regimes()[0]
    x1 = data.x1[:, 0].copy()
    y = (x1 + rng.logistic(size=n) > 0.0).astype(np.int64)
    far = np.flatnonzero(consistency_mask(data, regime))[:2]
    x1[far], y[far] = (-100.0, 100.0), (0, 1)
    data = Dataset(x1=x1, a1=data.a1, l2=data.l2, s2=data.s2, a2=data.a2, y=y, c=data.c)
    calls = []

    def recording_fit(design, response, weights=None, offset=None):
        fit = fit_logistic(design, response, weights=weights, offset=offset)
        calls.append((offset, fit))
        return fit

    monkeypatch.setattr(estimate, "fit_logistic", recording_fit)
    tmle_mean(data, _request(regime, "y", "tmle", estimate_g(data, "known")))
    (none2, fit2), (offset2, _), (none1, fit1), (offset1, _) = calls
    assert none2 is None and none1 is None

    s1 = np.flatnonzero(data.a1 == regime.d1)
    consistent = np.flatnonzero(consistency_mask(data, regime)[s1])
    eta2 = (_design((data.x1, data.l2, data.s2), False)[s1] @ fit2.coefficients)[consistent]
    eta1 = (_design((data.x1,), False) @ fit1.coefficients)[s1]
    lo, hi = float(logit(1e-10)), float(logit(1.0 - 1e-10))
    for eta, offset in ((eta2, offset2), (eta1, offset1)):
        assert offset.tobytes() == np.clip(eta, lo, hi).tobytes()
        assert (eta < lo).any() and (eta > hi).any()
        assert np.all(offset[eta < lo] == lo) and np.all(offset[eta > hi] == hi)


def test_each_fluctuation_solves_its_weighted_score_equation(monkeypatch):
    # The targeting identity, from outside tmle_mean: with weights derived
    # here from the fitted g, stage 2's fluctuation solves
    # sum h2 (z - q2*) = 0 over the consistent records, h2 = 1 / (g1 g2), and
    # stage 1's solves sum h1 (q2* - q1*) = 0 over the a1 = d1 records,
    # h1 = 1 / g1.  Under the known g, 1 / g1 is 2 on every record, so only a
    # fitted g tells a stage-1 weight of 1 / g1 from the constant 2.
    data = simulate_smart(DgpConfig(n=1809, seed=5))
    g = estimate_g(data, "fitted")
    calls = []

    def recording_fit(design, response, weights=None, offset=None):
        fit = fit_logistic(design, response, weights=weights, offset=offset)
        calls.append((response, offset, fit))
        return fit

    monkeypatch.setattr(estimate, "fit_logistic", recording_fit)
    for regime in embedded_regimes():
        mask = consistency_mask(data, regime)
        s1 = data.a1 == regime.d1
        h2 = 1.0 / (g.p_a1[mask] * g.p_a2[mask])
        h1 = 1.0 / g.p_a1[s1]
        for outcome in ("y", "c"):
            calls.clear()
            tmle_mean(data, _request(regime, outcome, "tmle", g))
            _, (z, offset2, fluct2), (q2_star, _, _), (_, offset1, fluct1) = calls
            z_raw = data.outcome(outcome)
            assert np.array_equal(z, (z_raw[mask] - z_raw.min()) / (z_raw.max() - z_raw.min()))
            score2 = float(h2 @ (z - expit(offset2 + fluct2.coefficients[0])))
            score1 = float(h1 @ (q2_star - expit(offset1 + fluct1.coefficients[0])))
            assert abs(score2) < 1e-6 and abs(score1) < 1e-6, (regime.id, outcome)
