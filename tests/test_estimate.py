"""Regime-mean estimators: exact identities, convergence anchors, and
failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from smartcea.core import Dataset, RegimeSpec, consistency_mask
from smartcea.dgp import (
    TARGET_EC,
    TARGET_EY,
    DgpConfig,
    embedded_regimes,
    simulate_smart,
)
from smartcea.estimate import (
    DEFAULT_Q,
    G_TRUNCATION,
    SATURATED_G,
    SATURATED_Q,
    CovariateSpec,
    RegimeMeanRequest,
    ZeroSupport,
    estimate_g,
    ipw_mean,
    regime_mean,
    tmle_mean,
)
from smartcea.glm import SeparationDetected, expit

from discrete_bed import empirical_discrete, gcomp_discrete, make_discrete_dgp, sample_discrete

# Oracle covariate set matching the benchmark generator's outcome model,
# available for efficiency comparisons against the default.
ORACLE_Q = CovariateSpec(
    stage1=("x1", "x1_sq", "log_abs_x1"),
    stage2=("l2", "s2", "x1_sq", "log_abs_x1"),
)


def _request(regime, outcome, estimator, g, q=DEFAULT_Q):
    return RegimeMeanRequest(
        regime=regime, outcome=outcome, estimator=estimator, g=g, q_covariates=q
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
    g_sat = estimate_g(data, "fitted", covariate_spec=SATURATED_G)
    for regime in embedded_regimes()[:4]:
        ey, ec = empirical_discrete(data, regime)
        for g in (g_known, g_sat):
            est_y = tmle_mean(data, _request(regime, "y", "tmle", g, q=SATURATED_Q))
            est_c = tmle_mean(data, _request(regime, "c", "tmle", g, q=SATURATED_Q))
            assert abs(est_y.psi - ey) < 1e-8
            assert abs(est_c.psi - ec) < 1e-8


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


def test_oracle_covariates_run(trial, g_fitted, regimes):
    est = tmle_mean(trial, _request(regimes[1], "y", "tmle", g_fitted, q=ORACLE_Q))
    assert 0.0 < est.psi < 1.0
    assert abs(float(est.ic.mean())) < 1e-6


def test_covariate_spec_rejects_unknown_terms():
    with pytest.raises(ValueError):
        CovariateSpec(stage1=("x9",), stage2=("x1",))
