"""Ratio inference: delta-method identities, anchors, and the bootstrap."""

from __future__ import annotations

import numpy as np
import pytest

from smartcea import inference
from smartcea.core import EstimateWithIC
from smartcea.dgp import embedded_regimes
from smartcea.estimate import FluctuationDiverged, RegimeMeanRequest, regime_mean
from smartcea.glm import RankDeficient, SeparationDetected
from smartcea.inference import (
    PER_HUNDRED,
    DegenerateDenominator,
    TooManyDegenerate,
    bootstrap_ci,
    contrast,
    delta_method_ic,
    icer,
    risk_difference,
    wald_ci,
)

from oracles import icer_variance_decomposition


def _estimate(psi, se, n=200, seed=0):
    """An EstimateWithIC with the requested psi and (near-)exact se."""
    rng = np.random.default_rng(seed)
    ic = rng.normal(size=n)
    ic -= ic.mean()
    ic *= se * np.sqrt(n) / np.sqrt(np.var(ic, ddof=1))
    return EstimateWithIC(psi=psi, ic=ic)


def _icer_result(rd_cost_psi, rd_eff_psi, se_c=0.5, se_e=2.0, seed=1):
    rd_cost = _estimate(rd_cost_psi, se_c, seed=seed)
    rd_eff = _estimate(rd_eff_psi, se_e, seed=seed + 1)
    return icer(rd_cost, rd_eff)


def _regime_pair(trial, g_known, outcome, rid):
    regs = {r.id: r for r in embedded_regimes()}

    def mean(r):
        return regime_mean(
            trial,
            RegimeMeanRequest(regime=r, outcome=outcome, estimator="ipw", g=g_known),
        )

    return mean(regs[rid]), mean(regs[1])


def test_risk_difference_scales_value_and_ic():
    a = _estimate(0.86, 0.01, seed=3)
    b = _estimate(0.60, 0.01, seed=4)
    rd = risk_difference(a, b, PER_HUNDRED)
    assert rd.psi == pytest.approx((0.86 - 0.60) * 100.0)
    assert np.allclose(rd.ic, (a.ic - b.ic) * 100.0)
    plain = risk_difference(a, b, 1.0)
    assert rd.psi == pytest.approx(plain.psi * 100.0)


def test_risk_difference_rejects_mismatched_records():
    a = _estimate(0.5, 0.1, n=100)
    b = _estimate(0.4, 0.1, n=101)
    with pytest.raises(ValueError):
        risk_difference(a, b, 1.0)


def test_wald_interval_anchor():
    # 0.23 with standard error 0.2194 gives (-0.20, 0.66) at two decimals.
    est = _estimate(0.23, 0.2194, n=500, seed=9)
    lo, hi = wald_ci(est.psi, est.ic)
    assert round(lo, 2) == -0.20
    assert round(hi, 2) == 0.66


def test_wald_interval_alpha_monotone():
    est = _estimate(1.0, 0.3, seed=2)
    lo95, hi95 = wald_ci(est.psi, est.ic, alpha=0.05)
    lo80, hi80 = wald_ci(est.psi, est.ic, alpha=0.20)
    assert lo95 < lo80 < hi80 < hi95


def test_published_icer_arithmetic_anchors():
    res_a = _icer_result(3.1094, 25.8660)
    assert abs(res_a.icer - 0.1202) < 5e-5
    res_b = _icer_result(2.2906, 0.1650)
    assert abs(res_b.icer - 13.8825) < 1e-4


def test_delta_method_ic_matches_finite_differences():
    rng = np.random.default_rng(44)
    for _ in range(50):
        n = int(rng.integers(50, 400))
        rd_cost = EstimateWithIC(
            psi=float(rng.normal(2.0, 1.0)), ic=rng.normal(size=n)
        )
        rd_eff = EstimateWithIC(
            psi=float(rng.normal(20.0, 5.0)), ic=rng.normal(size=n)
        )
        value, ic = delta_method_ic(rd_cost, rd_eff)
        assert value == pytest.approx(rd_cost.psi / rd_eff.psi)
        # Central finite differences of f(c, e) = c / e in both arguments.
        h = 1e-6
        dc = ((rd_cost.psi + h) / rd_eff.psi - (rd_cost.psi - h) / rd_eff.psi) / (2 * h)
        de = (rd_cost.psi / (rd_eff.psi + h) - rd_cost.psi / (rd_eff.psi - h)) / (2 * h)
        expected = dc * rd_cost.ic + de * rd_eff.ic
        scale = np.max(np.abs(expected)) + 1e-12
        assert np.max(np.abs(ic - expected)) / scale < 1e-6


def test_delta_method_degenerate_denominator():
    rd_cost = _estimate(1.0, 0.1)
    rd_eff = _estimate(0.0, 0.1)
    with pytest.raises(DegenerateDenominator):
        delta_method_ic(rd_cost, rd_eff)


def test_zero_cost_difference_is_a_zero_icer():
    rd_cost = _estimate(0.0, 0.1)
    rd_eff = _estimate(10.0, 1.0)
    value, _ = delta_method_ic(rd_cost, rd_eff)
    assert value == 0.0
    res = icer(rd_cost, rd_eff)
    assert res.icer == 0.0
    assert res.cv_cost == np.inf
    assert not res.reliable


def test_icer_reliability_flag_tracks_component_cvs():
    res = _icer_result(3.0, 25.0, se_c=0.5, se_e=2.0)
    assert res.cv_cost == pytest.approx(0.5 / 3.0)
    assert res.cv_eff == pytest.approx(2.0 / 25.0)
    assert res.reliable
    noisy = _icer_result(3.0, 1.0, se_c=0.5, se_e=2.5)
    assert noisy.cv_eff > 2.0
    assert not noisy.reliable
    strict = icer(_estimate(3.0, 0.5), _estimate(25.0, 2.0), cv_threshold=0.05)
    assert not strict.reliable


def test_variance_decomposition_matches_direct_variance(trial, g_known):
    for rid in (2, 4, 6):
        est_c, ref_c = _regime_pair(trial, g_known, "c", rid)
        est_y, ref_y = _regime_pair(trial, g_known, "y", rid)
        res = icer(
            risk_difference(est_c, ref_c, 1.0),
            risk_difference(est_y, ref_y, PER_HUNDRED),
        )
        dec = icer_variance_decomposition(res)
        n = res.ic_icer.shape[0]
        direct = float(np.var(res.ic_icer, ddof=1) / n)
        assert abs(dec.var_total - direct) / direct < 1e-10
        assert dec.cov_defined
        assert dec.term_a == pytest.approx(res.cv_cost**2)
        assert dec.term_b == pytest.approx(res.cv_eff**2)
        assert res.se == pytest.approx(np.sqrt(direct))


def test_variance_decomposition_zero_cost_falls_back_to_direct():
    res = icer(_estimate(0.0, 0.1, seed=5), _estimate(10.0, 1.0, seed=6))
    dec = icer_variance_decomposition(res)
    assert not dec.cov_defined
    assert dec.term_a == np.inf
    n = res.ic_icer.shape[0]
    assert dec.var_total == pytest.approx(float(np.var(res.ic_icer, ddof=1) / n))


def test_icer_currency_unit_homogeneity():
    base_cost = _estimate(3.1094, 0.4, seed=11)
    eff = _estimate(25.8660, 1.5, seed=12)
    res_usd = icer(base_cost, eff)
    k = 1_000.0
    scaled_cost = EstimateWithIC(psi=base_cost.psi * k, ic=base_cost.ic * k)
    res_milli = icer(scaled_cost, eff)
    assert res_milli.icer == pytest.approx(res_usd.icer * k)
    assert res_milli.se == pytest.approx(res_usd.se * k)
    assert res_milli.ci[0] == pytest.approx(res_usd.ci[0] * k)
    assert res_milli.ci[1] == pytest.approx(res_usd.ci[1] * k)
    assert res_milli.cv_cost == pytest.approx(res_usd.cv_cost)


def test_contrast_published_arithmetic():
    soc = _icer_result(0.23, 1.0, se_c=0.02, se_e=0.01, seed=21)
    high = _icer_result(9.21, 1.0, se_c=0.02, se_e=0.01, seed=23)
    higher = _icer_result(11.74, 1.0, se_c=0.02, se_e=0.01, seed=25)
    assert contrast(high, soc).diff == pytest.approx(8.98, abs=1e-12)
    assert contrast(higher, soc).diff == pytest.approx(11.51, abs=1e-12)


def test_contrast_differences_record_aligned_ics(trial, g_known):
    est_c2, ref_c = _regime_pair(trial, g_known, "c", 2)
    est_y2, ref_y = _regime_pair(trial, g_known, "y", 2)
    est_c4, _ = _regime_pair(trial, g_known, "c", 4)
    est_y4, _ = _regime_pair(trial, g_known, "y", 4)
    res_2 = icer(
        risk_difference(est_c2, ref_c, 1.0), risk_difference(est_y2, ref_y, PER_HUNDRED)
    )
    res_4 = icer(
        risk_difference(est_c4, ref_c, 1.0), risk_difference(est_y4, ref_y, PER_HUNDRED)
    )
    con = contrast(res_2, res_4)
    assert con.diff == pytest.approx(res_2.icer - res_4.icer)
    assert np.allclose(con.ic, res_2.ic_icer - res_4.ic_icer)
    assert con.component_icers == (res_2.icer, res_4.icer)
    auto = contrast(res_2, res_2)
    assert auto.diff == 0.0
    assert auto.se == 0.0


def test_bootstrap_is_deterministic_and_prefix_stable(trial):
    def statistic(resampled):
        return float(resampled.outcome("c").mean())

    a = bootstrap_ci(trial, statistic, n_replicates=150, seed=13)
    b = bootstrap_ci(trial, statistic, n_replicates=150, seed=13)
    assert a.lower == b.lower and a.upper == b.upper
    assert np.array_equal(a.estimates, b.estimates)
    longer = bootstrap_ci(trial, statistic, n_replicates=300, seed=13)
    assert np.array_equal(longer.estimates[:150], a.estimates)
    different = bootstrap_ci(trial, statistic, n_replicates=150, seed=14)
    assert not np.array_equal(different.estimates, a.estimates)


def test_bootstrap_requires_enough_replicates(trial):
    with pytest.raises(ValueError):
        bootstrap_ci(trial, lambda d: 0.0, n_replicates=99, seed=1)


def test_bootstrap_agrees_with_wald_on_regime_2(trial, g_known):
    regs = {r.id: r for r in embedded_regimes()}

    def analyze(dataset):
        def mean(r, out):
            return regime_mean(
                dataset,
                RegimeMeanRequest(regime=r, outcome=out, estimator="ipw", g=g_known),
            )

        rd_c = risk_difference(mean(regs[2], "c"), mean(regs[1], "c"), 1.0)
        rd_e = risk_difference(mean(regs[2], "y"), mean(regs[1], "y"), PER_HUNDRED)
        return icer(rd_c, rd_e)

    wald = analyze(trial)
    boot = bootstrap_ci(trial, lambda d: analyze(d).icer, n_replicates=500, seed=29)
    lo = max(wald.ci[0], boot.lower)
    hi = min(wald.ci[1], boot.upper)
    union = max(wald.ci[1], boot.upper) - min(wald.ci[0], boot.lower)
    jaccard = max(0.0, hi - lo) / union
    assert jaccard > 0.5


def test_bootstrap_counts_and_bounds_degenerate_replicates(trial, monkeypatch):
    def sometimes_degenerate(resampled):
        if resampled.a1[0] == 0:
            raise DegenerateDenominator("resample led by an a1 = 0 record")
        return float(resampled.outcome("y").mean())

    monkeypatch.setattr(inference, "MAX_DEGENERATE_SHARE", 0.9)
    result = bootstrap_ci(
        trial,
        sometimes_degenerate,
        n_replicates=200,
        seed=17,
    )
    assert result.n_degenerate > 0
    kept = result.estimates[np.isfinite(result.estimates)]
    assert kept.size + result.n_degenerate == 200
    assert result.lower <= result.upper

    def always_degenerate(resampled):
        raise DegenerateDenominator("always")

    monkeypatch.undo()
    with pytest.raises(TooManyDegenerate):
        bootstrap_ci(trial, always_degenerate, n_replicates=100, seed=17)
    # A share bound of 1 lets every replicate drop out, but an interval
    # needs at least one kept replicate.
    monkeypatch.setattr(inference, "MAX_DEGENERATE_SHARE", 1.0)
    with pytest.raises(TooManyDegenerate, match="100 of 100"):
        bootstrap_ci(trial, always_degenerate, n_replicates=100, seed=17)


@pytest.mark.parametrize(
    "failure", [SeparationDetected, FluctuationDiverged, RankDeficient]
)
def test_bootstrap_counts_a_failed_fit_as_degenerate(trial, failure):
    def failing_on(replicates):
        seen = []

        def statistic(resampled):
            seen.append(None)
            if len(seen) - 1 in replicates:
                raise failure(f"replicate {len(seen) - 1}")
            return float(resampled.outcome("y").mean())

        return statistic

    result = bootstrap_ci(trial, failing_on({4}), n_replicates=100, seed=17)
    assert result.n_degenerate == 1
    assert result.estimates.size == 99
    # 11 of 100 failed replicates exceed the 10% share.
    with pytest.raises(TooManyDegenerate):
        bootstrap_ci(trial, failing_on(set(range(11))), n_replicates=100, seed=17)
