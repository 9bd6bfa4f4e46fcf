"""Repeated-simulation harness: metrics accounting, pairing, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from smartcea import study
from smartcea.core import EstimateWithIC, consistency_mask
from smartcea.dgp import TARGET_ICER, DgpConfig, embedded_regimes, simulate_smart, true_values
from smartcea.estimate import FluctuationDiverged, RegimeMeanRequest, estimate_g, regime_mean
from smartcea.glm import RankDeficient, SeparationDetected
from smartcea.inference import PER_HUNDRED, icer, risk_difference
from smartcea.study import (
    StudyConfig,
    icer_table,
    run_study,
)

from oracles import relative_variance

TRUTH = true_values(DgpConfig(seed=2), mc_draws=100_000, seed=2)


def _result_with_icer(value, width=50.0, seed=0):
    """A genuine IcerResult whose ratio equals ``value`` with a wide CI."""
    rng = np.random.default_rng(seed)

    def est(psi, se):
        ic = rng.normal(size=60)
        ic -= ic.mean()
        ic *= se * np.sqrt(60) / np.sqrt(np.var(ic, ddof=1))
        return EstimateWithIC(psi=psi, ic=ic)

    return icer(est(value * 10.0, width), est(10.0, 0.5))


def _stub_icer_table(icer_for):
    """A stand-in for ``study.icer_table`` with ``icer_for(dataset, regime,
    estimator)`` as every non-reference regime's ICER."""

    def table(dataset, regimes, reference, estimator, g, cv_threshold, alpha):
        return {
            r.id: _result_with_icer(icer_for(dataset, r, estimator))
            for r in regimes
            if r.id != reference.id
        }

    return table


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(reps=0)
    with pytest.raises(ValueError):
        StudyConfig(n=1)
    with pytest.raises(ValueError):
        StudyConfig(estimators=("ipw", "mle"))
    with pytest.raises(ValueError):
        StudyConfig(alpha=1.5)
    with pytest.raises(ValueError):
        StudyConfig(cv_threshold=0.0)


@pytest.mark.parametrize("estimators", [("ipw", "ipw"), ("tmle", "ipw", "tmle")])
def test_config_rejects_repeated_estimators(estimators):
    # A repeated name would run that estimator twice and report every row twice.
    with pytest.raises(ValueError, match="repeat"):
        StudyConfig(estimators=estimators)


def _no_reps(*args):
    raise AssertionError("ran a repetition before checking the truth table")


def test_study_refuses_truth_against_another_reference(monkeypatch):
    # Scored against regime 1 with truths against regime 4, every ICER bias
    # was wrong, and regime 4's NaN truth fell back to the published value.
    monkeypatch.setattr(study, "_run_one_rep", _no_reps)
    truth = true_values(DgpConfig(seed=2), mc_draws=20_000, seed=2, reference_id=4)
    with pytest.raises(ValueError, match=r"\(reference 4\) does not hold"):
        run_study(StudyConfig(reps=2, n=400, seed=3), truth=truth)


def test_study_refuses_truth_without_its_regimes(monkeypatch):
    monkeypatch.setattr(study, "_run_one_rep", _no_reps)
    truth = true_values(DgpConfig(seed=2), embedded_regimes()[:3], mc_draws=10_000, seed=2)
    with pytest.raises(ValueError, match="does not hold the study's regimes"):
        run_study(StudyConfig(reps=2, n=400, seed=3), truth=truth)


def test_stub_estimator_returning_truth_scores_perfectly(monkeypatch):
    config = StudyConfig(reps=10, n=50, seed=1, estimators=("ipw",))
    truth_icers = {
        r.id: TRUTH.icer_for(r.id) if np.isfinite(TRUTH.icer_for(r.id)) else 0.0
        for r in embedded_regimes()
    }
    monkeypatch.setattr(
        study, "icer_table", _stub_icer_table(lambda d, r, e: truth_icers[r.id])
    )
    result = run_study(config, truth=TRUTH, retain_degenerate=True)
    for rid in (2, 4, 6, 8):
        metrics = result.row("ipw", rid).metrics
        assert abs(metrics.bias) < 1e-12
        assert metrics.variance < 1e-24
        assert metrics.coverage_pct == 100.0
        assert result.row("ipw", rid).n_used == 10


def test_study_is_deterministic():
    config = StudyConfig(reps=5, n=300, seed=7)
    a = run_study(config, truth=TRUTH)
    b = run_study(config, truth=TRUTH)
    for key in a.draws:
        assert np.array_equal(a.draws[key].icer, b.draws[key].icer, equal_nan=True)
    for row_a, row_b in zip(a.rows, b.rows):
        assert row_a == row_b


def test_results_independent_of_thread_count():
    config = StudyConfig(reps=6, n=300, seed=9)
    calls = {1: [], 2: []}
    serial = run_study(config, truth=TRUTH, threads=1, progress=calls[1].append)
    parallel = run_study(config, truth=TRUTH, threads=2, progress=calls[2].append)
    assert calls[1] == calls[2] == list(range(config.reps))
    for key in serial.draws:
        assert np.array_equal(
            serial.draws[key].icer, parallel.draws[key].icer, equal_nan=True
        )
    assert serial.rows == parallel.rows


def test_estimators_see_the_same_datasets_within_a_rep(monkeypatch):
    seen = []

    def recording(dataset, regime, estimator):
        if regime.id == 2:
            seen.append((estimator, float(dataset.x1[0, 0])))
        return 1.0

    monkeypatch.setattr(study, "icer_table", _stub_icer_table(recording))
    config = StudyConfig(reps=3, n=100, seed=5)
    run_study(config, truth=TRUTH, retain_degenerate=True)
    assert len(seen) == 2 * config.reps
    by_rep = {}
    for (est, value), rep in zip(seen, [0, 0, 1, 1, 2, 2][: len(seen)]):
        by_rep.setdefault(rep, []).append(value)
    ipw_values = [v for (e, v) in seen if e == "ipw"]
    tmle_values = [v for (e, v) in seen if e == "tmle"]
    assert ipw_values == tmle_values  # paired draws
    assert len(set(ipw_values)) == len(ipw_values)  # fresh data each rep


def test_mse_identity_and_metric_definitions():
    config = StudyConfig(reps=40, n=400, seed=3, estimators=("ipw",))
    result = run_study(config, truth=TRUTH, retain_degenerate=True)
    for rid in (2, 4, 6, 8):
        row = result.row("ipw", rid)
        m = row.metrics
        assert m.mse == pytest.approx(m.bias**2 + m.variance, abs=1e-10)
        draws = result.draws[("ipw", rid)]
        kept = np.isfinite(draws.icer)
        t = result.truth_icers[rid]
        assert m.bias == pytest.approx(float(draws.icer[kept].mean() - t))
        assert m.coverage_pct == pytest.approx(
            100.0
            * float(
                np.mean(
                    (draws.ci_lower[kept] <= t) & (t <= draws.ci_upper[kept])
                )
            )
        )


def test_wider_alpha_narrows_intervals():
    base = StudyConfig(reps=15, n=400, seed=3, estimators=("ipw",))
    loose = StudyConfig(reps=15, n=400, seed=3, estimators=("ipw",), alpha=0.20)
    w95 = run_study(base, truth=TRUTH, retain_degenerate=True)
    w80 = run_study(loose, truth=TRUTH, retain_degenerate=True)
    for rid in (2, 4, 6, 8):
        assert (
            w80.row("ipw", rid).metrics.mean_ci_width
            < w95.row("ipw", rid).metrics.mean_ci_width
        )


def test_degenerate_exclusion_policy():
    config = StudyConfig(reps=20, n=250, seed=21)
    kept_all = run_study(config, truth=TRUTH, retain_degenerate=True)
    default = run_study(config, truth=TRUTH, retain_degenerate=False)
    for row in default.rows:
        assert row.n_used + row.degenerate_count == config.reps
    # Regime 3's effect difference is pure noise, so unreliable reps are
    # common; the default policy must exclude at least some of them.
    r3_default = default.row("tmle", 3)
    r3_kept = kept_all.row("tmle", 3)
    assert r3_default.n_used < r3_kept.n_used
    assert r3_default.degenerate_count > r3_kept.degenerate_count


def test_relative_variance_identity_and_guards():
    rng = np.random.default_rng(8)
    a = rng.normal(size=50)
    same = relative_variance({2: a}, {2: a.copy()})
    assert same[2].tmle_over_ipw == pytest.approx(1.0)
    assert same[2].ipw_over_tmle == pytest.approx(1.0)
    assert same[2].n_aligned == 50
    b = rng.normal(size=50)
    rel = relative_variance({2: a}, {2: b})
    assert rel[2].tmle_over_ipw == pytest.approx(float(np.var(a) / np.var(b)))
    assert rel[2].tmle_over_ipw * rel[2].ipw_over_tmle == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_variance({2: a}, {3: b})
    with pytest.raises(ValueError):
        relative_variance({2: a}, {2: b[:40]})
    misaligned = b.copy()
    misaligned[0] = np.nan
    with pytest.raises(ValueError):
        relative_variance({2: a}, {2: misaligned})
    with pytest.raises(ValueError):
        relative_variance({2: np.ones(50)}, {2: np.ones(50)})


def test_rel_var_attached_to_tmle_rows():
    config = StudyConfig(reps=12, n=400, seed=13)
    result = run_study(config, truth=TRUTH, retain_degenerate=True)
    for rid in (2, 4, 6, 8):
        tmle_row = result.row("tmle", rid)
        ipw_row = result.row("ipw", rid)
        assert ipw_row.metrics.rel_var_vs_ipw is None
        tm = result.draws[("tmle", rid)].icer
        iw = result.draws[("ipw", rid)].icer
        mask = np.isfinite(tm) & np.isfinite(iw)
        expected = float(np.var(tm[mask]) / np.var(iw[mask]))
        assert tmle_row.metrics.rel_var_vs_ipw == pytest.approx(expected)


def test_truth_icer_fallback_anchors_undefined_ratios():
    # The truth table leaves regime 3 undefined (zero effect difference);
    # the study metrics anchor it at the published benchmark value.
    assert np.isnan(TRUTH.icer_for(3))
    config = StudyConfig(reps=2, n=100, seed=1)
    result = run_study(config, truth=TRUTH, retain_degenerate=True)
    assert result.truth_icers[3] == TARGET_ICER[2]


def test_row_lookup_raises_for_unknown_cell():
    config = StudyConfig(reps=2, n=100, seed=1, estimators=("ipw",))
    result = run_study(config, truth=TRUTH, retain_degenerate=True)
    with pytest.raises(KeyError):
        result.row("tmle", 2)
    with pytest.raises(KeyError):
        result.row("ipw", 1)


@pytest.fixture()
def counted_means(monkeypatch):
    """Count the regime means the study module estimates."""
    calls = []

    def counting(dataset, request):
        calls.append((request.regime.id, request.outcome))
        return regime_mean(dataset, request)

    monkeypatch.setattr(study, "regime_mean", counting)
    return calls


def test_icer_table_estimates_each_mean_once(counted_means):
    data = simulate_smart(DgpConfig(n=600, seed=4))
    g = estimate_g(data, "fitted")
    regimes = embedded_regimes()
    table = icer_table(data, regimes, regimes[0], "tmle", g)
    assert len(counted_means) == 16
    assert len(set(counted_means)) == 16
    assert list(table) == [2, 3, 4, 5, 6, 7, 8]

    def mean(regime, outcome):
        return regime_mean(data, RegimeMeanRequest(regime, outcome, "tmle", g))

    for regime in regimes[1:]:
        expected = icer(
            risk_difference(mean(regime, "c"), mean(regimes[0], "c"), 1.0),
            risk_difference(mean(regime, "y"), mean(regimes[0], "y"), PER_HUNDRED),
        )
        got = table[regime.id]
        assert got.icer == expected.icer
        assert np.array_equal(got.ic_icer, expected.ic_icer)
        assert (got.ci, got.reliable) == (expected.ci, expected.reliable)


def test_icer_table_only_estimates_the_regimes_it_is_given(counted_means):
    data = simulate_smart(DgpConfig(n=400, seed=4))
    g = estimate_g(data, "known")
    regimes = embedded_regimes()
    table = icer_table(data, (regimes[3], regimes[1]), regimes[0], "ipw", g)
    assert list(table) == [4, 2]
    assert {rid for rid, _ in counted_means} == {1, 2, 4}
    assert len(counted_means) == 6


def test_icer_table_marks_regimes_without_support_undefined():
    data = simulate_smart(DgpConfig(n=400, seed=4))
    regimes = embedded_regimes()

    def table_without(regime):
        trimmed = data.take(np.flatnonzero(~consistency_mask(data, regime)))
        g = estimate_g(trimmed, "known")
        return icer_table(trimmed, regimes, regimes[0], "ipw", g)

    without_8 = table_without(regimes[7])
    assert without_8[8] is None
    assert all(without_8[rid] is not None for rid in range(2, 8))
    without_reference = table_without(regimes[0])
    assert list(without_reference) == [2, 3, 4, 5, 6, 7, 8]
    assert all(res is None for res in without_reference.values())


def test_icer_table_undefines_a_regime_with_too_few_records_for_its_design():
    # Two records follow regime 8: too few to span the four-column stage-2
    # outcome design of TMLE, so its mean is not identified.
    data = simulate_smart(DgpConfig(n=400, seed=4))
    regimes = embedded_regimes()
    follows_8 = consistency_mask(data, regimes[7])
    keep = np.concatenate([np.flatnonzero(~follows_8), np.flatnonzero(follows_8)[:2]])
    trimmed = data.take(np.sort(keep))
    assert consistency_mask(trimmed, regimes[7]).sum() == 2
    table = icer_table(trimmed, regimes, regimes[0], "tmle", estimate_g(trimmed, "known"))
    assert table[8] is None
    assert all(table[rid] is not None for rid in range(2, 8))


@pytest.mark.parametrize(
    "failure", [RankDeficient, SeparationDetected, FluctuationDiverged]
)
def test_icer_table_undefines_only_rank_deficient_regimes(monkeypatch, failure):
    data = simulate_smart(DgpConfig(n=400, seed=4))
    regimes = embedded_regimes()

    def failing(dataset, request):
        if request.regime.id == 4:
            raise failure("forced")
        return regime_mean(dataset, request)

    monkeypatch.setattr(study, "regime_mean", failing)
    g = estimate_g(data, "known")
    if failure is not RankDeficient:
        with pytest.raises(failure):
            icer_table(data, regimes, regimes[0], "ipw", g)
        return
    table = icer_table(data, regimes, regimes[0], "ipw", g)
    assert table[4] is None
    assert all(table[rid] is not None for rid in (2, 3, 5, 6, 7, 8))


def test_rank_deficient_treatment_model_fails_only_its_repetition(monkeypatch):
    fitted_calls = []

    def failing_in_rep_1(dataset, mode, *args, **kwargs):
        if mode == "fitted":
            fitted_calls.append(None)
            if len(fitted_calls) == 2:
                raise RankDeficient("forced in repetition 1")
        return estimate_g(dataset, mode, *args, **kwargs)

    monkeypatch.setattr(study, "estimate_g", failing_in_rep_1)
    config = StudyConfig(reps=3, n=400, seed=13)
    result = run_study(config, truth=TRUTH, retain_degenerate=True)
    for rid in range(2, 9):
        assert result.draws[("tmle", rid)].failed.tolist() == [False, True, False]
        assert not result.draws[("ipw", rid)].failed.any()
        assert result.row("tmle", rid).n_used == 2


def test_study_repetition_runs_each_estimator_once(counted_means):
    # Progress fires as each repetition finishes: 16 means per estimator.
    seen_at_progress = []
    config = StudyConfig(reps=2, n=300, seed=9)
    run_study(config, truth=TRUTH, progress=lambda rep: seen_at_progress.append(len(counted_means)))
    assert seen_at_progress == [32, 64]
