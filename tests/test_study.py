"""Repeated-simulation harness: metrics accounting, pairing, determinism."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from smartcea import estimate, study
from smartcea.core import EstimateWithIC, RegimeSpec, consistency_mask
from smartcea.dgp import TARGET_ICER, DgpConfig, embedded_regimes, simulate_smart, true_values
from smartcea.estimate import (
    FluctuationDiverged,
    RegimeMeanRequest,
    ZeroSupport,
    estimate_g,
    regime_mean,
)
from smartcea.glm import RankDeficient, SeparationDetected
from smartcea.inference import (
    CV_THRESHOLD,
    PER_HUNDRED,
    DegenerateDenominator,
    IcerResult,
    icer,
    risk_difference,
    wald_ci,
)
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

    def table(dataset, regimes, reference_id, estimator, g):
        return {
            r.id: _result_with_icer(icer_for(dataset, r, estimator))
            for r in regimes
            if r.id != reference_id
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
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        StudyConfig(alpha=float("nan"))
    with pytest.raises(ValueError):
        StudyConfig(cv_threshold=0.0)
    for seed in (2**70, -1, 1.5):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            StudyConfig(reps=2, n=400, seed=seed)


@pytest.mark.parametrize("estimators", [("ipw", "ipw"), ("tmle", "ipw", "tmle")])
def test_config_rejects_repeated_estimators(estimators):
    # A repeated name would run that estimator twice and report every row twice.
    with pytest.raises(ValueError, match="repeat"):
        StudyConfig(estimators=estimators)


def test_config_stores_estimators_as_a_tuple():
    # A list kept as given would make the frozen config unhashable.
    config = StudyConfig(estimators=["ipw"])
    assert config.estimators == ("ipw",)
    assert hash(config) == hash(StudyConfig(estimators=("ipw",)))


def _no_reps(*args):
    raise AssertionError("ran a repetition before checking the truth table")


def test_study_refuses_truth_against_another_reference(monkeypatch):
    # Scored against regime 1 with truths against regime 4, every ICER bias
    # was wrong, and regime 4's NaN truth fell back to the published value.
    monkeypatch.setattr(study, "_analyze", _no_reps)
    truth = true_values(DgpConfig(seed=2), mc_draws=20_000, seed=2, reference_id=4)
    with pytest.raises(ValueError, match=r"\(reference 4\) does not hold"):
        run_study(StudyConfig(reps=2, n=400, seed=3), truth=truth)


def test_study_refuses_truth_without_its_regimes(monkeypatch):
    monkeypatch.setattr(study, "_analyze", _no_reps)
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
        metrics = result.rows[("ipw", rid)]
        assert abs(metrics.bias) < 1e-12
        assert metrics.variance < 1e-24
        assert metrics.coverage_pct == 100.0
        assert metrics.n_used == 10


def test_study_is_deterministic():
    config = StudyConfig(reps=5, n=300, seed=7)
    a = run_study(config, truth=TRUTH)
    b = run_study(config, truth=TRUTH)
    for key in a.draws:
        assert np.array_equal(a.draws[key].icer, b.draws[key].icer, equal_nan=True)
    for row_a, row_b in zip(a.rows.values(), b.rows.values()):
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
    assert list(serial.rows.items()) == list(parallel.rows.items())


def test_an_error_in_progress_leaves_no_helper_thread():
    # The serial study draws the next rep's trial on a helper thread; the
    # error must join it before it reaches the caller, not when the frame
    # its traceback holds is collected.
    error = RuntimeError("stop at rep 2")

    def stop_at_rep_2(rep):
        if rep == 2:
            raise error

    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        run_study(StudyConfig(reps=5, n=300, seed=9), truth=TRUTH, progress=stop_at_rep_2)
    assert raised.value is error
    assert threading.active_count() == before


class _InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: records its size, starts no process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("reps, threads, sizes", [(2, 64, [2]), (3, 2, [2]), (1, 64, [])])
def test_the_pool_has_at_most_one_worker_per_rep(monkeypatch, reps, threads, sizes):
    # Under the fork start method a pool starts all its workers at the first
    # submit, so two reps with threads=64 forked 64 processes.
    seen = []
    monkeypatch.setattr(
        study, "ProcessPoolExecutor", lambda max_workers: _InProcessPool(seen, max_workers)
    )
    result = run_study(StudyConfig(reps=reps, n=300, seed=9), truth=TRUTH, threads=threads)
    assert seen == sizes
    assert all(m.n_used <= reps for m in result.rows.values())


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
        m = result.rows[("ipw", rid)]
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
            w80.rows[("ipw", rid)].mean_ci_width
            < w95.rows[("ipw", rid)].mean_ci_width
        )


def test_degenerate_exclusion_policy():
    config = StudyConfig(reps=20, n=250, seed=21)
    kept_all = run_study(config, truth=TRUTH, retain_degenerate=True)
    default = run_study(config, truth=TRUTH, retain_degenerate=False)
    # The default keeps the defined and reliable reps; retain_degenerate
    # keeps every defined one.
    for key, metrics in default.rows.items():
        d = default.draws[key]
        assert metrics.n_used == int((~d.failed & ~d.unreliable).sum())
        assert kept_all.rows[key].n_used == int((~kept_all.draws[key].failed).sum())
    # Regime 3's effect difference is pure noise, so unreliable reps are
    # common; the default policy must exclude at least some of them.
    r3_default = default.rows[("tmle", 3)]
    r3_kept = kept_all.rows[("tmle", 3)]
    assert r3_default.n_used < r3_kept.n_used


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
        assert result.rows[("ipw", rid)].rel_var_vs_ipw is None
        tm = result.draws[("tmle", rid)].icer
        iw = result.draws[("ipw", rid)].icer
        mask = np.isfinite(tm) & np.isfinite(iw)
        expected = float(np.var(tm[mask]) / np.var(iw[mask]))
        assert result.rows[("tmle", rid)].rel_var_vs_ipw == pytest.approx(expected)


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
        result.rows[("tmle", 2)]
    with pytest.raises(KeyError):
        result.rows[("ipw", 1)]


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
    table = icer_table(data, regimes, 1, "tmle", g)
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
        assert got.icer.psi == expected.icer.psi
        assert np.array_equal(got.icer.ic, expected.icer.ic)
        assert (wald_ci(got.icer), got.is_reliable(CV_THRESHOLD)) == (
            wald_ci(expected.icer), expected.is_reliable(CV_THRESHOLD)
        )


def test_icer_table_only_estimates_the_regimes_it_is_given(counted_means):
    data = simulate_smart(DgpConfig(n=400, seed=4))
    g = estimate_g(data, "known")
    regimes = embedded_regimes()
    table = icer_table(data, (regimes[3], regimes[0], regimes[1]), 1, "ipw", g)
    assert list(table) == [4, 2]
    assert {rid for rid, _ in counted_means} == {1, 2, 4}
    assert len(counted_means) == 6


def test_regime_means_refuses_two_regimes_with_one_id(counted_means):
    # Keyed by id, the second regime 2 used to replace the first without a word.
    data = simulate_smart(DgpConfig(n=400, seed=4))
    g = estimate_g(data, "known")
    with pytest.raises(ValueError, match="regime id 2 names two regimes"):
        study.regime_means(data, [RegimeSpec(2, 1, 1, 3), RegimeSpec(2, 0, 2, 4)], "ipw", g)
    assert counted_means == []


def test_icer_table_refuses_a_regime_that_shares_the_reference_id(counted_means):
    # The reference may be listed among the regimes, but no other regime 1.
    data = simulate_smart(DgpConfig(n=400, seed=4))
    regimes = embedded_regimes()
    listed = [regimes[0], RegimeSpec(1, 1, 2, 4), regimes[1]]
    with pytest.raises(ValueError, match="regime id 1 names two regimes"):
        icer_table(data, listed, 1, "ipw", estimate_g(data, "known"))
    assert counted_means == []


@pytest.mark.parametrize("bound", [0.0, -1.0, float("nan")])
def test_reliability_bound_must_be_positive(bound):
    # A NaN bound passed StudyConfig, and the study flagged every ICER
    # unreliable under any of these bounds.
    with pytest.raises(ValueError, match="cv_threshold must be positive"):
        StudyConfig(cv_threshold=bound)


def test_icer_table_marks_regimes_without_support_undefined():
    data = simulate_smart(DgpConfig(n=400, seed=4))
    regimes = embedded_regimes()

    def table_without(regime):
        trimmed = data.take(np.flatnonzero(~consistency_mask(data, regime)))
        g = estimate_g(trimmed, "known")
        return icer_table(trimmed, regimes, 1, "ipw", g)

    without_8 = table_without(regimes[7])
    assert isinstance(without_8[8], ZeroSupport)
    assert all(isinstance(without_8[rid], IcerResult) for rid in range(2, 8))
    without_reference = table_without(regimes[0])
    assert list(without_reference) == [2, 3, 4, 5, 6, 7, 8]
    for res in without_reference.values():
        assert isinstance(res, ZeroSupport)
        assert str(res).startswith("reference regime 1: ")


def test_one_analysis_builds_each_mask_once_and_few_designs(monkeypatch):
    # A repetition makes 32 mean estimates on one trial; they share the
    # set-up that does not read g through the dataset's memo, where each
    # estimate once built its own (32 masks, 34 designs).
    data = simulate_smart(DgpConfig(n=1809, seed=5))
    calls = dict.fromkeys(("consistency_mask", "_design"), 0)
    for name in calls:
        def counting(*args, _real=getattr(estimate, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(estimate, name, counting)
    study._analyze(StudyConfig(), data)
    assert calls["consistency_mask"] == 8 and calls["_design"] <= 6, calls
    # Every array the memo hands out is read-only, and a row subset starts
    # with an empty memo.
    held = [
        item
        for value in data._derived.values()
        for item in (value if isinstance(value, tuple) else (value,))
        if isinstance(item, np.ndarray)
    ]
    assert held and not any(array.flags.writeable for array in held)
    assert data.take(np.arange(data.n))._derived == {}


def test_icer_table_undefines_a_regime_with_too_few_records_for_its_design():
    # Two records follow regime 8: too few to span the four-column stage-2
    # outcome design of TMLE, so its mean is not identified.
    data = simulate_smart(DgpConfig(n=400, seed=4))
    regimes = embedded_regimes()
    follows_8 = consistency_mask(data, regimes[7])
    keep = np.concatenate([np.flatnonzero(~follows_8), np.flatnonzero(follows_8)[:2]])
    trimmed = data.take(np.sort(keep))
    assert consistency_mask(trimmed, regimes[7]).sum() == 2
    table = icer_table(trimmed, regimes, 1, "tmle", estimate_g(trimmed, "known"))
    assert isinstance(table[8], RankDeficient)
    assert all(isinstance(table[rid], IcerResult) for rid in range(2, 8))


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
        with pytest.raises(failure, match="regime 4, outcome y"):
            icer_table(data, regimes, 1, "ipw", g)
        return
    table = icer_table(data, regimes, 1, "ipw", g)
    assert isinstance(table[4], RankDeficient)
    assert str(table[4]) == "forced"
    assert all(isinstance(table[rid], IcerResult) for rid in (2, 3, 5, 6, 7, 8))


def test_icer_table_maps_a_twin_of_the_reference_to_its_zero_denominator():
    # Regime 9 treats every record as regime 1 does: its effect difference
    # is exactly zero, so its ratio is undefined and the others are not.
    data = simulate_smart(DgpConfig(n=400, seed=4))
    regimes = embedded_regimes()
    twin = RegimeSpec(9, 0, 1, 3)
    table = icer_table(data, (*regimes, twin), 1, "ipw", estimate_g(data, "known"))
    assert isinstance(table[9], DegenerateDenominator)
    assert all(isinstance(table[rid], IcerResult) for rid in range(2, 9))


@pytest.mark.parametrize("failure", [RankDeficient, SeparationDetected, ZeroSupport])
def test_rank_deficient_treatment_model_fails_only_its_repetition(monkeypatch, failure):
    # Each failure estimate_g raises stops only the repetition it happens in.
    fitted_calls = []

    def failing_in_rep_1(dataset, mode, *args, **kwargs):
        if mode == "fitted":
            fitted_calls.append(None)
            if len(fitted_calls) == 2:
                raise failure("forced in repetition 1")
        return estimate_g(dataset, mode, *args, **kwargs)

    monkeypatch.setattr(study, "estimate_g", failing_in_rep_1)
    config = StudyConfig(reps=3, n=400, seed=13)
    result = run_study(config, truth=TRUTH, retain_degenerate=True)
    for rid in range(2, 9):
        assert result.draws[("tmle", rid)].failed.tolist() == [False, True, False]
        assert not result.draws[("ipw", rid)].failed.any()
        assert result.rows[("tmle", rid)].n_used == 2


def test_study_repetition_runs_each_estimator_once(counted_means):
    # Progress fires as each repetition finishes: 16 means per estimator.
    seen_at_progress = []
    config = StudyConfig(reps=2, n=300, seed=9)
    run_study(config, truth=TRUTH, progress=lambda rep: seen_at_progress.append(len(counted_means)))
    assert seen_at_progress == [32, 64]
