"""Logistic fitting: closed-form anchors, recovery, and failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import reference_fit_logistic

from smartcea import estimate
from smartcea.dgp import DgpConfig, embedded_regimes, simulate_smart
from smartcea.glm import (
    SCORE_TOL,
    RankDeficient,
    SeparationDetected,
    expit,
    fit_logistic,
    logit,
    predict,
)
from smartcea.rng import PURPOSE_BOOTSTRAP, philox_stream
from smartcea.study import StudyConfig, _run_one_rep, icer_table


def _design(columns: dict[str, np.ndarray]) -> np.ndarray:
    return np.column_stack(list(columns.values()))


def test_expit_logit_inverse():
    x = np.linspace(-20, 20, 401)
    assert np.allclose(logit(expit(x)), x, atol=1e-8)


def _masked_expit(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_expit_is_bit_equal_to_the_masked_form():
    rng = np.random.default_rng(3)
    x = np.concatenate([
        rng.standard_normal(786_432) * 8.0,
        [0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, 745.0, -745.0],
    ])
    want = _masked_expit(x)
    got = expit(x)
    assert got.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got[np.isfinite(got)]), np.signbit(want[np.isfinite(want)]))
    zero_d = expit(np.float64(-0.3))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d == _masked_expit(np.float64(-0.3))


def test_intercept_only_matches_logit_of_mean():
    # With exactly 20 successes in 80 trials the MLE intercept is logit(1/4).
    z = np.zeros(80)
    z[:20] = 1.0
    design = _design({"intercept": np.ones(80)})
    fit = fit_logistic(design, z)
    assert fit.converged
    assert abs(fit.coefficients[0] - math.log(0.25 / 0.75)) < 1e-6
    assert abs(fit.coefficients[0] - (-1.0986122886681098)) < 1e-6


def test_converged_fit_satisfies_score_tolerance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=500)
    z = (rng.random(500) < expit(0.3 + 0.7 * x)).astype(float)
    design = _design({"intercept": np.ones(500), "x": x})
    fit = fit_logistic(design, z)
    assert fit.converged
    assert fit.max_abs_score < SCORE_TOL


def test_parameter_recovery_large_sample():
    rng = np.random.default_rng(12)
    n = 200_000
    x = rng.normal(size=n)
    truth = np.array([-0.4, 0.8])
    z = (rng.random(n) < expit(truth[0] + truth[1] * x)).astype(float)
    design = _design({"intercept": np.ones(n), "x": x})
    fit = fit_logistic(design, z)
    assert np.all(np.abs(fit.coefficients - truth) < 0.03)


def test_weights_equal_replication():
    rng = np.random.default_rng(7)
    x = rng.normal(size=60)
    z = (rng.random(60) < 0.5).astype(float)
    w = rng.integers(1, 5, size=60)
    rep = np.repeat(np.arange(60), w)
    design_w = _design({"intercept": np.ones(60), "x": x})
    design_r = _design({"intercept": np.ones(rep.size), "x": x[rep]})
    fit_w = fit_logistic(design_w, z, weights=w.astype(float))
    fit_r = fit_logistic(design_r, z[rep])
    assert np.allclose(fit_w.coefficients, fit_r.coefficients, atol=1e-9)


def test_offset_enters_linear_predictor():
    rng = np.random.default_rng(9)
    n = 400
    x = rng.normal(size=n)
    offset = 0.5 * x - 0.2
    z = (rng.random(n) < expit(1.0 + offset)).astype(float)
    design = _design({"intercept": np.ones(n)})
    fit = fit_logistic(design, z, offset=offset)
    probs = expit(design @ fit.coefficients + offset)
    assert np.allclose(probs, expit(fit.coefficients[0] + offset))
    # The intercept solves the offset score equation: mean residual is zero.
    assert abs(float(np.mean(z - probs))) < 1e-9


def test_zero_weight_records_do_not_influence_fit():
    rng = np.random.default_rng(21)
    x = rng.normal(size=100)
    z = (rng.random(100) < 0.4).astype(float)
    w = np.ones(100)
    w[50:] = 0.0
    design = _design({"intercept": np.ones(100), "x": x})
    sub = _design({"intercept": np.ones(50), "x": x[:50]})
    fit_w = fit_logistic(design, z, weights=w)
    fit_s = fit_logistic(sub, z[:50])
    assert np.allclose(fit_w.coefficients, fit_s.coefficients, atol=1e-9)


def test_separation_raises():
    x = np.concatenate([np.full(30, -1.0), np.full(30, 1.0)])
    z = (x > 0).astype(float)
    design = _design({"intercept": np.ones(60), "x": x})
    with pytest.raises(SeparationDetected):
        fit_logistic(design, z)


def test_rank_deficiency_raises():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    z = (rng.random(50) < 0.5).astype(float)
    design = _design({"intercept": np.ones(50), "x": x, "x_copy": x})
    with pytest.raises(RankDeficient):
        fit_logistic(design, z)


def test_fewer_rows_than_columns_is_rank_deficient():
    design = np.array([[1.0, 0.3, -1.2, 0.5], [1.0, -0.7, 0.4, 2.0]])
    with pytest.raises(RankDeficient):
        fit_logistic(design, np.array([0.0, 1.0]))
    # The same holds when zero weights leave fewer rows than columns.
    rng = np.random.default_rng(4)
    tall = np.column_stack([np.ones(20), rng.normal(size=(20, 3))])
    weights = np.zeros(20)
    weights[[3, 11]] = 1.0
    with pytest.raises(RankDeficient):
        fit_logistic(tall, (rng.random(20) < 0.5).astype(float), weights=weights)
    with pytest.raises(ValueError, match="at least one row"):
        fit_logistic(np.ones((0, 4)), np.zeros(0))


def test_constant_response_raises_separation():
    design = _design({"intercept": np.ones(40)})
    with pytest.raises(SeparationDetected):
        fit_logistic(design, np.ones(40))


def test_fit_is_bit_reproducible():
    rng = np.random.default_rng(15)
    x = rng.normal(size=300)
    z = (rng.random(300) < expit(x)).astype(float)
    design = _design({"intercept": np.ones(300), "x": x})
    fit_a = fit_logistic(design, z)
    fit_b = fit_logistic(design, z)
    assert np.array_equal(fit_a.coefficients, fit_b.coefficients)
    assert fit_a.iterations == fit_b.iterations


def test_predict_clamps_probabilities():
    z = np.array([0.0, 1.0, 1.0])
    design = _design({"intercept": np.ones(3)})
    fit = fit_logistic(design, z)
    # Linear predictors of about -100, 0 and 100.
    extreme = _design({"intercept": np.array([-150.0, 0.0, 150.0])})
    probs = predict(fit, extreme)
    assert np.all(probs > 0.0)
    assert np.all(probs < 1.0)


@pytest.mark.parametrize("case", ["nan_response", "inf_weight", "nan_design", "inf_offset"])
def test_non_finite_inputs_are_rejected(case):
    rng = np.random.default_rng(5)
    n = 50
    design = _design({"intercept": np.ones(n), "x": rng.normal(size=n)})
    z = (rng.random(n) < 0.5).astype(float)
    w = rng.uniform(0.5, 2.0, size=n)
    offset = rng.normal(size=n)
    if case == "nan_response":
        z[7] = np.nan
    elif case == "inf_weight":
        w[7] = np.inf
    elif case == "nan_design":
        design[7, 1] = np.nan
    else:
        offset[7] = np.inf
    match = "responses must lie in" if case == "nan_response" else "must be finite"
    with pytest.raises(ValueError, match=match):
        fit_logistic(design, z, weights=w, offset=offset)


def test_design_without_columns_is_rejected():
    with pytest.raises(ValueError, match="at least one column"):
        fit_logistic(np.ones((5, 0)), np.zeros(5))


def test_fit_with_sub_rounding_gain_does_not_stall():
    # Fluctuation-like intercept-only fits: a quarter of the rows weighted,
    # an offset per row.  Near the optimum a Newton step raises the
    # likelihood by less than its rounding error; halving such a step cannot
    # help, and doing it ten times stalls the fit.
    n = 1809
    iterations = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        offset = rng.normal(size=n)
        w = np.where(rng.random(n) < 0.25, rng.uniform(1.0, 16.0, size=n), 0.0)
        z = (rng.random(n) < expit(offset)).astype(float)
        fit = fit_logistic(np.ones((n, 1)), z, weights=w, offset=offset)
        assert fit.converged
        iterations.append(fit.iterations)
    assert max(iterations) <= 5


# --- The kernel against the reference IRLS (tests/oracles.py) -------------


def _coefficient_bound(X, w, offset, beta):
    """How far two fits whose scores are both below SCORE_TOL may differ.

    Near the MLE, beta - beta_hat = I^-1 s to first order, with I the Fisher
    information, so each fit lies within |I^-1| SCORE_TOL of beta_hat
    coordinate-wise and two fits lie within twice that of each other.
    """
    w = np.ones(X.shape[0]) if w is None else w
    eta = X @ beta + (0.0 if offset is None else offset)
    mu = expit(eta)
    info = (X * (w * mu * (1.0 - mu))[:, None]).T @ X
    return 2.0 * SCORE_TOL * np.abs(np.linalg.inv(info)).sum(axis=1)


@pytest.fixture(scope="module")
def recorded_fits():
    """Arguments of every fit in two study repetitions and three bootstrap
    replicates of the regime-3 ICER, all at n = 1809."""
    calls = []

    def record(design, response, weights=None, offset=None):
        calls.append((design, response, weights, offset))
        return fit_logistic(design, response, weights, offset)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "fit_logistic", record)
        config = StudyConfig(n=1809, seed=7)
        for rep in range(2):
            _run_one_rep(config, rep)
        n_study = len(calls)
        data = simulate_smart(DgpConfig(n=1809, seed=1))
        regimes = embedded_regimes()
        reference = next(r for r in regimes if r.id == 1)
        pair = [reference, next(r for r in regimes if r.id == 3)]
        for b in range(3):
            idx = philox_stream(1, PURPOSE_BOOTSTRAP, b).integers(0, data.n, size=data.n)
            resampled = data.take(idx)
            icer_table(resampled, pair, reference, "tmle",
                       estimate.estimate_g(resampled, "fitted"))
    assert n_study == 2 * 67 and len(calls) == n_study + 3 * 19
    return calls


def test_kernel_agrees_with_reference_irls(recorded_fits):
    iters_new = iters_ref = 0
    for X, z, w, offset in recorded_fits:
        new = fit_logistic(X, z, weights=w, offset=offset)
        ref = reference_fit_logistic(X, z, weights=w, offset=offset)
        assert new.converged and ref.converged
        diff = np.abs(new.coefficients - ref.coefficients)
        assert np.all(diff <= _coefficient_bound(X, w, offset, ref.coefficients))
        iters_new += new.iterations
        iters_ref += ref.iterations
    assert iters_new <= iters_ref


def _failure_battery():
    rng = np.random.default_rng(3)
    x = rng.normal(size=60)
    z = (rng.random(60) < 0.5).astype(float)
    ones = np.ones(60)
    split = np.concatenate([np.full(30, -1.0), np.full(30, 1.0)])
    return {
        "separation": (_design({"i": ones, "x": split}), (split > 0).astype(float), None),
        "constant_response": (_design({"i": ones}), ones, None),
        "duplicated_column": (_design({"i": ones, "x": x, "x_copy": x}), z, None),
        "all_zero_weights": (_design({"i": ones, "x": x}), z, np.zeros(60)),
        "column_zero_on_weighted_rows": (
            (split > 0).astype(float)[:, None], z, (split < 0).astype(float)
        ),
    }


@pytest.mark.parametrize("case", sorted(_failure_battery()))
def test_kernel_fails_like_reference_irls(case):
    X, z, w = _failure_battery()[case]
    raised = []
    for fit in (fit_logistic, reference_fit_logistic):
        with pytest.raises(Exception) as info:
            fit(X, z, weights=w)
        raised.append(info.type)
    assert raised[0] is raised[1]
    assert issubclass(raised[0], (ValueError, SeparationDetected, RankDeficient))


# --- Properties ------------------------------------------------------------

PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)


@st.composite
def logistic_problems(draw, weights, response=st.floats(0.0, 1.0)):
    """(design, response, weights, offset): an intercept plus up to two
    generic covariate columns, and drawn responses, weights and offsets."""
    n = draw(st.integers(3, 30))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    z = draw(hnp.arrays(np.float64, n, elements=response))
    w = draw(hnp.arrays(np.float64, n, elements=weights))
    offset = draw(hnp.arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
    return X, z, w, offset


def _outcome(X, z, w, offset):
    try:
        fit = fit_logistic(X, z, weights=w, offset=offset)
    except (ValueError, SeparationDetected, RankDeficient) as err:
        return type(err)
    return (fit.coefficients.tobytes(), fit.converged, fit.iterations, fit.max_abs_score)


@PROPERTY_SETTINGS
@given(problem=logistic_problems(weights=st.floats(0.1, 16.0)))
def test_converged_fit_solves_the_score_equation(problem):
    X, z, w, offset = problem
    try:
        fit = fit_logistic(X, z, weights=w, offset=offset)
    except (SeparationDetected, RankDeficient):
        return
    assume(fit.converged)
    assert fit.max_abs_score < SCORE_TOL
    # Recomputed from the returned coefficients, the score agrees up to the
    # rounding error of its sum (gamma_n times the sum of |terms|, doubled
    # for the fitted probabilities).
    eta = X @ fit.coefficients + offset
    mu = expit(eta)
    score = X.T @ (w * (z - mu))
    n = X.shape[0]
    rounding = 2.0 * (n + 4) * np.finfo(float).eps * (
        np.abs(X).T @ (w * (z + mu + np.abs(eta)))
    )
    assert np.all(np.abs(score) <= SCORE_TOL + rounding)


@PROPERTY_SETTINGS
@given(problem=logistic_problems(
    weights=st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.1, 16.0)
))
def test_zero_weight_rows_are_exactly_dropped(problem):
    X, z, w, offset = problem
    keep = w > 0.0
    assume(keep.sum() >= X.shape[1])
    assert _outcome(X, z, w, offset) == _outcome(X[keep], z[keep], w[keep], offset[keep])


@PROPERTY_SETTINGS
@given(problem=logistic_problems(
    weights=st.integers(1, 4).map(float), response=st.floats(0.01, 0.99)
))
def test_integer_weights_equal_replication(problem):
    X, z, w, offset = problem
    rep = np.repeat(np.arange(X.shape[0]), w.astype(int))
    weighted = fit_logistic(X, z, weights=w, offset=offset)
    replicated = fit_logistic(X[rep], z[rep], offset=offset[rep])
    assert weighted.converged and replicated.converged
    diff = np.abs(weighted.coefficients - replicated.coefficients)
    assert np.all(diff <= _coefficient_bound(X, w, offset, weighted.coefficients))
