"""Logistic fitting: closed-form anchors, recovery, and failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from smartcea.glm import (
    SCORE_TOL,
    RankDeficient,
    SeparationDetected,
    expit,
    fit_logistic,
    logit,
    predict,
)


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
    probs = predict(fit, design, offset=offset)
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
    probs = predict(fit, design, offset=np.array([-100.0, 0.0, 100.0]))
    assert np.all(probs > 0.0)
    assert np.all(probs < 1.0)
