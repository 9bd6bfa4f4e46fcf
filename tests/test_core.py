"""Trajectory containers and regime consistency."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from smartcea import core
from smartcea.core import Dataset, EstimateWithIC, InvalidRecord, RegimeSpec, consistency_mask
from smartcea.dgp import DgpConfig, true_values
from smartcea.inference import bootstrap_ci
from smartcea.study import StudyConfig, run_study


def test_d2_selects_branch():
    regime = RegimeSpec(id=1, d1=0, d2_if_lapse=1, d2_if_no_lapse=3)
    assert regime.d2(1) == 1
    assert regime.d2(0) == 3


@pytest.mark.parametrize(
    "codes",
    [(0, 3, 3), (0, 1, 1), (7, 1, 3), (0, 2, 2)],
    ids=[
        "lapse-option-from-no-lapse-branch",
        "no-lapse-option-from-lapse-branch",
        "d1-7",
        "no-lapse-option-2-from-lapse-branch",
    ],
)
def test_regime_outside_support_cannot_be_built(codes):
    # Every consumer (truth tables, the test bed, the estimators, the regime
    # file) relies on this check instead of repeating it.
    with pytest.raises(ValueError, match="regime 2: d"):
        RegimeSpec(2, *codes)


@pytest.mark.parametrize("rid", [0, -2])
def test_regime_id_must_be_positive(rid):
    with pytest.raises(ValueError, match=f"regime {rid}: id must be at least 1"):
        RegimeSpec(rid, 0, 1, 3)


def _no_draws(*args, **kwargs):
    raise AssertionError("drew before checking the count")


@pytest.mark.parametrize(
    "call",
    [
        lambda trial: DgpConfig(n=2.5),
        lambda trial: StudyConfig(reps=2.5),
        lambda trial: StudyConfig(n=200.5),
        lambda trial: true_values(DgpConfig(), mc_draws=10000.5),
        lambda trial: bootstrap_ci(trial, lambda d: 0.0, n_replicates=100.5),
        lambda trial: run_study(StudyConfig(reps=1, n=200), threads=1.5),
    ],
    ids=["n", "reps", "study-n", "mc_draws", "n_replicates", "threads"],
)
def test_every_count_refuses_a_float_before_drawing(trial, call, monkeypatch):
    # Every count goes through core.check_count, which refuses a float
    # before numpy can see it.
    monkeypatch.setattr(np.random, "Philox", _no_draws)
    monkeypatch.setattr(np.random, "SeedSequence", _no_draws)
    with pytest.raises(ValueError, match="must be an integer, got"):
        call(trial)


def test_is_consistent_uses_taken_branch_only():
    regime = RegimeSpec(id=1, d1=0, d2_if_lapse=1, d2_if_no_lapse=3)
    # (a1, l2, a2) per record: follows on the lapse branch, wrong lapse
    # option, follows on the no-lapse branch, wrong no-lapse option, wrong
    # stage-1 arm.
    cases = [(0, 1, 1, True), (0, 1, 2, False), (0, 0, 3, True), (0, 0, 4, False),
             (1, 1, 1, False)]
    a1, l2, a2, expected = (list(col) for col in zip(*cases))
    data = Dataset(x1=[0.0] * 5, a1=a1, l2=l2, s2=[0.0] * 5, a2=a2, y=[1] * 5, c=[2.0] * 5)
    assert consistency_mask(data, regime).tolist() == expected


def test_consistency_mask_matches_per_record(trial, regimes):
    for regime in regimes:
        mask = consistency_mask(trial, regime)
        by_record = np.array([
            trial.a1[i] == regime.d1 and trial.a2[i] == regime.d2(trial.l2[i])
            for i in range(trial.n)
        ])
        assert np.array_equal(mask, by_record)


def test_each_record_is_consistent_with_exactly_two_regimes(trial, regimes):
    # A realized trajectory pins d1 and the recommendation on the branch
    # taken; the off-branch recommendation stays free, leaving two regimes.
    counts = np.zeros(trial.n, dtype=int)
    for regime in regimes:
        counts += consistency_mask(trial, regime)
    assert np.all(counts == 2)


def test_dataset_validates_columns():
    base = dict(
        x1=[0.0, 1.0], a1=[0, 1], l2=[0, 1], s2=[0.5, -0.5],
        a2=[3, 1], y=[0, 1], c=[1.0, 2.0],
    )
    Dataset(**base)
    with pytest.raises(ValueError):
        Dataset(**{**base, "y": [0, 2]})
    with pytest.raises(ValueError):
        Dataset(**{**base, "c": [1.0, -2.0]})
    with pytest.raises(ValueError):
        Dataset(**{**base, "l2": [0, 3]})
    with pytest.raises(ValueError):
        Dataset(**{**base, "s2": [np.nan, 0.0]})
    with pytest.raises(ValueError):
        Dataset(**{**base, "a1": [0, 1, 1]})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"x1": np.zeros((2, 0))}, "x1 must have shape (n,) or (n, p) with p >= 1"),
        ({"x1": np.zeros((2, 1, 1))}, "x1 must have shape (n,) or (n, p) with p >= 1"),
        ({"x1_names": ("x1_1", "x1_2")}, "x1_names length does not match x1 width"),
    ],
    ids=["no-covariate", "three-dimensional", "names-width"],
)
def test_dataset_refuses_a_covariate_of_the_wrong_shape(change, message):
    base = dict(x1=[0.0, 1.0], a1=[0, 1], l2=[0, 1], s2=[0.5, -0.5], a2=[3, 1], y=[0, 1],
                c=[1.0, 2.0])
    with pytest.raises(ValueError) as err:
        Dataset(**{**base, **change})
    assert str(err.value) == message


def test_dataset_rejects_out_of_support_codes():
    with pytest.raises(ValueError):
        Dataset(
            x1=[0.0], a1=[2], l2=[1], s2=[0.0], a2=[1], y=[1], c=[1.0],
        )
    with pytest.raises(ValueError):
        Dataset(
            x1=[0.0], a1=[0], l2=[1], s2=[0.0], a2=[3], y=[1], c=[1.0],
        )


@pytest.mark.parametrize(
    "column, values, message",
    [
        ("a1", [0.9, 1.0], "record 1, column 'a1': expected an integer code, got 0.9"),
        ("l2", [1.0, 0.5], "record 2, column 'l2': expected an integer code, got 0.5"),
        ("a2", [1.5, 3.0], "record 1, column 'a2': expected an integer code, got 1.5"),
        ("y", [0.7, 1.0], "record 1, column 'y': expected a binary 0/1 outcome"),
        ("y", [0.0, 1.9], "record 2, column 'y': expected a binary 0/1 outcome"),
    ],
    ids=["a1", "l2", "a2", "y-0.7", "y-1.9"],
)
def test_dataset_refuses_fractional_codes_and_outcomes(column, values, message):
    # Cast to int64 first, these would pass as 0 or 1 (a2 = 1.5 as 1).
    base = dict(x1=[0.1, 0.2], a1=[0, 1], l2=[1, 0], s2=[0.0, 0.0], a2=[1, 3],
                y=[0, 1], c=[1.0, 2.0])
    with pytest.raises(InvalidRecord, match=re.escape(message) + "$") as err:
        Dataset(**{**base, column: values})
    record = err.value
    assert str(record) == f"record {record.row + 1}, column {column!r}: {record.reason}"


def test_dataset_requires_at_least_one_record():
    with pytest.raises(ValueError):
        Dataset(x1=[], a1=[], l2=[], s2=[], a2=[], y=[], c=[])


def test_columns_are_read_only(trial):
    with pytest.raises(ValueError):
        trial.y[0] = 0


def test_outcome_accessor(trial):
    assert np.array_equal(trial.outcome("y"), trial.y.astype(float))
    assert trial.outcome("y").dtype == np.float64
    assert np.array_equal(trial.outcome("c"), trial.c)
    with pytest.raises(ValueError):
        trial.outcome("z")


def test_take_preserves_supports_and_allows_replacement(trial):
    sub = trial.take([0, 0, 3, 2])
    assert sub.n == 4
    assert np.array_equal(sub.x1[0], trial.x1[0])
    assert np.array_equal(sub.x1[1], trial.x1[0])


def test_take_copies_equal_read_only_columns_without_checking_again(trial, monkeypatch):
    idx = np.array([5, 0, 5, 1808, 2])
    rebuilt = Dataset(
        **{name: getattr(trial, name)[idx] for name in ("x1", "a1", "l2", "s2", "a2", "y", "c")},
        x1_names=trial.x1_names,
    )

    def refuse(*args):
        raise AssertionError("take checked the rows again")

    monkeypatch.setattr(core, "first_invalid_record", refuse)
    sub = trial.take(idx)
    assert sub.x1_names == trial.x1_names
    for name in ("x1", "a1", "l2", "s2", "a2", "y", "c"):
        got, want = getattr(sub, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable, name
    with pytest.raises(ValueError, match="at least one record"):
        trial.take([])


def test_estimate_with_ic_se_matches_definition():
    ic = np.array([1.0, -1.0, 2.0, -2.0, 0.0])
    est = EstimateWithIC(psi=0.3, ic=ic)
    assert est.n == 5
    assert np.isclose(est.se, np.sqrt(np.var(ic, ddof=1) / 5))


def test_estimate_with_ic_se_survives_an_overflowing_square():
    # Costs near 1e300 are valid records, but the squares of their influence
    # curve overflow; the standard error is that of the curve over its scale.
    rng = np.random.default_rng(4)
    ic = rng.normal(size=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        se = EstimateWithIC(psi=0.0, ic=ic * 1e299).se
    assert np.isfinite(se)
    assert se == pytest.approx(EstimateWithIC(psi=0.0, ic=ic).se * 1e299, rel=1e-12)
    # A curve whose squares fit keeps the plain formula's bits.
    assert EstimateWithIC(psi=0.0, ic=ic).se == float(np.sqrt(np.var(ic, ddof=1) / 400))
