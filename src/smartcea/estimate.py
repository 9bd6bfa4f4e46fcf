"""Regime-specific mean estimators: inverse-probability weighting and TMLE.

Both estimators target E[Y(d)] or E[C(d)], the mean outcome had everyone
followed regime d.  IPW reweights regime-consistent records by the inverse
of their cumulative treatment probability.  TMLE builds iterated outcome
regressions (stage 2 on the regime-consistent records, stage 1 on records
whose first treatment matches the regime) and fluctuates each along an
intercept-only logistic submodel with inverse-probability weights, which
solves the efficient influence curve's score equation; outcomes are mapped
to [0, 1] for the logistic machinery and mapped back at the end.

Treatment probabilities come from a :class:`GModel`, either the design's
known randomization probabilities (uniform over the supports in ``core``) or
logistic fits (`estimate_g`).  It
stores g only at the treatments each record received: a record enters the
weights I(A = d) / (g1 g2) only when those treatments are the regime's.  A
:class:`RegimeMeanRequest` bundles one estimation task: the regime, the
outcome column, the estimator, the treatment model, and the outcome-model
covariates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import STAGE1_SUPPORT, STAGE2_SUPPORT
from .core import Dataset, EstimateWithIC, EstimationFailure, RegimeSpec, consistency_mask
from .glm import SeparationDetected, expit, fit_logistic, logit, predict

__all__ = [
    "ZeroSupport",
    "FluctuationDiverged",
    "CovariateSpec",
    "DEFAULT_Q",
    "DEFAULT_G",
    "SATURATED_Q",
    "SATURATED_G",
    "GModel",
    "RegimeMeanRequest",
    "estimate_g",
    "ipw_mean",
    "tmle_mean",
    "regime_mean",
]


class ZeroSupport(EstimationFailure):
    """No record in the data follows the regime, so nothing identifies it."""


class FluctuationDiverged(EstimationFailure):
    """A TMLE fluctuation step separated instead of converging."""


@dataclass(frozen=True)
class CovariateSpec:
    """Named covariate terms for the two stage-specific regressions.

    Terms: 'x1' (all baseline columns), 'x1_sq', 'log_abs_x1', 'a1', 'l2',
    's2'.  An intercept is always prepended.  The special spec
    ("saturated",) instead builds one indicator per observed stratum of the
    model's standard adjustment variables (outcome stage 2: x1, l2, s2;
    outcome stage 1: x1; treatment stage 1: x1; treatment stage 2: x1, a1,
    s2), with no intercept; it is exact when those variables have small
    finite support.
    """

    stage1: tuple[str, ...]
    stage2: tuple[str, ...]

    _TERMS = frozenset(
        {"x1", "x1_sq", "log_abs_x1", "a1", "l2", "s2", "saturated"}
    )

    def __post_init__(self) -> None:
        for stage in (self.stage1, self.stage2):
            for term in stage:
                if term not in self._TERMS:
                    raise ValueError(f"unknown covariate term {term!r}")
            if "saturated" in stage and stage != ("saturated",):
                raise ValueError("'saturated' must be the only term in its stage")


# Main-terms adjustment on all measured covariates, mirroring an analysis
# that regresses on what was collected rather than on oracle transforms.
DEFAULT_Q = CovariateSpec(stage1=("x1",), stage2=("x1", "l2", "s2"))
DEFAULT_G = CovariateSpec(stage1=("x1",), stage2=("x1", "a1", "s2"))
SATURATED_Q = CovariateSpec(stage1=("saturated",), stage2=("saturated",))
SATURATED_G = CovariateSpec(stage1=("saturated",), stage2=("saturated",))


def _term_columns(dataset: Dataset, name: str) -> np.ndarray:
    if name == "x1":
        return dataset.x1
    if name == "x1_sq":
        return dataset.x1**2
    if name == "log_abs_x1":
        return np.log(np.abs(dataset.x1) + 0.01)
    if name == "a1":
        return dataset.a1[:, None].astype(np.float64)
    if name == "l2":
        return dataset.l2[:, None].astype(np.float64)
    if name == "s2":
        return dataset.s2[:, None]
    raise ValueError(f"unknown covariate term {name!r}")


def _cell_indicators(strata: np.ndarray) -> np.ndarray:
    _, inverse = np.unique(strata, axis=0, return_inverse=True)
    X = np.zeros((strata.shape[0], int(inverse.max()) + 1))
    X[np.arange(strata.shape[0]), inverse] = 1.0
    return X


def _design(
    dataset: Dataset, terms: tuple[str, ...], strata_terms: tuple[str, ...]
) -> np.ndarray:
    if "saturated" in terms:
        strata = np.hstack([_term_columns(dataset, t) for t in strata_terms])
        return _cell_indicators(strata)
    cols = [np.ones((dataset.n, 1))]
    cols.extend(_term_columns(dataset, t) for t in terms)
    return np.hstack(cols)


@dataclass(frozen=True)
class GModel:
    """Treatment mechanism, known or fitted, at each record's own treatments.

    ``p_a1[i]`` is P(A1 = a1_i | X1_i) and ``p_a2[i]`` is P(A2 = a2_i | H2_i)
    on the branch record i followed.  The estimators weight only records
    whose treatments are the regime's, so g is never needed anywhere else.
    """

    p_a1: np.ndarray = field(repr=False)
    p_a2: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RegimeMeanRequest:
    """One estimation task: which regime, which outcome, how.

    ``outcome`` is 'y' (effectiveness) or 'c' (cost); ``estimator`` is 'ipw'
    or 'tmle'; ``g`` supplies the treatment mechanism; ``q_covariates`` the
    iterated-regression covariates (TMLE only).
    """

    regime: RegimeSpec
    outcome: str
    estimator: str
    g: GModel
    q_covariates: CovariateSpec = DEFAULT_Q

    def __post_init__(self) -> None:
        if self.outcome not in ("y", "c"):
            raise ValueError(f"unknown outcome {self.outcome!r}, expected 'y' or 'c'")
        if self.estimator not in ("ipw", "tmle"):
            raise ValueError(
                f"unknown estimator {self.estimator!r}, expected 'ipw' or 'tmle'"
            )


def estimate_g(
    dataset: Dataset,
    kind: str = "known",
    covariate_spec: CovariateSpec = DEFAULT_G,
    truncation: float = 0.01,
) -> GModel:
    """Treatment mechanism: design probabilities or logistic fits.

    'known' takes the randomization to be uniform over each design support,
    whatever options a sample happened to see.  'fitted' estimates a stage-1
    logistic model of a1 on the baseline covariates and per-branch stage-2
    models of a2 on (baseline, a1, s2), each of the design's two options;
    fitted probabilities are truncated to [truncation, 1 - truncation].
    Known probabilities are never truncated.
    """
    n = dataset.n
    if kind == "known":
        return GModel(
            p_a1=np.full(n, 1.0 / len(STAGE1_SUPPORT)),
            p_a2=np.where(
                dataset.l2 == 1,
                1.0 / len(STAGE2_SUPPORT[1]),
                1.0 / len(STAGE2_SUPPORT[0]),
            ),
        )

    if kind != "fitted":
        raise ValueError(f"unknown g kind {kind!r}, expected 'known' or 'fitted'")
    if not 0.0 < truncation < 0.5:
        raise ValueError("truncation must lie in (0, 0.5)")

    hi1 = max(STAGE1_SUPPORT)
    X1 = _design(dataset, covariate_spec.stage1, ("x1",))
    try:
        fit1 = fit_logistic(X1, (dataset.a1 == hi1).astype(np.float64))
    except SeparationDetected as err:
        raise SeparationDetected(f"stage 1: {err}") from None
    p_hi1 = np.clip(predict(fit1, X1), truncation, 1.0 - truncation)
    p_a1 = np.where(dataset.a1 == hi1, p_hi1, 1.0 - p_hi1)

    p_a2 = np.empty(n)
    X2 = _design(dataset, covariate_spec.stage2, ("x1", "a1", "s2"))
    for branch in (0, 1):
        hi2 = max(STAGE2_SUPPORT[branch])
        rows = dataset.l2 == branch
        if not rows.any():
            raise ZeroSupport(f"no records observed on branch l2={branch}")
        try:
            fit2 = fit_logistic(X2[rows], (dataset.a2[rows] == hi2).astype(np.float64))
        except SeparationDetected as err:
            raise SeparationDetected(f"stage 2, branch l2={branch}: {err}") from None
        p_hi2 = np.clip(predict(fit2, X2[rows]), truncation, 1.0 - truncation)
        p_a2[rows] = np.where(dataset.a2[rows] == hi2, p_hi2, 1.0 - p_hi2)
    return GModel(p_a1=p_a1, p_a2=p_a2)


def _cumulative_weights(
    dataset: Dataset, regime: RegimeSpec, g: GModel
) -> tuple[np.ndarray, np.ndarray]:
    """(consistency mask, I[consistent] / (g1 g2)); raises on empty support."""
    mask = consistency_mask(dataset, regime)
    if not mask.any():
        raise ZeroSupport(f"no records consistent with regime {regime.id}")
    w = np.zeros(dataset.n)
    w[mask] = 1.0 / (g.p_a1[mask] * g.p_a2[mask])
    return mask, w


def ipw_mean(dataset: Dataset, request: RegimeMeanRequest) -> EstimateWithIC:
    """Weight-normalized inverse-probability mean of the outcome under the regime.

    psi solves the weighted estimating equation sum w (z - psi) = 0, i.e. the
    weighted mean with weights I[consistent]/(g1 g2).  Normalizing by the
    realized weight total (whose expectation is n) is what a weighted
    regression over the consistent records computes, and it removes the pure
    noise the random consistent-record count would otherwise inject.  The
    influence curve is the plug-in one (treatment probabilities taken as
    fixed); under a fitted g this over-states the variance, never the
    reverse, so intervals are conservative.
    """
    _, w = _cumulative_weights(dataset, request.regime, request.g)
    z = dataset.outcome(request.outcome)
    psi = float((w * z).sum() / w.sum())
    return EstimateWithIC(psi=psi, ic=w * (z - psi) / w.mean())


def _fluctuate(z: np.ndarray, q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Intercept-only logistic update of q toward z along weighted residuals."""
    offset = logit(np.clip(q, 1e-10, 1.0 - 1e-10))
    ones = np.ones((z.shape[0], 1))
    try:
        fit = fit_logistic(ones, z, weights=weights, offset=offset)
    except SeparationDetected as err:
        raise FluctuationDiverged(str(err)) from None
    return expit(offset + fit.coefficients[0])


def tmle_mean(dataset: Dataset, request: RegimeMeanRequest) -> EstimateWithIC:
    """Targeted minimum-loss estimate of the outcome mean under the regime.

    The influence curve is the standard one for the iterated-regression
    representation: weighted stage-2 residual plus weighted stage-1 residual
    plus the centered stage-1 prediction, on the original outcome scale.
    A constant outcome column short-circuits to that constant with a zero
    influence curve.
    """
    regime = request.regime
    mask, h2 = _cumulative_weights(dataset, regime, request.g)
    stage1_mask = dataset.a1 == regime.d1
    h1 = np.zeros(dataset.n)
    h1[stage1_mask] = 1.0 / request.g.p_a1[stage1_mask]

    z_raw = dataset.outcome(request.outcome)
    lo = float(z_raw.min())
    hi = float(z_raw.max())
    if hi == lo:
        return EstimateWithIC(psi=lo, ic=np.zeros(dataset.n))
    z = (z_raw - lo) / (hi - lo)

    X2 = _design(dataset, request.q_covariates.stage2, ("x1", "l2", "s2"))
    fit2 = fit_logistic(X2[mask], z[mask])
    q2 = predict(fit2, X2)
    q2_star = _fluctuate(z, q2, h2)

    X1 = _design(dataset, request.q_covariates.stage1, ("x1",))
    fit1 = fit_logistic(X1[stage1_mask], q2_star[stage1_mask])
    q1 = predict(fit1, X1)
    q1_star = _fluctuate(q2_star, q1, h1)

    psi_scaled = float(q1_star.mean())
    ic_scaled = h2 * (z - q2_star) + h1 * (q2_star - q1_star) + (q1_star - psi_scaled)
    return EstimateWithIC(psi=lo + (hi - lo) * psi_scaled, ic=(hi - lo) * ic_scaled)


def regime_mean(dataset: Dataset, request: RegimeMeanRequest) -> EstimateWithIC:
    """Dispatch on the request's estimator tag."""
    if request.estimator == "ipw":
        return ipw_mean(dataset, request)
    return tmle_mean(dataset, request)
