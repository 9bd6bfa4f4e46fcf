"""Regime-specific mean estimators: inverse-probability weighting and TMLE.

Both estimators target E[Y(d)] or E[C(d)], the mean outcome had everyone
followed regime d.  IPW reweights regime-consistent records by the inverse
of their cumulative treatment probability.  TMLE builds iterated outcome
regressions (stage 2 on the regime-consistent records, stage 1 on records
whose first treatment matches the regime) and fluctuates each along an
intercept-only logistic submodel with inverse-probability weights, which
solves the efficient influence curve's score equation; outcomes are mapped
to [0, 1] for the logistic machinery and mapped back at the end.

Each working regression adjusts for the history the design makes available
at its stage, with main terms or, on request, saturated: one indicator per
observed stratum of those columns.

Treatment probabilities come from a :class:`GModel`, either the design's
known randomization probabilities (uniform over the supports in ``core``) or
logistic fits (`estimate_g`).  It stores g only at the treatments each
record received: a record enters the weights I(A = d) / (g1 g2) only when
those treatments are the regime's.  A :class:`RegimeMeanRequest` bundles one
estimation task: the regime, the outcome column, the estimator, the
treatment model, and a flag for saturated outcome regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import STAGE1_SUPPORT, STAGE2_SUPPORT
from .core import Dataset, EstimateWithIC, EstimationFailure, RegimeSpec, consistency_mask
from .glm import SeparationDetected, expit, fit_logistic, logit, predict

__all__ = [
    "ZeroSupport",
    "FluctuationDiverged",
    "DEFAULT_G_MODES",
    "G_TRUNCATION",
    "check_estimators",
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


# Each estimator and its default treatment model: the benchmark comparison
# runs IPW with the known randomization probabilities against TMLE with fitted ones.
DEFAULT_G_MODES: Mapping[str, str] = {"ipw": "known", "tmle": "fitted"}

# Fitted treatment probabilities are truncated to [G_TRUNCATION, 1 - G_TRUNCATION].
G_TRUNCATION = 0.01


def check_estimators(estimators: Sequence[str]) -> tuple[str, ...]:
    """``estimators`` as a tuple; ``ValueError`` unless it names at least one
    estimator of :data:`DEFAULT_G_MODES`, none twice."""
    if not estimators:
        raise ValueError("at least one estimator required")
    if len(set(estimators)) != len(estimators):
        raise ValueError(f"estimators repeat: {estimators}")
    for est in estimators:
        if est not in DEFAULT_G_MODES:
            raise ValueError(f"unknown estimator {est!r}")
    return tuple(estimators)


def _design(columns: tuple[np.ndarray, ...], saturated: bool) -> np.ndarray:
    """An intercept followed by ``columns`` in order or, if ``saturated``, one
    indicator per observed stratum of ``columns`` (exact on finite supports)."""
    if not saturated:
        return np.column_stack((np.ones(columns[0].shape[0]), *columns))
    strata = np.column_stack(columns)
    _, inverse = np.unique(strata, axis=0, return_inverse=True)
    X = np.zeros((strata.shape[0], int(inverse.max()) + 1))
    X[np.arange(strata.shape[0]), inverse] = 1.0
    return X


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
    or 'tmle'; ``g`` supplies the treatment mechanism; ``saturated`` codes
    the iterated outcome regressions with one indicator per stratum of their
    adjustment columns instead of main terms (TMLE only).
    """

    regime: RegimeSpec
    outcome: str
    estimator: str
    g: GModel
    saturated: bool = False

    def __post_init__(self) -> None:
        if self.outcome not in ("y", "c"):
            raise ValueError(f"unknown outcome {self.outcome!r}, expected 'y' or 'c'")
        check_estimators((self.estimator,))


def _received_probs(X: np.ndarray, a: np.ndarray, hi: int, context: str) -> np.ndarray:
    """P(A = a_i | X_i) from a logistic fit of 1{A = hi} on X, truncated to
    [G_TRUNCATION, 1 - G_TRUNCATION]; ``context`` prefixes a separation error."""
    try:
        fit = fit_logistic(X, (a == hi).astype(np.float64))
    except SeparationDetected as err:
        raise SeparationDetected(f"{context}: {err}") from None
    p_hi = np.clip(predict(fit, X), G_TRUNCATION, 1.0 - G_TRUNCATION)
    return np.where(a == hi, p_hi, 1.0 - p_hi)


def estimate_g(dataset: Dataset, kind: str = "known") -> GModel:
    """Treatment mechanism: design probabilities or logistic fits.

    'known' takes the randomization to be uniform over each design support,
    whatever options a sample happened to see.  'fitted' estimates a stage-1
    logistic model of a1 on the baseline covariates and per-branch stage-2
    models of a2 on (baseline, a1, s2), each of the design's two options;
    'saturated' codes those covariates by stratum.  Fitted probabilities are
    truncated to [G_TRUNCATION, 1 - G_TRUNCATION]; known ones never are.
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

    if kind not in ("fitted", "saturated"):
        raise ValueError(
            f"unknown g kind {kind!r}, expected 'known', 'fitted' or 'saturated'"
        )
    X1 = _design((dataset.x1,), kind == "saturated")
    p_a1 = _received_probs(X1, dataset.a1, max(STAGE1_SUPPORT), "stage 1")

    p_a2 = np.empty(n)
    X2 = _design((dataset.x1, dataset.a1, dataset.s2), kind == "saturated")
    for branch in (0, 1):
        rows = dataset.l2 == branch
        if not rows.any():
            raise ZeroSupport(f"no records observed on branch l2={branch}")
        hi2, context = max(STAGE2_SUPPORT[branch]), f"stage 2, branch l2={branch}"
        p_a2[rows] = _received_probs(X2[rows], dataset.a2[rows], hi2, context)
    return GModel(p_a1=p_a1, p_a2=p_a2)


def _cumulative_weights(
    dataset: Dataset, regime: RegimeSpec, g: GModel
) -> tuple[np.ndarray, np.ndarray]:
    """(consistency mask, I[consistent] / (g1 g2)); raises on empty support."""
    mask = consistency_mask(dataset, regime)
    if not mask.any():
        raise ZeroSupport(f"no records consistent with regime {regime.id}")
    return mask, np.where(mask, 1.0 / (g.p_a1 * g.p_a2), 0.0)


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


def _fluctuate(
    z: np.ndarray, q: np.ndarray, weights: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Intercept-only logistic update of q toward z along weighted residuals.

    The fit reads only ``rows``, the rows of q with positive weight, on
    which ``z`` and ``weights`` are given; the update covers every row of q.
    """
    offset = logit(np.clip(q, 1e-10, 1.0 - 1e-10))
    ones = np.ones((rows.size, 1))
    try:
        fit = fit_logistic(ones, z, weights=weights, offset=offset[rows])
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

    Stage 2 reads only the records whose first treatment is the regime's
    (a1 = d1), where the stage-1 weights are positive: its initial fit runs
    on the regime-consistent records among them, and its prediction and
    fluctuation cover them all.  Stage 1 fits on those records too, but
    predicts and fluctuates on every record, since psi is the mean of the
    fluctuated stage-1 prediction over all of them.  The two weighted
    residual terms of the influence curve vanish off the stage-1 records.
    """
    regime = request.regime
    mask, h2 = _cumulative_weights(dataset, regime, request.g)

    z_raw = dataset.outcome(request.outcome)
    lo = float(z_raw.min())
    hi = float(z_raw.max())
    if hi == lo:
        return EstimateWithIC(psi=lo, ic=np.zeros(dataset.n))

    s1 = np.flatnonzero(dataset.a1 == regime.d1)
    z = (z_raw[s1] - lo) / (hi - lo)
    h1 = 1.0 / request.g.p_a1[s1]
    h2 = h2[s1]
    consistent = np.flatnonzero(mask[s1])

    # The saturated coding's strata are those of all records, so a stratum
    # with no consistent record leaves a zero column and the fit refuses it.
    X2 = _design((dataset.x1, dataset.l2, dataset.s2), request.saturated)[s1]
    fit2 = fit_logistic(X2[consistent], z[consistent])
    q2_star = _fluctuate(z[consistent], predict(fit2, X2), h2[consistent], consistent)

    X1 = _design((dataset.x1,), request.saturated)
    fit1 = fit_logistic(X1[s1], q2_star)
    q1_star = _fluctuate(q2_star, predict(fit1, X1), h1, s1)

    psi_scaled = float(q1_star.mean())
    ic_scaled = q1_star - psi_scaled
    ic_scaled[s1] += h2 * (z - q2_star) + h1 * (q2_star - q1_star[s1])
    return EstimateWithIC(psi=lo + (hi - lo) * psi_scaled, ic=(hi - lo) * ic_scaled)


def regime_mean(dataset: Dataset, request: RegimeMeanRequest) -> EstimateWithIC:
    """Dispatch on the request's estimator tag."""
    if request.estimator == "ipw":
        return ipw_mean(dataset, request)
    return tmle_mean(dataset, request)
