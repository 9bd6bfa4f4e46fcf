"""Contrasts and uncertainty: risk differences, ICERs, and their intervals.

All point estimators in this package carry influence curves, so contrasts
are formed by differencing influence curves record by record and ratios by
the delta method.  The delta-method ICER standard error is only trustworthy
when neither component is noisy relative to its size, so every ICER carries
the components' coefficients of variation, which a reporter judges against
a reliability bound; the nonparametric bootstrap is the fallback when they
fail it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .core import Dataset, EstimateWithIC, EstimationFailure, check_count
from .rng import PURPOSE_BOOTSTRAP, philox_stream

__all__ = [
    "PER_HUNDRED",
    "MIN_DENOMINATOR",
    "ALPHA",
    "REPLICATES",
    "MIN_REPLICATES",
    "MAX_DEGENERATE_SHARE",
    "CV_THRESHOLD",
    "DegenerateDenominator",
    "TooManyDegenerate",
    "check_alpha",
    "check_cv_threshold",
    "risk_difference",
    "wald_ci",
    "delta_method_ic",
    "IcerResult",
    "icer",
    "contrast",
    "BootstrapResult",
    "bootstrap_ci",
]

# Reporting scale for effectiveness differences: successes per 100 persons.
PER_HUNDRED = 100.0

# Effect differences smaller than this are treated as exactly zero.
MIN_DENOMINATOR = 1e-12

# The default two-sided error rate of an interval and number of bootstrap
# replicates.  A bootstrap takes at least MIN_REPLICATES replicates, and its
# interval is refused when more than a MAX_DEGENERATE_SHARE of them are degenerate.
ALPHA = 0.05
REPLICATES = 500
MIN_REPLICATES = 100
MAX_DEGENERATE_SHARE = 0.1


# The study's and the CLI's default bound for IcerResult.is_reliable.
CV_THRESHOLD = 2.0


class DegenerateDenominator(EstimationFailure):
    """The effect difference is numerically zero; the ICER is undefined."""


class TooManyDegenerate(EstimationFailure):
    """Too large a share of bootstrap replicates had undefined statistics."""


def check_alpha(alpha: float) -> None:
    """``ValueError`` unless the two-sided error rate ``alpha`` lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def check_cv_threshold(cv_threshold: float) -> None:
    """``ValueError`` unless the reliability bound ``cv_threshold`` is positive."""
    if not cv_threshold > 0.0:
        raise ValueError("cv_threshold must be positive")


def risk_difference(
    est_d: EstimateWithIC, est_d0: EstimateWithIC, scale: float
) -> EstimateWithIC:
    """Difference of two estimates computed on the same records.

    Both influence curves must be aligned record for record; the result's
    curve is their scaled difference, which carries the full covariance.
    ``scale`` sets the reporting unit (:data:`PER_HUNDRED` for effectiveness,
    1 for cost).
    """
    if est_d.n != est_d0.n:
        raise ValueError("estimates come from different numbers of records")
    return EstimateWithIC(
        psi=scale * (est_d.psi - est_d0.psi), ic=scale * (est_d.ic - est_d0.ic)
    )


def wald_ci(estimate: EstimateWithIC, alpha: float = ALPHA) -> tuple[float, float]:
    """Normal-theory interval from the influence-curve standard error."""
    check_alpha(alpha)
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * estimate.se
    return estimate.psi - half, estimate.psi + half


def delta_method_ic(rd_cost: EstimateWithIC, rd_eff: EstimateWithIC) -> EstimateWithIC:
    """ICER point value and influence curve for the ratio of two differences.

    ic = rd_cost.ic / psi_e - (psi_c / psi_e^2) * rd_eff.ic.  Raises
    :class:`DegenerateDenominator` when the effect difference is numerically
    zero (|psi_e| below :data:`MIN_DENOMINATOR`).  A zero cost difference
    over a nonzero effect difference is a legitimate ICER of zero.
    """
    if rd_cost.n != rd_eff.n:
        raise ValueError("cost and effect differences use different records")
    if abs(rd_eff.psi) < MIN_DENOMINATOR:
        raise DegenerateDenominator(
            f"|effect difference| = {abs(rd_eff.psi):.3g} below {MIN_DENOMINATOR:.0e}"
        )
    return EstimateWithIC(
        psi=rd_cost.psi / rd_eff.psi,
        ic=rd_cost.ic / rd_eff.psi - (rd_cost.psi / rd_eff.psi**2) * rd_eff.ic,
    )


@dataclass(frozen=True)
class IcerResult:
    """Incremental cost-effectiveness ratio with its components.

    ``icer`` is the delta-method ratio with its influence curve, so
    :func:`wald_ci` gives its interval at any level.  ``cv_cost`` and
    ``cv_eff`` are the components' coefficients of variation (standard
    error over absolute point value), which :meth:`is_reliable` judges.
    """

    icer: EstimateWithIC
    rd_cost: EstimateWithIC
    rd_eff: EstimateWithIC
    cv_cost: float
    cv_eff: float

    def is_reliable(self, cv_threshold: float) -> bool:
        """True when both components' coefficients of variation lie below
        ``cv_threshold``; when False the delta-method interval should not
        be reported and the bootstrap used instead.  ``ValueError`` unless
        ``cv_threshold`` is positive."""
        check_cv_threshold(cv_threshold)
        return bool(self.cv_cost < cv_threshold and self.cv_eff < cv_threshold)


def icer(rd_cost: EstimateWithIC, rd_eff: EstimateWithIC) -> IcerResult:
    """Ratio of incremental cost to incremental effect, by the delta method.

    Raises :class:`DegenerateDenominator` when the effect difference is
    numerically zero.
    """
    return IcerResult(
        icer=delta_method_ic(rd_cost, rd_eff),
        rd_cost=rd_cost,
        rd_eff=rd_eff,
        cv_cost=math.inf if rd_cost.psi == 0.0 else rd_cost.se / abs(rd_cost.psi),
        cv_eff=rd_eff.se / abs(rd_eff.psi),
    )


def contrast(icer_i: IcerResult, icer_j: IcerResult) -> EstimateWithIC:
    """ICER_i - ICER_j by :func:`risk_difference` of the two ratios.

    Both results must come from the same dataset (aligned records) so the
    difference curve carries their covariance.
    """
    return risk_difference(icer_i.icer, icer_j.icer, 1.0)


@dataclass(frozen=True)
class BootstrapResult:
    lower: float
    upper: float
    n_replicates: int
    n_degenerate: int
    estimates: np.ndarray


def bootstrap_ci(
    dataset: Dataset,
    analysis_spec: Callable[[Dataset], float],
    n_replicates: int = REPLICATES,
    seed: int = 0,
    alpha: float = ALPHA,
) -> BootstrapResult:
    """Percentile bootstrap over records.

    ``analysis_spec`` maps a resampled dataset to the scalar of interest.
    Replicate b resamples rows with the stream (seed, bootstrap, b), so the
    first replicates are identical whatever ``n_replicates``, an integer of
    at least :data:`MIN_REPLICATES`, is.  Replicates whose statistic raises
    an :class:`~smartcea.core.EstimationFailure` (a degenerate denominator, a
    regime with no consistent records, a rank-deficient or separated fit, a
    diverged TMLE fluctuation) are dropped but counted as degenerate; any
    other exception propagates.  If their share exceeds
    :data:`MAX_DEGENERATE_SHARE`, or no replicate is left, the interval is
    refused with :class:`TooManyDegenerate`.
    """
    check_count("n_replicates", n_replicates, MIN_REPLICATES)
    check_alpha(alpha)
    n = dataset.n
    kept = []
    n_degenerate = 0
    for b in range(n_replicates):
        rng = philox_stream(seed, PURPOSE_BOOTSTRAP, b)
        idx = rng.integers(0, n, size=n)
        try:
            kept.append(float(analysis_spec(dataset.take(idx))))
        except EstimationFailure:
            n_degenerate += 1
    if not kept or n_degenerate > MAX_DEGENERATE_SHARE * n_replicates:
        raise TooManyDegenerate(
            f"{n_degenerate} of {n_replicates} replicates were degenerate"
        )
    draws = np.asarray(kept)
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapResult(
        lower=float(lo),
        upper=float(hi),
        n_replicates=n_replicates,
        n_degenerate=n_degenerate,
        estimates=draws,
    )
