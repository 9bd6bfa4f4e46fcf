"""Contrasts and uncertainty: risk differences, ICERs, and their intervals.

All point estimators in this package carry influence curves, so contrasts
are formed by differencing influence curves record by record and ratios by
the delta method.  The delta-method ICER standard error is only trustworthy
when neither component is noisy relative to its size, so every ICER carries
a reliability flag driven by the components' coefficients of variation; the
nonparametric bootstrap is the fallback when the flag is down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .core import Dataset, EstimateWithIC, EstimationFailure
from .estimate import FluctuationDiverged, ZeroSupport
from .glm import RankDeficient, SeparationDetected
from .rng import PURPOSE_BOOTSTRAP, philox_stream

__all__ = [
    "PER_HUNDRED",
    "MIN_DENOMINATOR",
    "MAX_DEGENERATE_SHARE",
    "DegenerateDenominator",
    "TooManyDegenerate",
    "risk_difference",
    "wald_ci",
    "delta_method_ic",
    "IcerResult",
    "icer",
    "ContrastResult",
    "contrast",
    "BootstrapResult",
    "bootstrap_ci",
]

# Reporting scale for effectiveness differences: successes per 100 persons.
PER_HUNDRED = 100.0

# Effect differences smaller than this are treated as exactly zero.
MIN_DENOMINATOR = 1e-12

# A bootstrap interval is refused when more than this share of replicates
# is degenerate.
MAX_DEGENERATE_SHARE = 0.1


class DegenerateDenominator(EstimationFailure):
    """The effect difference is numerically zero; the ICER is undefined."""


class TooManyDegenerate(EstimationFailure):
    """Too large a share of bootstrap replicates had undefined statistics."""


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


def wald_ci(psi: float, ic: np.ndarray, alpha: float = 0.05) -> tuple[float, float]:
    """Normal-theory interval from the influence-curve standard error."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    se = EstimateWithIC(psi=psi, ic=np.asarray(ic, dtype=np.float64)).se
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return psi - z * se, psi + z * se


def delta_method_ic(
    rd_cost: EstimateWithIC, rd_eff: EstimateWithIC
) -> tuple[float, np.ndarray]:
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
    value = rd_cost.psi / rd_eff.psi
    ic = rd_cost.ic / rd_eff.psi - (rd_cost.psi / rd_eff.psi**2) * rd_eff.ic
    return value, ic


@dataclass(frozen=True)
class IcerResult:
    """Incremental cost-effectiveness ratio with delta-method uncertainty.

    ``cv_cost`` and ``cv_eff`` are the components' coefficients of variation
    (standard error over absolute point value); ``reliable`` is their joint
    verdict against the threshold the result was built with.
    """

    icer: float
    rd_cost: EstimateWithIC
    rd_eff: EstimateWithIC
    ic_icer: np.ndarray
    se: float
    ci: tuple[float, float]
    cv_cost: float
    cv_eff: float
    reliable: bool


def icer(
    rd_cost: EstimateWithIC,
    rd_eff: EstimateWithIC,
    cv_threshold: float = 2.0,
    alpha: float = 0.05,
) -> IcerResult:
    """Ratio of incremental cost to incremental effect, by the delta method.

    Raises :class:`DegenerateDenominator` when the effect difference is
    numerically zero.  ``reliable`` is True when both components have
    coefficient of variation below ``cv_threshold``; when it is False the
    delta-method interval should not be reported and the bootstrap used
    instead.
    """
    value, ic = delta_method_ic(rd_cost, rd_eff)
    cv_cost = math.inf if rd_cost.psi == 0.0 else rd_cost.se / abs(rd_cost.psi)
    cv_eff = rd_eff.se / abs(rd_eff.psi)
    return IcerResult(
        icer=value,
        rd_cost=rd_cost,
        rd_eff=rd_eff,
        ic_icer=ic,
        se=EstimateWithIC(psi=value, ic=ic).se,
        ci=wald_ci(value, ic, alpha),
        cv_cost=cv_cost,
        cv_eff=cv_eff,
        reliable=bool(cv_cost < cv_threshold and cv_eff < cv_threshold),
    )


@dataclass(frozen=True)
class ContrastResult:
    """Difference of two ICERs against the same reference regime."""

    diff: float
    ic: np.ndarray
    se: float
    ci: tuple[float, float]
    component_icers: tuple[float, float]


def contrast(
    icer_i: IcerResult, icer_j: IcerResult, alpha: float = 0.05
) -> ContrastResult:
    """ICER_i - ICER_j with a record-by-record differenced influence curve.

    Both results must come from the same dataset (aligned records) so the
    difference curve carries their covariance.
    """
    if icer_i.ic_icer.shape[0] != icer_j.ic_icer.shape[0]:
        raise ValueError("ICERs use different records")
    diff = icer_i.icer - icer_j.icer
    ic = icer_i.ic_icer - icer_j.ic_icer
    return ContrastResult(
        diff=diff,
        ic=ic,
        se=EstimateWithIC(psi=diff, ic=ic).se,
        ci=wald_ci(diff, ic, alpha),
        component_icers=(icer_i.icer, icer_j.icer),
    )


@dataclass(frozen=True)
class BootstrapResult:
    lower: float
    upper: float
    alpha: float
    n_replicates: int
    n_degenerate: int
    estimates: np.ndarray


def bootstrap_ci(
    dataset: Dataset,
    analysis_spec: Callable[[Dataset], float],
    n_replicates: int = 500,
    seed: int = 0,
    alpha: float = 0.05,
) -> BootstrapResult:
    """Percentile bootstrap over records.

    ``analysis_spec`` maps a resampled dataset to the scalar of interest.
    Replicate b resamples rows with the stream (seed, bootstrap, b), so the
    first replicates are identical whatever ``n_replicates`` is.  Replicates
    where the statistic is undefined (degenerate denominator, a regime with
    no consistent records), where a fit behind it is rank-deficient (a design
    the resampled rows do not span) or where a fit has no finite maximum
    (separation, a diverged TMLE fluctuation) are dropped but counted as
    degenerate; if their share exceeds :data:`MAX_DEGENERATE_SHARE`, or no
    replicate is left, the interval is refused with
    :class:`TooManyDegenerate`.
    """
    if n_replicates < 100:
        raise ValueError("need at least 100 replicates for a percentile interval")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n = dataset.n
    kept = []
    n_degenerate = 0
    for b in range(n_replicates):
        rng = philox_stream(seed, PURPOSE_BOOTSTRAP, b)
        idx = rng.integers(0, n, size=n)
        try:
            kept.append(float(analysis_spec(dataset.take(idx))))
        except (
            DegenerateDenominator,
            ZeroSupport,
            RankDeficient,
            SeparationDetected,
            FluctuationDiverged,
        ):
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
        alpha=alpha,
        n_replicates=n_replicates,
        n_degenerate=n_degenerate,
        estimates=draws,
    )
