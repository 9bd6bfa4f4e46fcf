"""Monte-Carlo harness: repeated simulate / estimate / infer, then aggregate.

Each repetition draws a fresh trial of size n from its own substream of the
master seed, and every estimator analyzes the identical dataset (a paired
design, so variance ratios between estimators are paired comparisons).  Per
regime and estimator the harness records the ICER, its Wald interval, and
the component coefficients of variation; aggregation then reports bias,
variance, MSE, interval width, coverage against the simulation truth, and
the TMLE-to-IPW variance ratio.

Repetitions where the ICER is undefined (an exactly zero effect difference,
or an estimation failure) can never enter the moments; they are counted and
reported.  Repetitions with a defined but unreliable ICER (a component
coefficient of variation at or past the threshold) are excluded by default
and restored by ``retain_degenerate``, which reproduces the behavior behind
published summaries whose enormous interval widths show no trimming at all.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Dataset, EstimateWithIC, EstimationFailure, RegimeSpec
from .core import OUTCOMES, check_count, check_reference, check_regime_ids
from .dgp import (
    REFERENCE_ID,
    TARGET_ICER,
    TRIAL_N,
    TRUTH_MC_DRAWS,
    DgpConfig,
    TruthTable,
    embedded_regimes,
    simulate_smart,
    true_values,
)
from .estimate import (
    DEFAULT_G_MODES,
    GModel,
    RegimeMeanRequest,
    ZeroSupport,
    check_estimators,
    estimate_g,
    regime_mean,
)
from .glm import RankDeficient
from .inference import (
    ALPHA,
    CV_THRESHOLD,
    PER_HUNDRED,
    DegenerateDenominator,
    IcerResult,
    check_alpha,
    check_cv_threshold,
    icer,
    risk_difference,
    wald_ci,
)
from .rng import check_seed

__all__ = [
    "REPS",
    "StudyConfig",
    "StudyMetrics",
    "StudyResult",
    "run_study",
    "regime_means",
    "icer_table",
]

# The study's default number of repetitions.  It scores every embedded
# regime against the reference, standard of care.
REPS = 500
_REGIMES = embedded_regimes()
_SCORED = tuple(r for r in _REGIMES if r.id != REFERENCE_ID)

# Per-cell record of one repetition, in column order; a repetition's array
# adds a 1/0 reliability flag as its last column.
_FIELDS = ("icer", "se", "ci_lower", "ci_upper", "cv_cost", "cv_eff")


@dataclass(frozen=True)
class StudyConfig:
    """Design of one simulation study.

    The study scores the eight regimes of :func:`~smartcea.dgp.embedded_regimes`
    against regime :data:`~smartcea.dgp.REFERENCE_ID`, standard of care.
    Each estimator uses its treatment model from :data:`DEFAULT_G_MODES`.
    """

    reps: int = REPS
    n: int = TRIAL_N
    seed: int = 0
    estimators: tuple[str, ...] = tuple(DEFAULT_G_MODES)
    alpha: float = ALPHA
    cv_threshold: float = CV_THRESHOLD

    def __post_init__(self) -> None:
        check_count("reps", self.reps, 1)
        check_count("n", self.n, 2)
        check_seed(self.seed)
        check_estimators(self.estimators)
        check_alpha(self.alpha)
        check_cv_threshold(self.cv_threshold)


@dataclass(frozen=True)
class StudyMetrics:
    """Sampling-performance summary for one (estimator, regime) cell, over
    the ``n_used`` repetitions kept for it (NaN moments when there are none)."""

    bias: float
    variance: float
    mse: float
    mean_ci_width: float
    coverage_pct: float
    avg_cv_cost: float
    avg_cv_eff: float
    n_used: int
    rel_var_vs_ipw: float | None = None


@dataclass(frozen=True)
class RepDraws:
    """Per-repetition records for one (estimator, regime) cell; NaN = excluded."""

    icer: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    cv_cost: np.ndarray
    cv_eff: np.ndarray
    failed: np.ndarray
    unreliable: np.ndarray


@dataclass(frozen=True)
class StudyResult:
    truth: TruthTable
    truth_icers: dict[int, float]
    rows: dict[tuple[str, int], StudyMetrics]
    draws: dict[tuple[str, int], RepDraws]


def _variance_ratio(num: np.ndarray, den: np.ndarray, aligned: np.ndarray) -> float | None:
    """var(num) / var(den) over the aligned reps; None when undefined."""
    if aligned.sum() < 2:
        return None
    v_den = float(np.var(den[aligned]))
    if v_den == 0.0:
        return None
    return float(np.var(num[aligned])) / v_den


def _rep_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence((seed, rep)).generate_state(1, np.uint64)[0])


def regime_means(
    dataset: Dataset,
    regimes: Sequence[RegimeSpec],
    estimator: str,
    g: GModel,
    outcomes: Sequence[str] = OUTCOMES,
) -> dict[int, list[EstimateWithIC] | EstimationFailure]:
    """Each regime's means of ``outcomes``, in that order, keyed by regime id.

    A regime whose mean is not identified on these data (no consistent
    record, or too few to span an outcome-model design) maps instead to the
    :class:`ZeroSupport` or :class:`RankDeficient` that says so, and its
    later outcomes are not estimated.  Any other estimation failure is
    raised again as the same class, its message prefixed with the regime
    and outcome it came from.  Keys follow the order of ``regimes``;
    ``ValueError`` if two of them share an id (``core.check_regime_ids``).
    """
    check_regime_ids(regimes)
    out: dict[int, list[EstimateWithIC] | EstimationFailure] = {}
    for regime in regimes:
        means = []
        try:
            for outcome in outcomes:
                request = RegimeMeanRequest(
                    regime=regime, outcome=outcome, estimator=estimator, g=g
                )
                means.append(regime_mean(dataset, request))
        except (ZeroSupport, RankDeficient) as err:
            out[regime.id] = err
        except EstimationFailure as err:
            raise type(err)(f"regime {regime.id}, outcome {outcome}: {err}") from None
        else:
            out[regime.id] = means
    return out


def icer_table(
    dataset: Dataset,
    regimes: Sequence[RegimeSpec],
    reference_id: int,
    estimator: str,
    g: GModel,
) -> dict[int, IcerResult | EstimationFailure]:
    """ICER of each other regime in ``regimes`` against the one with ``reference_id``.

    Every (regime, outcome) mean is estimated once by :func:`regime_means`,
    for the given regimes only.  An undefined ratio maps to the failure that
    leaves it so: the regime's own :class:`ZeroSupport` or
    :class:`RankDeficient`, the reference's (same class, its message
    prefixed ``reference regime <id>: ``), or the :class:`DegenerateDenominator`
    of a zero effect difference.  Keys follow the order of ``regimes``.
    ``ValueError``, before any fit, on a shared id
    (``core.check_regime_ids``) or a reference not among ``regimes``
    (``core.check_reference``).
    """
    check_regime_ids(regimes)
    reference = check_reference(regimes, reference_id)
    ref = regime_means(dataset, [reference], estimator, g)[reference_id]
    others = [r for r in regimes if r.id != reference_id]
    if isinstance(ref, EstimationFailure):
        failure = type(ref)(f"reference regime {reference_id}: {ref}")
        return {r.id: failure for r in others}
    out: dict[int, IcerResult | EstimationFailure] = {}
    for rid, est in regime_means(dataset, others, estimator, g).items():
        if isinstance(est, EstimationFailure):
            out[rid] = est
            continue
        rd_eff = risk_difference(est[0], ref[0], PER_HUNDRED)
        rd_cost = risk_difference(est[1], ref[1], 1.0)
        try:
            out[rid] = icer(rd_cost, rd_eff)
        except DegenerateDenominator as err:
            out[rid] = err
    return out


def _run_one_rep(config: StudyConfig, rep: int) -> np.ndarray:
    """One repetition: simulate once, analyze under every estimator.

    Returns one row per (estimator, regime) cell, estimators outermost: the
    ``_FIELDS`` values and a 1/0 reliability flag, or all NaN when the
    cell's statistic is undefined for this rep.
    """
    dataset = simulate_smart(DgpConfig(n=config.n, seed=_rep_seed(config.seed, rep)))
    rows = []
    for est in config.estimators:
        try:
            g = estimate_g(dataset, DEFAULT_G_MODES[est])
        except EstimationFailure:
            results = {}
        else:
            results = icer_table(dataset, _REGIMES, REFERENCE_ID, est, g)
        for regime in _SCORED:
            res = results.get(regime.id)
            if isinstance(res, IcerResult):
                rows.append([
                    res.icer.psi, res.icer.se, *wald_ci(res.icer, config.alpha),
                    res.cv_cost, res.cv_eff, res.is_reliable(config.cv_threshold),
                ])
            else:
                rows.append([math.nan] * (len(_FIELDS) + 1))
    return np.array(rows, dtype=np.float64).reshape(-1, len(_FIELDS) + 1)


def _truth_icers(truth: TruthTable) -> dict[int, float]:
    """Truth ICER per scored regime, published-table fallback where undefined.

    A regime whose true effect difference is exactly zero has no true ICER;
    bias and coverage for it are anchored at the published benchmark value
    so the cell stays comparable instead of vanishing.
    """
    out: dict[int, float] = {}
    for regime in _SCORED:
        value = truth.icer_for(regime.id)
        out[regime.id] = value if math.isfinite(value) else float(TARGET_ICER[regime.id - 1])
    return out


def run_study(
    config: StudyConfig,
    truth: TruthTable | None = None,
    retain_degenerate: bool = False,
    threads: int = 1,
    progress: Callable[[int], None] | None = None,
) -> StudyResult:
    """Run the full simulation study described by ``config``.

    ``truth`` defaults to a fresh :func:`~smartcea.dgp.true_values` table at
    :data:`TRUTH_MC_DRAWS` draws under the study's master seed; a given one
    must hold every embedded regime against :data:`REFERENCE_ID`, or
    ``ValueError`` is raised before any repetition.  Each repetition runs
    every estimator once through :func:`icer_table`.  ``retain_degenerate`` keeps
    unreliable-but-defined reps in the moments.  ``threads`` caps
    process-level parallelism, at most one worker process per rep; results
    are identical for any thread count because each rep is self-contained.
    ``progress(rep)`` is called as each repetition's result arrives, in
    repetition order.
    """
    check_count("threads", threads, 1)
    if truth is None:
        truth = true_values(
            DgpConfig(n=config.n, seed=config.seed), mc_draws=TRUTH_MC_DRAWS, seed=config.seed
        )
    if truth.reference_id != REFERENCE_ID or not set(_REGIMES) <= set(truth.regimes):
        raise ValueError(
            f"truth table (reference {truth.reference_id}) does not hold the study's "
            f"regimes {[r.id for r in _REGIMES]} against reference {REFERENCE_ID}"
        )
    truth_icers = _truth_icers(truth)

    cells = [(est, r.id) for est in config.estimators for r in _SCORED]
    workers = min(threads, config.reps)
    parallel = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    per_rep = []
    with parallel as pool:
        rep_map = map if pool is None else pool.map
        for rep, values in enumerate(
            rep_map(_run_one_rep, [config] * config.reps, range(config.reps))
        ):
            per_rep.append(values)
            if progress is not None:
                progress(rep)

    # (reps, cells, fields + flag); a failed cell's flag is NaN.
    values = np.stack(per_rep)
    flag = values[..., -1]
    failed = np.isnan(flag)
    unreliable = flag == 0.0
    kept = ~failed if retain_degenerate else flag == 1.0
    # (cells, fields, reps), NaN outside the kept reps.
    masked = np.where(kept[..., None], values[..., :-1], np.nan).transpose(1, 2, 0)

    rows: dict[tuple[str, int], StudyMetrics] = {}
    draws: dict[tuple[str, int], RepDraws] = {}
    for c, (est, rid) in enumerate(cells):
        d = RepDraws(
            **dict(zip(_FIELDS, masked[c])), failed=failed[:, c], unreliable=unreliable[:, c]
        )
        draws[(est, rid)] = d
        k = kept[:, c]
        n_used = int(k.sum())
        t = truth_icers[rid]
        ratio = None
        if est == "tmle" and "ipw" in config.estimators:
            ipw = cells.index(("ipw", rid))
            ratio = _variance_ratio(masked[c, 0], masked[ipw, 0], k & kept[:, ipw])
        if n_used == 0 or not math.isfinite(t):
            metrics = StudyMetrics(*(math.nan,) * 7, n_used=n_used, rel_var_vs_ipw=ratio)
        else:
            vals, lo, hi = d.icer[k], d.ci_lower[k], d.ci_upper[k]
            metrics = StudyMetrics(
                bias=float(vals.mean()) - t,
                variance=float(np.var(vals)),
                mse=float(np.mean((vals - t) ** 2)),
                mean_ci_width=float(np.mean(hi - lo)),
                coverage_pct=100.0 * float(((lo <= t) & (t <= hi)).mean()),
                avg_cv_cost=float(np.mean(d.cv_cost[k])),
                avg_cv_eff=float(np.mean(d.cv_eff[k])),
                n_used=n_used,
                rel_var_vs_ipw=ratio,
            )
        rows[(est, rid)] = metrics
    return StudyResult(truth=truth, truth_icers=truth_icers, rows=rows, draws=draws)
