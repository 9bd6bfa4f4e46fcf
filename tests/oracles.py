"""Test oracles that the library does not need at run time.

``TARGET_EY`` and ``TARGET_EC`` are the published benchmark table of true
regime means, and ``TARGET_MC_DRAWS`` and ``TARGET_ROUNDING`` its precision;
``target_se`` combines that precision with a truth run's own.  The
acceptance gates and the calibration search compare against them.  Only the
table's ICER column, ``smartcea.dgp.TARGET_ICER``, stays in the library: the
study anchors a regime with no true ICER at it.

``calibrate_regime_indexing`` is the search that recovered the generator's
cell indexing and the benchmark row numbering of
``smartcea.dgp.embedded_regimes`` from the published table of true regime
means.  The library ships only its result: the cell with
``smartcea.dgp._cell_index`` k carries constant k + 1, which
``CELL_INDEX_MAP`` spells out cell by cell.  The tests rerun the search to
confirm it.  It draws from the reserved stream purpose
``smartcea.rng.PURPOSE_CALIBRATE``.

``per_regime_true_values`` is ``smartcea.dgp.true_values`` as a plain loop
over regimes that recomputes every quantity per regime and looks up each
row's constants by cell index.  ``true_values`` shares the per-arm work
across regimes and must agree with it bit for bit.

``reference_simulate_smart`` is ``smartcea.dgp.simulate_smart`` as it was
before it skipped the draws a short block does not read: every variable is
drawn as a full block of ``BLOCK`` values and cut to the rows kept.  The
library must produce the same bytes.

``reference_fit_logistic`` is the textbook IRLS that ``smartcea.glm.
fit_logistic`` replaced: it iterates on every row, solves every Newton step
with ``np.linalg.solve`` after an SVD rank check, evaluates the clipped
log-likelihood separately from the fitted probabilities, and halves a step
on any decrease of that likelihood, rounding included.  The library kernel
must agree with it to within what the score tolerance pins down, and must
fail in the same way.

``reference_tmle_mean`` is ``smartcea.estimate.tmle_mean`` as it was before
each stage read only the rows its result reads: every stage runs over all n
records, and ``reference_fluctuate`` hands ``fit_logistic`` every row with
its weight, zero included, for the kernel to gather.  The library must agree
with it bit for bit, in psi and in every influence-curve entry, and fail
with the same class and message.

``relative_variance`` is the paired TMLE/IPW variance ratio per regime, in
both orientations, with the checks that both estimators kept the same
repetitions.  ``smartcea.study.run_study`` reports the same ratio as
``rel_var_vs_ipw`` through ``_variance_ratio``, which this oracle calls; the
acceptance gate on the paired variance ratio reads it.

``icer_variance_decomposition`` splits the delta-method ICER variance into
the squared component coefficients of variation and the covariance term.
The acceptance check of the delta method against finite differences uses it
to confirm that the pieces add up to the influence-curve variance.

``brute_frontier`` is the gift-wrapping construction of the efficient
frontier that ``smartcea.cea.efficient_frontier``'s monotone chain must
reproduce, regime for regime.

``reference_efficient_frontier`` is ``smartcea.cea.efficient_frontier`` as
it was before it found the undominated candidates in one sweep: it tests
every candidate against every other.  ``reference_render_plane_svg`` is
``smartcea.cea.render_plane_svg`` as it was before one local writer wrote
each ``<line>`` and each ``<text>`` element.  The library must produce the
same frontier and the same SVG text.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import chi2

from smartcea.cea import (
    X_AXIS_LABEL,
    Y_AXIS_LABEL,
    EmptyFrontier,
    Frontier,
    PlanePoint,
    _cross,
    _ticks,
)
from smartcea.cli import CliError
from smartcea.core import STAGE1_SUPPORT, STAGE2_SUPPORT, Dataset, EstimateWithIC, RegimeSpec
from smartcea.dgp import (
    DgpConfig,
    _cell_index,
    _finish_truth,
    embedded_regimes,
    true_values,
)
from smartcea.estimate import (
    FluctuationDiverged,
    RegimeMeanRequest,
    _cumulative_weights,
    _design,
)
from smartcea.glm import (
    ETA_DIVERGED,
    MAX_HALVINGS,
    MAX_ITER,
    PROB_CLAMP,
    RIDGE,
    SCORE_TOL,
    GlmFit,
    RankDeficient,
    SeparationDetected,
    _as_matrix,
    expit,
    fit_logistic,
    logit,
    predict,
)
from smartcea.inference import IcerResult
from smartcea.rng import (
    BLOCK,
    PURPOSE_CALIBRATE,
    PURPOSE_SIMULATE,
    PURPOSE_TRUTH,
    philox_stream,
)
from smartcea.study import _variance_ratio


# Benchmark true values per regime (SOC first), the calibration targets.
# The published table is itself a Monte Carlo evaluation, rounded to 4
# decimals, with independent draws per regime, not exact values:
# - regimes 1/3 and 5/7 share the outcome constant on every reachable cell,
#   so their true effects are equal, yet the table prints effect gaps of
#   0.0017 and 0.0032; only independent per-regime draws explain that;
# - the effect column's deviations from a 2e7-draw evaluation of this
#   generator (binary outcomes, so the per-draw variance p(1 - p) is known)
#   imply about 1.2e5 draws per regime: sum of dev^2 / p(1 - p) over the 8
#   regimes is about 8 / 1.27e5;
# - at 1e5 draws every cost entry, which that estimate did not use, lies
#   within 1.0 table standard error of the same evaluation.
# The paper's abstract does not state the draw count; TARGET_MC_DRAWS is the
# round estimate, and a figure from the full text would replace it.
# The ICER column, which stays in the library as smartcea.dgp.TARGET_ICER,
# is the printed ratio of the differences of the printed means, so it
# inherits the means' errors.
TARGET_MC_DRAWS = 100_000
TARGET_ROUNDING = 5e-5
TARGET_EY = (0.6050, 0.8637, 0.6067, 0.8517, 0.6392, 0.8771, 0.6424, 0.8646)
TARGET_EC = (3.9686, 7.0779, 6.2592, 6.6183, 4.0193, 7.2908, 6.3026, 6.8548)


def target_se(mc_se, mc_draws: int) -> np.ndarray:
    """Standard error of a truth-table mean minus its ``TARGET_*`` entry.

    ``mc_se`` is the truth run's own Monte Carlo standard error at
    ``mc_draws`` draws, so ``mc_se * sqrt(mc_draws)`` is the per-draw
    standard deviation.  The published table has that deviation over
    ``TARGET_MC_DRAWS`` draws, independent of the run's, so the two errors
    add in quadrature.  The table's rounding, ``TARGET_ROUNDING``, is not
    included.
    """
    return np.asarray(mc_se, dtype=np.float64) * np.sqrt(
        1.0 + mc_draws / TARGET_MC_DRAWS
    )


# Constant index (from 1) of each of the eight treatment cells (a1, l2, a2).
CELL_INDEX_MAP = {
    (a1, l2, a2): int(_cell_index(a1, l2, a2)) + 1
    for a1 in sorted(STAGE1_SUPPORT)
    for l2, support in STAGE2_SUPPORT.items()
    for a2 in sorted(support)
}
# The cells in canonical order: _CELLS[k] has _cell_index k.
_CELLS = tuple(sorted(CELL_INDEX_MAP, key=CELL_INDEX_MAP.get))


class NoConsistentIndexing(Exception):
    """No cell-to-constant assignment reproduces the target table."""


@dataclass(frozen=True)
class CalibrationResult:
    """Winning assignment, its fit to the targets, and the confirmation run."""

    regime_index_map: dict[tuple[int, int, int], int]
    regimes: tuple[RegimeSpec, ...]
    score: float
    effect_deviation: np.ndarray
    cost_deviation: np.ndarray
    mc_se_ey: np.ndarray
    mc_se_ec: np.ndarray
    config: DgpConfig


def calibrate_regime_indexing(
    config: DgpConfig | None = None,
    mc_draws: int = 2_000_000,
    seed: int = 0,
    tol_effect: float = 0.005,
    tol_cost: float = 0.05,
) -> CalibrationResult:
    """Recover how treatment cells and table rows map onto the constants.

    The generator's constants are published per regime row, but the model
    applies them per treatment cell; which cell carries which constant, and
    which regime each benchmark row refers to, must be reverse-engineered
    from the table of regime-specific mean effects and costs
    (``TARGET_EY`` / ``TARGET_EC``).

    Per-branch contributions of every candidate constant are first evaluated
    on 2 x mc_draws quadrature draws with the lapse indicator, cost noise,
    and outcome draw integrated out analytically (only the baseline and the
    intermediate disturbance are sampled), which makes regime means for any
    assignment cheap table sums.  Every bijection of cells onto constants is
    then scored: rows are matched to regimes by minimum-cost assignment on
    the tolerance-scaled residuals and the candidate's score is the worst
    matched residual.  The single best candidate is confirmed by an
    independent full simulation of mc_draws counterfactuals.

    The search deliberately ranges over all 8! cell bijections, not only
    those that reuse a constant index across the two cells a regime
    prescribes: no index map of the latter kind exists that matches the
    benchmark table (the winning map gives the two branches of each regime
    two different constants).

    ``tol_effect`` and ``tol_cost`` scale the residuals in that search.  The
    confirmation compares against the table at its own precision: the table
    is a Monte Carlo evaluation (see ``TARGET_MC_DRAWS``), so a gate built
    from the run's error alone tightens as ``mc_draws`` grows and rejects the
    right assignment at some seeds.

    Raises
    ------
    NoConsistentIndexing
        If the confirmation run leaves some table entry further from its
        target than 5 standard errors of the difference (``target_se``)
        plus the table's rounding, or if the sum of squared z-scores over
        either column exceeds the 0.999 quantile of chi-squared on 8
        degrees of freedom.
    """
    cfg = config if config is not None else DgpConfig()
    if mc_draws < 10_000:
        raise ValueError("mc_draws must be at least 10000")
    tgt_e = np.asarray(TARGET_EY, dtype=np.float64)
    tgt_c = np.asarray(TARGET_EC, dtype=np.float64)

    y_logit = logit(np.asarray(cfg.y_constants, dtype=np.float64))
    rate_k = np.asarray(cfg.c_constants, dtype=np.float64)
    n_score_draws = 2 * mc_draws

    # wl/wn: P(branch) * P(success), vl/vn: lapse/no-lapse cost
    # contributions, indexed [stage-1 arm, constant].
    wl = np.zeros((2, 8))
    wn = np.zeros((2, 8))
    vl = np.zeros((2, 8))
    vn = np.zeros((2, 8))
    for b in range((n_score_draws + BLOCK - 1) // BLOCK):
        rng = philox_stream(seed, PURPOSE_CALIBRATE, b)
        x1 = rng.standard_normal(BLOCK)
        eps_s2 = rng.standard_normal(BLOCK)
        m = min(n_score_draws - b * BLOCK, BLOCK)
        x1 = x1[:m]
        eps_s2 = eps_s2[:m]
        curvature = 0.5 * x1**2 + np.log(np.abs(x1) + 0.01)
        for d1 in (0, 1):
            p_lapse = expit(x1 + d1)
            s2 = x1 + 2.0 * d1 + eps_s2
            for k in range(8):
                p_y = expit(y_logit[k] + s2 + curvature)
                wl[d1, k] += p_lapse @ p_y
                wn[d1, k] += (1.0 - p_lapse) @ p_y
                cost_l = cfg.cost_scale / (rate_k[k] + np.abs(s2 + x1 + 1.0 - 3.0 * d1))
                cost_n = cfg.cost_scale / (rate_k[k] + np.abs(s2 + x1 - 3.0 * d1))
                vl[d1, k] += p_lapse @ cost_l
                vn[d1, k] += (1.0 - p_lapse) @ cost_n
    for table in (wl, wn, vl, vn):
        table /= float(n_score_draws)

    candidates = embedded_regimes()
    cell_l = np.array(
        [int(_cell_index(r.d1, 1, r.d2_if_lapse)) for r in candidates]
    )
    cell_n = np.array(
        [int(_cell_index(r.d1, 0, r.d2_if_no_lapse)) for r in candidates]
    )
    d1s = np.array([r.d1 for r in candidates])

    best_score = np.inf
    best_sigma = None
    best_order = None
    for perm in itertools.permutations(range(8)):
        sigma = np.asarray(perm)
        ey = wl[d1s, sigma[cell_l]] + wn[d1s, sigma[cell_n]]
        ec = vl[d1s, sigma[cell_l]] + vn[d1s, sigma[cell_n]]
        resid = np.maximum(
            np.abs(ey[None, :] - tgt_e[:, None]) / tol_effect,
            np.abs(ec[None, :] - tgt_c[:, None]) / tol_cost,
        )
        rows, cols = linear_sum_assignment(resid)
        score = float(resid[rows, cols].max())
        if score < best_score:
            best_score = score
            best_sigma = perm
            best_order = tuple(int(c) for c in cols)

    index_map = {
        _CELLS[cell]: int(best_sigma[cell]) + 1 for cell in range(8)
    }
    # The generator gives the cell with _cell_index k constant k, so the
    # candidate map is read by permuting the constants into cell order.
    winner = DgpConfig(
        n=cfg.n,
        seed=cfg.seed,
        y_constants=tuple(cfg.y_constants[k] for k in best_sigma),
        c_constants=tuple(cfg.c_constants[k] for k in best_sigma),
        cost_scale=cfg.cost_scale,
    )
    matched = tuple(
        RegimeSpec(
            id=row + 1,
            d1=candidates[c].d1,
            d2_if_lapse=candidates[c].d2_if_lapse,
            d2_if_no_lapse=candidates[c].d2_if_no_lapse,
        )
        for row, c in enumerate(best_order)
    )
    truth = true_values(winner, regimes=matched, mc_draws=mc_draws, seed=seed)
    dev_e = truth.ey - tgt_e
    dev_c = truth.ec - tgt_c
    # Per entry 5 standard errors plus rounding; per column, the sum of
    # squared z-scores against chi-squared, which keeps power against a
    # shift spread over every regime that no single entry shows.
    column_limit = float(chi2.ppf(0.999, df=len(tgt_e)))
    for column, dev, mc_se in (
        ("effect", dev_e, truth.mc_se_ey),
        ("cost", dev_c, truth.mc_se_ec),
    ):
        se = target_se(mc_se, mc_draws)
        gate = 5.0 * se + TARGET_ROUNDING
        worst = int(np.argmax(np.abs(dev) / gate))
        column_stat = float(np.sum((dev / se) ** 2))
        if abs(dev[worst]) > gate[worst] or column_stat > column_limit:
            raise NoConsistentIndexing(
                f"best assignment (score {best_score:.3f}) fails confirmation: "
                f"{column} of row {worst + 1} deviates by {dev[worst]:+.4f} "
                f"against gate {gate[worst]:.4f}; sum of squared z-scores over "
                f"the {column} column {column_stat:.1f} against {column_limit:.1f}"
            )
    return CalibrationResult(
        regime_index_map=index_map,
        regimes=matched,
        score=best_score,
        effect_deviation=dev_e,
        cost_deviation=dev_c,
        mc_se_ey=truth.mc_se_ey,
        mc_se_ec=truth.mc_se_ec,
        config=winner,
    )


def per_regime_true_values(
    config: DgpConfig,
    regimes=None,
    mc_draws: int = 2_000_000,
    seed: int = 0,
    reference_id: int = 1,
):
    """``true_values`` evaluated regime by regime over full-length cell lookups."""
    regs = tuple(regimes) if regimes is not None else embedded_regimes()
    base_logit = logit(np.asarray(config.y_constants, dtype=np.float64))
    rate_k = np.asarray(config.c_constants, dtype=np.float64)

    sum_y = np.zeros(len(regs))
    sum_c = np.zeros(len(regs))
    sum_c2 = np.zeros(len(regs))

    for b in range((mc_draws + BLOCK - 1) // BLOCK):
        rng = philox_stream(seed, PURPOSE_TRUTH, b)
        x1 = rng.standard_normal(BLOCK)
        u_l2 = rng.random(BLOCK)
        eps_s2 = rng.standard_normal(BLOCK)
        u_y = rng.random(BLOCK)
        e_c = rng.standard_exponential(BLOCK)

        m = min(mc_draws - b * BLOCK, BLOCK)
        x1, u_l2, eps_s2, u_y, e_c = (
            arr[:m] for arr in (x1, u_l2, eps_s2, u_y, e_c)
        )
        curvature = 0.5 * x1**2 + np.log(np.abs(x1) + 0.01)

        for i, reg in enumerate(regs):
            d1 = reg.d1
            l2 = (u_l2 < expit(x1 + d1)).astype(np.int64)
            s2 = x1 + 2.0 * d1 + eps_s2
            a2 = np.where(l2 == 1, reg.d2_if_lapse, reg.d2_if_no_lapse)
            k = _cell_index(d1, l2, a2)
            p_y = expit(base_logit[k] + s2 + curvature)
            y = u_y < p_y
            rate = rate_k[k] + np.abs(s2 + x1 + l2 - 3.0 * d1)
            c = config.cost_scale * e_c / rate
            sum_y[i] += y.sum()
            sum_c[i] += c.sum()
            sum_c2[i] += (c * c).sum()

    return _finish_truth(regs, sum_y, sum_c, sum_c2, mc_draws, reference_id)


def reference_simulate_smart(config: DgpConfig) -> Dataset:
    """Draw ``config.n`` observed trajectories from the benchmark generator.

    Draws are blocked: rows [b*BLOCK, (b+1)*BLOCK) come from the stream
    (seed, simulate, b), each block consuming full-length draws in a fixed
    order.  Datasets are therefore prefix-stable: the first m rows do not
    depend on n.
    """
    n = config.n
    base_logit = logit(np.asarray(config.y_constants, dtype=np.float64))
    rate_k = np.asarray(config.c_constants, dtype=np.float64)

    cols = {
        "x1": np.empty(n),
        "a1": np.empty(n, dtype=np.int64),
        "l2": np.empty(n, dtype=np.int64),
        "s2": np.empty(n),
        "a2": np.empty(n, dtype=np.int64),
        "y": np.empty(n, dtype=np.int64),
        "c": np.empty(n),
    }
    for b in range((n + BLOCK - 1) // BLOCK):
        rng = philox_stream(config.seed, PURPOSE_SIMULATE, b)
        # Fixed draw order; always a full block so earlier rows never move.
        x1 = rng.standard_normal(BLOCK)
        u_a1 = rng.random(BLOCK)
        u_l2 = rng.random(BLOCK)
        eps_s2 = rng.standard_normal(BLOCK)
        u_a2 = rng.random(BLOCK)
        u_y = rng.random(BLOCK)
        e_c = rng.standard_exponential(BLOCK)

        lo = b * BLOCK
        m = min(n - lo, BLOCK)
        x1, u_a1, u_l2, eps_s2, u_a2, u_y, e_c = (
            arr[:m] for arr in (x1, u_a1, u_l2, eps_s2, u_a2, u_y, e_c)
        )
        a1 = (u_a1 < 0.5).astype(np.int64)
        l2 = (u_l2 < expit(x1 + a1)).astype(np.int64)
        s2 = x1 + 2.0 * a1 + eps_s2
        a2 = np.where(l2 == 1, np.where(u_a2 < 0.5, 1, 2), np.where(u_a2 < 0.5, 3, 4))
        k = _cell_index(a1, l2, a2)
        p_y = expit(base_logit[k] + s2 + 0.5 * x1**2 + np.log(np.abs(x1) + 0.01))
        y = (u_y < p_y).astype(np.int64)
        rate = rate_k[k] + np.abs(s2 + x1 + l2 - 3.0 * a1)
        c = config.cost_scale * e_c / rate

        sl = slice(lo, lo + m)
        for name, arr in zip(
            ("x1", "a1", "l2", "s2", "a2", "y", "c"), (x1, a1, l2, s2, a2, y, c)
        ):
            cols[name][sl] = arr

    return Dataset(
        **cols,
    )


def _log_likelihood(z, mu, w) -> float:
    mu = np.clip(mu, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.sum(w * (z * np.log(mu) + (1.0 - z) * np.log1p(-mu))))


def reference_fit_logistic(design, response, weights=None, offset=None) -> GlmFit:
    """Fit E[response | design] = expit(design @ beta + offset) by IRLS.

    Parameters
    ----------
    design : array_like, shape (n, p)
        Include the intercept column explicitly.
    response : array_like, shape (n,)
        Values in [0, 1]; fractional responses fit the quasibinomial score.
    weights : array_like, optional
        Nonnegative prior weights, not all zero.  Zero-weight rows do not
        contribute to the fit.
    offset : array_like, optional
        Fixed additive term on the linear predictor.

    Returns
    -------
    GlmFit
        Converged when the maximum absolute weighted score drops below
        1e-8; otherwise returns after 100 iterations with converged=False.

    Raises
    ------
    RankDeficient
        If the ridged normal equations (ridge 1e-10 on the diagonal) are
        still singular, or the weighted design has rank below p.
    SeparationDetected
        If every weighted fitted probability saturates at its response's
        boundary (degenerate likelihood, MLE at infinity), or the score
        will not converge while |linear predictor| exceeds 30 on every
        weighted row.

    Notes
    -----
    Each Newton step is safeguarded by halving (at most 10 times) whenever
    the weighted log-likelihood decreases; after ten halvings the reduced
    step is accepted as-is and the score criterion decides convergence.
    """
    X = _as_matrix(design)
    n, p = X.shape
    z = np.asarray(response, dtype=np.float64)
    if z.shape != (n,):
        raise ValueError("response length does not match design")
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("responses must lie in [0, 1]")
    if n < p:
        raise ValueError(f"need at least as many rows ({n}) as columns ({p})")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("weights length does not match design")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise ValueError("weights must not be all zero")
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=np.float64)
    if off.shape != (n,):
        raise ValueError("offset length does not match design")

    supported = w > 0.0
    if np.linalg.matrix_rank(X[supported]) < p:
        raise RankDeficient(
            f"design has rank < {p} on the {int(supported.sum())} weighted rows"
        )

    beta = np.zeros(p)
    eta = X @ beta + off
    mu = expit(eta)
    ll = _log_likelihood(z, mu, w)
    score = X.T @ (w * (z - mu))
    max_abs_score = float(np.max(np.abs(score)))
    converged = max_abs_score < SCORE_TOL
    it = 0
    while not converged and it < MAX_ITER:
        it += 1
        # Fisher information with a ridge on the diagonal for rank safety.
        wfisher = w * mu * (1.0 - mu)
        hess = (X * wfisher[:, None]).T @ X
        hess[np.diag_indices_from(hess)] += RIDGE
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError as err:
            raise RankDeficient(str(err)) from None

        cand = beta + step
        cand_eta = X @ cand + off
        cand_mu = expit(cand_eta)
        cand_ll = _log_likelihood(z, cand_mu, w)
        halvings = 0
        while cand_ll < ll and halvings < MAX_HALVINGS:
            step = 0.5 * step
            cand = beta + step
            cand_eta = X @ cand + off
            cand_mu = expit(cand_eta)
            cand_ll = _log_likelihood(z, cand_mu, w)
            halvings += 1
        beta, eta, mu, ll = cand, cand_eta, cand_mu, cand_ll

        score = X.T @ (w * (z - mu))
        max_abs_score = float(np.max(np.abs(score)))
        # A vanishing score proves nothing when every weighted row sits at
        # its matching boundary: the likelihood is degenerate and the MLE
        # lies at infinity, so report separation instead of convergence.
        zs, ms = z[supported], mu[supported]
        if np.all(((zs > 0.5) & (ms > 1.0 - 1e-8)) | ((zs < 0.5) & (ms < 1e-8))):
            raise SeparationDetected(
                f"fitted probabilities saturated at the response boundary on "
                f"all weighted rows at iteration {it} (degenerate likelihood)"
            )
        if max_abs_score < SCORE_TOL:
            converged = True
            break
        if np.all(np.abs(eta[supported]) > ETA_DIVERGED):
            raise SeparationDetected(
                f"all weighted linear predictors exceed |{ETA_DIVERGED}| at "
                f"iteration {it} with score {max_abs_score:.3e} still above "
                f"{SCORE_TOL:.0e}"
            )
    return GlmFit(
        coefficients=beta,
        converged=converged,
        iterations=it,
        max_abs_score=max_abs_score,
    )


def reference_fluctuate(z: np.ndarray, q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Intercept-only logistic update of q toward z along weighted residuals."""
    offset = logit(np.clip(q, 1e-10, 1.0 - 1e-10))
    ones = np.ones((z.shape[0], 1))
    try:
        fit = fit_logistic(ones, z, weights=weights, offset=offset)
    except SeparationDetected as err:
        raise FluctuationDiverged(str(err)) from None
    return expit(offset + fit.coefficients[0])


def reference_tmle_mean(dataset: Dataset, request: RegimeMeanRequest) -> EstimateWithIC:
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
    h1 = np.where(stage1_mask, 1.0 / request.g.p_a1, 0.0)

    z_raw = dataset.outcome(request.outcome)
    lo = float(z_raw.min())
    hi = float(z_raw.max())
    if hi == lo:
        return EstimateWithIC(psi=lo, ic=np.zeros(dataset.n))
    z = (z_raw - lo) / (hi - lo)

    X2 = _design((dataset.x1, dataset.l2, dataset.s2), request.saturated)
    fit2 = fit_logistic(X2[mask], z[mask])
    q2 = predict(fit2, X2)
    q2_star = reference_fluctuate(z, q2, h2)

    X1 = _design((dataset.x1,), request.saturated)
    fit1 = fit_logistic(X1[stage1_mask], q2_star[stage1_mask])
    q1 = predict(fit1, X1)
    q1_star = reference_fluctuate(q2_star, q1, h1)

    psi_scaled = float(q1_star.mean())
    ic_scaled = h2 * (z - q2_star) + h1 * (q2_star - q1_star) + (q1_star - psi_scaled)
    return EstimateWithIC(psi=lo + (hi - lo) * psi_scaled, ic=(hi - lo) * ic_scaled)


def reference_ingest_dataset(path: str) -> Dataset:
    """Read and validate a trajectory CSV, with row-level diagnostics.

    Schema: id, x1 (or x1_1..x1_p), a1, l2, s2, a2, y, c.  Treatment codes
    are checked against the benchmark supports; a stage-2 code from the
    wrong branch names the line, the column, and the support it violated.
    Line numbers are physical: the ``#`` comment lines count.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            numbered = [(no, ln) for no, ln in enumerate(fh, 1) if not ln.startswith("#")]
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}") from None
    rows = list(csv.reader(ln for _, ln in numbered))
    if not rows:
        raise CliError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    x1_cols = [name for name in header if name == "x1" or name.startswith("x1_")]
    required = ["id"] + x1_cols + ["a1", "l2", "s2", "a2", "y", "c"]
    for name in ("id", "a1", "l2", "s2", "a2", "y", "c"):
        if name not in header:
            raise CliError(f"{path}: missing column {name!r}")
    if not x1_cols:
        raise CliError(f"{path}: missing column 'x1' (or x1_1..x1_p)")
    col = {name: header.index(name) for name in required}

    data_rows = rows[1:]
    if not data_rows:
        raise CliError(f"{path}: no data rows")
    n = len(data_rows)
    x1 = np.empty((n, len(x1_cols)))
    a1 = np.empty(n, dtype=np.int64)
    l2 = np.empty(n, dtype=np.int64)
    s2 = np.empty(n)
    a2 = np.empty(n, dtype=np.int64)
    y = np.empty(n)
    c = np.empty(n)

    def fail(line_no: int, column: str, reason: str):
        raise CliError(f"{path} line {line_no}, column {column!r}: {reason}")

    for i, row in enumerate(data_rows):
        line_no = numbered[i + 1][0]
        if len(row) != len(header):
            fail(line_no, "-", f"expected {len(header)} fields, got {len(row)}")

        def num(column: str) -> float:
            raw = row[col[column]].strip()
            try:
                value = float(raw)
            except ValueError:
                fail(line_no, column, f"malformed number {raw!r}")
            if not np.isfinite(value):
                fail(line_no, column, f"non-finite value {raw!r}")
            return value

        def code(column: str) -> int:
            value = num(column)
            if value != int(value):
                fail(line_no, column, f"expected an integer code, got {value}")
            return int(value)

        for j, name in enumerate(x1_cols):
            x1[i, j] = num(name)
        a1[i] = code("a1")
        if a1[i] not in STAGE1_SUPPORT:
            fail(line_no, "a1", f"out of stage-1 support {sorted(STAGE1_SUPPORT)}")
        l2[i] = code("l2")
        if l2[i] not in (0, 1):
            fail(line_no, "l2", "expected 0 or 1")
        s2[i] = num("s2")
        a2[i] = code("a2")
        branch = int(l2[i])
        if a2[i] not in STAGE2_SUPPORT[branch]:
            fail(
                line_no,
                "a2",
                f"out of stage-2 support {sorted(STAGE2_SUPPORT[branch])} "
                f"for records with l2={branch}",
            )
        y[i] = num("y")
        if y[i] not in (0.0, 1.0):
            fail(line_no, "y", "expected a binary 0/1 outcome")
        c[i] = num("c")
        if c[i] < 0:
            fail(line_no, "c", "expected a nonnegative cost")

    return Dataset(
        x1=x1, a1=a1, l2=l2, s2=s2, a2=a2, y=y, c=c,
        x1_names=tuple(x1_cols),
    )


@dataclass(frozen=True)
class RelativeVariance:
    """Paired variance ratio in both orientations, explicitly labeled."""

    tmle_over_ipw: float
    ipw_over_tmle: float
    n_aligned: int


def relative_variance(
    tmle_estimates: Mapping[int, np.ndarray], ipw_estimates: Mapping[int, np.ndarray]
) -> dict[int, RelativeVariance]:
    """Per-regime ratio of empirical variances across repetitions.

    Inputs map regime id to the per-rep estimate stream, NaN marking an
    excluded rep.  Both estimators must have kept exactly the same reps for
    a regime (the paired design breaks otherwise); mismatched rep sets are
    an error, as is a zero denominator variance.  Both orientations are
    returned because published tables have used both.
    """
    if set(tmle_estimates) != set(ipw_estimates):
        raise ValueError("estimators cover different regimes")
    out: dict[int, RelativeVariance] = {}
    for rid in sorted(tmle_estimates):
        a = np.asarray(tmle_estimates[rid], dtype=np.float64)
        b = np.asarray(ipw_estimates[rid], dtype=np.float64)
        if a.shape != b.shape:
            raise ValueError(f"regime {rid}: estimate streams differ in length")
        mask_a = np.isfinite(a)
        mask_b = np.isfinite(b)
        if not np.array_equal(mask_a, mask_b):
            raise ValueError(
                f"regime {rid}: estimators kept different reps; align exclusions first"
            )
        if mask_a.sum() < 2:
            raise ValueError(f"regime {rid}: fewer than 2 aligned reps")
        ratio = _variance_ratio(a, b, mask_a)
        if not ratio:
            raise ValueError(f"regime {rid}: zero variance in one estimate stream")
        out[rid] = RelativeVariance(
            tmle_over_ipw=ratio, ipw_over_tmle=1.0 / ratio, n_aligned=int(mask_a.sum())
        )
    return out


@dataclass(frozen=True)
class IcerVarianceDecomposition:
    """Var(ICER) = ICER^2 (cv_c^2 + cv_e^2 - cov_term), split into pieces.

    ``term_a`` is the cost CV squared, ``term_b`` the effect CV squared, and
    ``cov_term`` = 2 Cov(ic_c, ic_e) / (n psi_e psi_c).  ``var_total`` always
    equals the variance of the delta-method influence curve divided by n.
    When the cost difference is exactly zero the ratio form is unavailable
    (``cov_defined`` is False, term_a and cov_term are inf/nan) and
    ``var_total`` falls back to the direct influence-curve variance.
    Iterating yields (term_a, term_b, cov_term, var_total).
    """

    term_a: float
    term_b: float
    cov_term: float
    var_total: float
    cov_defined: bool = True

    def __iter__(self) -> Iterator[float]:
        return iter((self.term_a, self.term_b, self.cov_term, self.var_total))


def icer_variance_decomposition(result: IcerResult) -> IcerVarianceDecomposition:
    """Split the delta-method ICER variance into component and covariance terms.

    Exposing the pieces shows which component drives the uncertainty and how
    much the built-in cost-effect correlation offsets it.
    """
    rd_cost = result.rd_cost
    rd_eff = result.rd_eff
    n = rd_cost.n
    direct = float(np.var(result.icer.ic, ddof=1)) / n
    term_b = (rd_eff.se / abs(rd_eff.psi)) ** 2
    if rd_cost.psi == 0.0:
        return IcerVarianceDecomposition(
            term_a=math.inf,
            term_b=term_b,
            cov_term=math.nan,
            var_total=direct,
            cov_defined=False,
        )
    term_a = (rd_cost.se / abs(rd_cost.psi)) ** 2
    cov = float(np.cov(rd_cost.ic, rd_eff.ic, ddof=1)[0, 1])
    cov_term = 2.0 * cov / (n * rd_eff.psi * rd_cost.psi)
    var_total = result.icer.psi**2 * (term_a + term_b - cov_term)
    return IcerVarianceDecomposition(
        term_a=term_a, term_b=term_b, cov_term=cov_term, var_total=var_total
    )


def _dominated(p, others):
    for q in others:
        if q is p:
            continue
        if (
            (q.rd_eff > p.rd_eff and q.rd_cost <= p.rd_cost)
            or (q.rd_eff >= p.rd_eff and q.rd_cost < p.rd_cost)
            or (
                q.rd_eff == p.rd_eff
                and q.rd_cost == p.rd_cost
                and q.regime_id < p.regime_id
            )
        ):
            return True
    return False


def brute_frontier(points, anchor=(0.0, 0.0)):
    """Gift-wrapping reference: drop strongly dominated options, then
    repeatedly take the shallowest slope, breaking ties toward the farthest
    point (collinear interiors drop)."""
    chain = []
    cur = anchor
    candidates = [
        p for p in points if p.rd_eff > anchor[0] and not _dominated(p, points)
    ]
    while True:
        best = None
        best_slope = None
        for p in candidates:
            if p.rd_eff <= cur[0]:
                continue
            slope = (p.rd_cost - cur[1]) / (p.rd_eff - cur[0])
            if (
                best is None
                or slope < best_slope - 1e-12
                or (abs(slope - best_slope) <= 1e-12 and p.rd_eff > best.rd_eff)
                or (
                    abs(slope - best_slope) <= 1e-12
                    and p.rd_eff == best.rd_eff
                    and p.regime_id < best.regime_id
                )
            ):
                best, best_slope = p, slope
        if best is None:
            break
        chain.append(best)
        cur = (best.rd_eff, best.rd_cost)
    return chain


def reference_efficient_frontier(points: Sequence[PlanePoint]) -> Frontier:
    """Lower convex envelope of the strictly-more-effective regimes.

    Strongly dominated candidates (another candidate is at least as effective
    for no more cost, with at least one strict inequality; exact coordinate
    ties keep the lower id) are removed first; the rest are swept in effect
    order through a monotone chain that pops any corner failing strict
    convexity, which also drops collinear interior points.  Extended
    dominance is therefore handled by construction.  Raises
    :class:`EmptyFrontier` when no candidate lies right of the origin.
    """
    candidates = [p for p in points if p.rd_eff > 0.0]
    if not candidates:
        raise EmptyFrontier("no regime is strictly more effective than the reference")

    undominated = [
        p
        for p in candidates
        if not any(
            q is not p
            and q.rd_eff >= p.rd_eff
            and q.rd_cost <= p.rd_cost
            and (
                q.rd_eff > p.rd_eff
                or q.rd_cost < p.rd_cost
                or q.regime_id < p.regime_id  # exact ties keep the lower id
            )
            for q in candidates
        )
    ]
    undominated.sort(key=lambda p: (p.rd_eff, p.rd_cost, p.regime_id))

    chain: list[tuple[float, float]] = [(0.0, 0.0)]
    chain_ids: list[int | None] = [None]
    for p in undominated:
        v = (p.rd_eff, p.rd_cost)
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], v) <= 0.0:
            chain.pop()
            chain_ids.pop()
        chain.append(v)
        chain_ids.append(p.regime_id)

    vertices = tuple(chain)
    slopes = tuple((b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(vertices, vertices[1:]))
    return Frontier(
        regime_ids=tuple(rid for rid in chain_ids if rid is not None),
        vertices=vertices,
        slopes=slopes,
    )


def reference_render_plane_svg(
    points: Sequence[PlanePoint],
    frontier: Frontier | None = None,
    width: int = 640,
    height: int = 480,
) -> str:
    """Cost-effectiveness plane as a self-contained SVG string.

    Every regime gets a numbered marker (hollow when its reliability flag is
    down); the frontier, when given, is drawn as a polyline from the anchor.
    Output is deterministic (fixed float formatting, no timestamps), so the
    same inputs render byte-identical files.  A size within the fixed margins
    (80 px wide, 64 px high) leaves no plot area and raises ``ValueError``.
    """
    if not points:
        raise ValueError("nothing to plot")
    ml, mr, mt, mb = 64, 16, 16, 48
    if width <= ml + mr or height <= mt + mb:
        raise ValueError(f"{width} x {height} px leaves no plot area inside the margins")
    xs = [p.rd_eff for p in points]
    ys = [p.rd_cost for p in points]
    if frontier is not None:
        xs.extend(v[0] for v in frontier.vertices)
        ys.extend(v[1] for v in frontier.vertices)
    x_lo, x_hi = min(min(xs), 0.0), max(max(xs), 0.0)
    y_lo, y_hi = min(min(ys), 0.0), max(max(ys), 0.0)
    x_pad = 0.08 * (x_hi - x_lo or 1.0)
    y_pad = 0.08 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(v: float) -> float:
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # Zero lines split the plane into its four quadrants.
    parts.append(
        f'<line x1="{sx(x_lo):.2f}" y1="{sy(0):.2f}" x2="{sx(x_hi):.2f}" y2="{sy(0):.2f}" '
        'stroke="#999" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{sx(0):.2f}" y1="{sy(y_lo):.2f}" x2="{sx(0):.2f}" y2="{sy(y_hi):.2f}" '
        'stroke="#999" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{height - mb:.2f}" x2="{sx(t):.2f}" '
            f'y2="{height - mb + 5:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{height - mb + 18:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml - 5:.2f}" y1="{sy(t):.2f}" x2="{ml:.2f}" y2="{sy(t):.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{sy(t) + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{t:g}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 10:.2f}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">'
        f"{X_AXIS_LABEL}</text>"
    )
    parts.append(
        f'<text x="14" y="{(mt + height - mb) / 2:.2f}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 14 {(mt + height - mb) / 2:.2f})">{Y_AXIS_LABEL}</text>'
    )

    if frontier is not None and len(frontier.vertices) >= 2:
        chain = " ".join(
            f"{sx(v[0]):.2f},{sy(v[1]):.2f}" for v in frontier.vertices
        )
        parts.append(
            f'<polyline points="{chain}" fill="none" stroke="#1565c0" '
            'stroke-width="2"/>'
        )

    frontier_ids = set(frontier.regime_ids) if frontier is not None else set()
    for p in sorted(points, key=lambda q: q.regime_id):
        color = "#1565c0" if p.regime_id in frontier_ids else "#c62828"
        fill = color if p.reliable else "white"
        parts.append(
            f'<circle cx="{sx(p.rd_eff):.2f}" cy="{sy(p.rd_cost):.2f}" '
            f'r="4" fill="{fill}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{sx(p.rd_eff) + 6:.2f}" y="{sy(p.rd_cost) - 6:.2f}" '
            f'font-size="11" font-family="sans-serif">{p.regime_id}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
