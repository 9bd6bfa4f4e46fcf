"""Test oracles that the library does not need at run time.

``calibrate_regime_indexing`` is the search that recovered
``smartcea.dgp.DEFAULT_REGIME_INDEX_MAP`` and the benchmark row numbering of
``smartcea.dgp.embedded_regimes`` from the published table of true regime
means.  The library ships only its result; the tests rerun the search to
confirm it.  It draws from the reserved stream purpose
``smartcea.rng.PURPOSE_CALIBRATE``.

``per_regime_true_values`` is ``smartcea.dgp.true_values`` as a plain loop
over regimes that recomputes every quantity per regime and looks up each
row's constants by cell index.  ``true_values`` shares the per-arm work
across regimes and must agree with it bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import chi2

from smartcea.core import RegimeSpec
from smartcea.dgp import (
    _CELLS,
    TARGET_EC,
    TARGET_EY,
    TARGET_ROUNDING,
    DgpConfig,
    _cell_index,
    _finish_truth,
    embedded_regimes,
    target_se,
    true_values,
)
from smartcea.glm import expit, logit
from smartcea.rng import BLOCK, PURPOSE_CALIBRATE, PURPOSE_TRUTH, philox_stream


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
    (``smartcea.dgp.TARGET_EY`` / ``TARGET_EC``).

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
    winner = DgpConfig(
        n=cfg.n,
        seed=cfg.seed,
        y_constants=cfg.y_constants,
        c_constants=cfg.c_constants,
        cost_scale=cfg.cost_scale,
        regime_index_map=index_map,
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
            k = config.constant_index(_cell_index(d1, l2, a2))
            p_y = expit(base_logit[k] + s2 + curvature)
            y = u_y < p_y
            rate = rate_k[k] + np.abs(s2 + x1 + l2 - 3.0 * d1)
            c = config.cost_scale * e_c / rate
            sum_y[i] += y.sum()
            sum_c[i] += c.sum()
            sum_c2[i] += (c * c).sum()

    return _finish_truth(regs, sum_y, sum_c, sum_c2, mc_draws, reference_id)
