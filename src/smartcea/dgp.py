"""Generative model: the benchmark two-stage SMART and its truth table.

The benchmark generator mimics a two-stage adherence trial.  Baseline
severity X(1) is standard normal; stage-1 treatment is a fair coin; lapse
status L(2) ~ Bernoulli(expit(X(1) + A(1))); the intermediate outcome is
S(2) = X(1) + 2 A(1) + N(0, 1); stage-2 treatment is a fair coin within the
branch selected by L(2) (options {1, 2} after a lapse, {3, 4} otherwise,
the design supports fixed in ``core``).

Each of the eight observable treatment cells (a1, l2, a2) carries one success
constant and one cost-rate constant.  Effectiveness is
Y ~ Bernoulli(expit(logit(y_k) + S(2) + 0.5 X(1)^2 + log(|X(1)| + .01))) and
cost is C = cost_scale * E / (c_k + |S(2) + X(1) + L(2) - 3 A(1)|) with
E ~ Exp(1), where k indexes the record's treatment cell.  The exponential
parameter is read as a rate (mean cost_scale / rate); the rate reading is the
one that survives calibration against the benchmark means, so the documented
fallback to a mean reading has never been needed.

The published constants are indexed by regime number, but a regime
prescribes two cells (one per branch) and the observed data reveal only one,
so the generator needs a cell-level indexing.  A calibration search over
all cell assignments (``calibrate_regime_indexing`` in ``tests/oracles.py``)
recovers both that indexing and the published row numbering from the
benchmark table of true regime means.  The winning assignment is the
canonical cell order of ``_cell_index`` (lapse cells carry constants 1-4 in
(a2, a1) order with a1 varying fastest, no-lapse cells carry 5-8 likewise),
so the generator indexes the constant vectors by cell index directly;
another assignment is expressed by permuting ``y_constants`` and
``c_constants``.  ``embedded_regimes`` ships the matching row numbering.
The tests rerun the search to confirm both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Dataset, RegimeSpec, check_count, check_regime_ids
from .glm import expit, logit
from .inference import MIN_DENOMINATOR, PER_HUNDRED
from .rng import (
    BLOCK,
    PURPOSE_SIMULATE,
    PURPOSE_TRUTH,
    check_seed,
    philox_stream,
    skip_raw,
)

__all__ = [
    "Y_CONSTANTS",
    "C_CONSTANTS",
    "COST_SCALE",
    "TARGET_ICER",
    "TRUTH_MC_DRAWS",
    "DgpConfig",
    "embedded_regimes",
    "simulate_smart",
    "TruthTable",
    "true_values",
]

Y_CONSTANTS = (0.72, 0.74, 0.72, 0.70, 0.71, 0.70, 0.79, 0.80)
C_CONSTANTS = (2.0, 0.03, 0.035, 0.044, 0.06, 0.05, 0.058, 0.025)
COST_SCALE = 5.0

# Default Monte-Carlo resolution of a truth table.
TRUTH_MC_DRAWS = 2_000_000

# Published benchmark ICERs (SOC first); tests/oracles.py holds the table's means.
TARGET_ICER = (float("nan"), 0.1202, 13.8825, 0.1074, 0.0149, 0.1221, 0.6251, 0.1112)


def _cell_index(a1, l2, a2):
    """Canonical cell index 0..7 of the observed treatment combination."""
    return np.where(l2 == 1, a1 + 2 * (a2 - 1), 4 + a1 + 2 * (a2 - 3))


@dataclass(frozen=True)
class DgpConfig:
    """Sample size, seed, and constants of the benchmark generator.

    Entry k of ``y_constants`` and ``c_constants`` belongs to the treatment
    cell with ``_cell_index`` k, the assignment that the calibration search
    in ``tests/oracles.py`` recovers.  ``n`` must be an integer of at least
    1 (``core.check_count``) and ``seed`` one in [0, 2^64) (``check_seed``).
    """

    n: int = 1809
    seed: int = 0
    y_constants: tuple[float, ...] = Y_CONSTANTS
    c_constants: tuple[float, ...] = C_CONSTANTS
    cost_scale: float = COST_SCALE

    def __post_init__(self) -> None:
        check_count("n", self.n, 1)
        check_seed(self.seed)
        if len(self.y_constants) != 8 or len(self.c_constants) != 8:
            raise ValueError("y_constants and c_constants must each have 8 entries")
        if any(not 0.0 < p < 1.0 for p in self.y_constants):
            raise ValueError("y_constants must lie strictly inside (0, 1)")
        if any(r <= 0.0 for r in self.c_constants):
            raise ValueError("c_constants must be positive")
        if self.cost_scale <= 0.0:
            raise ValueError("cost_scale must be positive")


def embedded_regimes() -> tuple[RegimeSpec, ...]:
    """The eight embedded regimes under the benchmark numbering.

    Regime 1 (stage-1 control, first option on either branch) is the
    standard-of-care reference.  The numbering is the one recovered from
    the benchmark table by ``calibrate_regime_indexing`` in
    ``tests/oracles.py``: within each no-lapse option, lapse option varies
    next and the stage-1 arm fastest.
    """
    triples = (
        (0, 1, 3),
        (1, 1, 3),
        (0, 2, 3),
        (1, 2, 3),
        (0, 1, 4),
        (1, 1, 4),
        (0, 2, 4),
        (1, 2, 4),
    )
    return tuple(
        RegimeSpec(id=i + 1, d1=d1, d2_if_lapse=dl, d2_if_no_lapse=dn)
        for i, (d1, dl, dn) in enumerate(triples)
    )


def _block_uniforms(rng: np.random.Generator, m: int) -> np.ndarray:
    """The first m of a block's BLOCK uniforms; the rest are skipped undrawn."""
    u = rng.random(m)
    skip_raw(rng, BLOCK - m)
    return u


def simulate_smart(config: DgpConfig) -> Dataset:
    """Draw ``config.n`` observed trajectories from the benchmark generator.

    Draws are blocked: rows [b*BLOCK, (b+1)*BLOCK) come from the stream
    (seed, simulate, b), which feeds seven variables in a fixed order, each
    laid out as a full block of BLOCK values.  Datasets are therefore
    prefix-stable: the first m rows do not depend on n.

    A block of m < BLOCK rows computes only what those rows read, with the
    stream left as if every full block had been drawn.  The two normals are
    drawn as full blocks: the ziggurat takes a data-dependent number of raw
    outputs per value, so where the next variable starts is known only by
    drawing all BLOCK of them.  A uniform takes exactly one raw output, so
    its m values are drawn and the other BLOCK - m outputs are skipped on
    the counter (``rng.skip_raw``).  The exponential is drawn last, so only
    its first m values are drawn.  The stream and every value are the same
    as with seven full blocks.
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
        lo = b * BLOCK
        m = min(n - lo, BLOCK)
        # Fixed draw order, each variable a full block on the stream so
        # earlier rows never move (see the docstring).
        x1 = rng.standard_normal(BLOCK)[:m]
        u_a1 = _block_uniforms(rng, m)
        u_l2 = _block_uniforms(rng, m)
        eps_s2 = rng.standard_normal(BLOCK)[:m]
        u_a2 = _block_uniforms(rng, m)
        u_y = _block_uniforms(rng, m)
        e_c = rng.standard_exponential(m)

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

    return Dataset(**cols)


@dataclass(frozen=True)
class TruthTable:
    """Regime-specific true values with Monte Carlo error.

    ``rd_eff`` is on the per-100-persons scale (``PER_HUNDRED``); ``icer``
    is cost per percentage point of effectiveness gained over the reference
    regime.  The reference row carries zero differences and an undefined
    (NaN) ratio, as does any regime whose effect difference is below
    ``MIN_DENOMINATOR``, the rule of ``inference.icer``.
    """

    regimes: tuple[RegimeSpec, ...]
    ey: np.ndarray
    ec: np.ndarray
    rd_cost: np.ndarray
    rd_eff: np.ndarray
    icer: np.ndarray
    mc_draws: int
    mc_se_ey: np.ndarray
    mc_se_ec: np.ndarray
    reference_id: int = 1

    def icer_for(self, regime_id: int) -> float:
        for i, reg in enumerate(self.regimes):
            if reg.id == regime_id:
                return float(self.icer[i])
        raise KeyError(f"no regime with id {regime_id}")


def _finish_truth(
    regs, sum_y, sum_c, sum_c2, mc_draws: int, reference_id: int
) -> TruthTable:
    n = float(mc_draws)
    ey = sum_y / n
    ec = sum_c / n
    se_y = np.sqrt(ey * (1.0 - ey) / n)
    se_c = np.sqrt(np.maximum(sum_c2 / n - ec**2, 0.0) / n)

    ref_pos = next(i for i, r in enumerate(regs) if r.id == reference_id)
    rd_eff = PER_HUNDRED * (ey - ey[ref_pos])
    rd_cost = ec - ec[ref_pos]
    with np.errstate(divide="ignore", invalid="ignore"):
        icer = np.where(np.abs(rd_eff) < MIN_DENOMINATOR, np.nan, rd_cost / rd_eff)
    icer[ref_pos] = np.nan

    return TruthTable(
        regimes=regs,
        ey=ey,
        ec=ec,
        rd_cost=rd_cost,
        rd_eff=rd_eff,
        icer=icer,
        mc_draws=mc_draws,
        mc_se_ey=se_y,
        mc_se_ec=se_c,
        reference_id=reference_id,
    )


def _check_reference(regs: Sequence[RegimeSpec], reference_id: int) -> None:
    if not any(r.id == reference_id for r in regs):
        raise ValueError(
            f"reference regime {reference_id} is not among the regimes "
            f"{[r.id for r in regs]}"
        )


def _regimes_by_arm(
    config: DgpConfig, regs: Sequence[RegimeSpec]
) -> dict[int, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Map each stage-1 arm d1 to its regimes' (position, logits, rates), where
    each pair holds the regime's (lapse, no-lapse) branch constants."""
    base_logit = logit(np.asarray(config.y_constants, dtype=np.float64))
    rate_k = np.asarray(config.c_constants, dtype=np.float64)
    arms: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for i, reg in enumerate(regs):
        k = [int(_cell_index(reg.d1, l2, reg.d2(l2))) for l2 in (1, 0)]
        arms.setdefault(reg.d1, []).append((i, base_logit[k], rate_k[k]))
    return arms


def true_values(
    config: DgpConfig,
    regimes: Sequence[RegimeSpec] | None = None,
    mc_draws: int = TRUTH_MC_DRAWS,
    seed: int = 0,
    reference_id: int = 1,
) -> TruthTable:
    """Evaluate every regime's true mean effect and cost by simulation.

    Counterfactual trajectories are generated by fixing A(1) = d1 and
    A(2) = d2(L(2)) inside the structural equations.  All regimes share one
    set of exogenous draws per block, so regimes whose branch constants
    coincide produce identical outcomes draw for draw, and contrasts carry
    no spurious Monte Carlo disagreement.  L(2), S(2) and the cost rate's
    distance term depend only on the stage-1 arm, so each block computes
    them once per arm; a regime adds its two branch constants, picked per
    row by L(2).  Raises ``ValueError`` before any draw for an ``mc_draws``
    that is not an integer of at least 10,000, two different regimes with
    one id, or a ``reference_id`` that names no regime.

    Y is counted in logit space: Y = 1{U < expit(eta)} = 1{logit(U) < eta}.
    Each block takes logit(U) once, each arm subtracts its S(2) and
    curvature terms once, and a regime compares the remainder with its
    branch constant; no regime evaluates an ``expit``.  The two tests can
    disagree only where U lies within a few ulps of expit(eta)
    (``tests/test_dgp.py`` states the bound), which a 53-bit uniform
    essentially never hits.  Each regime's cost is built in place in one
    buffer.  Every element's expression and every sum's order are those of
    cost_scale * E / (rate + distance), so the cost sums keep their bits.
    """
    check_count("mc_draws", mc_draws, 10_000)
    regs = tuple(regimes) if regimes is not None else embedded_regimes()
    check_regime_ids(regs)
    _check_reference(regs, reference_id)
    arms = _regimes_by_arm(config, regs)

    sum_y = np.zeros(len(regs))
    sum_c = np.zeros(len(regs))
    sum_c2 = np.zeros(len(regs))

    for b in range((mc_draws + BLOCK - 1) // BLOCK):
        rng = philox_stream(seed, PURPOSE_TRUTH, b)
        # Fixed draw order; full blocks, as in simulate_smart.
        x1 = rng.standard_normal(BLOCK)
        u_l2 = rng.random(BLOCK)
        eps_s2 = rng.standard_normal(BLOCK)
        u_y = rng.random(BLOCK)
        e_c = rng.standard_exponential(BLOCK)

        m = min(mc_draws - b * BLOCK, BLOCK)
        x1, u_l2, eps_s2, u_y, e_c = (
            arr[:m] for arr in (x1, u_l2, eps_s2, u_y, e_c)
        )
        # Built in place to hold fewer block-sized arrays at once; addition
        # and multiplication commute, so the bits are those of
        # 0.5 * x1**2 + log(|x1| + 0.01) and cost_scale * e_c.
        curvature = np.log(np.abs(x1) + 0.01)
        curvature += 0.5 * x1**2
        scaled_e_c = np.multiply(config.cost_scale, e_c, out=e_c)
        # logit(U) in u_y's own buffer; U = 0 gives -inf, below every eta.
        with np.errstate(divide="ignore"):
            log1m_u = np.log1p(-u_y)
            logit_u = np.log(u_y, out=u_y)
        logit_u -= log1m_u
        # log1m_u is spent; its buffer holds each arm's logit(U) - (S(2) + curvature).
        y_threshold = log1m_u

        for d1, members in arms.items():
            lapse = u_l2 < expit(x1 + d1)
            s2 = x1 + 2.0 * d1 + eps_s2
            distance = np.abs(s2 + x1 + lapse - 3.0 * d1)
            np.add(s2, curvature, out=y_threshold)
            np.subtract(logit_u, y_threshold, out=y_threshold)
            for i, logits, rates in members:
                sum_y[i] += np.count_nonzero(y_threshold < np.where(lapse, *logits))
                c = np.where(lapse, *rates)
                c += distance
                np.divide(scaled_e_c, c, out=c)
                sum_c[i] += c.sum()
                c *= c
                sum_c2[i] += c.sum()

    return _finish_truth(regs, sum_y, sum_c, sum_c2, mc_draws, reference_id)
