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

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import STAGE1_SUPPORT, STAGE2_SUPPORT, Dataset, RegimeSpec
from .core import check_count, check_reference, check_regime_ids
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
    "TRIAL_N",
    "REFERENCE_ID",
    "TARGET_ICER",
    "TRUTH_MC_DRAWS",
    "MIN_MC_DRAWS",
    "DgpConfig",
    "embedded_regimes",
    "simulate_smart",
    "simulate_trials",
    "TruthTable",
    "true_values",
]

Y_CONSTANTS = (0.72, 0.74, 0.72, 0.70, 0.71, 0.70, 0.79, 0.80)
C_CONSTANTS = (2.0, 0.03, 0.035, 0.044, 0.06, 0.05, 0.058, 0.025)
COST_SCALE = 5.0

# Records in one benchmark trial, and the id of its standard-of-care regime.
TRIAL_N = 1809
REFERENCE_ID = 1

# Default Monte-Carlo resolution of a truth table, and the coarsest accepted.
TRUTH_MC_DRAWS = 2_000_000
MIN_MC_DRAWS = 10_000

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
    The cost rates and ``cost_scale`` must be positive and finite.
    """

    n: int = TRIAL_N
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
        if not all(0.0 < r < math.inf for r in self.c_constants):
            raise ValueError("c_constants must be positive and finite")
        if not 0.0 < self.cost_scale < math.inf:
            raise ValueError("cost_scale must be positive and finite")


def embedded_regimes() -> tuple[RegimeSpec, ...]:
    """The eight embedded regimes under the benchmark numbering.

    Regime 1 (stage-1 control, first option on either branch) is the
    standard-of-care reference.  The numbering is the one recovered from
    the benchmark table by ``calibrate_regime_indexing`` in
    ``tests/oracles.py``: within each no-lapse option, lapse option varies
    next and the stage-1 arm fastest.
    """
    cells = product(
        sorted(STAGE2_SUPPORT[0]), sorted(STAGE2_SUPPORT[1]), sorted(STAGE1_SUPPORT)
    )
    return tuple(
        RegimeSpec(id=i, d1=d1, d2_if_lapse=dl, d2_if_no_lapse=dn)
        for i, (dn, dl, d1) in enumerate(cells, start=1)
    )


def _block_uniforms(rng: np.random.Generator, m: int) -> np.ndarray:
    """The first m of a block's BLOCK uniforms; the rest are skipped undrawn."""
    u = rng.random(m)
    skip_raw(rng, BLOCK - m)
    return u


def _prefetched(draw: Callable[..., tuple], jobs: Sequence[tuple]) -> Iterator[tuple]:
    """Yield ``draw(*job)`` for each job in order: job 0 on the calling thread,
    job k + 1 on one helper thread (numpy draws without the GIL) from when
    result k is back, so while the caller uses it; job k + 2 may then draw
    into a buffer that result k reads.  Fewer than two jobs start no thread;
    the helper is joined when the generator ends, raises or is closed."""
    with ThreadPoolExecutor(1) if len(jobs) > 1 else nullcontext() as helper:
        for k, job in enumerate(jobs):
            result = pending.result() if k else draw(*job)
            if k + 1 < len(jobs):
                pending = helper.submit(draw, *jobs[k + 1])
            yield result


def _trial_block_draws(seed: int, b: int, m: int, normals: np.ndarray) -> tuple:
    """Trial block b's first m rows of its seven variables, drawn as
    :func:`simulate_smart` says; each normal's m rows are copied out of ``normals``."""
    rng = philox_stream(seed, PURPOSE_SIMULATE, b)
    x1 = rng.standard_normal(out=normals)[:m].copy()
    u_a1 = _block_uniforms(rng, m)
    u_l2 = _block_uniforms(rng, m)
    eps_s2 = rng.standard_normal(out=normals)[:m].copy()
    u_a2 = _block_uniforms(rng, m)
    u_y = _block_uniforms(rng, m)
    return x1, u_a1, u_l2, eps_s2, u_a2, u_y, rng.standard_exponential(m)


def simulate_trials(configs: Iterable[DgpConfig]) -> Iterator[Dataset]:
    """Yield :func:`simulate_smart` of each config in turn, each block drawn
    (``_prefetched``) while the one before is computed or, after a trial's
    last block, used; all share one buffer of BLOCK normals."""
    jobs = [(c, b, min(c.n - b * BLOCK, BLOCK))
            for c in configs for b in range((c.n + BLOCK - 1) // BLOCK)]
    normals, blocks = np.empty(BLOCK), []
    draws = _prefetched(_trial_block_draws, [(c.seed, b, m, normals) for c, b, m in jobs])
    with closing(draws):
        for (config, b, m), (x1, u_a1, u_l2, eps_s2, u_a2, u_y, e_c) in zip(jobs, draws):
            base_logit = logit(np.asarray(config.y_constants, dtype=np.float64))
            rate_k = np.asarray(config.c_constants, dtype=np.float64)
            a1 = (u_a1 < 0.5).astype(np.int64)
            l2 = (u_l2 < expit(x1 + a1)).astype(np.int64)
            s2 = x1 + 2.0 * a1 + eps_s2
            a2 = np.where(l2 == 1, np.where(u_a2 < 0.5, 1, 2), np.where(u_a2 < 0.5, 3, 4))
            k = _cell_index(a1, l2, a2)
            p_y = expit(base_logit[k] + s2 + 0.5 * x1**2 + np.log(np.abs(x1) + 0.01))
            y = (u_y < p_y).astype(np.int64)
            rate = rate_k[k] + np.abs(s2 + x1 + l2 - 3.0 * a1)
            blocks.append((x1, a1, l2, s2, a2, y, config.cost_scale * e_c / rate))
            if b * BLOCK + m == config.n:
                yield Dataset(*(np.concatenate(col) for col in zip(*blocks)))
                blocks = []


def simulate_smart(config: DgpConfig) -> Dataset:
    """Draw ``config.n`` observed trajectories from the benchmark generator.

    Rows [b*BLOCK, (b+1)*BLOCK) come from the stream (seed, simulate, b), which
    feeds seven variables in a fixed order, each laid out as a full block of
    BLOCK values, so the first m rows do not depend on n.  A block of m < BLOCK
    rows draws the two normals in full, as the ziggurat takes a data-dependent
    number of raw outputs per value; of each uniform it draws m values and
    skips the other BLOCK - m raw outputs (``rng.skip_raw``), and of the
    exponential, drawn last, m values.  The stream and every value are those
    of seven full blocks.  This is the one-trial case of :func:`simulate_trials`.
    """
    (dataset,) = simulate_trials([config])
    return dataset


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
    reference_id: int

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

    ref_pos = regs.index(check_reference(regs, reference_id))
    rd_eff = PER_HUNDRED * (ey - ey[ref_pos])
    rd_cost = ec - ec[ref_pos]
    with np.errstate(divide="ignore", invalid="ignore"):
        icer = np.where(np.abs(rd_eff) < MIN_DENOMINATOR, np.nan, rd_cost / rd_eff)

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


def _cells_by_arm(
    regs: Sequence[RegimeSpec],
) -> dict[int, list[tuple[int, int, int]]]:
    """Map each stage-1 arm d1 to its regimes' (position, lapse cell,
    no-lapse cell), the cells as ``_cell_index`` numbers them."""
    arms: dict[int, list[tuple[int, int, int]]] = {}
    for i, reg in enumerate(regs):
        k_lapse, k_no_lapse = (int(_cell_index(reg.d1, l2, reg.d2(l2))) for l2 in (1, 0))
        arms.setdefault(reg.d1, []).append((i, k_lapse, k_no_lapse))
    return arms


# Rows of a truth block that one pass of its arithmetic covers: a piece's
# work buffers and its rows of the draws take about 1.4 MB, which stays in
# a core's L2 cache.
_PIECE = 16_384


def _pairwise_half(n: int) -> int:
    """Where numpy's pairwise sum splits a run of n > 128 values: half of n,
    rounded down to a multiple of 8.  It sums a run of at most 128 values
    with 8 accumulators, unsplit."""
    return n // 2 - n // 2 % 8


def _pairwise_pieces(n: int) -> list[int]:
    """Lengths of the nodes of numpy's pairwise-sum tree of n values that
    are at most ``_PIECE`` long and whose parents are longer, in order.
    numpy splits every longer node, since ``_PIECE`` is above 128."""
    if n <= _PIECE:
        return [n]
    half = _pairwise_half(n)
    return _pairwise_pieces(half) + _pairwise_pieces(n - half)


def _pairwise_add(n: int, sums):
    """Add the pieces' sums (numbers, or arrays added elementwise), an
    iterator in the order of ``_pairwise_pieces(n)``, in the tree of numpy's
    pairwise sum of n values.  The result is that sum, bit for bit."""
    if n <= _PIECE:
        return next(sums)
    half = _pairwise_half(n)
    left = _pairwise_add(half, sums)
    return left + _pairwise_add(n - half, sums)


def _logit_uniform(u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """logit(u) = log(u) - log1p(-u), ``glm.logit``'s arithmetic, written
    over u; u = 0 gives -inf."""
    np.negative(u, out=scratch)
    np.log1p(scratch, out=scratch)
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    u -= scratch
    return u


def _truth_block_streams(seed: int, b: int, normals: np.ndarray) -> tuple:
    """Draw truth block b's two normals into ``normals``; return them and
    generators at the starts of its lapse uniforms, Y uniforms and exponentials.
    A uniform's generator is a second stream of the cell with the first's state
    copied in; the first then skips the BLOCK raw outputs that uniform takes."""
    rng = philox_stream(seed, PURPOSE_TRUTH, b)
    starts = []
    for out in normals:
        rng.standard_normal(out=out)
        start = philox_stream(seed, PURPOSE_TRUTH, b)
        start.bit_generator.state = rng.bit_generator.state
        starts.append(start)
        skip_raw(rng, BLOCK)
    return (*normals, *starts, rng)


def true_values(
    config: DgpConfig,
    regimes: Sequence[RegimeSpec] | None = None,
    mc_draws: int = TRUTH_MC_DRAWS,
    seed: int = 0,
    reference_id: int = REFERENCE_ID,
) -> TruthTable:
    """Evaluate every regime's true mean effect and cost by simulation.

    Counterfactual trajectories are generated by fixing A(1) = d1 and
    A(2) = d2(L(2)) inside the structural equations.  All regimes share one
    set of exogenous draws per block, so regimes whose branch constants
    coincide produce identical outcomes draw for draw, and contrasts carry
    no spurious Monte Carlo disagreement.  Raises ``ValueError`` before any
    draw for an ``mc_draws`` that is not an integer of at least
    :data:`MIN_MC_DRAWS`, two different regimes with one id, or a
    ``reference_id`` that names no regime.

    Block b + 1's two full-block normals are drawn into one of two buffers
    while block b is summed (``_prefetched``).  The arithmetic runs on
    pieces of at most ``_PIECE`` rows, whose work buffers stay in cache; each
    piece draws its rows of the uniforms and exponentials, so a short last
    block draws only what it reads.  The pieces
    are the nodes of numpy's pairwise summation tree of the block's rows
    (a run is split at half its length rounded down to a multiple of 8):
    a piece's ``.sum()`` is the sum of its node, and adding the pieces'
    sums back in that tree (``_pairwise_add``) gives each regime's block
    sums bit for bit as one ``.sum()`` over the block would.

    Each piece computes the curvature term, logit(U_y) and logit(U_l2)
    once.  L(2), S(2) and the cost rate's distance term depend only on the
    stage-1 arm, so each arm computes its lapse mask and its complement,
    S(2), the distance and the Y threshold once per piece.

    Both Bernoulli draws are tested in logit space: 1{U < expit(eta)} =
    1{logit(U) < eta}.  The lapse is logit(U_l2) < X(1) + d1.  Y's
    threshold is logit(U_y) - (S(2) + curvature), and Y = 1 where it lies
    below the row's cell constant logit(y_k).  For each cell that the arm's
    regimes use, Y is counted once, on that cell's branch rows; a regime's
    count is its lapse cell's count plus its no-lapse cell's.  Counts are
    integers, so the sums are exact.  The logit-space and probability-space
    tests can disagree only where U lies within a few ulps of expit(eta)
    (``tests/test_dgp.py`` states the bound), which a 53-bit uniform
    essentially never hits.

    A regime's cost rate is lapse * r_lapse + no_lapse * r_no_lapse, built
    in one buffer.  A 0/1 factor times a finite rate is exactly the rate or
    +0.0, so the sum is exactly one of the two rates: the select is exact
    only because ``DgpConfig`` requires finite rates (0 * inf is NaN).
    Every element's expression and every sum's order are then those of
    cost_scale * E / (rate + distance), so the cost sums keep their bits.
    """
    check_count("mc_draws", mc_draws, MIN_MC_DRAWS)
    regs = tuple(regimes) if regimes is not None else embedded_regimes()
    check_regime_ids(regs)
    check_reference(regs, reference_id)
    arms = _cells_by_arm(regs)
    base_logit = logit(np.asarray(config.y_constants, dtype=np.float64))
    rate_k = np.asarray(config.c_constants, dtype=np.float64)

    sum_y = np.zeros(len(regs))
    sum_c = np.zeros(len(regs))
    sum_c2 = np.zeros(len(regs))

    blocks = (mc_draws + BLOCK - 1) // BLOCK
    # Two blocks' full-block normals: block b + 1 fills one while block b reads the other.
    normals = np.empty((min(blocks, 2), 2, BLOCK))
    piece = min(mc_draws, _PIECE)
    draws = np.empty((3, piece))
    work = np.empty((5, piece))
    masks = np.empty((3, piece), dtype=bool)

    jobs = [(seed, b, normals[b % 2]) for b in range(blocks)]
    with closing(_prefetched(_truth_block_streams, jobs)) as streams:
        for b, (x1_block, eps_s2_block, u_l2_rng, u_y_rng, e_c_rng) in enumerate(streams):
            m = min(mc_draws - b * BLOCK, BLOCK)

            # Each piece's sums of C and C^2, one column per regime.
            piece_sums = []
            lo = 0
            for p in _pairwise_pieces(m):
                rows = slice(lo, lo + p)
                lo += p
                x1, eps_s2 = x1_block[rows], eps_s2_block[rows]
                u_l2, u_y, e_c = draws[:, :p]
                u_l2_rng.random(out=u_l2)
                u_y_rng.random(out=u_y)
                e_c_rng.standard_exponential(out=e_c)
                curvature, y_threshold, s2, distance, c = work[:, :p]
                lapse, no_lapse, hit = masks[:, :p]
                # Addition and multiplication commute, so the bits are those of
                # 0.5 * x1**2 + log(|x1| + 0.01) and cost_scale * e_c.
                np.abs(x1, out=curvature)
                curvature += 0.01
                np.log(curvature, out=curvature)
                np.square(x1, out=c)
                c *= 0.5
                curvature += c
                scaled_e_c = np.multiply(config.cost_scale, e_c, out=e_c)
                # logit(U) in each uniform's own buffer; U = 0 gives -inf, below
                # every eta.
                logit_u_l2 = _logit_uniform(u_l2, c)
                logit_u_y = _logit_uniform(u_y, c)
                sums = np.empty((2, len(regs)))

                for d1, members in arms.items():
                    np.less(logit_u_l2, np.add(x1, d1, out=c), out=lapse)
                    np.logical_not(lapse, out=no_lapse)
                    np.add(x1, 2.0 * d1, out=s2)
                    s2 += eps_s2
                    # |S(2) + X(1) + L(2) - 3 d1| and logit(U) - (S(2) + curvature).
                    np.add(s2, x1, out=distance)
                    distance += lapse
                    distance -= 3.0 * d1
                    np.abs(distance, out=distance)
                    np.add(s2, curvature, out=y_threshold)
                    np.subtract(logit_u_y, y_threshold, out=y_threshold)

                    y_count = {}
                    for branch, cells in ((lapse, {k for _, k, _ in members}),
                                          (no_lapse, {k for _, _, k in members})):
                        for k in cells:
                            np.less(y_threshold, base_logit[k], out=hit)
                            hit &= branch
                            y_count[k] = np.count_nonzero(hit)
                    # S(2) is spent; its buffer holds each regime's no-lapse rate term.
                    no_lapse_rate = s2
                    for i, k_lapse, k_no_lapse in members:
                        sum_y[i] += y_count[k_lapse] + y_count[k_no_lapse]
                        np.multiply(lapse, rate_k[k_lapse], out=c)
                        np.multiply(no_lapse, rate_k[k_no_lapse], out=no_lapse_rate)
                        c += no_lapse_rate
                        c += distance
                        np.divide(scaled_e_c, c, out=c)
                        sums[0, i] = c.sum()
                        c *= c
                        sums[1, i] = c.sum()
                piece_sums.append(sums)

            block_c, block_c2 = _pairwise_add(m, iter(piece_sums))
            sum_c += block_c
            sum_c2 += block_c2

    return _finish_truth(regs, sum_y, sum_c, sum_c2, mc_draws, reference_id)
