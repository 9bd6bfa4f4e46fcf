"""Whole-package acceptance gate with pinned tolerances.

Every quantitative promise the package makes is checked here end to end:
truth-table reproduction of the embedded benchmark values, the desk-scale
simulation study, estimator equivalences on a fully discrete test bed, the
targeting and delta-method identities, the frontier construction, and
byte-level reproducibility of the command line.

The benchmark table (``TARGET_*`` in dgp) is a finite Monte Carlo
evaluation, not a table of exact values, so the truth-table clauses compare
against it at its own precision.  Regimes 1/3 and 5/7 have equal true effects
(test_dgp proves it draw for draw), yet the table prints gaps of 0.0017 and
0.0032: its regimes were drawn independently.  Its effect column's deviations
from the frozen 20-million-draw oracle in test_dgp imply about 1.2e5 draws per
regime, and at ``TARGET_MC_DRAWS`` = 1e5 every cost entry lies within 1.0
table standard error of that oracle.  ``benchmark_mismatches`` therefore
requires:

- each mean within 4 standard errors of the difference (the table's error at
  ``TARGET_MC_DRAWS`` draws combined with the run's, ``target_se``) plus the
  table's rounding of 5e-5;
- each ICER in Fieller form, |rd_cost - theta * rd_eff| < 4 (se(dC) + |theta|
  se(dE)) with theta the printed ICER.  The printed ICER is the ratio of the
  printed differences, and for regimes 3 and 5 one of them lies within a
  table standard error of zero, where a relative tolerance on the ratio means
  nothing (Willan & O'Brien 1996, Health Econ. 5:297).  Adding the two
  errors bounds their unknown covariance;
- an exactly zero effect difference and an undefined ICER for a regime whose
  outcome constants equal the reference's on every reachable cell (regime 3),
  and a finite ICER for every other regime;
- per column, a sum of squared z-scores over the 8 regimes below the 0.999
  quantile of chi-squared on 8 degrees of freedom, which keeps power against
  shifts spread over all regimes that no single 4-SE bound detects.

Negative controls show that the comparison still rejects generators with
swapped or shifted constants.
"""

from __future__ import annotations

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import chi2

from smartcea.cea import EmptyFrontier, PlanePoint, efficient_frontier
from smartcea.cli import main
from smartcea.core import EstimateWithIC
from smartcea.dgp import (
    C_CONSTANTS,
    DEFAULT_REGIME_INDEX_MAP,
    TARGET_EC,
    TARGET_EY,
    TARGET_ICER,
    TARGET_ROUNDING,
    Y_CONSTANTS,
    DgpConfig,
    embedded_regimes,
    simulate_smart,
    target_se,
    true_values,
)
from smartcea.estimate import (
    SATURATED_G,
    SATURATED_Q,
    RegimeMeanRequest,
    estimate_g,
    regime_mean,
)
from smartcea.inference import delta_method_ic, icer
from smartcea.study import StudyConfig, run_study

from discrete_bed import empirical_discrete, gcomp_discrete, make_discrete_dgp, sample_discrete
from oracles import icer_variance_decomposition, relative_variance

WELL_BEHAVED = (2, 4, 6, 8)
UNSTABLE = (3, 5, 7)

# Per-entry bound on a truth-table clause, in standard errors of the
# difference, and the per-column bound on the sum of squared z-scores.
TABLE_Z = 4.0
COLUMN_CHI2 = float(chi2.ppf(0.999, df=8))


def _same_effect_law(config, regime, reference):
    """Whether ``regime`` meets the reference's outcome constant on every
    reachable cell, so that its true effect difference is exactly zero."""

    def constant(reg, l2):
        index = DEFAULT_REGIME_INDEX_MAP[(reg.d1, l2, reg.d2(l2))]
        return config.y_constants[index - 1]

    return regime.d1 == reference.d1 and all(
        constant(regime, l2) == constant(reference, l2) for l2 in (0, 1)
    )


def benchmark_mismatches(table, config):
    """Clauses of the published table that ``table`` contradicts.

    Returns a message per failed clause, keyed ``means[<id>]``,
    ``icers[<id>]``, ``effect column`` or ``cost column``; ``config`` is the
    generator that produced ``table``.
    """
    se_e = target_se(table.mc_se_ey, table.mc_draws)
    se_c = target_se(table.mc_se_ec, table.mc_draws)
    ids = [reg.id for reg in table.regimes]
    want_e = np.array([TARGET_EY[rid - 1] for rid in ids])
    want_c = np.array([TARGET_EC[rid - 1] for rid in ids])
    z_e = (table.ey - want_e) / se_e
    z_c = (table.ec - want_c) / se_c
    ref = ids.index(table.reference_id)
    failures = {}

    for k, regime in enumerate(table.regimes):
        problems = [
            f"{name} {got:.4f} vs {want:.4f} ({z:+.1f} SE)"
            for name, got, want, se, z in (
                ("effect", table.ey[k], want_e[k], se_e[k], z_e[k]),
                ("cost", table.ec[k], want_c[k], se_c[k], z_c[k]),
            )
            if not abs(got - want) < TABLE_Z * se + TARGET_ROUNDING
        ]
        if problems:
            failures[f"means[{regime.id}]"] = "; ".join(problems)
        if k == ref:
            continue

        theta = TARGET_ICER[regime.id - 1]
        se_dc = math.hypot(se_c[k], se_c[ref])
        se_de = 100.0 * math.hypot(se_e[k], se_e[ref])
        gap = table.rd_cost[k] - theta * table.rd_eff[k]
        bound = TABLE_Z * (se_dc + abs(theta) * se_de)
        problems = []
        if not abs(gap) < bound:
            problems.append(
                f"rd_cost - {theta} * rd_eff = {gap:.4f}, bound {bound:.4f}"
            )
        if _same_effect_law(config, regime, table.regimes[ref]):
            if not (table.rd_eff[k] == 0.0 and math.isnan(table.icer[k])):
                problems.append(
                    f"equal effect law, yet rd_eff {table.rd_eff[k]} and "
                    f"ICER {table.icer[k]}"
                )
        elif not math.isfinite(table.icer[k]):
            problems.append("ICER is undefined")
        if problems:
            failures[f"icers[{regime.id}]"] = "; ".join(problems)

    for column, z in (("effect", z_e), ("cost", z_c)):
        stat = float(np.sum(z**2))
        if not stat < COLUMN_CHI2:
            failures[f"{column} column"] = (
                f"sum of squared z {stat:.1f}, bound {COLUMN_CHI2:.1f}"
            )
    return failures


@pytest.fixture(scope="module")
def truth_run():
    start = time.perf_counter()
    table = true_values(DgpConfig(seed=1), mc_draws=2_000_000, seed=1)
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def desk_study():
    config = StudyConfig(reps=200, n=1809, seed=3)
    start = time.perf_counter()
    result = run_study(
        config, retain_degenerate=True, threads=min(4, os.cpu_count() or 1)
    )
    return result, time.perf_counter() - start


@pytest.mark.parametrize("rid", [1, 2, 3, 4, 5, 6, 7, 8])
def test_truth_reproduces_benchmark_means(truth_run, rid):
    table, _ = truth_run
    failures = benchmark_mismatches(table, DgpConfig(seed=1))
    assert f"means[{rid}]" not in failures, failures[f"means[{rid}]"]


@pytest.mark.parametrize("rid", [2, 3, 4, 5, 6, 7, 8])
def test_truth_reproduces_benchmark_icers(truth_run, rid):
    table, _ = truth_run
    failures = benchmark_mismatches(table, DgpConfig(seed=1))
    assert f"icers[{rid}]" not in failures, failures[f"icers[{rid}]"]


@pytest.mark.parametrize("column", ["effect", "cost"])
def test_truth_reproduces_benchmark_columns(truth_run, column):
    table, _ = truth_run
    failures = benchmark_mismatches(table, DgpConfig(seed=1))
    assert f"{column} column" not in failures, failures[f"{column} column"]


def _swap(values, i, j):
    out = list(values)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


@pytest.mark.parametrize(
    "config,flagged",
    [
        pytest.param(
            DgpConfig(
                y_constants=_swap(Y_CONSTANTS, 1, 2),
                c_constants=_swap(C_CONSTANTS, 1, 2),
            ),
            {
                "means[1]", "means[2]", "means[5]", "means[6]",
                "icers[2]", "icers[4]", "icers[6]", "icers[8]",
                "effect column", "cost column",
            },
            id="constants-1-2-swapped",
        ),
        pytest.param(
            DgpConfig(
                y_constants=_swap(Y_CONSTANTS, 7, 8),
                c_constants=_swap(C_CONSTANTS, 7, 8),
            ),
            {"means[5]", "means[7]", "icers[5]", "cost column"},
            id="constants-7-8-swapped",
        ),
        pytest.param(
            DgpConfig(cost_scale=5.1), {"cost column"}, id="cost-scale-2pct"
        ),
        pytest.param(
            DgpConfig(y_constants=Y_CONSTANTS[:4] + (0.73,) + Y_CONSTANTS[5:]),
            {"means[1]", "means[3]", "effect column"},
            id="y-constant-5-shifted",
        ),
    ],
)
def test_benchmark_comparison_rejects_wrong_generators(config, flagged):
    table = true_values(config, mc_draws=2_000_000, seed=1)
    failures = benchmark_mismatches(table, config)
    assert flagged <= failures.keys(), failures


def test_truth_runtime(truth_run):
    _, elapsed = truth_run
    assert elapsed < 60.0


def test_icer_arithmetic_anchors():
    def fixed(psi):
        return EstimateWithIC(psi=psi, ic=np.array([0.5, -0.5, 0.0]))

    assert abs(icer(fixed(3.1094), fixed(25.8660)).icer - 0.1202) < 5e-5
    assert abs(icer(fixed(2.2906), fixed(0.1650)).icer - 13.8825) < 1e-4


def test_study_bias_variance_coverage(desk_study):
    result, _ = desk_study
    for est, rid in itertools.product(("ipw", "tmle"), WELL_BEHAVED):
        m = result.row(est, rid).metrics
        label = f"{est} regime {rid}"
        assert abs(m.bias) < 0.01, label
        assert m.variance < 0.004, label
        assert 90.5 <= m.coverage_pct <= 98.0, label
        assert m.avg_cv_cost < 2.0 and m.avg_cv_eff < 2.0, label


def test_study_flags_unstable_contrasts(desk_study):
    result, _ = desk_study
    for est, rid in itertools.product(("ipw", "tmle"), UNSTABLE):
        m = result.row(est, rid).metrics
        assert max(m.avg_cv_cost, m.avg_cv_eff) > 2.0, f"{est} regime {rid}"
    for est in ("ipw", "tmle"):
        assert result.row(est, 3).metrics.coverage_pct < 90.0


def test_study_runtime(desk_study):
    _, elapsed = desk_study
    assert elapsed < 600.0


def test_paired_variance_ratio(desk_study):
    result, _ = desk_study
    rel = relative_variance(
        {rid: result.draws[("tmle", rid)].icer for rid in WELL_BEHAVED},
        {rid: result.draws[("ipw", rid)].icer for rid in WELL_BEHAVED},
    )
    for rid in WELL_BEHAVED:
        ratio = rel[rid].ipw_over_tmle
        assert 0.98 <= ratio <= 1.10, f"regime {rid}: var(ipw)/var(tmle) = {ratio}"


def test_saturated_tmle_equals_empirical_plugin():
    dgp = make_discrete_dgp(seed=5)
    data = sample_discrete(dgp, n=2000, seed=3)
    g = estimate_g(data, "fitted", covariate_spec=SATURATED_G)
    for regime in embedded_regimes():
        plugin = empirical_discrete(data, regime)
        for outcome, want in zip(("y", "c"), plugin):
            est = regime_mean(
                data,
                RegimeMeanRequest(
                    regime=regime,
                    outcome=outcome,
                    estimator="tmle",
                    g=g,
                    q_covariates=SATURATED_Q,
                ),
            )
            assert abs(est.psi - want) < 1e-8, f"regime {regime.id} {outcome}"


def test_ipw_recovers_exact_discrete_truth_at_scale():
    dgp = make_discrete_dgp(seed=5)
    data = sample_discrete(dgp, n=1_000_000, seed=12)
    g = estimate_g(data, "known")
    for regime in embedded_regimes():
        exact = gcomp_discrete(dgp, regime)
        for outcome, want in zip(("y", "c"), exact):
            est = regime_mean(
                data,
                RegimeMeanRequest(
                    regime=regime, outcome=outcome, estimator="ipw", g=g
                ),
            )
            assert abs(est.psi - want) <= 3.0 * est.se, f"regime {regime.id} {outcome}"


@pytest.mark.parametrize("n,seed", [(120, 21), (1809, 11)])
def test_tmle_ic_has_zero_empirical_mean(n, seed):
    data = simulate_smart(DgpConfig(n=n, seed=seed))
    for kind in ("known", "fitted"):
        g = estimate_g(data, kind)
        for regime in embedded_regimes():
            for outcome in ("y", "c"):
                est = regime_mean(
                    data,
                    RegimeMeanRequest(
                        regime=regime, outcome=outcome, estimator="tmle", g=g
                    ),
                )
                assert abs(float(np.mean(est.ic))) < 1e-6, (
                    f"{kind} g, regime {regime.id}, outcome {outcome}"
                )


def test_delta_method_matches_finite_differences():
    rng = np.random.default_rng(2025)
    h = 1e-6
    for _ in range(1000):
        psi_c = float(rng.uniform(0.2, 8.0) * rng.choice([-1.0, 1.0]))
        psi_e = float(rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0]))
        ic_c = rng.uniform(0.1, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        ic_e = rng.uniform(0.1, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        cost = EstimateWithIC(psi=psi_c, ic=ic_c)
        eff = EstimateWithIC(psi=psi_e, ic=ic_e)

        value, ic = delta_method_ic(cost, eff)
        assert value == psi_c / psi_e
        for i in range(3):
            plus = (psi_c + h * ic_c[i]) / (psi_e + h * ic_e[i])
            minus = (psi_c - h * ic_c[i]) / (psi_e - h * ic_e[i])
            fd = (plus - minus) / (2.0 * h)
            assert abs(ic[i] - fd) <= 1e-6 * max(abs(fd), 1e-12)

        result = icer(cost, eff)
        dec = icer_variance_decomposition(result)
        direct = float(np.var(result.ic_icer, ddof=1)) / 3.0
        assert abs(dec.var_total - direct) <= 1e-10 * direct


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


def _brute_frontier(points, anchor=(0.0, 0.0)):
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
                best = p
                best_slope = slope
        if best is None:
            break
        chain.append(best)
        cur = (best.rd_eff, best.rd_cost)
    return chain


def test_frontier_agrees_with_brute_force():
    rng = np.random.default_rng(8)
    for trial in range(1000):
        size = int(rng.integers(1, 9))
        points = [
            PlanePoint(
                regime_id=i + 2,
                rd_eff=float(rng.uniform(-10.0, 30.0)),
                rd_cost=float(rng.uniform(-5.0, 12.0)),
                icer=float("nan"),
                reliable=True,
            )
            for i in range(size)
        ]
        expected = [p.regime_id for p in _brute_frontier(points)]
        try:
            frontier = efficient_frontier(points)
        except EmptyFrontier:
            assert expected == [], f"trial {trial}: brute force found a frontier"
            continue
        assert list(frontier.regime_ids) == expected, f"trial {trial}"
        slopes = list(frontier.slopes)
        assert slopes == sorted(slopes), f"trial {trial}: slopes decrease"


def test_identical_configs_are_byte_identical(tmp_path):
    data = tmp_path / "data.csv"
    sim = ["simulate", "--n", "300", "--seed", "9", "--out", str(data)]
    assert main(sim) == 0
    first = data.read_bytes()
    assert main(sim) == 0
    assert data.read_bytes() == first

    truth_out = tmp_path / "truth.csv"
    tru = ["truth", "--mc-draws", "50000", "--seed", "2", "--out", str(truth_out)]
    assert main(tru) == 0
    first = truth_out.read_bytes()
    assert main(tru) == 0
    assert truth_out.read_bytes() == first

    table = tmp_path / "icers.csv"
    tab = ["icer-table", "--data", str(data), "--estimator", "tmle",
           "--g", "fitted", "--out", str(table)]
    assert main(tab) == 0
    first = table.read_bytes()
    assert main(tab) == 0
    assert table.read_bytes() == first
