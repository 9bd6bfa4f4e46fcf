"""Tests of the benchmark harness itself: failure accounting and span maths."""

from __future__ import annotations

import smartcea
from smartcea import dgp, estimate, study
from smartcea.dgp import DgpConfig
from smartcea.study import StudyConfig

from perfbench.reference import NOMINAL_MS, Gauge
from perfbench.run import cross_run_gate
from perfbench.spans import Tracer, UnitClock, binding_sites, layer_metrics, self_times
from perfbench.workloads import IcerTableWorkload, run_cli_batch, run_study_batch, tail


def test_study_abort_counts_unfinished_reps_as_failed():
    # n=120, seed=5 separates in a TMLE stage-2 fit part-way through the
    # study, which aborts run_study; the harness must report failed units.
    truth = dgp.true_values(DgpConfig(n=120, seed=5), mc_draws=10_000, seed=5)
    batch = run_study_batch(StudyConfig(reps=40, n=120, seed=5), truth)
    assert batch.attempted == 40
    assert 0 < batch.failed < 40
    assert len(batch.units) == batch.attempted - batch.failed
    assert batch.output is None
    assert batch.error.startswith("SeparationDetected")


def test_failed_cli_call_counts_its_units_as_failed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,x1,a1,l2,s2,a2,y,c\n1,0.5,7,0,0.1,3,1,2.0\n")
    out = tmp_path / "out.csv"
    batch = run_cli_batch(["icer-table", "--data", "bad.csv", "--out", "out.csv"], "out.csv",
                          str(tmp_path), 5)
    assert (batch.attempted, batch.failed, batch.units, batch.output) == (5, 5, [], None)
    assert batch.error == "exit code 1"


def test_tail_counts_failures_as_slowest():
    assert tail([0.001] * 19, 0) is None
    t = tail([0.001] * 90 + [0.002] * 10, 0)
    assert (t["percentile"], t["samples"]) == (90.0, 100)
    assert tail([0.001] * 85, 15)["ms"] == float("inf")


def test_self_time_only_counts_time_inside_units():
    # parent [0, 10] with children [1, 3] and [6, 7]; units cover [0, 5].
    spans = [["p", 0.0, 10.0, -1, True, None],
             ["c", 1.0, 3.0, 0, True, None],
             ["c", 6.0, 7.0, 0, True, None]]
    assert self_times(spans) == [7.0, 2.0, 1.0]
    assert self_times(spans, UnitClock([(0.0, 2.0), (2.5, 5.0)])) == [3.0, 1.5, 0.0]


def test_tracer_patches_every_binding_site_and_restores_them():
    original = estimate.regime_mean
    sites = binding_sites(original)
    assert (study, "regime_mean") in sites and (smartcea, "regime_mean") in sites
    tracer = Tracer()
    with tracer.installed():
        assert all(getattr(m, a) is not original for m, a in sites)
        data = dgp.simulate_smart(DgpConfig(n=300, seed=2))
        g = estimate.estimate_g(data, "fitted")
        regime = dgp.embedded_regimes()[1]
        study.regime_mean(data, estimate.RegimeMeanRequest(regime, "y", "tmle", g))
    assert all(getattr(m, a) is original for m, a in sites)
    names = [rec[0] for rec in tracer.spans]
    assert names.count("glm.fit_logistic") == 3 + 4
    assert names.count("estimate.tmle_mean") == 1
    metrics = layer_metrics(tracer, [(tracer.spans[0][1], tracer.spans[-1][2])])
    assert metrics["rng.streams"] == 1.0
    assert 0.0 < metrics["rng.useful_draw_ratio"] < 0.01
    assert tracer.max_abs_mean_ic < 1e-6


def test_icer_table_unit_output_is_reproducible(tmp_path):
    workload = IcerTableWorkload(seed=3, workdir=str(tmp_path))
    workload.prepare()
    first, second = workload.batch(0), workload.batch(1)
    assert first.failed == second.failed == 0
    assert workload.check([first, second]) == []


def test_inputs_and_outputs_do_not_depend_on_the_work_directory(tmp_path):
    digests, outputs = [], []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        workload = IcerTableWorkload(seed=4, workdir=str(tmp_path / name))
        workload.prepare()
        digests.append(workload.input_digest())
        outputs.append(workload.output_digest([workload.batch(0)]))
    assert digests[0] == digests[1]
    assert outputs[0] == outputs[1]


def test_cross_run_gate_fails_when_outputs_change(tmp_path):
    path = tmp_path / "digests.json"
    assert cross_run_gate(path, "icer-table|1|src|in", "d1") == []
    assert cross_run_gate(path, "icer-table|1|src|in", "d1") == []
    assert cross_run_gate(path, "icer-table|2|src|in", "d2") == []
    assert cross_run_gate(path, "icer-table|1|src|in", "d2") == ["outputs_identical_across_runs"]


def test_gauge_scales_by_the_median_reading_around_an_interval():
    gauge = Gauge()
    gauge.readings = [(float(t), 0.010) for t in range(6)] + [(6.0, 0.020), (7.0, 0.030)]
    # Four readings before [5.5, 5.9] (all 10 ms), two after (20 and 30 ms).
    assert abs(gauge.scale(5.5, 5.9) - NOMINAL_MS / 10.0) < 1e-12
    # Only one reading after 6.5: 30 ms, and 10, 10, 10, 20 ms before.
    assert abs(gauge.scale(6.5, 6.6) - NOMINAL_MS / 10.0) < 1e-12
    gauge.readings = [(0.0, 0.020), (5.0, 0.040)]
    assert abs(gauge.scale(1.0, 2.0) - NOMINAL_MS / 30.0) < 1e-12
