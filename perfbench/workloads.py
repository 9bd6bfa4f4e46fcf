"""The four benchmark workloads and their correctness gates.

Every workload is a closed loop in one process: the next call into the
package starts when the previous one has returned.  A *batch* is one such
call; it completes zero or more *units*, the user-visible results the
metrics count.  Each unit is timed from outside the package:

- ``study``: one ``run_study`` repetition at n = 1809 (IPW with known g
  against TMLE with fitted g, 7 target regimes), delimited by the
  ``progress`` callback.  A batch is one ``run_study`` call of 8 repetitions
  under a seed derived from the workload seed and the batch index.
- ``bootstrap``: one replicate of ``smartcea bootstrap --i 3``, delimited by
  the returns of the statistic the CLI hands to ``bootstrap_ci``.  A batch is
  one CLI call with 100 replicates, the CLI's minimum, on one trial file.
- ``truth``: one ``true_values`` table at 2 000 000 draws.
- ``icer-table``: one ``smartcea icer-table`` call (TMLE), cycling over four
  trial files.

CLI calls go through ``smartcea.cli.main(argv)`` in-process, run in the
workload's directory with relative file names, so the ``# config`` header
the CLI writes into every file is the same from one run to the next.  Inputs
are generated in ``prepare`` from the workload seed; the package sees only
them.  An exception from a call is caught at the batch boundary and counted
as failed units; it never aborts the benchmark.

A ``Meter`` records the unit boundaries.  Between units it lets the
workload's ``Gauge`` (``perfbench/reference.py``), when there is one, time
the reference kernel, so each unit can be scaled to the machine's speed at
that moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from perfbench.reference import Gauge
from smartcea import cli, dgp, study
from smartcea.dgp import DgpConfig
from smartcea.study import StudyConfig

clock = time.perf_counter

# Frozen 2e7-draw oracle for the benchmark generator's regime means and the
# tolerance rule applied to it, as in tests/test_dgp.py.
ORACLE_EY = (0.60599, 0.86343, 0.60599, 0.85169, 0.64192, 0.87780, 0.64192, 0.86606)
ORACLE_EC = (3.9785, 7.0997, 6.3117, 6.6156, 4.0078, 7.3286, 6.3410, 6.8445)
ORACLE_EY_TOL = 0.0005
ORACLE_EC_TOL = 0.01

# Targeting must solve the efficient influence curve's estimating equation.
MAX_ABS_MEAN_IC = 1e-6

TRIAL_N = 1809


@dataclass
class Batch:
    """One call into the package and the units it completed."""

    units: list[tuple[float, float]]  # (start, end) of each completed unit
    attempted: int
    failed: int
    wall: float  # seconds from call to return
    output: object = None  # what the gates check; None when the call failed
    error: str | None = None


class Meter:
    """Start and end of each unit; between units, a turn for the gauge."""

    def __init__(self, gauge: Gauge | None = None) -> None:
        self.gauge = gauge
        self.units: list[tuple[float, float]] = []
        self._start = 0.0

    def begin(self) -> None:
        self._start = clock()

    def end(self) -> None:
        self.units.append((self._start, clock()))

    def gap(self) -> None:
        """Close the unit in progress, let the gauge read, open the next."""
        self.end()
        if self.gauge is not None:
            self.gauge.maybe()
        self.begin()


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def sha256_hex(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _error(err: Exception) -> str:
    """Report a failed call's traceback on stderr; return its one-line summary."""
    traceback.print_exception(err, file=sys.stderr)
    return f"{type(err).__name__}: {err}"


def run_study_batch(config: StudyConfig, truth, gauge: Gauge | None = None) -> Batch:
    """One ``run_study`` call; a repetition is a unit, ended by ``progress``.

    An abort (an exception out of ``run_study``) loses the call's result, so
    every repetition that had not finished counts as failed.
    """
    meter = Meter(gauge)
    start = clock()
    meter.begin()
    try:
        result = study.run_study(
            config, truth=truth, retain_degenerate=True, threads=1,
            progress=lambda rep: meter.gap(),
        )
        error = None
    except Exception as err:  # a failed unit must not abort the benchmark
        result, error = None, _error(err)
    return Batch(
        units=meter.units,
        attempted=config.reps,
        failed=config.reps - len(meter.units),
        wall=clock() - start,
        output=result,
        error=error,
    )


def study_cells_finite(result) -> bool:
    """Every non-failed cell of every repetition has finite ICER, SE and CI."""
    for draws in result.draws.values():
        kept = ~draws.failed
        for values in (draws.icer, draws.se, draws.ci_lower, draws.ci_upper):
            if not np.all(np.isfinite(values[kept])):
                return False
    return True


def truth_within_oracle(table) -> bool:
    for k in range(len(ORACLE_EY)):
        tol_y = ORACLE_EY_TOL + 4.0 * table.mc_se_ey[k]
        tol_c = ORACLE_EC_TOL + 4.0 * table.mc_se_ec[k]
        if not (abs(table.ey[k] - ORACLE_EY[k]) < tol_y):
            return False
        if not (abs(table.ec[k] - ORACLE_EC[k]) < tol_c):
            return False
    return True


@contextlib.contextmanager
def replicate_units(meter: Meter) -> Iterator[None]:
    """Time bootstrap replicates through the ``bootstrap_ci`` the CLI calls.

    The statistic the CLI passes in is wrapped so that its every return ends
    a unit: replicate b runs from the previous return to the b-th and covers
    its resampling draw, the ``Dataset.take`` copy and the analysis.
    """
    inner = cli.bootstrap_ci

    def timed_bootstrap_ci(dataset, analysis_spec, *args, **kwargs):
        def timed_spec(resampled):
            try:
                return analysis_spec(resampled)
            finally:
                meter.gap()

        meter.begin()
        return inner(dataset, timed_spec, *args, **kwargs)

    cli.bootstrap_ci = timed_bootstrap_ci
    try:
        yield
    finally:
        cli.bootstrap_ci = inner


def run_cli_batch(
    argv: list[str], out_name: str, workdir: str, units_per_call: int = 1,
    gauge: Gauge | None = None,
) -> Batch:
    """One in-process CLI call in ``workdir``; the output file's name and bytes
    are the batch output.  A call that completes several units (a bootstrap)
    has them ended by its statistic's returns; any other call is one unit."""
    meter = Meter(gauge)
    replicates = argv[0] == "bootstrap"
    timer = replicate_units(meter) if replicates else contextlib.nullcontext()
    start = clock()
    try:
        with contextlib.chdir(workdir), timer:
            if not replicates:
                meter.begin()
            code = cli.main(argv)
            if not replicates:
                meter.end()
        error = None if code == 0 else f"exit code {code}"
    except Exception as err:  # a failed unit must not abort the benchmark
        error = _error(err)
    wall = clock() - start
    if error is not None:
        return Batch([], units_per_call, units_per_call, wall, None, error)
    with open(os.path.join(workdir, out_name), "rb") as fh:
        output = (out_name, fh.read())
    return Batch(meter.units, units_per_call, units_per_call - len(meter.units), wall, output)


class Workload:
    """Inputs made from a seed, a call that runs units, and gates on outputs.

    ``gauge``, when set, times the reference kernel between units.
    """

    name = ""
    has_tmle = True
    # Batches per pass of a traced run; every pass repeats the same units.
    trace_batches = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.gauge: Gauge | None = None

    def prepare(self) -> None:
        """Generate the inputs and warm up; safe to repeat."""
        raise NotImplementedError

    def input_digest(self) -> str:
        raise NotImplementedError

    def batch(self, index: int) -> Batch:
        raise NotImplementedError

    def probe(self) -> None:
        """A small call exercising the TMLE path, for the untimed IC gate."""

    def check(self, batches: list[Batch]) -> list[str]:
        """Names of the gates the outputs fail."""
        raise NotImplementedError

    def output_digest(self, batches: list[Batch]) -> str | None:
        """Digest of the deterministic output, compared across runs."""
        return None


class StudyWorkload(Workload):
    """The paper's Monte Carlo study: the only workload that simulates on the
    blocking path of every unit, beside 28 TMLE calls per repetition."""

    name = "study"
    reps_per_batch = 8
    trace_batches = 2
    truth = None

    def config(self, index: int, reps: int | None = None) -> StudyConfig:
        return StudyConfig(
            reps=self.reps_per_batch if reps is None else reps,
            n=TRIAL_N,
            seed=_derived_seed(self.seed, index),
        )

    def prepare(self) -> None:
        self.truth = dgp.true_values(
            DgpConfig(n=TRIAL_N, seed=self.seed),
            mc_draws=study.TRUTH_MC_DRAWS,
            seed=self.seed,
        )
        run_study_batch(self.config(0, reps=1), self.truth)

    def input_digest(self) -> str:
        # The study simulates inside the package, so digest a probe draw from
        # the same generator next to the truth table the study is scored on.
        probe = dgp.simulate_smart(DgpConfig(n=TRIAL_N, seed=self.seed))
        cols = (probe.x1, probe.a1, probe.l2, probe.s2, probe.a2, probe.y, probe.c)
        truth = (self.truth.ey, self.truth.ec)
        return sha256_hex(
            repr((TRIAL_N, self.seed, self.reps_per_batch)).encode(),
            *(np.ascontiguousarray(a).tobytes() for a in cols + truth),
        )

    def batch(self, index: int) -> Batch:
        return run_study_batch(self.config(index), self.truth, self.gauge)

    def probe(self) -> None:
        run_study_batch(self.config(0, reps=1), self.truth)

    def check(self, batches: list[Batch]) -> list[str]:
        done = [b.output for b in batches if b.output is not None]
        return [] if all(study_cells_finite(r) for r in done) else ["study_cells_finite"]


class _CliWorkload(Workload):
    """Shared set-up: trial files written by ``smartcea simulate``."""

    # Trial files made from the seed; batch i reads file i % trials.
    trials = 1

    def trial(self, index: int) -> str:
        return f"trial-{index % self.trials}.csv"

    def cli(self, argv: list[str]) -> int:
        with contextlib.chdir(self.workdir):
            return cli.main(argv)

    def prepare(self) -> None:
        for k in range(self.trials):
            seed = self.seed if k == 0 else _derived_seed(self.seed, k)
            argv = ["simulate", "--n", str(TRIAL_N), "--seed", str(seed), "--out", self.trial(k)]
            if self.cli(argv) != 0:
                raise RuntimeError("smartcea simulate failed while preparing inputs")
        if self.cli(["icer-table", "--data", self.trial(0), "--out", "warm.csv"]) != 0:
            raise RuntimeError("smartcea icer-table failed while warming up")

    def input_digest(self) -> str:
        chunks = []
        for k in range(self.trials):
            with open(os.path.join(self.workdir, self.trial(k)), "rb") as fh:
                chunks.append(fh.read())
        return sha256_hex(*chunks)

    def probe(self) -> None:
        self.cli(["icer-table", "--data", self.trial(0), "--out", "probe.csv"])

    def _outputs(self, batches: list[Batch]) -> dict[str, set[bytes]]:
        """Output file name -> the distinct contents the batches wrote to it."""
        outputs: dict[str, set[bytes]] = {}
        for b in batches:
            if b.output is not None:
                name, data = b.output
                outputs.setdefault(name, set()).add(data)
        return outputs

    def check(self, batches: list[Batch]) -> list[str]:
        if all(len(v) == 1 for v in self._outputs(batches).values()):
            return []
        return ["outputs_byte_identical"]

    def output_digest(self, batches: list[Batch]) -> str | None:
        outputs = self._outputs(batches)
        if not outputs:
            return None
        return sha256_hex(*(name.encode() + min(outputs[name]) for name in sorted(outputs)))


class BootstrapWorkload(_CliWorkload):
    """The heaviest per-dataset analysis: the estimation layers on resampled
    rows with duplicates, through ``Dataset.take``, and no simulation."""

    name = "bootstrap"
    replicates = 100
    regime = 3

    def batch(self, index: int) -> Batch:
        argv = [
            "bootstrap", "--data", self.trial(index), "--i", str(self.regime),
            "--replicates", str(self.replicates), "--seed", str(self.seed),
            "--out", "bootstrap.csv",
        ]
        return run_cli_batch(argv, "bootstrap.csv", self.workdir, self.replicates, self.gauge)


class TruthWorkload(Workload):
    """Vectorized numpy over blocks larger than L2 and no IRLS fit: the control
    on which GLM and TMLE changes must show no change."""

    name = "truth"
    has_tmle = False
    trace_batches = 2
    draws = 2_000_000
    warm_draws = 300_000

    def prepare(self) -> None:
        dgp.true_values(DgpConfig(seed=self.seed), mc_draws=self.warm_draws, seed=self.seed)

    def input_digest(self) -> str:
        return sha256_hex(repr((self.draws, self.seed, DgpConfig(seed=self.seed))).encode())

    def batch(self, index: int) -> Batch:
        meter = Meter()
        start = clock()
        meter.begin()
        try:
            table = dgp.true_values(DgpConfig(seed=self.seed), mc_draws=self.draws, seed=self.seed)
            meter.end()
            error = None
        except Exception as err:  # a failed unit must not abort the benchmark
            table, error = None, _error(err)
        return Batch(meter.units, 1, 1 - len(meter.units), clock() - start, table, error)

    def check(self, batches: list[Batch]) -> list[str]:
        tables = [b.output for b in batches if b.output is not None]
        failed = []
        if not all(truth_within_oracle(t) for t in tables):
            failed.append("truth_within_oracle")
        first = tables[0] if tables else None
        if any(
            not (np.array_equal(t.ey, first.ey) and np.array_equal(t.ec, first.ec))
            for t in tables
        ):
            failed.append("truth_deterministic")
        return failed


class IcerTableWorkload(_CliWorkload):
    """The only workload where CSV ingest is a large share of a unit."""

    name = "icer-table"
    # IRLS iterations per call differ by up to 15% between trial files, so a
    # run cycles through four of them to keep that out of its median.
    trials = 4
    trace_batches = 20

    def batch(self, index: int) -> Batch:
        out = f"icers-{index % self.trials}.csv"
        argv = ["icer-table", "--data", self.trial(index), "--out", out]
        return run_cli_batch(argv, out, self.workdir)


WORKLOADS = {
    w.name: w
    for w in (StudyWorkload, BootstrapWorkload, TruthWorkload, IcerTableWorkload)
}


def tail(unit_seconds: list[float], failed: int) -> dict | None:
    """Highest of a few percentiles with at least ten units beyond it.

    Failed units count as missing every latency limit (infinitely slow).
    None when fewer than twenty units were attempted.
    """
    samples = sorted(unit_seconds) + [math.inf] * failed
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct * n / 100.0)  # nearest rank
        if n - rank >= 10:
            return {"percentile": pct, "ms": 1000.0 * samples[rank - 1], "samples": n}
    return None
