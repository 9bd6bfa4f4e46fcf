"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``unit_ms_norm`` (median unit wall time, scaled to the machine speed at
which the reference kernel of ``perfbench/reference.py`` takes 15 ms),
``setup_s`` (median of three set-ups, each a fresh interpreter importing the
package, input generation and warm-up, scaled the same way) and
``peak_rss_mb``.  It also prints, unscaled, ``work_per_s`` (units completed
per second of the timed loop, kernel readings excluded), the median unit
time and the highest percentile with ten units beyond it.  ``--trace 1``
runs the same units repeatedly, alternately plain and under the span
recorder of ``perfbench/spans.py``, and reports per-unit layer metrics plus
the recorder's overhead.

Correctness gates run outside the timed region; a failed gate prints
``"correct": false`` and exits 1.  The package is imported from ``src/`` next
to this directory and nowhere else: without it the run exits 2 and prints no
result.  A run record (versions, BLAS, seeds, input digests, unit times,
per-span self times) and, for traced runs, the spans are written under
``perfbench/_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
WORKLOAD_NAMES = ("study", "bootstrap", "truth", "icer-table")
SETUP_REPEATS = 3

# Metrics of the result line with --trace 0, each with a regression bound in
# BENCHMARK.json.  On a 2-vCPU virtual machine on a shared host, CPU speed
# drifted by 30-60% over seconds to minutes, every kind of code alike, and
# unscaled times of two sets of runs of the same code differed by up to 30%;
# scaling each unit by the reference kernel timed next to it removes most of
# that drift.  The unscaled figures are printed and recorded.
END_TO_END = {
    "unit_ms_norm": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import smartcea.cli"

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import smartcea from this checkout's ``src/``; None if it is not there."""
    if not (SRC / "smartcea" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import smartcea

    if Path(smartcea.__file__).resolve().parent != SRC / "smartcea":
        return None
    return smartcea


# ------------------------------------------------------------- run record


def git_sha() -> str:
    """HEAD commit read from ``.git``; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    from perfbench.workloads import sha256_hex

    files = sorted((SRC / "smartcea").rglob("*.py"))
    return sha256_hex(*(f.relative_to(SRC).as_posix().encode() + f.read_bytes() for f in files))


def blas_threads() -> dict:
    """BLAS thread settings as found: environment and the loaded OpenBLAS."""
    found = {
        var: os.environ[var]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found["openblas_get_num_threads"] = int(fn())
                return found
    return found


def run_record(args, workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload.name,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": workload.input_digest(),
    }


# ------------------------------------------------------------- measuring


def measure_setup(workload, gauge) -> tuple[list[float], list[float]]:
    """Set up ``SETUP_REPEATS`` times: fresh-interpreter import, inputs, warm-up.

    Returns the wall times and the same times scaled by the kernel readings
    taken just before and just after each set-up.
    """
    from perfbench.reference import WIDTH

    walls, scaled = [], []
    gauge.read(WIDTH)
    for _ in range(SETUP_REPEATS):
        start = clock()
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
        )
        workload.prepare()
        end = clock()
        gauge.read(WIDTH)
        walls.append(end - start)
        scaled.append((end - start) * gauge.scale(start, end))
    return walls, scaled


def run_batches(workload, first: int, count: int | None, seconds: float | None):
    """Batches from index ``first``: ``count`` of them, or until ``seconds`` pass.

    The workload's gauge, if any, gets a turn before every batch and after
    the last one.
    """
    from perfbench.reference import WIDTH

    batches = []
    start = clock()
    index = first
    while (count is not None and index - first < count) or (
        seconds is not None and clock() - start < seconds
    ):
        if workload.gauge is not None:
            workload.gauge.maybe()
        batches.append(workload.batch(index))
        index += 1
    if workload.gauge is not None:
        workload.gauge.read(WIDTH)
    return batches


def unit_seconds(batches) -> list[float]:
    return [end - start for b in batches for start, end in b.units]


def plain_run(workload, seconds: float):
    """Timed loop with the reference kernel read between units."""
    from perfbench.reference import Gauge

    workload.gauge = gauge = Gauge()
    start, cpu = clock(), time.process_time()
    batches = run_batches(workload, 0, None, seconds)
    loop_wall, loop_cpu = clock() - start, time.process_time() - cpu
    workload.gauge = None
    units = [(s, e) for b in batches for s, e in b.units]
    metrics = {"work_per_s": len(units) / (loop_wall - gauge.spent)}
    if units:
        metrics["unit_ms_norm"] = statistics.median(
            1000.0 * (e - s) * gauge.scale(s, e) for s, e in units
        )
        metrics["unit_ms_p50"] = 1000.0 * statistics.median(e - s for s, e in units)
    loop = {
        "wall_s": loop_wall,
        "cpu_s": loop_cpu,
        "units_s": [(s - start, e - start) for s, e in units],
        "kernel_s": [(t - start, s) for t, s in gauge.readings],
    }
    return batches, metrics, loop


def traced_run(workload, seconds: float):
    """Alternate plain and traced passes over the same units until time is up."""
    from perfbench.spans import Tracer, layer_metrics

    batches, plain_walls, traced_walls, per_pass = [], [], [], []
    tracers = []
    start = clock()
    pair = 0
    while pair == 0 or clock() - start < seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            tracer = Tracer()
            if traced:
                with tracer.installed():
                    done = run_batches(workload, 0, workload.trace_batches, None)
                units = [u for b in done for u in b.units]
                per_pass.append(layer_metrics(tracer, units))
                traced_walls.append(sum(b.wall for b in done))
                tracers.append((tracer, units))
            else:
                done = run_batches(workload, 0, workload.trace_batches, None)
                plain_walls.append(sum(b.wall for b in done))
            batches.extend(done)
        pair += 1
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    n_units = max(metrics["trace.units"], 1.0)
    metrics["trace.unit_ms"] = 1000.0 * statistics.median(traced_walls) / n_units
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    return batches, metrics, tracers


def ic_gate(workload, tracers) -> list[str]:
    """Every traced TMLE result has |mean IC| below the bound."""
    from perfbench.spans import Tracer
    from perfbench.workloads import MAX_ABS_MEAN_IC

    if not workload.has_tmle:
        return []
    if not tracers:
        tracer = Tracer()
        with tracer.installed():
            workload.probe()
        tracers = [(tracer, [])]
    calls = sum(1 for t, _ in tracers for rec in t.spans if rec[0] == "estimate.tmle_mean")
    worst = max(t.max_abs_mean_ic for t, _ in tracers)
    return [] if calls and worst < MAX_ABS_MEAN_IC else ["tmle_mean_ic_zero"]


def cross_run_gate(path: Path, key: str, digest: str) -> list[str]:
    """Same code, seed and inputs must give byte-identical output across runs.

    ``path`` keeps the first output digest seen for each ``key``.
    """
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if seen.setdefault(key, digest) != digest:
        return ["outputs_identical_across_runs"]
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return []


def write_outputs(stem: str, record: dict, tracers) -> Path:
    from perfbench.spans import self_time_table

    path = OUT / f"{stem}.json"
    if tracers:
        tracer, units = tracers[-1]
        record["self_time_by_span"] = self_time_table(tracer, units)
        spans = OUT / f"{stem}.spans.json"
        spans.write_text(json.dumps({"units": units, "spans": tracer.spans}))
        record["spans_file"] = spans.name
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def run_workload(args) -> int:
    from perfbench.reference import Gauge
    from perfbench.workloads import WORKLOADS, tail

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    loop = None
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        if args.trace:
            start = clock()
            workload.prepare()
            setup, setup_scaled = [clock() - start], None
            record = run_record(args, workload)
            batches, metrics, tracers = traced_run(workload, args.seconds)
        else:
            setup, setup_scaled = measure_setup(workload, Gauge())
            record = run_record(args, workload)
            batches, metrics, loop = plain_run(workload, args.seconds)
            tracers = []
            metrics["setup_s"] = statistics.median(setup_scaled)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gates = workload.check(batches) + ic_gate(workload, tracers)
        digest = workload.output_digest(batches)
        if digest is not None:
            record["output_sha256"] = digest
            key = "|".join((workload.name, str(args.seed),
                            record["source_sha256"], record["input_sha256"]))
            gates += cross_run_gate(OUT / "output-digests.json", key, digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    durations = unit_seconds(batches)
    if not durations:
        gates.append("no_unit_completed")
    record.update(
        setup_s=setup,
        setup_s_scaled=setup_scaled,
        metrics=metrics,
        timed_loop=loop,
        gates_failed=gates,
        attempted=attempted,
        failed=failed,
        errors=sorted({b.error for b in batches if b.error}),
        unit_ms=[1000.0 * d for d in durations],
        unit_ms_tail=None if args.trace else tail(durations, failed),
    )
    path = write_outputs(stem, record, tracers)

    if args.trace:
        from perfbench.spans import LAYER_METRICS as names
    else:
        names = END_TO_END
    printed = names if args.trace else {**names, "work_per_s": "1/s", "unit_ms_p50": "ms"}
    for name, unit in printed.items():
        if name in metrics:
            print(f"{args.workload:<10} {name:<32} {metrics[name]:>14.6g} {unit}")
    if record["unit_ms_tail"] is not None:
        t = record["unit_ms_tail"]
        print(f"{args.workload:<10} {'unit_ms_p' + format(t['percentile'], 'g'):<32} "
              f"{t['ms']:>14.6g} ms over {t['samples']} units")
    print(f"{args.workload:<10} units attempted {attempted}, failed {failed}")
    print(f"{args.workload:<10} gates failed: {', '.join(gates) or 'none'}")
    print(f"{args.workload:<10} record: {path.relative_to(ROOT)}")
    result = {
        "correct": not gates,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not gates else 1


def run_one(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child process.

    Returns its exit code, the lines it printed before the result, and the
    result object, or None when it printed none (exit code 1 still prints one).
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode, lines, None
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        returncode, lines, result = run_one(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        code = code or returncode
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if import_package() is None:
        print(f"perfbench: no smartcea package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
