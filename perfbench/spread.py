"""Run workloads over several seeds and summarize each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workloads study,truth --seeds 1-10 --trace 0

For every workload and metric this prints the median of the runs and the
interquartile range as a share of the median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  ``--out`` also writes the
summary as JSON.  Runs are made one at a time, each in its own process, for
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says otherwise.
A run whose gates failed (exit code 1) is kept, so ``all_correct`` shows it;
a run that printed no result is reported and left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import run_one  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="study,bootstrap,truth,icer-table")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument(
        "--seconds", type=int,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary: dict = {}
    failures = 0
    for workload in args.workloads.split(","):
        runs, run_s = [], []
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            code, _, result = run_one(workload, seed, args.seconds, args.trace)
            run_s.append(time.perf_counter() - start)
            if code != 0:
                print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
                failures += 1
            if result is not None:
                runs.append(result)
        if not runs:
            continue
        names = dict.fromkeys(name for r in runs for name in r["metrics"])
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs if name in r["metrics"]])
            for name in names
        }
        summary[workload] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s": run_s,
            "metrics": metrics,
        }
        for name, s in metrics.items():
            unit = next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
            print(f"{workload:<10} {name:<32} median {s['median']:>14.6g} {unit:<10} "
                  f"iqr/median {s['iqr_share']:.4f}")
        print(f"{workload:<10} process wall per run: max {max(run_s):.1f} s, "
              f"total {sum(run_s):.0f} s")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
