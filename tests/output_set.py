"""Write one standard set of CLI outputs, to check that a change keeps them.

Usage: python tests/output_set.py OUTDIR

Runs the command line of the checkout this file belongs to (its ``src``
comes first on the import path) with OUTDIR as the working directory, so
every path in the output headers is relative.  To confirm that a change
keeps every output byte, run it on both checkouts and compare the two
directories with ``diff -r``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from smartcea.cli import main  # noqa: E402

TRIAL = "trial.csv"

RUNS = (
    ["simulate", "--n", "1809", "--seed", "7", "--out", TRIAL],
    # One row past a block of 262144, so the second block is a short one.
    ["simulate", "--n", "262145", "--seed", "3", "--out", "trial-two-blocks.csv"],
    ["truth", "--seed", "1", "--out", "truth.csv"],
    # Also writes study.csv.truth.csv.
    ["mc-study", "--reps", "4", "--n", "400", "--seed", "3", "--threads", "1",
     "--out", "study.csv"],
    ["icer-table", "--data", TRIAL, "--out", "icers-tmle.csv"],
    ["icer-table", "--data", TRIAL, "--estimator", "ipw", "--g", "fitted",
     "--out", "icers-ipw-fitted.csv"],
    ["contrast", "--data", TRIAL, "--i", "2", "--j", "4", "--out", "contrast.csv"],
    ["bootstrap", "--data", TRIAL, "--i", "3", "--replicates", "100", "--seed", "1",
     "--out", "bootstrap-3.csv"],
    ["bootstrap", "--data", TRIAL, "--i", "2", "--j", "4", "--replicates", "100",
     "--seed", "1", "--out", "bootstrap-2-4.csv"],
    ["estimate", "--data", TRIAL, "--ic-dir", "ic", "--out", "means.csv"],
    ["frontier", "--in", "icers-tmle.csv", "--out-points", "points.csv",
     "--out-frontier", "frontier.csv"],
    ["plot", "--in", "icers-tmle.csv", "--out", "plane.svg"],
)


def write_output_set(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    for argv in RUNS:
        code = main(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)}: exit code {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.splitlines()[2])
    write_output_set(sys.argv[1])
