"""Write one standard set of CLI outputs, to check that a change keeps them.

Usage: python tests/output_set.py OUTDIR | --update

With OUTDIR, runs the command line of the checkout this file belongs to
(its ``src`` comes first on the import path) with OUTDIR as the working
directory, so every path in the output headers is relative.  To confirm
that a change keeps every output byte, run it on both checkouts and compare
the two directories with ``diff -r``.

With --update, writes the part of the set that ``test_output_set.py`` pins
(``PINNED``) into a temporary directory and replaces ``tests/expected/``
with it: each file whole, except the files with one row per trial record,
which are kept as a summary in ``summaries.json``.  It also writes
``help.txt``, the program's and every subcommand's ``--help`` text
(``help_texts``), after a first line naming the Python version whose
argparse laid them out (``help_header``).  Run it after a declared output
change, and name the files that moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from smartcea.cli import SUBCOMMANDS, main  # noqa: E402

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
    # No record of this trial follows regime 1, so every ICER against it is undefined.
    ["simulate", "--n", "8", "--seed", "3", "--out", "trial-8.csv"],
    ["icer-table", "--data", "trial-8.csv", "--estimator", "ipw",
     "--out", "icers-undefined.csv"],
    ["estimate", "--data", "trial-8.csv", "--estimator", "ipw", "--out", "means-undefined.csv"],
    # A small bootstrap, which ties its interval to the replicates' quantiles.
    ["simulate", "--n", "300", "--seed", "7", "--out", "trial-300.csv"],
    ["bootstrap", "--data", "trial-300.csv", "--i", "3", "--replicates", "100",
     "--seed", "1", "--out", "bootstrap-300.csv"],
)

# The two bootstraps of TRIAL take about 2 s of the set's 7 s (the 2M-draw
# truth table about 0.3 s, the bootstrap of trial-300.csv about 0.75 s); the
# tier-1 suite leaves those two to the full set above.
PINNED = tuple(argv for argv in RUNS if not (argv[0] == "bootstrap" and TRIAL in argv))

EXPECTED = Path(__file__).resolve().parent / "expected"
SUMMARIES = "summaries.json"
HELP = "help.txt"


def write_output_set(outdir: str, runs=RUNS) -> None:
    """Run each argv in ``runs`` with ``outdir`` as the working directory."""
    os.makedirs(outdir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for argv in runs:
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)}: exit code {code}")
    finally:
        os.chdir(cwd)


def help_texts() -> str:
    """``smartcea --help`` and ``smartcea <subcommand> --help`` for each
    subcommand, each after a ``$`` line naming the call.

    argparse wraps help to the terminal width, which it reads from
    ``COLUMNS``, so the texts are made at ``COLUMNS=80`` whatever the
    terminal.  Their layout also depends on the Python version's argparse.
    """
    texts = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in ([], *([name] for name in SUBCOMMANDS)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([*argv, "--help"])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} --help: exit code {code}")
            texts.append(f"$ smartcea {' '.join([*argv, '--help'])}\n{out.getvalue()}")
    return "\n".join(texts)


def help_header() -> str:
    """First line of ``help.txt``: the Python version that made the texts."""
    return f"# --help texts of Python {sys.version_info[0]}.{sys.version_info[1]} argparse, COLUMNS=80\n"


def output_files(outdir: str | Path) -> list[str]:
    """Every file under ``outdir``, as sorted '/'-separated relative paths."""
    root = Path(outdir)
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def summarized(name: str) -> bool:
    """A file with one row per trial record is pinned by its summary."""
    return name.startswith(("trial", "ic/"))


def summary(path: str | Path) -> dict:
    """Comment and column-header lines, row count, and per-column sums of
    values and of absolute values, of an all-numeric CSV file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    values = np.loadtxt(lines[k + 1:], delimiter=",", ndmin=2)
    return {
        "header": lines[:k + 1],
        "rows": values.shape[0],
        "sums": values.sum(axis=0).tolist(),
        "abs_sums": np.abs(values).sum(axis=0).tolist(),
    }


def update_expected() -> None:
    """Replace ``EXPECTED`` with the ``PINNED`` outputs of this checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        write_output_set(tmp, PINNED)
        shutil.rmtree(EXPECTED, ignore_errors=True)
        EXPECTED.mkdir()
        summaries = {}
        for name in output_files(tmp):
            if summarized(name):
                summaries[name] = summary(Path(tmp, name))
            else:
                shutil.copyfile(Path(tmp, name), EXPECTED / name)
        (EXPECTED / SUMMARIES).write_text(json.dumps(summaries, indent=1) + "\n")
    (EXPECTED / HELP).write_text(help_header() + help_texts(), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.splitlines()[2])
    if sys.argv[1] == "--update":
        update_expected()
    else:
        write_output_set(sys.argv[1])
