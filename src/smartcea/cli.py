"""Command-line interface: reproducible pipelines over files.

Nine subcommands tie the library together: simulate, truth, estimate,
icer-table, contrast, frontier, plot, mc-study, bootstrap.  Every setting
can come from a flag or from a flat key=value config file (--config); a
flag wins over the file and the override is noted on standard error.
Stochastic subcommands refuse to run without an explicit seed: there is no
wall-clock seeding anywhere, so a config rerun is byte-identical.

Every output file begins with comment lines recording the tool version, the
subcommand, the fully resolved configuration, and the master seed.  No
timestamps are written by design.  The configuration takes one line, so a
string setting that holds a line break (``\\n`` or ``\\r``) is a usage error;
so is one that holds any other character XML 1.0 forbids (a control
character other than tab, a surrogate, U+FFFE or U+FFFF), since ``plot``
writes the settings into its SVG and UTF-8 cannot encode a surrogate.

Exit codes: 0 success; 2 usage error (bad flag, bad config key, value out
of range); 1 runtime failure, reported as a single machine-readable line
``error kind=<ExceptionName> subcommand=<name> message="..."`` on standard
error.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .cea import HEIGHT, MIN_HEIGHT, MIN_WIDTH, WIDTH
from .cea import (
    EmptyFrontier,
    Frontier,
    PlanePoint,
    efficient_frontier,
    render_plane_svg,
)
from .core import OUTCOMES, Dataset, EstimationFailure, InvalidRecord, RegimeSpec
from .core import check_count, check_reference
from .dgp import (
    MIN_MC_DRAWS,
    REFERENCE_ID,
    TRIAL_N,
    TRUTH_MC_DRAWS,
    DgpConfig,
    TruthTable,
    embedded_regimes,
    simulate_smart,
    true_values,
)
from .estimate import DEFAULT_G_MODES, check_estimators, estimate_g
from .inference import ALPHA, CV_THRESHOLD, MIN_REPLICATES, REPLICATES, IcerResult
from .inference import bootstrap_ci, check_alpha, check_cv_threshold, contrast, wald_ci
from .rng import check_seed
from .study import REPS, StudyConfig, icer_table, regime_means, run_study

__all__ = ["main", "RunConfig", "ingest_dataset", "read_regime_file", "UsageError", "CliError"]

class UsageError(Exception):
    """Bad flags or config: reported and exited with code 2."""


class CliError(Exception):
    """Runtime failure: reported machine-readably and exited with code 1."""


@dataclass(frozen=True)
class Option:
    """One subcommand setting: flag (on/off when ``type`` is bool), config key and
    the library's rule for its value, a count's ``minimum`` or a raising ``check``."""

    name: str
    type: Callable
    default: object = None
    help: str = ""
    minimum: int | None = None
    check: Callable[[object], object] | None = None
    required: bool = False
    choices: tuple | None = None


def _estimator_names(value: str) -> tuple[str, ...]:
    return check_estimators(tuple(e.strip() for e in value.split(",") if e.strip()))


SEED_OPT = Option("seed", int, None, "master seed; required, no wall-clock fallback",
                  check=check_seed, required=True)
ALPHA_OPT = Option("alpha", float, ALPHA, "two-sided error rate for intervals", check=check_alpha)
THREADS_OPT = Option("threads", int, None, "parallelism cap (default: available cores)",
                     minimum=1)
ESTIMATOR_OPT = Option("estimator", str, "tmle", "point estimator", choices=tuple(DEFAULT_G_MODES))
G_OPT = Option("g", str, None, "treatment mechanism: design probabilities or logistic fits "
               "(default pairs known with ipw, fitted with tmle)", choices=("known", "fitted"))
CV_OPT = Option("cv_threshold", float, CV_THRESHOLD, check=check_cv_threshold,
                help="component coefficient-of-variation bound for the reliability flag")
OUT_OPT = Option("out", str, None, "output CSV path", required=True)
DATA_OPT = Option("data", str, None, "input dataset CSV", required=True)
REGIMES_OPT = Option("regimes", str, None,
                     "regime table file (default: the eight benchmark regimes)")
REFERENCE_OPT = Option("reference", int, REFERENCE_ID, "reference regime id", minimum=1)


SUBCOMMANDS: dict[str, tuple[str, tuple[Option, ...]]] = {
    "simulate": (
        "draw one trial from the benchmark generative process",
        (
            Option("n", int, TRIAL_N, "number of records", minimum=1),
            SEED_OPT,
            replace(OUT_OPT, help="output dataset CSV path"),
        ),
    ),
    "truth": (
        "Monte-Carlo truth table for the benchmark regimes",
        (
            Option("mc_draws", int, TRUTH_MC_DRAWS, "Monte-Carlo draws", minimum=MIN_MC_DRAWS),
            SEED_OPT,
            REGIMES_OPT,
            REFERENCE_OPT,
            OUT_OPT,
        ),
    ),
    "estimate": (
        "regime-specific mean outcome estimates on a dataset",
        (
            DATA_OPT,
            REGIMES_OPT,
            ESTIMATOR_OPT,
            G_OPT,
            Option("outcome", str, "both", "outcome column(s)", choices=(*OUTCOMES, "both")),
            Option("ic_dir", str, None, "directory for per-estimate influence-curve files"),
            OUT_OPT,
        ),
    ),
    "icer-table": (
        "per-regime ICERs against the reference, with intervals and flags",
        (
            DATA_OPT,
            REGIMES_OPT,
            ESTIMATOR_OPT,
            G_OPT,
            REFERENCE_OPT,
            CV_OPT,
            ALPHA_OPT,
            OUT_OPT,
        ),
    ),
    "contrast": (
        "difference between two regimes' ICERs against the same reference",
        (
            DATA_OPT,
            REGIMES_OPT,
            Option("i", int, None, "first regime id", minimum=1, required=True),
            Option("j", int, None, "second regime id", minimum=1, required=True),
            ESTIMATOR_OPT,
            G_OPT,
            REFERENCE_OPT,
            ALPHA_OPT,
            OUT_OPT,
        ),
    ),
    "frontier": (
        "efficient frontier from an icer-table output",
        (
            Option("in", str, None, "icer-table CSV to read", required=True),
            Option("drop_unreliable", bool, False, "drop flagged points before the hull"),
            Option("out_points", str, None, "plane points CSV path", required=True),
            Option("out_frontier", str, None, "frontier vertices CSV path", required=True),
        ),
    ),
    "plot": (
        "cost-effectiveness plane SVG from an icer-table output",
        (
            Option("in", str, None, "icer-table CSV to read", required=True),
            Option("drop_unreliable", bool, False, "drop flagged points before the frontier"),
            Option("no_frontier", bool, False, "points only, no frontier polyline"),
            Option("width", int, WIDTH, "SVG width in px", minimum=MIN_WIDTH),
            Option("height", int, HEIGHT, "SVG height in px", minimum=MIN_HEIGHT),
            replace(OUT_OPT, help="output SVG path"),
        ),
    ),
    "mc-study": (
        "repeated-simulation estimator comparison",
        (
            Option("reps", int, REPS, "simulation repetitions", minimum=1),
            Option("n", int, TRIAL_N, "records per repetition", minimum=2),
            SEED_OPT,
            Option("estimators", str, ",".join(DEFAULT_G_MODES),
                   "comma-separated estimators to compare", check=_estimator_names),
            Option("retain_degenerate", bool, False,
                   "keep unreliable-but-defined reps in the moments"),
            CV_OPT,
            ALPHA_OPT,
            THREADS_OPT,
            OUT_OPT,
        ),
    ),
    "bootstrap": (
        "percentile bootstrap interval for an ICER or an ICER contrast",
        (
            DATA_OPT,
            REGIMES_OPT,
            Option("i", int, None, "regime id of interest", minimum=1, required=True),
            Option("j", int, None, "second regime id (contrast mode)", minimum=1),
            Option("replicates", int, REPLICATES, "bootstrap replicates", minimum=MIN_REPLICATES),
            SEED_OPT,
            ESTIMATOR_OPT,
            G_OPT,
            REFERENCE_OPT,
            ALPHA_OPT,
            OUT_OPT,
        ),
    ),
}

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one subcommand invocation."""

    subcommand: str
    settings: dict
    overridden: tuple[str, ...] = field(default=())

    def header_lines(self) -> list[str]:
        # threads is an execution detail: results are thread-count
        # independent, so the header must be too.
        pairs = " ".join(
            f"{k}={self.settings[k]}" for k in sorted(self.settings) if k != "threads"
        )
        lines = [
            f"# tool: smartcea {__version__}",
            f"# subcommand: {self.subcommand}",
            f"# config: {pairs}",
        ]
        if self.settings.get("seed") is not None:
            lines.append(f"# master_seed: {self.settings['seed']}")
        return lines


def _flag_name(opt: Option) -> str:
    return "--" + opt.name.replace("_", "-")


def _coerce(opt: Option, raw: str):
    if opt.type is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"{opt.name}: expected true/false, got {raw!r}")
    try:
        return opt.type(raw)
    except (TypeError, ValueError):
        raise UsageError(
            f"{opt.name}: malformed {opt.type.__name__} value {raw!r}"
        ) from None


def _skipped(line: str) -> bool:
    """Every input file's line rule: blank and ``#`` lines, leading spaces allowed."""
    return not (text := line.strip()) or text.startswith("#")


def _content_lines(path: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line ``_skipped`` keeps; UTF-8
    with an optional byte-order mark.  Line numbers count every line.
    ``OSError`` and ``UnicodeDecodeError`` are left to the caller."""
    with open(path, encoding="utf-8-sig") as fh:
        return [(no, line.strip()) for no, line in enumerate(fh, 1) if not _skipped(line)]


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored."""
    try:
        lines = _content_lines(path)
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"config file: {err}") from None
    out: dict[str, str] = {}
    for lineno, text in lines:
        if "=" not in text:
            raise UsageError(f"config file line {lineno}: expected key = value")
        key, _, value = text.partition("=")
        key = key.strip().replace("-", "_")
        if key in out:
            raise UsageError(f"config file line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


# The characters XML 1.0 forbids, line breaks aside: C0 controls other than
# tab, surrogates (an undecodable byte of a path arrives as one), U+FFFE and
# U+FFFF.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def parse_and_validate(argv: Sequence[str]) -> RunConfig:
    """argv (without the program name) to a validated RunConfig."""
    parser = argparse.ArgumentParser(
        prog="smartcea",
        description="Cost-effectiveness estimation for two-stage SMART regimes.",
    )
    parser.add_argument("--version", action="version", version=f"smartcea {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    # The top-level parser takes no option with a value, so argparse runs the
    # subparser named by the first argument without a leading "-"; only that
    # one needs its options.
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_text, options) in SUBCOMMANDS.items():
        sp = subparsers.add_parser(name, help=help_text, description=help_text)
        if name != chosen:
            continue
        sp.add_argument("--config", default=None, help="flat key = value settings file")
        for opt in options:
            extra_help = f"{opt.help}" + (f" (default: {opt.default})" if opt.default is not None else "")
            kind = {"action": "store_true"} if opt.type is bool else {"choices": opt.choices}
            sp.add_argument(_flag_name(opt), dest=opt.name, default=None, help=extra_help, **kind)
    ns = parser.parse_args(list(argv))
    if ns.subcommand is None:
        parser.print_help(sys.stderr)
        raise UsageError("a subcommand is required")

    _, options = SUBCOMMANDS[ns.subcommand]
    known = {opt.name: opt for opt in options}
    file_cfg: dict[str, str] = {}
    if ns.config is not None:
        file_cfg = parse_config_file(ns.config)
        for key in file_cfg:
            if key not in known:
                raise UsageError(
                    f"config file: unknown key {key!r} for subcommand {ns.subcommand}"
                )

    settings: dict = {}
    overridden: list[str] = []
    for opt in options:
        flag_value = getattr(ns, opt.name)
        if flag_value is not None and opt.name in file_cfg:
            overridden.append(opt.name)
        if flag_value is not None:
            value = flag_value if opt.type is bool else _coerce(opt, flag_value)
        elif opt.name in file_cfg:
            value = _coerce(opt, file_cfg[opt.name])
        else:
            value = opt.default
        if value is None and opt.required:
            if opt.name == "seed":
                raise UsageError(
                    "seed: required for stochastic subcommands (no wall-clock seeding)"
                )
            raise UsageError(f"{opt.name}: required")
        if value is not None:
            if opt.type is str and ("\n" in value or "\r" in value):
                raise UsageError(f"{opt.name}: must not contain a line break")
            if opt.type is str and (bad := _NOT_XML_CHAR.search(value)):
                raise UsageError(
                    f"{opt.name}: must not contain character U+{ord(bad.group()):04X}"
                )
            if opt.choices and value not in opt.choices:
                raise UsageError(
                    f"{opt.name}: expected one of {', '.join(map(str, opt.choices))}"
                )
            try:
                if opt.minimum is not None:
                    check_count(opt.name, value, opt.minimum)
                if opt.check is not None:
                    opt.check(value)
            except ValueError as err:
                raise UsageError(str(err)) from None
        settings[opt.name] = value
    return RunConfig(ns.subcommand, settings, tuple(overridden))


# ---------------------------------------------------------------- file I/O


def _fmt(value) -> str:
    """Deterministic, round-trippable text for one CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # + 0.0 turns a negative zero into 0.0.
        return repr(float(value) + 0.0)
    return str(value)


def write_csv(path: str, config: RunConfig, header: Sequence[str], rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in config.header_lines():
                fh.write(line + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as err:
        raise CliError(f"cannot write {path}: {err}") from None


def _read_table(path: str, required: Sequence[str]) -> tuple[list[str], list, list[int]]:
    """Stripped header names, the records after the header and the physical
    line each starts on, of a CSV file: UTF-8 with an optional byte-order mark,
    ``_skipped`` lines skipped between records.  A repeated header name or a
    missing ``required`` one is refused."""
    rows: list[list[str]] = []
    # A quoted field may hold a newline, so a record can span several lines:
    # record k starts on physical line starts[k].
    starts: list[int] = []

    def record_lines(fh):
        for no, line in enumerate(fh, 1):
            if len(starts) == len(rows):  # between records
                if _skipped(line):
                    continue
                starts.append(no)
            yield line

    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            for row in csv.reader(record_lines(fh)):
                rows.append(row)
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(f"cannot read {path}: {err}") from None
    if not rows:
        raise CliError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    for k, name in enumerate(header):
        if name in header[:k]:
            raise CliError(f"{path}: duplicate column {name!r}")
    for name in required:
        if name not in header:
            raise CliError(f"{path}: missing column {name!r}")
    return header, rows[1:], starts[1:]


def _width_error(path: str, line: int, width: int, row: list[str]) -> CliError:
    return CliError(f"{path} line {line}, column '-': expected {width} fields, got {len(row)}")


def _duplicate_regime(path: str, line: int, rid: int) -> CliError:
    return CliError(f"{path} line {line}: duplicate regime id {rid}")


def ingest_dataset(path: str) -> Dataset:
    """Read a trajectory CSV (``_read_table``'s rules) into a ``Dataset``.

    Schema: id, x1 (or x1_1..x1_p), a1, l2, s2, a2, y, c; other columns are
    ignored.  This function checks the text (field count, then each cell as
    a number: malformed or non-finite) and leaves the value rules to
    ``Dataset``, whose :class:`~smartcea.core.InvalidRecord` it rewords with
    the raw token.  The error names the first failing record's line and,
    within it, the first failing column, as ``line L, column C: reason``
    (column ``-`` for a wrong field count).
    """
    header, data_rows, starts = _read_table(path, ("id", "a1", "l2", "s2", "a2", "y", "c"))
    x1_cols = [name for name in header if name == "x1" or name.startswith("x1_")]
    if not x1_cols:
        raise CliError(f"{path}: missing column 'x1' (or x1_1..x1_p)")

    if not data_rows:
        raise CliError(f"{path}: no data rows")
    width = len(header)
    # Rows from the first one with the wrong field count on are never read.
    m = next((i for i, row in enumerate(data_rows) if len(row) != width), len(data_rows))
    parsed = data_rows[:m]

    def number(column: str) -> np.ndarray:
        j = header.index(column)
        cells = [row[j].strip() for row in parsed]
        try:
            return np.fromiter(map(float, cells), np.float64, m)
        except ValueError:
            # A malformed cell reads as NaN, so it fails the first value rule.
            values = np.full(m, np.nan)
            for i, cell in enumerate(cells):
                with suppress(ValueError):
                    values[i] = float(cell)
            return values

    x1 = np.column_stack([number(name) for name in x1_cols])
    a1, l2, s2, a2, y, c = (number(name) for name in ("a1", "l2", "s2", "a2", "y", "c"))
    try:
        # Dataset applies the value rules; with no row read, the field count fails.
        dataset = Dataset(
            x1=x1, a1=a1, l2=l2, s2=s2, a2=a2, y=y, c=c, x1_names=tuple(x1_cols)
        ) if m else None
    except InvalidRecord as err:
        # Finiteness is every column's first rule, so a cell that did not read
        # as a finite number fails it first; word that from the raw token.
        reason = err.reason
        raw = parsed[err.row][header.index(err.column)].strip()
        try:
            if not np.isfinite(float(raw)):
                reason = f"non-finite value {raw!r}"
        except ValueError:
            reason = f"malformed number {raw!r}"
        raise CliError(f"{path} line {starts[err.row]}, column {err.column!r}: {reason}") from None
    if m < len(data_rows):
        raise _width_error(path, starts[m], width, data_rows[m])
    return dataset


def read_regime_file(path: str) -> tuple[RegimeSpec, ...]:
    """Regime table: one row per regime (id, d1, d2_if_lapse, d2_if_no_lapse).

    Comma- or whitespace-separated, # comments allowed; the first row is a
    header when its first field does not read as a number.  UTF-8 with an
    optional byte-order mark.  Ids must be unique; ids of at least 1 and
    codes in the design supports are ``RegimeSpec``'s rules.
    """
    try:
        lines = _content_lines(path)
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(f"cannot read {path}: {err}") from None
    regimes: list[RegimeSpec] = []
    seen: set[int] = set()
    first = True
    for lineno, text in lines:
        fields = text.replace(",", " ").split()
        if first:
            first = False
            try:
                float(fields[0] if fields else 0)  # an empty row is no header
            except ValueError:
                continue  # header row
        if len(fields) != 4:
            raise CliError(f"{path} line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            rid, d1, dl, dn = (int(v) for v in fields)
        except ValueError:
            raise CliError(f"{path} line {lineno}: malformed integer") from None
        if rid in seen:
            raise _duplicate_regime(path, lineno, rid)
        seen.add(rid)
        try:
            regimes.append(RegimeSpec(id=rid, d1=d1, d2_if_lapse=dl, d2_if_no_lapse=dn))
        except ValueError as err:
            raise CliError(f"{path} line {lineno}: {err}") from None
    if not regimes:
        raise CliError(f"{path}: no regimes")
    return tuple(regimes)


def _load_regimes(settings: dict) -> tuple[RegimeSpec, ...]:
    if settings.get("regimes"):
        return read_regime_file(settings["regimes"])
    return embedded_regimes()


# ------------------------------------------------------------- subcommands


def _run_simulate(config: RunConfig) -> None:
    s = config.settings
    dataset = simulate_smart(DgpConfig(n=s["n"], seed=s["seed"]))
    header = ["id"] + list(dataset.x1_names) + ["a1", "l2", "s2", "a2", "y", "c"]
    rows = zip(
        range(1, dataset.n + 1), *dataset.x1.T,
        dataset.a1, dataset.l2, dataset.s2, dataset.a2, dataset.y, dataset.c,
    )
    write_csv(s["out"], config, header, rows)


def _run_truth(config: RunConfig) -> None:
    s = config.settings
    regimes = _load_regimes(s)
    table = true_values(
        DgpConfig(seed=s["seed"]),
        regimes=regimes,
        mc_draws=s["mc_draws"],
        seed=s["seed"],
        reference_id=s["reference"],
    )
    _write_truth(s["out"], config, table)


def _write_truth(path: str, config: RunConfig, table: TruthTable) -> None:
    write_csv(
        path, config,
        ["regime", "ey", "ec", "rd_cost", "rd_eff", "icer", "mc_se_ey", "mc_se_ec"],
        [[r.id, table.ey[k], table.ec[k], table.rd_cost[k], table.rd_eff[k],
          table.icer[k], table.mc_se_ey[k], table.mc_se_ec[k]]
         for k, r in enumerate(table.regimes)],
    )


def _g_mode(settings: dict) -> str:
    return settings.get("g") or DEFAULT_G_MODES[settings["estimator"]]


def _run_estimate(config: RunConfig) -> None:
    s = config.settings
    dataset = ingest_dataset(s["data"])
    regimes = _load_regimes(s)
    g = estimate_g(dataset, _g_mode(s))
    outcomes = OUTCOMES if s["outcome"] == "both" else (s["outcome"],)
    ic_dir = s.get("ic_dir")
    if ic_dir:
        try:
            os.makedirs(ic_dir, exist_ok=True)
        except OSError as err:
            raise CliError(f"cannot create {ic_dir}: {err}") from None
    header = ["regime", "outcome", "psi", "se"] + (["ic_file"] if ic_dir else [])
    rows = []
    for rid, means in regime_means(dataset, regimes, s["estimator"], g, outcomes).items():
        if isinstance(means, EstimationFailure):
            print(f"note: regime {rid} not identified ({type(means).__name__}: {means}); "
                  "psi and se written as nan", file=sys.stderr)
            rows += [[rid, outcome, float("nan"), float("nan")] + ([""] if ic_dir else [])
                     for outcome in outcomes]
            continue
        if any(np.isnan(est.se) for est in means):
            print(f"note: regime {rid} se undefined (n = {dataset.n}); se written as nan",
                  file=sys.stderr)
        for outcome, est in zip(outcomes, means):
            row = [rid, outcome, est.psi, est.se]
            if ic_dir:
                ic_path = os.path.join(ic_dir, f"ic_{s['estimator']}_{rid}_{outcome}.csv")
                write_csv(ic_path, config, ["record", "ic"],
                          ([i + 1, v] for i, v in enumerate(est.ic)))
                row.append(ic_path)
            rows.append(row)
    write_csv(s["out"], config, header, rows)


def _icer_results(
    dataset: Dataset, regimes: tuple[RegimeSpec, ...], settings: dict, *ids: int
) -> dict[int, IcerResult | EstimationFailure]:
    """ICER against the reference of each regime in ``ids`` (of every other
    regime when none is given), or the failure leaving it undefined, raised
    for a requested id as its own class prefixed ``regime <id>: ``.  The
    reference must be in the regime table (``core.check_reference``), and
    each id too, differing from the reference and the rest."""
    ref = settings["reference"]
    check_reference(regimes, ref)
    for rid in ids:
        if rid not in {r.id for r in regimes}:
            raise CliError(f"regime {rid} not in regime table")
        if rid == ref:
            raise CliError("regime of interest equals the reference")
    if len(set(ids)) < len(ids):
        raise CliError("regimes of interest must differ")
    results = icer_table(
        dataset, [r for r in regimes if r.id in (ref, *ids)] if ids else regimes, ref,
        settings["estimator"], estimate_g(dataset, _g_mode(settings)),
    )
    for rid in ids:
        if isinstance(results[rid], EstimationFailure):
            raise type(results[rid])(f"regime {rid}: {results[rid]}")
    return results


ICER_TABLE_HEADER = [
    "regime", "icer", "ci_lower", "ci_upper", "rd_cost", "rd_eff",
    "cv_cost", "cv_eff", "reliable",
]


def _run_icer_table(config: RunConfig) -> None:
    s = config.settings
    dataset = ingest_dataset(s["data"])
    regimes = _load_regimes(s)
    rows = []
    for rid, res in _icer_results(dataset, regimes, s).items():
        if isinstance(res, IcerResult):
            if np.isinf(res.cv_cost):
                print(f"note: regime {rid} cv_cost written as inf (cost difference "
                      f"{_fmt(res.rd_cost.psi)}); row flagged unreliable", file=sys.stderr)
            rows.append([rid, res.icer.psi, *wald_ci(res.icer, s["alpha"]),
                         res.rd_cost.psi, res.rd_eff.psi, res.cv_cost, res.cv_eff,
                         res.is_reliable(s["cv_threshold"])])
        else:
            print(f"note: regime {rid} ICER undefined ({type(res).__name__}: {res}); "
                  "row written as nan", file=sys.stderr)
            rows.append([rid, *[float("nan")] * 7, False])
    write_csv(s["out"], config, ICER_TABLE_HEADER, rows)


def _run_contrast(config: RunConfig) -> None:
    s = config.settings
    dataset = ingest_dataset(s["data"])
    regimes = _load_regimes(s)
    results = _icer_results(dataset, regimes, s, s["i"], s["j"])
    icer_i, icer_j = results[s["i"]], results[s["j"]]
    diff = contrast(icer_i, icer_j)
    write_csv(
        s["out"], config,
        ["i", "j", "icer_i", "icer_j", "diff", "se", "ci_lower", "ci_upper"],
        [[s["i"], s["j"], icer_i.icer.psi, icer_j.icer.psi,
          diff.psi, diff.se, *wald_ci(diff, s["alpha"])]],
    )


def _read_icer_table(path: str) -> list[PlanePoint]:
    """Plane points of an icer-table file (``_read_table``'s rules); an error
    names its row's line, and a regime id, at least 1 as in ``RegimeSpec``, may
    appear once.  A row whose icer, rd_eff and rd_cost are all NaN, an undefined
    ICER, is left off with a note."""
    columns = ("regime", "icer", "rd_eff", "rd_cost", "reliable")
    header, rows, starts = _read_table(path, columns)
    points, undefined, seen = [], [], set()
    for line, row in zip(starts, rows):
        if len(row) != len(header):
            raise _width_error(path, line, len(header), row)
        rid, icer, rd_eff, rd_cost, reliable = (row[header.index(k)].strip() for k in columns)
        try:
            rid = int(rid)
            if rid < 1:
                raise ValueError(f"regime {rid}: id must be at least 1")
            if rid in seen:
                raise _duplicate_regime(path, line, rid)
            seen.add(rid)
            icer, rd_eff, rd_cost = float(icer), float(rd_eff), float(rd_cost)
            if reliable.lower() not in ("true", "false"):
                raise ValueError(f"reliable must be true or false, got {reliable!r}")
            if np.isnan([icer, rd_eff, rd_cost]).all():
                undefined.append(rid)
                continue
            points.append(PlanePoint(rid, rd_eff, rd_cost, icer, reliable.lower() == "true"))
        except ValueError as err:
            raise CliError(f"{path} line {line}: not an icer-table file ({err})") from None
    if undefined:
        print(f"note: ICER undefined for regime {', '.join(map(str, undefined))}; "
              "left off the plane", file=sys.stderr)
    if not points:
        reason = "no regime has a defined ICER" if undefined else "no rows"
        raise CliError(f"{path}: {reason}")
    return points


def _run_frontier(config: RunConfig) -> None:
    s = config.settings
    points = _read_icer_table(s["in"])
    if s["drop_unreliable"]:
        points = [p for p in points if p.reliable]
        if not points:
            raise CliError("all points dropped as unreliable")
    frontier = efficient_frontier(points)
    on_frontier = set(frontier.regime_ids)
    write_csv(
        s["out_points"], config,
        ["regime", "rd_eff", "rd_cost", "icer", "reliable", "on_frontier"],
        [[p.regime_id, p.rd_eff, p.rd_cost, p.icer, p.reliable, p.regime_id in on_frontier]
         for p in points],
    )
    rows = [["", 0.0, 0.0, ""]]
    for rid, vertex, slope in zip(frontier.regime_ids, frontier.vertices[1:], frontier.slopes):
        rows.append([rid, vertex[0], vertex[1], slope])
    write_csv(s["out_frontier"], config, ["regime", "rd_eff", "rd_cost", "slope"], rows)


def _run_plot(config: RunConfig) -> None:
    s = config.settings
    points = _read_icer_table(s["in"])
    hull_points = [p for p in points if p.reliable] if s["drop_unreliable"] else points
    frontier: Frontier | None = None
    if not s["no_frontier"]:
        try:
            frontier = efficient_frontier(hull_points)
        except EmptyFrontier:
            reason = ("all points dropped as unreliable" if not hull_points
                      else "no regime beats the reference")
            print(f"note: no frontier ({reason}); points only", file=sys.stderr)
    svg = render_plane_svg(
        points, frontier=frontier, width=s["width"], height=s["height"]
    )
    try:
        with open(s["out"], "w", encoding="utf-8") as fh:
            # An XML comment may not contain "--".
            for line in config.header_lines():
                fh.write(f"<!-- {line[2:].replace('--', '-&#45;')} -->\n")
            fh.write(svg)
    except OSError as err:
        raise CliError(f"cannot write {s['out']}: {err}") from None


def _run_mc_study(config: RunConfig) -> None:
    s = config.settings
    study_config = StudyConfig(
        reps=s["reps"],
        n=s["n"],
        seed=s["seed"],
        estimators=_estimator_names(s["estimators"]),
        alpha=s["alpha"],
        cv_threshold=s["cv_threshold"],
    )
    threads = s["threads"] if s["threads"] else (os.cpu_count() or 1)

    def progress(rep: int) -> None:
        done = rep + 1
        if done % 25 == 0 or done == s["reps"]:
            print(f"rep {done}/{s['reps']}", file=sys.stderr)

    print(f"computing truth table ({TRUTH_MC_DRAWS} draws)", file=sys.stderr)
    result = run_study(
        study_config,
        retain_degenerate=s["retain_degenerate"],
        threads=threads,
        progress=progress,
    )
    header = [
        "estimator", "regime", "bias", "variance", "mse", "mean_ci_width",
        "coverage_pct", "avg_cv_cost", "avg_cv_eff", "rel_var_vs_ipw",
        "degenerate_count",
    ]
    rows = []
    for (estimator, rid), m in result.rows.items():
        rows.append([
            estimator, rid, m.bias, m.variance, m.mse,
            m.mean_ci_width, m.coverage_pct, m.avg_cv_cost, m.avg_cv_eff,
            "" if m.rel_var_vs_ipw is None else m.rel_var_vs_ipw,
            s["reps"] - m.n_used,
        ])
    write_csv(s["out"], config, header, rows)
    _write_truth(s["out"] + ".truth.csv", config, result.truth)


def _run_bootstrap(config: RunConfig) -> None:
    s = config.settings
    dataset = ingest_dataset(s["data"])
    regimes = _load_regimes(s)
    ids = (s["i"],) if s["j"] is None else (s["i"], s["j"])

    def statistic(resampled: Dataset) -> float:
        results = _icer_results(resampled, regimes, s, *ids)
        if s["j"] is None:
            return results[s["i"]].icer.psi
        return contrast(results[s["i"]], results[s["j"]]).psi

    point = statistic(dataset)
    boot = bootstrap_ci(
        dataset,
        statistic,
        n_replicates=s["replicates"],
        seed=s["seed"],
        alpha=s["alpha"],
    )
    name = f"icer_{s['i']}" if s["j"] is None else f"icer_{s['i']}_minus_{s['j']}"
    write_csv(
        s["out"], config,
        ["statistic", "estimate", "ci_lower", "ci_upper", "alpha",
         "n_replicates", "n_degenerate"],
        [[name, point, boot.lower, boot.upper, s["alpha"],
          boot.n_replicates, boot.n_degenerate]],
    )


RUNNERS = {
    "simulate": _run_simulate,
    "truth": _run_truth,
    "estimate": _run_estimate,
    "icer-table": _run_icer_table,
    "contrast": _run_contrast,
    "frontier": _run_frontier,
    "plot": _run_plot,
    "mc-study": _run_mc_study,
    "bootstrap": _run_bootstrap,
}

RUNTIME_ERRORS = (CliError, EstimationFailure, ValueError)


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_and_validate(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except SystemExit as err:  # argparse --help / bad flag
        return int(err.code or 0)
    for key in config.overridden:
        print(f"note: config key {key!r} overridden by flag", file=sys.stderr)
    try:
        RUNNERS[config.subcommand](config)
    except RUNTIME_ERRORS as err:
        message = str(err).replace('"', "'")
        print(
            f'error kind={type(err).__name__} subcommand={config.subcommand} '
            f'message="{message}"',
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
