"""Command-line contract: exit codes, diagnostics, file formats, reruns."""

from __future__ import annotations

import io
import re
import subprocess
import sys
import warnings
import xml.dom.minidom
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartcea import dgp, estimate, study
from smartcea.cli import (
    SUBCOMMANDS,
    CliError,
    _flag_name,
    ingest_dataset,
    main,
    parse_and_validate,
    read_regime_file,
)
from smartcea.core import Dataset, consistency_mask
from smartcea.dgp import DgpConfig, embedded_regimes, simulate_smart

from trials import SHAPES, trial, trials, write_trial


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["simulate", "--n", "600", "--seed", "7", "--out", str(path)]) == 0
    return path


def _rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_simulate_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    assert main(["simulate", "--n", "200", "--seed", "3", "--out", str(a)]) == 0
    first = a.read_bytes()
    assert main(["simulate", "--n", "200", "--seed", "3", "--out", str(a)]) == 0
    assert a.read_bytes() == first


def test_output_header_records_provenance(data_csv):
    text = data_csv.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# tool: smartcea ")
    assert lines[1] == "# subcommand: simulate"
    assert lines[2].startswith("# config: ")
    assert "seed=7" in lines[2]
    assert lines[3] == "# master_seed: 7"
    # No wall-clock leakage anywhere in the comment header.
    assert "20" not in lines[0]


def test_simulate_ingest_round_trip(data_csv):
    ds = ingest_dataset(str(data_csv))
    mem = simulate_smart(DgpConfig(n=600, seed=7))
    for name in ("x1", "a1", "l2", "s2", "a2", "y", "c"):
        assert np.array_equal(getattr(ds, name), getattr(mem, name)), name


def test_ingest_diagnostics_name_line_and_column(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,x1,a1,l2,s2,a2,y,c\n1,0.1,0,1,0.5,3,1,2.0\n")
    with pytest.raises(Exception) as err:
        ingest_dataset(str(bad))
    message = str(err.value)
    assert "line 2" in message
    assert "'a2'" in message
    assert "[1, 2]" in message  # the violated stage-2 support
    assert "l2=1" in message

    bad.write_text("id,x1,a1,l2,s2,a2,y,c\n1,zz,0,1,0.5,1,1,2.0\n")
    with pytest.raises(Exception, match=r"line 2.*'x1'.*malformed"):
        ingest_dataset(str(bad))

    bad.write_text("id,x1,a1,l2,s2,a2,y,c\n1,0.1,0,1,0.5,1,0.5,2.0\n")
    with pytest.raises(Exception, match=r"line 2.*'y'"):
        ingest_dataset(str(bad))

    bad.write_text("id,x1,a1,l2,s2,y,c\n1,0.1,0,1,0.5,1,2.0\n")
    with pytest.raises(Exception, match="missing column 'a2'"):
        ingest_dataset(str(bad))

    bad.write_text("id,x1,a1,l2,s2,a2,y,c\n1,0.1,0\n2,0.2,7,1,0.5,1,1,2.0\n")
    with pytest.raises(CliError, match=r"line 2, column '-': expected 8 fields, got 3"):
        ingest_dataset(str(bad))

    bad.write_text("")
    with pytest.raises(Exception, match="empty"):
        ingest_dataset(str(bad))


def test_ingest_counts_comment_lines(tmp_path):
    # The four header comment lines count: the first data row is line 6.
    path = tmp_path / "trial.csv"
    assert main(["simulate", "--n", "50", "--seed", "1", "--out", str(path)]) == 0
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[2] = "7"  # a1
    lines[5] = ",".join(fields)
    path.write_text("".join(lines))
    with pytest.raises(Exception, match=r"line 6, column 'a1'"):
        ingest_dataset(str(path))


def test_ingest_is_fast_enough(tmp_path):
    import time

    path = tmp_path / "big.csv"
    assert main(["simulate", "--n", "1809", "--seed", "1", "--out", str(path)]) == 0
    start = time.perf_counter()
    ds = ingest_dataset(str(path))
    elapsed = time.perf_counter() - start
    assert ds.n == 1809
    assert elapsed < 0.1


@pytest.mark.parametrize("rid", [0, -2])
def test_regime_file_refuses_an_id_below_1(tmp_path, rid):
    spec = tmp_path / "regimes.txt"
    spec.write_text(f"1 0 1 3\n{rid} 1 1 3\n")
    with pytest.raises(CliError, match=f"line 2: regime {rid}: id must be at least 1"):
        read_regime_file(str(spec))


def test_regime_file_parsing(tmp_path):
    spec = tmp_path / "regimes.txt"
    spec.write_text(
        "id d1 d2_if_lapse d2_if_no_lapse\n"
        "# benchmark pair\n"
        "1, 0, 1, 3\n"
        "2  1  1  3\n"
    )
    regimes = read_regime_file(str(spec))
    assert [r.id for r in regimes] == [1, 2]
    assert regimes[0].d2_if_lapse == 1

    spec.write_text("# note\nid,d1,d2_if_lapse,d2_if_no_lapse\n1,0,1,3\n")
    assert read_regime_file(str(spec)) == (regimes[0],)

    spec.write_text("1 0 1 3\nid d1 d2_if_lapse d2_if_no_lapse\n")
    with pytest.raises(Exception, match="line 2: malformed integer"):
        read_regime_file(str(spec))

    spec.write_text("1 0 1 3\n1 1 1 3\n")
    with pytest.raises(Exception, match="duplicate regime id 1"):
        read_regime_file(str(spec))

    spec.write_text("1 0 9 3\n")
    message = r"line 1: regime 1: d2_if_lapse=9 outside support \[1, 2\]"
    with pytest.raises(Exception, match=message):
        read_regime_file(str(spec))

    spec.write_text("1 0 1 3 9\n")
    with pytest.raises(Exception, match="expected 4 fields"):
        read_regime_file(str(spec))


@pytest.mark.parametrize(
    ("first", "expected"),
    [
        ("1.0,0,1,3", "line 1: malformed integer"),
        ("+1,0,1,3", [1, 2, 3]),
        ("regime,0,1,3", [2, 3]),
        (",", "line 1: expected 4 fields, got 0"),
    ],
)
def test_regime_file_first_row_is_a_header_only_if_not_a_number(tmp_path, first, expected):
    # "1.0" was taken for a header, and regime 1 vanished without a message.
    spec = tmp_path / "regimes.txt"
    spec.write_text(f"{first}\n2,1,1,3\n3,0,2,3\n")
    if isinstance(expected, str):
        with pytest.raises(CliError, match=expected):
            read_regime_file(str(spec))
    else:
        assert [r.id for r in read_regime_file(str(spec))] == expected


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        "mc-study", "--reps", "0", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        capsys=capsys,
    )
    assert code == 2
    assert "usage error: reps must be at least 1, got 0" in err

    code, _, err = run_cli(
        "simulate", "--n", "10", "--out", str(tmp_path / "x.csv"), capsys=capsys
    )
    assert code == 2
    assert "seed" in err

    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(
        "simulate", "--config", str(cfg), "--seed", "1",
        "--out", str(tmp_path / "x.csv"), capsys=capsys,
    )
    assert code == 2
    assert "bogus" in err

    cfg.write_bytes(b"n = 5\xff\n")
    code, _, err = run_cli(
        "simulate", "--config", str(cfg), "--seed", "1",
        "--out", str(tmp_path / "x.csv"), capsys=capsys,
    )
    assert code == 2
    assert "usage error: config file: 'utf-8' codec can't decode" in err

    for value, message in (
        ("foo", "unknown estimator 'foo'"),
        (",", "at least one estimator required"),
        ("ipw,foo", "unknown estimator 'foo'"),
        ("ipw,ipw", "estimators repeat: ('ipw', 'ipw')"),
    ):
        code, _, err = run_cli(
            "mc-study", "--reps", "1", "--seed", "1", "--estimators", value,
            "--out", str(tmp_path / "x.csv"), capsys=capsys,
        )
        assert code == 2
        assert f"usage error: {message}" in err

    # A plot size inside render_plane_svg's fixed margins leaves no plot area.
    for flag, value, minimum in (("--width", "80", "81"), ("--height", "64", "65")):
        svg = tmp_path / "plane.svg"
        code, _, err = run_cli(
            "plot", "--in", str(tmp_path / "icers.csv"), flag, value, "--out", str(svg),
            capsys=capsys,
        )
        assert code == 2
        assert f"{flag[2:]} must be at least {minimum}, got {value}" in err
        assert not svg.exists()


# Arguments that pass every check of their subcommand; no file is read.
SIMULATE = ("simulate", "--seed", "1", "--out", "x.csv")
TRUTH = ("truth", "--seed", "1", "--out", "x.csv")
ESTIMATE = ("estimate", "--data", "t.csv", "--out", "x.csv")
ICER_TABLE = ("icer-table", "--data", "t.csv", "--out", "x.csv")
CONTRAST = ("contrast", "--data", "t.csv", "--i", "2", "--j", "4", "--out", "x.csv")
FRONTIER = ("frontier", "--in", "t.csv", "--out-points", "p.csv", "--out-frontier", "f.csv")
PLOT = ("plot", "--in", "t.csv", "--out", "x.svg")
MC_STUDY = ("mc-study", "--seed", "1", "--out", "x.csv")
BOOTSTRAP = ("bootstrap", "--data", "t.csv", "--i", "2", "--seed", "1", "--out", "x.csv")

# Every option with a rule on its value: the arguments that reach the rule,
# a value just outside it with the message the library words it in, and the
# boundary value, which passes.  A flag given twice takes the last value.
RANGED_OPTIONS = {
    "simulate-n": (SIMULATE, "--n", "0", "n must be at least 1, got 0", "1"),
    "seed-low": (SIMULATE, "--seed", "-1", "seed must be an integer in [0, 2^64), got -1", "0"),
    "seed-high": (SIMULATE, "--seed", str(2**64),
                  f"seed must be an integer in [0, 2^64), got {2**64}", str(2**64 - 1)),
    "mc-draws": (TRUTH, "--mc-draws", "9999", "mc_draws must be at least 10000, got 9999",
                 "10000"),
    "reference": (TRUTH, "--reference", "0", "reference must be at least 1, got 0", "1"),
    "cv-threshold": (ICER_TABLE, "--cv-threshold", "0", "cv_threshold must be positive",
                     "5e-324"),
    "alpha-low": (CONTRAST, "--alpha", "0", "alpha must lie in (0, 1)", "5e-324"),
    "alpha-high": (CONTRAST, "--alpha", "1", "alpha must lie in (0, 1)", repr(1 - 2**-53)),
    "contrast-i": (CONTRAST, "--i", "0", "i must be at least 1, got 0", "1"),
    "contrast-j": (CONTRAST, "--j", "0", "j must be at least 1, got 0", "1"),
    "width": (PLOT, "--width", "80", "width must be at least 81, got 80", "81"),
    "height": (PLOT, "--height", "64", "height must be at least 65, got 64", "65"),
    "reps": (MC_STUDY, "--reps", "0", "reps must be at least 1, got 0", "1"),
    "study-n": (MC_STUDY, "--n", "1", "n must be at least 2, got 1", "2"),
    "estimators": (MC_STUDY, "--estimators", "ipw,ipw", "estimators repeat: ('ipw', 'ipw')",
                   "tmle,ipw"),
    "threads": (MC_STUDY, "--threads", "0", "threads must be at least 1, got 0", "1"),
    "bootstrap-i": (BOOTSTRAP, "--i", "0", "i must be at least 1, got 0", "1"),
    "bootstrap-j": (BOOTSTRAP, "--j", "0", "j must be at least 1, got 0", "1"),
    "replicates": (BOOTSTRAP, "--replicates", "99", "replicates must be at least 100, got 99",
                   "100"),
}


def test_every_ranged_option_is_covered():
    ranged = {
        id(opt) for _, options in SUBCOMMANDS.values() for opt in options
        if opt.minimum is not None or opt.check is not None
    }
    covered = set()
    for argv, flag, *_ in RANGED_OPTIONS.values():
        options = SUBCOMMANDS[argv[0]][1]
        covered |= {id(opt) for opt in options if _flag_name(opt) == flag}
    assert len(ranged) == 17
    assert covered == ranged


@pytest.mark.parametrize("case", RANGED_OPTIONS.values(), ids=RANGED_OPTIONS.keys())
def test_a_value_outside_its_rule_exits_2_with_the_library_message(
    tmp_path, monkeypatch, capsys, case
):
    argv, flag, outside, message, boundary = case
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv, flag, outside, capsys=capsys)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")
    assert list(tmp_path.iterdir()) == []

    settings = parse_and_validate([*argv, flag, boundary]).settings
    option = next(opt for opt in SUBCOMMANDS[argv[0]][1] if _flag_name(opt) == flag)
    assert settings[option.name] == option.type(boundary)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DgpConfig(n=0), "n must be at least 1, got 0"),
        (lambda: DgpConfig(seed=-1), "seed must be an integer in [0, 2^64), got -1"),
        (lambda: dgp.true_values(DgpConfig(), mc_draws=9999),
         "mc_draws must be at least 10000, got 9999"),
        (lambda: study.StudyConfig(reps=0), "reps must be at least 1, got 0"),
        (lambda: study.StudyConfig(n=1), "n must be at least 2, got 1"),
        (lambda: study.StudyConfig(alpha=0.0), "alpha must lie in (0, 1)"),
        (lambda: study.StudyConfig(cv_threshold=0.0), "cv_threshold must be positive"),
        (lambda: study.StudyConfig(estimators=("ipw", "ipw")),
         "estimators repeat: ('ipw', 'ipw')"),
        (lambda: study.run_study(study.StudyConfig(), threads=0),
         "threads must be at least 1, got 0"),
    ],
    ids=["simulate-n", "seed", "mc-draws", "reps", "study-n", "alpha", "cv-threshold",
         "estimators", "threads"],
)
def test_the_library_words_a_rule_as_the_cli_does(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


TOP_USAGE = "usage: smartcea [-h] [--version] subcommand ...\n"
CHOICES = (
    "(choose from 'simulate', 'truth', 'estimate', 'icer-table', 'contrast', "
    "'frontier', 'plot', 'mc-study', 'bootstrap')"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus", "--n", "5"], f"argument subcommand: invalid choice: 'bogus' {CHOICES}"),
        (["simulate", "--bogus", "1", "--seed", "1", "--n", "5"],
         "unrecognized arguments: --bogus 1"),
        (["--seed", "1", "simulate", "--n", "5"],
         f"argument subcommand: invalid choice: '1' {CHOICES}"),
    ],
    ids=["unknown-subcommand", "unknown-flag", "flag-before-subcommand"],
)
def test_argument_errors_exit_2_with_the_top_level_usage(tmp_path, capsys, argv, message):
    code, out, err = run_cli(*argv, "--out", str(tmp_path / "x.csv"), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"{TOP_USAGE}smartcea: error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_runtime_errors_exit_1_with_machine_readable_line(tmp_path, capsys):
    code, _, err = run_cli(
        "estimate", "--data", str(tmp_path / "missing.csv"),
        "--out", str(tmp_path / "x.csv"), capsys=capsys,
    )
    assert code == 1
    line = [ln for ln in err.splitlines() if ln.startswith("error ")][-1]
    assert "kind=CliError" in line
    assert "subcommand=estimate" in line
    assert 'message="' in line


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (FRONTIER, "drop_unreliable = maybe\n",
         "drop_unreliable: expected true/false, got 'maybe'"),
        (SIMULATE, "n = 5.5\n", "n: malformed int value '5.5'"),
        (SIMULATE, "n = 5\nseed 1\n", "config file line 2: expected key = value"),
        (SIMULATE, "n = 5\n# a comment\nn = 6\n", "config file line 3: duplicate key 'n'"),
        (ESTIMATE, "estimator = mle\n", "estimator: expected one of ipw, tmle"),
    ],
    ids=["bad-bool", "malformed-number", "no-equals", "duplicate-key", "outside-choices"],
)
def test_config_file_errors_exit_2(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text(config)
    code, out, err = run_cli(*argv, "--config", "cfg.txt", capsys=capsys)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]


def test_config_file_reads_a_bool_value(tmp_path):
    table = _plane_table(tmp_path / "icers.csv", (True, False, True))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("drop_unreliable = yes\n")
    points = tmp_path / "points.csv"
    assert main(["frontier", "--config", str(cfg), "--in", str(table), "--out-points",
                 str(points), "--out-frontier", str(tmp_path / "f.csv")]) == 0
    assert " drop_unreliable=True " in points.read_text().splitlines()[2]
    _, rows = _rows(points)
    assert [r["regime"] for r in rows] == ["2", "4"]


def test_a_missing_subcommand_or_input_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: smartcea [-h] [--version] subcommand ...\n")
    assert err.endswith("\nusage error: a subcommand is required\n")

    out_path = tmp_path / "x.csv"
    code, out, err = run_cli("estimate", "--out", str(out_path), capsys=capsys)
    assert (code, out, err) == (2, "", "usage error: data: required\n")
    assert not out_path.exists()


def _error_line(subcommand, message):
    return f'error kind=CliError subcommand={subcommand} message="{message}"'


@pytest.mark.parametrize("subcommand", ["simulate", "plot"])
def test_an_unwritable_output_exits_1(tmp_path, capsys, subcommand):
    out = tmp_path / "missing" / "out.txt"
    argv = {
        "simulate": ["--n", "5", "--seed", "1"],
        "plot": ["--in", str(_plane_table(tmp_path / "icers.csv", (True, True, True)))],
    }[subcommand]
    code, _, err = run_cli(subcommand, *argv, "--out", str(out), capsys=capsys)
    assert code == 1
    assert err.splitlines()[-1] == _error_line(
        subcommand, f"cannot write {out}: [Errno 2] No such file or directory: '{out}'"
    )


@pytest.mark.parametrize(
    "text, reason",
    [
        ("id,a1,l2,s2,a2,y,c\n1,0,1,0.5,1,1,2.0\n", "missing column 'x1' (or x1_1..x1_p)"),
        ("# a comment\nid,x1,a1,l2,s2,a2,y,c\n\n", "no data rows"),
    ],
    ids=["no-x1", "header-only"],
)
def test_a_trial_without_baseline_or_records_exits_1(tmp_path, capsys, text, reason):
    trial = tmp_path / "trial.csv"
    trial.write_text(text)
    out = tmp_path / "x.csv"
    code, _, err = run_cli("estimate", "--data", str(trial), "--out", str(out), capsys=capsys)
    assert code == 1
    assert err.splitlines()[-1] == _error_line("estimate", f"{trial}: {reason}")
    assert not out.exists()


def test_a_header_only_regime_file_exits_1(tmp_path, capsys):
    spec = tmp_path / "regimes.txt"
    spec.write_text("id d1 d2_if_lapse d2_if_no_lapse\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        "truth", "--regimes", str(spec), "--seed", "1", "--out", str(out), capsys=capsys
    )
    assert code == 1
    assert err.splitlines()[-1] == _error_line("truth", f"{spec}: no regimes")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("icer-table", "--data", "{bad}", "--out", "{out}"),
        ("icer-table", "--data", "{data}", "--regimes", "{bad}", "--out", "{out}"),
        ("frontier", "--in", "{bad}", "--out-points", "{out}", "--out-frontier", "{out}"),
    ],
    ids=["trial-csv", "regime-file", "icer-table-file"],
)
def test_input_that_is_not_utf8_is_named_in_the_error(tmp_path, data_csv, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"regime,icer\n1,\xff\n")
    paths = {"bad": bad, "data": data_csv, "out": tmp_path / "x.csv"}
    code, _, err = run_cli(*(a.format(**paths) for a in argv), capsys=capsys)
    assert code == 1
    line = [ln for ln in err.splitlines() if ln.startswith("error ")][-1]
    assert "kind=CliError" in line
    assert f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in line


def test_contrast_takes_no_cv_threshold(tmp_path, data_csv, capsys):
    # contrast writes no reliability column, so the threshold would only
    # change the config header.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("cv_threshold = 2.0\n")
    code, _, err = run_cli(
        "contrast", "--config", str(cfg), "--data", str(data_csv), "--i", "2", "--j", "4",
        "--out", str(tmp_path / "x.csv"), capsys=capsys,
    )
    assert code == 2
    assert "unknown key 'cv_threshold' for subcommand contrast" in err


def test_config_file_merges_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 50\nseed = 3\n")
    out = tmp_path / "out.csv"
    code, _, err = run_cli(
        "simulate", "--config", str(cfg), "--seed", "4", "--out", str(out),
        capsys=capsys,
    )
    assert code == 0
    assert "overridden by flag" in err
    text = out.read_text()
    assert "# master_seed: 4" in text
    assert "n=50" in text.splitlines()[2]
    header, rows = _rows(out)
    assert len(rows) == 50


def test_every_config_key_is_its_flag_name():
    # A config key is the flag without "--", dashes read as underscores.
    for name, (_, options) in SUBCOMMANDS.items():
        for opt in options:
            assert _flag_name(opt)[2:].replace("-", "_") == opt.name, (name, opt.name)


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes("n = 50\nseed = 3\n".encode("utf-8-sig"))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _rows(out)
    assert len(rows) == 50


def test_truth_columns_and_determinism(tmp_path):
    out = tmp_path / "truth.csv"
    args = ["truth", "--mc-draws", "50000", "--seed", "2", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    header, rows = _rows(out)
    assert header == [
        "regime", "ey", "ec", "rd_cost", "rd_eff", "icer", "mc_se_ey", "mc_se_ec",
    ]
    assert [r["regime"] for r in rows] == [str(i) for i in range(1, 9)]
    assert rows[0]["icer"] == "nan"
    assert main(args) == 0
    assert out.read_bytes() == first


def test_estimate_columns_and_ic_files(tmp_path, data_csv):
    out = tmp_path / "est.csv"
    ic_dir = tmp_path / "ic"
    code = main([
        "estimate", "--data", str(data_csv), "--estimator", "ipw",
        "--outcome", "y", "--ic-dir", str(ic_dir), "--out", str(out),
    ])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["regime", "outcome", "psi", "se", "ic_file"]
    assert len(rows) == 8
    for row in rows:
        assert 0.0 <= float(row["psi"]) <= 1.0
        with open(row["ic_file"]) as fh:
            ic_lines = [ln for ln in fh if not ln.startswith("#")]
        assert ic_lines[0].strip() == "record,ic"
        values = [float(ln.split(",")[1]) for ln in ic_lines[1:]]
        assert len(values) == 600
        assert abs(np.mean(values)) < 1e-6


def test_estimate_ic_dir_on_a_file_exits_1(tmp_path, data_csv, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run_cli(
        "estimate", "--data", str(data_csv), "--ic-dir", str(taken),
        "--out", str(tmp_path / "est.csv"), capsys=capsys,
    )
    assert code == 1
    assert "kind=CliError subcommand=estimate" in err
    assert f"cannot create {taken}" in err


def test_icer_table_and_contrast(tmp_path, data_csv):
    table = tmp_path / "icers.csv"
    code = main([
        "icer-table", "--data", str(data_csv), "--estimator", "ipw",
        "--out", str(table),
    ])
    assert code == 0
    header, rows = _rows(table)
    assert header == [
        "regime", "icer", "ci_lower", "ci_upper", "rd_cost", "rd_eff",
        "cv_cost", "cv_eff", "reliable",
    ]
    assert [r["regime"] for r in rows] == [str(i) for i in range(2, 9)]
    for row in rows:
        if row["icer"] != "nan":
            assert float(row["ci_lower"]) <= float(row["ci_upper"])
        assert row["reliable"] in ("true", "false")

    con = tmp_path / "contrast.csv"
    code = main([
        "contrast", "--data", str(data_csv), "--estimator", "ipw",
        "--i", "2", "--j", "4", "--out", str(con),
    ])
    assert code == 0
    header, rows = _rows(con)
    assert header == ["i", "j", "icer_i", "icer_j", "diff", "se", "ci_lower", "ci_upper"]
    row = rows[0]
    assert float(row["diff"]) == pytest.approx(
        float(row["icer_i"]) - float(row["icer_j"])
    )


def test_frontier_and_plot_pipeline(tmp_path, data_csv):
    table = tmp_path / "icers.csv"
    assert main([
        "icer-table", "--data", str(data_csv), "--estimator", "ipw",
        "--out", str(table),
    ]) == 0
    points = tmp_path / "points.csv"
    front = tmp_path / "frontier.csv"
    assert main([
        "frontier", "--in", str(table), "--out-points", str(points),
        "--out-frontier", str(front),
    ]) == 0
    header, rows = _rows(points)
    assert header == ["regime", "rd_eff", "rd_cost", "icer", "reliable", "on_frontier"]
    assert len(rows) == 7
    fheader, frows = _rows(front)
    assert fheader == ["regime", "rd_eff", "rd_cost", "slope"]
    assert frows[0]["regime"] == ""  # anchor row
    slopes = [float(r["slope"]) for r in frows[1:]]
    assert slopes == sorted(slopes)

    svg_path = tmp_path / "plane.svg"
    assert main(["plot", "--in", str(table), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<!-- tool: smartcea ")
    assert "<svg " in svg
    assert "Incremental effectiveness (percentage points)" in svg
    assert "Incremental cost ($)" in svg
    first = svg_path.read_bytes()
    assert main(["plot", "--in", str(table), "--out", str(svg_path)]) == 0
    assert svg_path.read_bytes() == first


PLANE_HEADER = "regime,icer,ci_lower,ci_upper,rd_cost,rd_eff,cv_cost,cv_eff,reliable\n"


def _plane_table(path, reliable):
    """An icer-table file of three regimes right of the origin, flagged as given."""
    rows = ((2, 5.0, 10.0), (3, 6.0, 3.0), (4, 8.0, 20.0))
    path.write_text(PLANE_HEADER + "".join(
        f"{rid},{cost / eff},nan,nan,{cost},{eff},1.0,1.0,{str(flag).lower()}\n"
        for (rid, cost, eff), flag in zip(rows, reliable)
    ))
    return path


@pytest.mark.parametrize("subcommand", ["frontier", "plot"])
def test_config_file_sets_the_input_table(tmp_path, subcommand):
    table = _plane_table(tmp_path / "icers.csv", (True, True, True))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"in = {table}\n")
    out = tmp_path / "out.txt"
    outputs = {
        "frontier": ["--out-points", str(out), "--out-frontier", str(tmp_path / "f.csv")],
        "plot": ["--out", str(out)],
    }[subcommand]
    assert main([subcommand, "--config", str(cfg), *outputs]) == 0
    assert f" in={table} " in out.read_text().splitlines()[2]


@pytest.mark.parametrize("subcommand", ["frontier", "plot"])
def test_frontier_and_plot_refuse_a_repeated_regime_id(tmp_path, capsys, subcommand):
    # Two rows for regime 2, at (rd_eff, rd_cost) = (10, 1) and (4, 2): only the
    # first is a vertex, but both were written with on_frontier=true, by id.
    table = tmp_path / "icers.csv"
    table.write_text(
        "# an icer-table file\n" + PLANE_HEADER
        + "2,0.1,nan,nan,1.0,10.0,1.0,1.0,true\n"
        + "2,0.5,nan,nan,2.0,4.0,1.0,1.0,true\n"
    )
    out = tmp_path / "out.txt"
    outputs = {
        "frontier": ["--out-points", str(out), "--out-frontier", str(tmp_path / "f.csv")],
        "plot": ["--out", str(out)],
    }[subcommand]
    code, _, err = run_cli(subcommand, "--in", str(table), *outputs, capsys=capsys)
    assert code == 1
    assert err.splitlines()[-1] == (
        f'error kind=CliError subcommand={subcommand} '
        f'message="{table} line 4: duplicate regime id 2"'
    )
    assert not out.exists()


def test_frontier_drop_unreliable_keeps_only_reliable_rows(tmp_path, capsys):
    points = tmp_path / "points.csv"
    outputs = ["--out-points", str(points), "--out-frontier", str(tmp_path / "f.csv")]
    table = _plane_table(tmp_path / "icers.csv", (True, False, True))
    assert main(["frontier", "--in", str(table), "--drop-unreliable", *outputs]) == 0
    _, rows = _rows(points)
    assert [(r["regime"], r["reliable"]) for r in rows] == [("2", "true"), ("4", "true")]

    table = _plane_table(tmp_path / "icers.csv", (False, False, False))
    code, _, err = run_cli(
        "frontier", "--in", str(table), "--drop-unreliable", *outputs, capsys=capsys
    )
    assert code == 1
    assert err.splitlines()[-1] == (
        'error kind=CliError subcommand=frontier message="all points dropped as unreliable"'
    )


def test_plot_names_dropped_points_as_the_reason_for_no_frontier(tmp_path, capsys):
    table = _plane_table(tmp_path / "icers.csv", (False, False, False))
    svg = tmp_path / "plane.svg"
    code, _, err = run_cli(
        "plot", "--in", str(table), "--drop-unreliable", "--out", str(svg), capsys=capsys
    )
    assert code == 0
    assert err.splitlines() == [
        "note: no frontier (all points dropped as unreliable); points only"
    ]
    assert "<polyline" not in svg.read_text()
    assert svg.read_text().count("<circle") == 3


def test_plot_names_a_plane_without_a_gain_as_the_reason_for_no_frontier(tmp_path, capsys):
    table = tmp_path / "icers.csv"
    table.write_text(PLANE_HEADER + "2,-2.0,nan,nan,10.0,-5.0,1.0,1.0,true\n"
                     "3,nan,nan,nan,3.0,0.0,1.0,1.0,true\n")
    svg = tmp_path / "plane.svg"
    code, _, err = run_cli("plot", "--in", str(table), "--out", str(svg), capsys=capsys)
    assert code == 0
    assert err.splitlines() == ["note: no frontier (no regime beats the reference); points only"]
    assert "<polyline" not in svg.read_text()
    assert svg.read_text().count("<circle") == 2


def test_plot_of_a_span_too_wide_for_a_float_exits_1(tmp_path, capsys):
    # The padded cost span is inf; its tick rounding raised OverflowError,
    # which ended the run in a traceback.
    table = tmp_path / "icers.csv"
    table.write_text(PLANE_HEADER + "2,2e307,nan,nan,1e308,5.0,1.0,1.0,true\n"
                     "3,-2e307,nan,nan,-1e308,5.0,1.0,1.0,true\n")
    svg = tmp_path / "plane.svg"
    code, _, err = run_cli("plot", "--in", str(table), "--out", str(svg), capsys=capsys)
    assert code == 1
    assert err.splitlines()[-1] == (
        'error kind=ValueError subcommand=plot '
        'message="the plane\'s padded span overflows a float"'
    )
    assert not svg.exists()


def test_plot_no_frontier_draws_no_polyline(tmp_path):
    table = _plane_table(tmp_path / "icers.csv", (True, True, True))
    svg = tmp_path / "plane.svg"
    assert main(["plot", "--in", str(table), "--out", str(svg)]) == 0
    assert "<polyline" in svg.read_text()
    assert main(["plot", "--in", str(table), "--no-frontier", "--out", str(svg)]) == 0
    assert "<polyline" not in svg.read_text()
    assert svg.read_text().count("<circle") == 3


def test_plot_header_comments_stay_well_formed_xml(tmp_path, data_csv):
    # "--" may not appear inside an XML comment; the output name carries one.
    table = tmp_path / "icers.csv"
    assert main(["icer-table", "--data", str(data_csv), "--out", str(table)]) == 0
    svg_path = tmp_path / "plane--v2.svg"
    assert main(["plot", "--in", str(table), "--out", str(svg_path)]) == 0
    document = xml.dom.minidom.parse(str(svg_path))
    comments = [n.data for n in document.childNodes if n.nodeType == n.COMMENT_NODE]
    assert any("plane-&#45;v2.svg" in c for c in comments)
    assert document.documentElement.tagName == "svg"


def test_icer_table_input_may_start_with_a_byte_order_mark(tmp_path, data_csv):
    table = tmp_path / "icers.csv"
    assert main([
        "icer-table", "--data", str(data_csv), "--estimator", "ipw",
        "--out", str(table),
    ]) == 0
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
    for path in (table, marked):
        points = tmp_path / f"points_{path.stem}.csv"
        assert main([
            "frontier", "--in", str(path), "--out-points", str(points),
            "--out-frontier", str(tmp_path / f"frontier_{path.stem}.csv"),
        ]) == 0
        assert main(["plot", "--in", str(path), "--out", str(tmp_path / "p.svg")]) == 0
    assert _rows(tmp_path / "points_marked.csv") == _rows(tmp_path / "points_icers.csv")


def test_mc_study_cli_columns_and_truth_sidecar(tmp_path):
    out = tmp_path / "study.csv"
    code = main([
        "mc-study", "--reps", "4", "--n", "250", "--seed", "1",
        "--retain-degenerate", "--threads", "1", "--out", str(out),
    ])
    assert code == 0
    header, rows = _rows(out)
    assert header == [
        "estimator", "regime", "bias", "variance", "mse", "mean_ci_width",
        "coverage_pct", "avg_cv_cost", "avg_cv_eff", "rel_var_vs_ipw",
        "degenerate_count",
    ]
    assert len(rows) == 2 * 7  # both estimators, regimes 2..8
    sidecar = tmp_path / "study.csv.truth.csv"
    assert sidecar.exists()
    assert "# master_seed: 1" in sidecar.read_text()


def test_mc_study_outputs_independent_of_thread_count(tmp_path, monkeypatch):
    # Same relative --out in two directories, so the headers match too.
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        code = main([
            "mc-study", "--reps", "3", "--n", "250", "--seed", "1",
            "--threads", threads, "--out", "study.csv",
        ])
        assert code == 0
        outputs.append(
            ((run_dir / "study.csv").read_bytes(), (run_dir / "study.csv.truth.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_bootstrap_cli(tmp_path, data_csv):
    out = tmp_path / "boot.csv"
    code = main([
        "bootstrap", "--data", str(data_csv), "--i", "2", "--estimator", "ipw",
        "--replicates", "100", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    header, rows = _rows(out)
    assert header == [
        "statistic", "estimate", "ci_lower", "ci_upper", "alpha",
        "n_replicates", "n_degenerate",
    ]
    row = rows[0]
    assert row["statistic"] == "icer_2"
    assert float(row["ci_lower"]) <= float(row["estimate"]) <= float(row["ci_upper"])


def test_bootstrap_survives_a_separating_replicate(tmp_path, capsys):
    # At n = 150 a TMLE stage-2 fit separates on some resamples; the
    # replicate is degenerate, not the end of the command.
    data = tmp_path / "small.csv"
    out = tmp_path / "boot.csv"
    assert main(["simulate", "--n", "150", "--seed", "3", "--out", str(data)]) == 0
    code, _, err = run_cli(
        "bootstrap", "--data", str(data), "--i", "3", "--replicates", "100",
        "--seed", "1", "--out", str(out), capsys=capsys,
    )
    assert code == 0, err
    _, rows = _rows(out)
    assert 1 <= int(rows[0]["n_degenerate"]) <= 10


def test_fluctuation_divergence_exits_1(tmp_path, data_csv, monkeypatch, capsys):
    def diverge(z, q, weights, rows):
        raise estimate.FluctuationDiverged("forced")

    monkeypatch.setattr(estimate, "_fluctuate", diverge)
    code, _, err = run_cli(
        "icer-table", "--data", str(data_csv), "--out", str(tmp_path / "x.csv"),
        capsys=capsys,
    )
    assert code == 1
    line = [ln for ln in err.splitlines() if ln.startswith("error ")][-1]
    assert line == (
        'error kind=FluctuationDiverged subcommand=icer-table '
        'message="regime 1, outcome y: forced"'
    )


def test_truth_rejects_unknown_reference_before_drawing(tmp_path, monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("drew before checking the reference")

    monkeypatch.setattr(dgp, "philox_stream", no_draws)
    out = tmp_path / "t.csv"
    code, _, err = run_cli(
        "truth", "--seed", "1", "--mc-draws", "10000", "--reference", "42",
        "--out", str(out), capsys=capsys,
    )
    assert code == 1
    line = [ln for ln in err.splitlines() if ln.startswith("error ")][-1]
    assert line.startswith("error kind=ValueError subcommand=truth")
    assert "reference regime 42" in line
    assert not out.exists()


@pytest.mark.parametrize(
    ("argv", "means_per_analysis"),
    [(("--i", "3"), 4), (("--i", "2", "--j", "4"), 6)],
)
def test_bootstrap_estimates_only_the_regimes_it_reads(
    tmp_path, data_csv, monkeypatch, argv, means_per_analysis
):
    calls = []
    inner = study.regime_mean

    def counting(dataset, request):
        calls.append(request.regime.id)
        return inner(dataset, request)

    monkeypatch.setattr(study, "regime_mean", counting)
    code = main([
        "bootstrap", "--data", str(data_csv), *argv, "--estimator", "ipw",
        "--replicates", "100", "--seed", "5", "--out", str(tmp_path / "boot.csv"),
    ])
    assert code == 0
    assert len(calls) == means_per_analysis * (100 + 1)
    assert set(calls) == {1, *(int(v) for v in argv[1::2])}


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("icer-table", "--reference", "9"), "reference regime 9 not in regime table"),
        (("contrast", "--i", "9", "--j", "2"), "regime 9 not in regime table"),
        (("contrast", "--i", "1", "--j", "2"), "regime of interest equals the reference"),
        (("bootstrap", "--i", "9", "--seed", "5"), "regime 9 not in regime table"),
        (("bootstrap", "--i", "1", "--seed", "5"), "regime of interest equals the reference"),
        (("bootstrap", "--i", "2", "--j", "1", "--seed", "5"),
         "regime of interest equals the reference"),
        (("contrast", "--i", "2", "--j", "2"), "regimes of interest must differ"),
        (("bootstrap", "--i", "2", "--j", "2", "--seed", "5"), "regimes of interest must differ"),
    ],
    ids=["icer-table-ref9", "contrast-i9", "contrast-i1", "bootstrap-i9", "bootstrap-i1",
         "bootstrap-j1", "contrast-i2-j2", "bootstrap-i2-j2"],
)
def test_regime_id_errors_exit_1_with_one_wording(tmp_path, data_csv, capsys, argv, message):
    code, _, err = run_cli(
        *argv, "--data", str(data_csv), "--out", str(tmp_path / "out.csv"), capsys=capsys,
    )
    assert code == 1
    assert err.splitlines()[-1] == (
        f'error kind=CliError subcommand={argv[0]} message="{message}"'
    )


def _without_regime_8(tmp_path, data_csv):
    """The trial with every record consistent with regime 8 dropped."""
    mask = consistency_mask(ingest_dataset(str(data_csv)), embedded_regimes()[7])
    lines = data_csv.read_text().splitlines(keepends=True)
    body = [ln for ln in lines if not ln.startswith("#")]
    trimmed = tmp_path / "trimmed.csv"
    trimmed.write_text(body[0] + "".join(ln for ln, drop in zip(body[1:], mask) if not drop))
    return trimmed


def test_regime_without_support_gets_an_undefined_row(tmp_path, data_csv):
    # Drop every record consistent with regime 8: its ICER is undefined, and
    # nothing else in the table or a contrast that does not read it changes.
    trimmed = _without_regime_8(tmp_path, data_csv)
    table = tmp_path / "icers.csv"
    assert main([
        "icer-table", "--data", str(trimmed), "--estimator", "ipw", "--out", str(table),
    ]) == 0
    _, rows = _rows(table)
    assert [r["regime"] for r in rows] == [str(i) for i in range(2, 9)]
    last = rows[-1]
    assert all(last[k] == "nan" for k in ("icer", "ci_lower", "ci_upper", "rd_cost", "rd_eff"))
    assert last["reliable"] == "false"
    assert all(r["icer"] != "nan" for r in rows[:-1])
    assert main([
        "contrast", "--data", str(trimmed), "--estimator", "ipw",
        "--i", "2", "--j", "4", "--out", str(tmp_path / "contrast.csv"),
    ]) == 0


@pytest.mark.parametrize("subcommand", ["frontier", "plot"])
def test_undefined_rows_are_left_off_the_plane(tmp_path, data_csv, capsys, subcommand):
    trimmed = _without_regime_8(tmp_path, data_csv)
    table = tmp_path / "icers.csv"
    assert main([
        "icer-table", "--data", str(trimmed), "--estimator", "ipw", "--out", str(table),
    ]) == 0
    points = tmp_path / "points.csv"
    outputs = {
        "frontier": ["--out-points", str(points), "--out-frontier", str(tmp_path / "f.csv")],
        "plot": ["--out", str(tmp_path / "plane.svg")],
    }[subcommand]
    code, _, err = run_cli(subcommand, "--in", str(table), *outputs, capsys=capsys)
    assert code == 0, err
    assert "note: ICER undefined for regime 8; left off the plane" in err
    if subcommand == "frontier":
        _, rows = _rows(points)
        assert [r["regime"] for r in rows] == [str(i) for i in range(2, 8)]

    # Only a wholly undefined row is skipped; a bad flag is still refused.
    text = table.read_text()
    table.write_text(text.replace(",false\n", ",maybe\n", 1))
    code, _, err = run_cli(subcommand, "--in", str(table), *outputs, capsys=capsys)
    assert code == 1
    assert "not an icer-table file (reliable must be true or false, got 'maybe')" in err


@pytest.mark.parametrize("subcommand", ["frontier", "plot"])
def test_table_without_a_defined_icer_is_refused_by_name(tmp_path, capsys, subcommand):
    # A file whose every row is undefined has rows, so "no rows" would
    # misname the fault; a header-only file still has none.
    header = "regime,icer,ci_lower,ci_upper,rd_cost,rd_eff,cv_cost,cv_eff,reliable\n"
    undefined = tmp_path / "undefined.csv"
    undefined.write_text(header + "".join(f"{rid},{'nan,' * 7}false\n" for rid in (2, 5)))
    empty = tmp_path / "empty.csv"
    empty.write_text(header)
    outputs = {
        "frontier": ["--out-points", str(tmp_path / "p.csv"), "--out-frontier", str(tmp_path / "f.csv")],
        "plot": ["--out", str(tmp_path / "plane.svg")],
    }[subcommand]
    for table, message in (
        (undefined, f"{undefined}: no regime has a defined ICER"),
        (empty, f"{empty}: no rows"),
    ):
        code, _, err = run_cli(subcommand, "--in", str(table), *outputs, capsys=capsys)
        assert code == 1
        assert err.splitlines()[-1] == (
            f'error kind=CliError subcommand={subcommand} message="{message}"'
        )
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "plane.svg").exists()


@pytest.mark.parametrize("subcommand", ["icer-table", "estimate"])
def test_rank_deficient_regimes_get_undefined_rows(tmp_path, data_csv, capsys, subcommand):
    # Without regime 8's records, the stage-2 outcome fits of regimes 4 and 6
    # see too few rows to span their design, and regime 8 has none: those
    # rows are undefined and the rest of the TMLE output is still written.
    trimmed = _without_regime_8(tmp_path, data_csv)
    table = tmp_path / "out.csv"
    code, _, err = run_cli(
        subcommand, "--data", str(trimmed), "--estimator", "tmle", "--out", str(table),
        capsys=capsys,
    )
    assert code == 0
    _, rows = _rows(table)
    undefined = ("4", "6", "8")
    kinds = ("RankDeficient", "RankDeficient", "ZeroSupport")
    notes = [ln for ln in err.splitlines() if ln.startswith("note:")]
    if subcommand == "icer-table":
        assert [r["regime"] for r in rows if r["icer"] == "nan"] == list(undefined)
        for r in rows:
            if r["icer"] == "nan":
                assert (r["rd_eff"], r["reliable"]) == ("nan", "false")
        assert [n.split(":")[:2] for n in notes] == [
            ["note", f" regime {rid} ICER undefined ({kind}"]
            for rid, kind in zip(undefined, kinds)
        ]
        assert all(n.endswith("; row written as nan") for n in notes)
        return
    assert [(r["regime"], r["outcome"]) for r in rows if r["psi"] == "nan"] == [
        (rid, out) for rid in undefined for out in ("y", "c")
    ]
    assert all((r["psi"] == "nan") == (r["regime"] in undefined) for r in rows)
    assert all((r["se"] == "nan") == (r["regime"] in undefined) for r in rows)
    assert [n.split(":")[:2] for n in notes] == [
        ["note", f" regime {rid} not identified ({kind}"]
        for rid, kind in zip(undefined, kinds)
    ]


def test_estimate_writes_undefined_rows_for_a_regime_without_records(tmp_path, capsys):
    # No record of this 8-row trial follows regime 1: estimate writes its
    # rows as nan with no influence-curve file, as icer-table leaves it out.
    data = tmp_path / "t8.csv"
    assert main(["simulate", "--n", "8", "--seed", "3", "--out", str(data)]) == 0
    ic_dir = tmp_path / "ic"
    code, _, err = run_cli(
        "estimate", "--data", str(data), "--estimator", "ipw", "--ic-dir", str(ic_dir),
        "--out", str(tmp_path / "means.csv"), capsys=capsys,
    )
    assert code == 0
    _, rows = _rows(tmp_path / "means.csv")
    assert [(r["psi"], r["se"], r["ic_file"]) for r in rows if r["regime"] == "1"] == [
        ("nan", "nan", ""), ("nan", "nan", "")
    ]
    assert all(r["ic_file"] for r in rows if r["regime"] != "1")
    assert sorted(p.name for p in ic_dir.iterdir()) == sorted(
        f"ic_ipw_{rid}_{out}.csv" for rid in range(2, 9) for out in ("y", "c")
    )
    notes = [ln for ln in err.splitlines() if ln.startswith("note:")]
    assert notes == [
        "note: regime 1 not identified (ZeroSupport: no records consistent with regime 1); "
        "psi and se written as nan"
    ]


@pytest.fixture()
def trial_with_twin(tmp_path):
    """The n = 1809 trial and a regime table whose regime 9 is regime 1's twin."""
    data = tmp_path / "trial.csv"
    assert main(["simulate", "--n", "1809", "--seed", "7", "--out", str(data)]) == 0
    regimes = tmp_path / "regimes.csv"
    regimes.write_text("1,0,1,3\n2,1,1,3\n9,0,1,3\n")
    return ["--data", str(data), "--regimes", str(regimes)]


def test_icer_table_notes_a_zero_effect_difference(tmp_path, trial_with_twin, capsys):
    table = tmp_path / "icers.csv"
    code, _, err = run_cli("icer-table", *trial_with_twin, "--out", str(table), capsys=capsys)
    assert code == 0
    _, rows = _rows(table)
    assert [(r["regime"], r["icer"] == "nan") for r in rows] == [("2", False), ("9", True)]
    assert [ln for ln in err.splitlines() if ln.startswith("note:")] == [
        "note: regime 9 ICER undefined (DegenerateDenominator: |effect difference| = 0 "
        "below 1e-12); row written as nan"
    ]


def test_icer_table_notes_an_infinite_cost_cv(tmp_path, capsys):
    # With every cost 0 each cost difference is exactly 0, so each row's
    # cv_cost is inf by definition; each such row is flagged and noted.
    d = simulate_smart(DgpConfig(n=300, seed=1))
    zero_cost = tmp_path / "zero-cost.csv"
    write_trial(zero_cost, Dataset(d.x1, d.a1, d.l2, d.s2, d.a2, d.y, np.zeros(d.n)))
    table = tmp_path / "icers.csv"
    code, _, err = run_cli(
        "icer-table", "--data", str(zero_cost), "--estimator", "ipw", "--out", str(table),
        capsys=capsys,
    )
    assert code == 0
    _, rows = _rows(table)
    assert {(r["rd_cost"], r["cv_cost"], r["reliable"]) for r in rows} == {
        ("0.0", "inf", "false")
    }
    assert [ln for ln in err.splitlines() if ln.startswith("note:")] == [
        f"note: regime {r['regime']} cv_cost written as inf (cost difference 0.0); "
        "row flagged unreliable"
        for r in rows
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["contrast", "--i", "9", "--j", "2"],
        ["bootstrap", "--i", "9", "--replicates", "100", "--seed", "1"],
    ],
)
def test_an_undefined_requested_icer_fails_with_its_cause(tmp_path, trial_with_twin, capsys, argv):
    code, _, err = run_cli(
        *argv, *trial_with_twin, "--out", str(tmp_path / "out.csv"), capsys=capsys
    )
    assert code == 1
    assert err.splitlines()[-1] == (
        f"error kind=DegenerateDenominator subcommand={argv[0]} "
        'message="regime 9: |effect difference| = 0 below 1e-12"'
    )


def test_contrast_names_the_reference_failure(tmp_path, capsys):
    # No record of this 8-row trial follows the reference, regime 1.
    data = tmp_path / "t8.csv"
    assert main(["simulate", "--n", "8", "--seed", "3", "--out", str(data)]) == 0
    code, _, err = run_cli(
        "contrast", "--data", str(data), "--estimator", "ipw", "--i", "2", "--j", "4",
        "--out", str(tmp_path / "contrast.csv"), capsys=capsys,
    )
    assert code == 1
    assert err.splitlines()[-1] == (
        'error kind=ZeroSupport subcommand=contrast message="regime 2: reference regime 1: '
        'no records consistent with regime 1"'
    )


def test_entry_point_subprocess():
    ok = subprocess.run(
        [sys.executable, "-m", "smartcea.cli", "--version"],
        capture_output=True, text=True,
    )
    assert ok.returncode == 0
    assert "smartcea" in ok.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "smartcea.cli", "mc-study", "--reps", "0",
         "--seed", "1", "--out", "/tmp/never.csv"],
        capture_output=True, text=True,
    )
    assert bad.returncode == 2


def test_help_lists_defaults(capsys):
    assert main(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--n" in out
    assert "default: 1809" in out
    assert "--seed" in out


def _with_costs(tmp_path, data_csv, cost):
    """The trial with each cost c replaced by the text ``cost(c)``."""
    lines = [ln for ln in data_csv.read_text().splitlines() if not ln.startswith("#")]
    col = lines[0].split(",").index("c")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        fields[col] = cost(float(fields[col]))
        rows.append(",".join(fields))
    path = tmp_path / "costs.csv"
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate"],
        ["icer-table", "--estimator", "ipw"],
        ["icer-table"],
        ["contrast", "--i", "2", "--j", "4"],
        ["bootstrap", "--i", "2", "--estimator", "ipw", "--replicates", "100", "--seed", "1"],
    ],
)
def test_costs_near_the_float_limit_give_finite_intervals(tmp_path, data_csv, argv):
    # The squares of these costs' influence curves overflow; numpy used to
    # warn, and icer-table wrote infinite intervals and coefficients of variation.
    data = _with_costs(tmp_path, data_csv, lambda c: repr(c * 1e299))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--data", str(data), "--out", str(out)]) == 0
    _, rows = _rows(out)
    for row in rows:
        for key, value in row.items():
            if key not in ("outcome", "statistic", "reliable"):
                assert np.isfinite(float(value)), (key, value)


def test_a_zero_icer_is_written_without_a_sign(tmp_path, data_csv):
    # With every cost 0, a regime with a negative effect difference has an
    # ICER of -0.0, which used to be written as such.
    data = _with_costs(tmp_path, data_csv, lambda c: "0.0")
    table = tmp_path / "icers.csv"
    assert main(["icer-table", "--data", str(data), "--estimator", "ipw", "--out", str(table)]) == 0
    _, rows = _rows(table)
    assert any(float(r["rd_eff"]) < 0.0 for r in rows)
    for row in rows:
        assert (row["icer"], row["ci_lower"], row["ci_upper"], row["rd_cost"]) == ("0.0",) * 4


ERROR_LINE = re.compile(r'error kind=\w+ subcommand=(\S+) message="[^"]*"')
METHODS = [["--estimator", "tmle"], ["--estimator", "tmle", "--g", "known"],
           ["--estimator", "ipw"]]
# One trial of 30 records per fragile shape of each part, the methods in
# turn, and the one-record trial that gave regimes a psi without an se.
FRAGILE_EXAMPLES = [
    (trial(30, k, **{part: shape}), METHODS[k % len(METHODS)])
    for k, (part, shape) in enumerate(
        (part, shape) for part, shapes in SHAPES.items() for shape in shapes[1:]
    )
] + [(simulate_smart(DgpConfig(n=1, seed=3)), ["--estimator", "ipw"])]


def _with_fragile_examples(test):
    for data, method in FRAGILE_EXAMPLES:
        test = example(data=data, method=method)(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=trials(12, 60), method=st.sampled_from(METHODS))
@_with_fragile_examples
def test_every_run_ends_cleanly_on_fragile_trials(tmp_path_factory, data, method):
    # Exit 0 with every number finite or a nan its note line explains, or
    # exit 1 with the machine-readable error line; never a warning.
    tmp = tmp_path_factory.mktemp("fragile")
    path = tmp / "trial.csv"
    write_trial(path, data)
    for argv in (["estimate"], ["icer-table"], ["contrast", "--i", "2", "--j", "4"],
                 ["bootstrap", "--i", "2", "--replicates", "100", "--seed", "1"]):
        out = tmp / f"{argv[0]}.csv"
        with warnings.catch_warnings(), \
                mock.patch("sys.stderr", new_callable=io.StringIO) as stderr:
            warnings.simplefilter("error")
            code = main([*argv, *method, "--data", str(path), "--out", str(out)])
        err = stderr.getvalue().splitlines()
        assert code in (0, 1), (argv, code)
        if code == 1:
            match = ERROR_LINE.fullmatch(err[-1])
            assert match and match[1] == argv[0], err
            continue
        noted = {line.split()[2] for line in err if line.startswith("note: regime ")}
        _, rows = _rows(out)
        for row in rows:
            for key, value in row.items():
                if key in ("outcome", "statistic", "reliable"):
                    continue
                # The coefficient of variation of an exact zero cost
                # difference is infinite by definition, flags the row and is
                # named in a note.
                zero_cost = key == "cv_cost" and float(row["rd_cost"]) == 0.0
                named = row.get("regime") in noted
                assert np.isfinite(float(value)) or (value == "nan" and named) or (
                    value == "inf" and named and zero_cost and row["reliable"] == "false"
                ), (argv, key, value, err)
