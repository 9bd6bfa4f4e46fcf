"""Trial CSV ingest: parity with the row-by-row reader, the input rules it
changed on purpose (huge codes, duplicate columns, BOM, blank lines), and
agreement with ``Dataset`` on the value rules both apply."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import reference_ingest_dataset

from smartcea.cli import CliError, ingest_dataset, main, read_regime_file
from smartcea.core import STAGE2_SUPPORT, Dataset
from smartcea.dgp import DgpConfig, simulate_smart

COLUMNS = ("x1", "a1", "l2", "s2", "a2", "y", "c")
HEADER = "id,x1,a1,l2,s2,a2,y,c\n"

PROPERTY_SETTINGS = settings(
    max_examples=500, deadline=None, derandomize=True, database=None
)


def _assert_same_arrays(got, want):
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.strides == b.strides, name
        assert a.tobytes() == b.tobytes(), name
    assert got.x1_names == want.x1_names


def _outcome(reader, path):
    """The arrays a reader returns, or the message of the CliError it raises."""
    try:
        return reader(str(path))
    except CliError as err:
        return str(err)


def _write_trial(path, n, seed, p=1):
    """A simulated trial as CSV; with p > 1 the covariate is x1_1..x1_p."""
    ds = simulate_smart(DgpConfig(n=n, seed=seed))
    names = ["x1"] if p == 1 else [f"x1_{k + 1}" for k in range(p)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# a comment line\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", *names, "a1", "l2", "s2", "a2", "y", "c"])
        for i in range(n):
            x1 = [repr(float(ds.x1[i, 0] * (k + 1) - k)) for k in range(p)]
            writer.writerow([
                i + 1, *x1, ds.a1[i], ds.l2[i], repr(float(ds.s2[i])),
                ds.a2[i], ds.y[i], repr(float(ds.c[i])),
            ])


@pytest.mark.parametrize("n", [1, 2, 1809])
@pytest.mark.parametrize("seed", [1, 2])
def test_simulate_output_matches_the_row_reader(tmp_path, n, seed):
    path = tmp_path / "trial.csv"
    assert main(["simulate", "--n", str(n), "--seed", str(seed), "--out", str(path)]) == 0
    _assert_same_arrays(ingest_dataset(str(path)), reference_ingest_dataset(str(path)))


@pytest.mark.parametrize("n", [1, 2, 1809])
def test_multi_column_covariate_matches_the_row_reader(tmp_path, n):
    path = tmp_path / "trial.csv"
    _write_trial(path, n, seed=5, p=3)
    got = ingest_dataset(str(path))
    assert got.x1.shape == (n, 3)
    _assert_same_arrays(got, reference_ingest_dataset(str(path)))


# Cells the corruptions write: codes on and off each support, malformed,
# non-finite and signed-zero tokens, and tokens Python's float reads in its
# own way.
CODES = ["-1", "0", "1", "2", "3", "4", "5", "0.5", "2.0", "-0.0"]
TOKENS = [
    "", " ", "abc", "0x1", "1_0", " 1 ", "\x1c1", "١", "1e18", "1e-320",
    "nan", "inf", "-Infinity", '"1"', '"1,2"', "1,", "1e300",
]


def test_every_single_cell_corruption_matches_the_row_reader(tmp_path):
    # Every token in every column of a row on either branch; the codes too
    # large for int64 are excluded (see the property below).
    base = [
        "id,x1,a1,l2,s2,a2,y,c",
        "1,0.5,0,1,1.5,2,1,3.0",
        "2,-0.5,1,1,0.25,1,0,0.0",
        "3,1.5,1,0,-2.0,4,1,7.5",
    ]
    path = tmp_path / "trial.csv"
    for row in (2, 3):
        for column in range(8):
            for token in CODES + TOKENS:
                fields = base[row].split(",")
                fields[column] = token
                path.write_text("\n".join(base[:row] + [",".join(fields)] + base[row + 1:]) + "\n")
                try:
                    want = _outcome(reference_ingest_dataset, path)
                except OverflowError:
                    continue
                got = _outcome(ingest_dataset, path)
                if isinstance(want, str):
                    assert got == want, (row, column, token)
                else:
                    _assert_same_arrays(got, want)


@st.composite
def corrupted_trials(draw):
    """A small valid trial with 1-4 cells replaced, fields dropped or fields
    added, and comment lines mixed in, as the text of a CSV file."""
    n = draw(st.integers(1, 6))
    real = st.floats(-5.0, 5.0).map(repr)
    rows = [HEADER.strip().split(",")]
    for i in range(n):
        l2 = draw(st.integers(0, 1))
        rows.append([
            str(i + 1), draw(real), str(draw(st.integers(0, 1))), str(l2), draw(real),
            str(draw(st.sampled_from(sorted(STAGE2_SUPPORT[l2])))),
            str(draw(st.integers(0, 1))), repr(draw(st.floats(0.0, 50.0))),
        ])
    token = st.one_of(
        st.sampled_from(CODES), st.sampled_from(TOKENS), st.text("0123456789.e+-_ in", max_size=5)
    )
    for _ in range(draw(st.integers(1, 4))):
        row = rows[draw(st.integers(1, n))]
        kind = draw(st.sampled_from(["cell", "cell", "drop", "add"]))
        if kind == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(token)
        elif kind == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            row.append(draw(token))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "# comment, 1")
    return "\n".join(lines) + "\n"


ROW_1 = "1,0.5,0,1,0.3,1,1,2.0\n"


@PROPERTY_SETTINGS
@given(text=corrupted_trials())
# A malformed cell after a comment line, a dropped field, a value fault
# before a width fault, a stage-2 code off its branch, a quoted comma, and
# tokens float reads in its own way.
@example(text=HEADER + ROW_1 + "# comment, 1\n2,0.1,abc,0,0.2,3,0,1.0\n")
@example(text="# comment, 1\n" + HEADER + ROW_1[:-5] + "\n")
@example(text=HEADER + ROW_1.replace("2.0", "nan") + "2,0.1,1,0,0.2,3,0,1.0,5\n")
@example(text=HEADER + ROW_1 + "2,0.1,1,0,0.2,2.0,0,1.0\n")
@example(text=HEADER + ROW_1.replace("2.0", '"1,2"'))
@example(text=HEADER + "1, 1 ,1_0,1,-0.0,1,1,1e-320\n")
def test_corrupted_trial_matches_the_row_reader(tmp_path_factory, text):
    # Excluded on purpose, because ingest now differs from the row reader on
    # them: blank lines (skipped now) and codes too large for int64 (the row
    # reader died with OverflowError).  The corruptions write neither a BOM
    # nor a duplicate header name.
    assume(all(line.strip() for line in text.splitlines()))
    path = tmp_path_factory.mktemp("ingest") / "trial.csv"
    path.write_text(text, encoding="utf-8")
    try:
        want = _outcome(reference_ingest_dataset, path)
    except OverflowError:
        assume(False)
    got = _outcome(ingest_dataset, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        _assert_same_arrays(got, want)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,0.1,1e300,1,0.5,1,1,2.0", "column 'a1': out of stage-1 support [0, 1]"),
        ("1,0.1,0,-1e300,0.5,1,1,2.0", "column 'l2': expected 0 or 1"),
        ("1,0.1,0,1,0.5,1e300,1,2.0",
         "column 'a2': out of stage-2 support [1, 2] for records with l2=1"),
    ],
    ids=["a1", "l2", "a2"],
)
def test_huge_code_exits_1_with_the_support_message(tmp_path, capsys, row, message):
    path = tmp_path / "trial.csv"
    path.write_text(HEADER + row + "\n")
    code = main(["icer-table", "--data", str(path), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=CliError subcommand=icer-table")
    assert f"line 2, {message}" in err


def test_duplicate_column_is_refused(tmp_path):
    path = tmp_path / "trial.csv"
    path.write_text("id,x1,a1,l2,s2,a2,y,c,y\n1,0.1,0,1,0.5,1,1,2.0,0\n")
    with pytest.raises(CliError, match="duplicate column 'y'"):
        ingest_dataset(str(path))


def test_byte_order_mark_is_read_past(tmp_path):
    path = tmp_path / "trial.csv"
    _write_trial(path, 20, seed=3)
    plain = ingest_dataset(str(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    _assert_same_arrays(ingest_dataset(str(path)), plain)

    spec = tmp_path / "regimes.txt"
    spec.write_bytes("1 0 1 3\n2 1 1 3\n".encode("utf-8-sig"))
    assert [r.id for r in read_regime_file(str(spec))] == [1, 2]


def test_blank_lines_are_skipped_and_still_counted(tmp_path):
    path = tmp_path / "trial.csv"
    _write_trial(path, 20, seed=4)
    plain = ingest_dataset(str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(3, "\n")
    lines.insert(1, "  \r\n")
    path.write_text("".join(lines) + "\n\n")
    _assert_same_arrays(ingest_dataset(str(path)), plain)

    # Lines 1-2 comment and blank, 3 header, 4 data, 5 blank, 6-7 data.
    lines = path.read_text().splitlines(keepends=True)
    assert lines[4] == "\n" and lines[6].startswith("3,")
    lines[6] = lines[6].replace("3,", "3,zz,", 1)
    path.write_text("".join(lines))
    with pytest.raises(CliError, match=r"line 7, column '-': expected 8 fields, got 9"):
        ingest_dataset(str(path))


def test_line_numbers_count_every_line_of_a_multi_line_record(tmp_path, capsys):
    # The quoted id "1\n" spans lines 2-3, so the bad a1 sits on line 5.
    path = tmp_path / "trial.csv"
    path.write_text(
        HEADER
        + '"1\n",0.1,0,1,0.5,1,1,2.0\n'
        + "2,0.2,1,0,0.5,3,0,1.0\n"
        + "3,0.3,7,0,0.5,3,0,1.0\n"
    )
    code = main(["icer-table", "--data", str(path), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 5, column 'a1': out of stage-1 support [0, 1]" in err


def test_comment_and_blank_lines_inside_a_quoted_field_are_data(tmp_path):
    # The quoted id of record 1 spans lines 2-4: a blank line, then a line
    # that starts with "#".  The comment on line 6 sits between records.
    path = tmp_path / "trial.csv"
    path.write_text(
        HEADER
        + '"a\n\n# n",0.1,0,1,0.5,1,1,2.0\n'
        + "2,0.2,1,0,0.5,3,0,1.0\n"
        + "# between records\n"
    )
    ds = ingest_dataset(str(path))
    assert ds.x1[:, 0].tolist() == [0.1, 0.2]
    assert ds.a2.tolist() == [1, 3]

    path.write_text(path.read_text() + "3,0.3,1,0,0.5,5,0,1.0\n")
    with pytest.raises(CliError, match=r"line 7, column 'a2': out of stage-2 support \[3, 4\]"):
        ingest_dataset(str(path))


# Finite values that break a value rule in some column: fractional codes,
# codes off every support or off one branch's, a negative cost.
FAULTS = [-1.0, -0.5, 0.5, 0.9, 1.5, 1.9, 2.0, 3.0, 4.0, 5.0, 7.0]


@st.composite
def faulty_columns(draw):
    """Float columns of a small trial with 1-3 cells of a1, l2, a2, y or c
    replaced by a value from FAULTS."""
    n = draw(st.integers(1, 6))
    real = st.floats(-5.0, 5.0)
    l2 = [float(draw(st.integers(0, 1))) for _ in range(n)]
    columns = {
        "x1": [draw(real) for _ in range(n)],
        "a1": [float(draw(st.integers(0, 1))) for _ in range(n)],
        "l2": l2,
        "s2": [draw(real) for _ in range(n)],
        "a2": [float(draw(st.sampled_from(sorted(STAGE2_SUPPORT[int(b)])))) for b in l2],
        "y": [float(draw(st.integers(0, 1))) for _ in range(n)],
        "c": [draw(st.floats(0.0, 50.0)) for _ in range(n)],
    }
    for _ in range(draw(st.integers(1, 3))):
        column = draw(st.sampled_from(["a1", "l2", "a2", "y", "c"]))
        columns[column][draw(st.integers(0, n - 1))] = draw(st.sampled_from(FAULTS))
    return columns


_VALID = {"x1": [0.1, -0.2], "a1": [0.0, 1.0], "l2": [1.0, 0.0], "s2": [0.3, 0.4],
          "a2": [1.0, 3.0], "y": [1.0, 0.0], "c": [2.0, 0.0]}


@PROPERTY_SETTINGS
@given(columns=faulty_columns())
# A fractional code, a code off its branch's support, a negative cost, an
# outcome of 2, and faults in two records, the first of which is named.
@example(columns={**_VALID, "a1": [0.5, 1.0]})
@example(columns={**_VALID, "a2": [1.0, 1.0]})
@example(columns={**_VALID, "c": [2.0, -0.5]})
@example(columns={**_VALID, "y": [2.0, 0.0]})
@example(columns={**_VALID, "l2": [1.0, 7.0], "a2": [4.0, 3.0]})
def test_dataset_and_ingest_refuse_the_same_record(tmp_path_factory, columns):
    # Ingest rewords Dataset's refusal; it reports line = record + 1.
    path = tmp_path_factory.mktemp("rules") / "trial.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER)
        for i, row in enumerate(zip(*columns.values())):
            fh.write(",".join([str(i + 1), *map(repr, row)]) + "\n")
    try:
        built = Dataset(**columns)
    except ValueError as err:
        record, _, rule = str(err).partition(", ")
        with pytest.raises(CliError) as refused:
            ingest_dataset(str(path))
        line = int(record.removeprefix("record ")) + 1
        assert str(refused.value) == f"{path} line {line}, {rule}"
    else:
        got = ingest_dataset(str(path))
        for name in COLUMNS:
            a, b = getattr(got, name), getattr(built, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
