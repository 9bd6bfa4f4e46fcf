"""The standard CLI output set matches the expected files in ``tests/expected/``.

The pinned runs are ``output_set.PINNED``: the full set of
``output_set.py``, the 2M-draw ``truth`` run and the 100-replicate
bootstrap of a 300-record trial included, without the two bootstraps of the
1809-record trial, which stay in the manual ``diff -r`` check to keep this
test's cost small.
Comment lines and text must match exactly, numbers within 1e-12 relative:
exact bytes are not portable, because numpy's SIMD ``exp``/``log`` may
differ by one ulp between CPUs.  The trials and the influence-curve files
are compared by row count and per-column sums.  After a declared output
change, ``python tests/output_set.py --update`` rewrites the expected files.

``help.txt`` pins every ``--help`` text byte for byte (``help_texts``).  Its
first line names the Python version that made it: argparse's layout may
change between versions, and a failure on another version says so.
"""

from __future__ import annotations

import json
import math
import re

from output_set import (
    EXPECTED,
    HELP,
    PINNED,
    SUMMARIES,
    help_header,
    help_texts,
    output_files,
    summarized,
    summary,
    write_output_set,
)

RTOL = 1e-12

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _line_mismatch(got: str, want: str) -> bool:
    if got.startswith(("#", "<!--")) or want.startswith(("#", "<!--")):
        return got != want
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return True
    for k, (g, w) in enumerate(zip(got_parts, want_parts)):
        # re.split puts the captured numbers at the odd positions.
        if g != w and not (k % 2 and math.isclose(float(g), float(w), rel_tol=RTOL)):
            return True
    return False


def _text_mismatch(name: str, got: str, want: str) -> str | None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for no, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if _line_mismatch(g, w):
            return f"{name} line {no}: got {g!r}, expected {w!r}"
    if len(got_lines) != len(want_lines):
        return f"{name}: {len(got_lines)} lines, expected {len(want_lines)}"
    return None


def _summary_mismatch(name: str, got: dict, want: dict) -> str | None:
    for key in ("header", "rows"):
        if got[key] != want[key]:
            return f"{name}: {key} {got[key]!r}, expected {want[key]!r}"
    for col, (s, a, want_s, want_a) in enumerate(
        zip(got["sums"], got["abs_sums"], want["sums"], want["abs_sums"])
    ):
        # A column sum may cancel to near zero (a mean-zero influence curve),
        # so its tolerance scales with the sum of absolute values.
        if abs(s - want_s) > RTOL * want_a or not math.isclose(a, want_a, rel_tol=RTOL):
            return f"{name} column {col}: sums ({s!r}, {a!r}), expected ({want_s!r}, {want_a!r})"
    return None


def test_output_set_matches_expected(tmp_path):
    write_output_set(str(tmp_path), PINNED)
    summaries = json.loads((EXPECTED / SUMMARIES).read_text())
    expected = sorted(
        [*summaries, *(n for n in output_files(EXPECTED) if n not in (SUMMARIES, HELP))]
    )
    assert output_files(tmp_path) == expected

    mismatches = []
    for name in expected:
        if summarized(name):
            mismatches.append(_summary_mismatch(name, summary(tmp_path / name), summaries[name]))
        else:
            got, want = ((root / name).read_text(encoding="utf-8") for root in (tmp_path, EXPECTED))
            mismatches.append(_text_mismatch(name, got, want))
    assert [m for m in mismatches if m] == []


def test_help_texts_match_expected():
    header, expected = (EXPECTED / HELP).read_text(encoding="utf-8").split("\n", 1)
    assert help_texts() == expected, (
        f"help.txt: {header[2:]}; this run: {help_header()[2:-1]}"
    )
