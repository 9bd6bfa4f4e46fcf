"""Core data structures for two-stage SMART trajectories and embedded regimes.

A two-stage SMART record is the tuple O = (X(1), A(1), L(2), S(2), A(2), Y, C):
baseline covariates, a randomized stage-1 treatment, a binary intermediate
response status (the re-randomization trigger), a continuous intermediate
covariate, a stage-2 treatment randomized within the branch selected by L(2),
a binary effectiveness outcome, and a nonnegative cost outcome.

An embedded regime prescribes one stage-1 treatment and one stage-2 treatment
per branch: d = (d1, d2_if_lapse, d2_if_no_lapse).  A record is consistent
with a regime when its observed treatments match the regime's recommendations
along the branch the record actually followed.

The design's treatment codes are fixed here, each stage randomized 1:1:
``STAGE1_SUPPORT`` at stage 1 and ``STAGE2_SUPPORT[l2]`` on each branch at
stage 2.  Neither a regime nor a record outside them can be built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "STAGE1_SUPPORT",
    "STAGE2_SUPPORT",
    "check_count",
    "check_regime_ids",
    "EstimationFailure",
    "InvalidRecord",
    "Dataset",
    "RegimeSpec",
    "EstimateWithIC",
    "consistency_mask",
    "first_invalid_record",
]

STAGE1_SUPPORT = frozenset({0, 1})
STAGE2_SUPPORT = {0: frozenset({3, 4}), 1: frozenset({1, 2})}


def check_count(name: str, value: int, minimum: int) -> None:
    """``ValueError`` unless ``value`` is an integer (``operator.index``) of at
    least ``minimum``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {count}")


def check_regime_ids(regimes: Iterable[RegimeSpec]) -> None:
    """``ValueError`` if two different regimes share an id; a repeat is one regime."""
    by_id: dict[int, RegimeSpec] = {}
    for regime in regimes:
        first = by_id.setdefault(regime.id, regime)
        if first != regime:
            raise ValueError(f"regime id {regime.id} names two regimes: {first} and {regime}")


class EstimationFailure(Exception):
    """Base of every domain failure: the data, a fit or a ratio cannot
    support the requested estimate.  Each subclass names one way it fails."""


@dataclass(frozen=True)
class RegimeSpec:
    """An embedded regime: stage-1 treatment plus a stage-2 treatment per branch.

    Parameters
    ----------
    id : int
        Positive identifier, unique within a regime collection.
    d1 : int
        Stage-1 treatment code, in ``STAGE1_SUPPORT``.
    d2_if_lapse : int
        Stage-2 treatment prescribed when L(2) = 1, in ``STAGE2_SUPPORT[1]``.
    d2_if_no_lapse : int
        Stage-2 treatment prescribed when L(2) = 0, in ``STAGE2_SUPPORT[0]``.
    """

    id: int
    d1: int
    d2_if_lapse: int
    d2_if_no_lapse: int

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"regime {self.id}: id must be at least 1")
        for name, code, support in (
            ("d1", self.d1, STAGE1_SUPPORT),
            ("d2_if_lapse", self.d2_if_lapse, STAGE2_SUPPORT[1]),
            ("d2_if_no_lapse", self.d2_if_no_lapse, STAGE2_SUPPORT[0]),
        ):
            if code not in support:
                raise ValueError(
                    f"regime {self.id}: {name}={code} outside support {sorted(support)}"
                )

    def d2(self, l2: int) -> int:
        """Stage-2 recommendation on the branch selected by ``l2``."""
        return self.d2_if_lapse if l2 == 1 else self.d2_if_no_lapse


def first_invalid_record(x1, x1_names, a1, l2, s2, a2, y, c) -> tuple[int, str, str] | None:
    """(row, column, reason) of the first record that breaks a design rule,
    or None; ``row`` counts from 0.  The columns are floats, so a fractional
    code is seen, not truncated; ``x1`` is (n, p), named by ``x1_names``.

    Rules per column, in record order: finite; integer code (a1, l2, a2); a1
    in ``STAGE1_SUPPORT``; l2 in {0, 1}; a2 in its own branch's
    ``STAGE2_SUPPORT``; binary y; nonnegative c.  The earliest row wins,
    then the earliest rule.
    """
    first: tuple[int, str, str] | None = None

    def check(column: str, mask: np.ndarray, reason: Callable[[int], str]) -> None:
        # Rules run in record order, so a later rule wins only on an earlier row.
        nonlocal first
        if mask.any():
            row = int(mask.argmax())
            if first is None or row < first[0]:
                first = (row, column, reason(row))

    def number(column: str, values: np.ndarray) -> None:
        check(column, ~np.isfinite(values), lambda i: f"non-finite value {float(values[i])}")

    def code(column: str, values: np.ndarray) -> None:
        number(column, values)
        check(column, values != np.trunc(values),
              lambda i: f"expected an integer code, got {float(values[i])}")

    for name, values in zip(x1_names, x1.T):
        number(name, values)
    code("a1", a1)
    check("a1", ~np.isin(a1, sorted(STAGE1_SUPPORT)),
          lambda i: f"out of stage-1 support {sorted(STAGE1_SUPPORT)}")
    code("l2", l2)
    check("l2", ~np.isin(l2, (0, 1)), lambda i: "expected 0 or 1")
    number("s2", s2)
    code("a2", a2)
    check(
        "a2",
        ~np.where(l2 == 1, np.isin(a2, sorted(STAGE2_SUPPORT[1])),
                  np.isin(a2, sorted(STAGE2_SUPPORT[0]))),
        lambda i: (
            f"out of stage-2 support {sorted(STAGE2_SUPPORT[int(l2[i])])} "
            f"for records with l2={int(l2[i])}"
        ),
    )
    number("y", y)
    check("y", ~np.isin(y, (0, 1)), lambda i: "expected a binary 0/1 outcome")
    number("c", c)
    check("c", c < 0, lambda i: "expected a nonnegative cost")
    return first


class InvalidRecord(EstimationFailure, ValueError):
    """A record breaks a design rule; ``row`` counts from 0.  It is also a
    ``ValueError``, as a bad column given to ``Dataset`` is."""

    def __init__(self, row: int, column: str, reason: str) -> None:
        super().__init__(f"record {row + 1}, column {column!r}: {reason}")
        self.row, self.column, self.reason = row, column, reason


_COLUMNS = ("x1", "a1", "l2", "s2", "a2", "y", "c")


class Dataset:
    """Columnar container for SMART trajectories.

    Columns are read as float64 and checked by :func:`first_invalid_record`
    (a failure raises :class:`InvalidRecord`, worded ``record R, column 'C':
    reason`` with R from 1); only then are the codes and y cast to int64.
    Columns are frozen (read-only views).  ``x1`` always has shape (n, p);
    the common scalar-baseline case is p = 1.

    Parameters
    ----------
    x1 : array_like
        Baseline covariates, shape (n,) or (n, p).
    a1, l2, s2, a2, y, c : array_like
        Remaining trajectory columns, each of length n.
    x1_names : sequence of str, optional
        Column names for x1; defaults to ("x1",) or ("x1_1", ..., "x1_p").
    """

    def __init__(
        self,
        x1,
        a1,
        l2,
        s2,
        a2,
        y,
        c,
        x1_names: Sequence[str] | None = None,
    ) -> None:
        x1 = np.asarray(x1, dtype=np.float64)
        if x1.ndim == 1:
            x1 = x1[:, None]
        if x1.ndim != 2 or x1.shape[1] < 1:
            raise ValueError("x1 must have shape (n,) or (n, p) with p >= 1")
        n = x1.shape[0]
        if n < 1:
            raise ValueError("dataset must contain at least one record")

        a1, l2, s2, a2, y, c = (np.asarray(v, dtype=np.float64) for v in (a1, l2, s2, a2, y, c))
        for name, col in zip(("a1", "l2", "s2", "a2", "y", "c"), (a1, l2, s2, a2, y, c)):
            if col.shape != (n,):
                raise ValueError(f"column {name} has length {col.shape}, expected ({n},)")

        if x1_names is None:
            p = x1.shape[1]
            x1_names = ("x1",) if p == 1 else tuple(f"x1_{j}" for j in range(1, p + 1))
        self.x1_names = tuple(x1_names)
        if len(self.x1_names) != x1.shape[1]:
            raise ValueError("x1_names length does not match x1 width")

        failure = first_invalid_record(x1, self.x1_names, a1, l2, s2, a2, y, c)
        if failure is not None:
            raise InvalidRecord(*failure)

        self.x1 = x1
        self.a1 = a1.astype(np.int64)
        self.l2 = l2.astype(np.int64)
        self.s2 = s2
        self.a2 = a2.astype(np.int64)
        self.y = y.astype(np.int64)
        self.c = c
        for name in _COLUMNS:
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    def take(self, indices) -> "Dataset":
        """Row subset (with replacement allowed), e.g. for bootstrap resampling;
        rows of a valid dataset are copied without a second check."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("dataset must contain at least one record")
        subset = Dataset.__new__(Dataset)
        subset.x1_names = self.x1_names
        for name in _COLUMNS:
            column = getattr(self, name)[idx]
            column.setflags(write=False)
            setattr(subset, name, column)
        return subset

    def outcome(self, name: str) -> np.ndarray:
        """Outcome column by tag: 'y' (effectiveness) or 'c' (cost)."""
        if name == "y":
            return self.y.astype(np.float64)
        if name == "c":
            return self.c
        raise ValueError(f"unknown outcome {name!r}, expected 'y' or 'c'")


def consistency_mask(dataset: Dataset, regime: RegimeSpec) -> np.ndarray:
    """Whether each record's observed treatments follow the regime.

    Only the branch a record actually took constrains it; the recommendation
    for the unobserved branch is vacuous.  Bool array of length n.
    """
    d2 = np.where(dataset.l2 == 1, regime.d2_if_lapse, regime.d2_if_no_lapse)
    return (dataset.a1 == regime.d1) & (dataset.a2 == d2)


@dataclass
class EstimateWithIC:
    """A point estimate with its estimated influence curve.

    The influence curve has one entry per analysis record; its empirical
    variance over n yields the standard error.  A curve whose squares
    overflow (costs near the float limit) is scaled by its largest |entry|
    first, so its standard error stays finite.
    """

    psi: float
    ic: np.ndarray

    def __post_init__(self) -> None:
        self.ic = np.asarray(self.ic, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.ic.shape[0]

    @property
    def se(self) -> float:
        if self.n < 2:
            return float("nan")
        with np.errstate(over="ignore"):
            var = np.var(self.ic, ddof=1)
        if np.isfinite(var):
            return float(np.sqrt(var / self.n))
        scale = np.max(np.abs(self.ic))
        return float(scale * np.sqrt(np.var(self.ic / scale, ddof=1) / self.n))
