"""Small valid trials in the shapes where estimation is most fragile.

``trials(min_n, max_n)`` is a ``hypothesis`` strategy for a valid
``Dataset`` of ``min_n`` to ``max_n`` records.  Each draw picks one shape
per part of the record, the first one listed half the time:

- stage-1 arms: balanced, skewed (one arm about 5% of the records), or one
  arm only;
- branches: both, skewed, or one branch only (the other branch empty);
- baseline covariate: generic, constant, or a second column collinear with
  the first (``x1_1``, ``x1_2``);
- effectiveness y: random, constant, or separated by x1 (1 exactly above
  its median);
- cost c: exponential, constant, all zero, or log-uniform up to 1e300.

``write_trial(path, dataset)`` writes a trial in the CSV schema that
``smartcea.cli.ingest_dataset`` reads, every float in its round-trip
``repr``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from smartcea.core import STAGE2_SUPPORT, Dataset


def _binary(rng: np.random.Generator, n: int, share: str) -> np.ndarray:
    """0/1 column: 'both' about half ones, 'skewed' about 5% of one value
    (at least one record of it), or all 0 or all 1 for 'zero' and 'one'."""
    if share in ("zero", "one"):
        return np.full(n, 1 if share == "one" else 0)
    if share == "both":
        return rng.integers(0, 2, n)
    rare = rng.integers(0, 2)
    col = np.full(n, 1 - rare)
    col[rng.choice(n, size=max(1, n // 20), replace=False)] = rare
    return col


def _shape(healthy: str, *fragile: str) -> st.SearchStrategy[str]:
    return st.sampled_from([healthy] * len(fragile) + list(fragile))


@st.composite
def trials(draw, min_n: int, max_n: int) -> Dataset:
    n = draw(st.integers(min_n, max_n))
    # The first, healthy shape of each part comes up half the time, so
    # that a draw is often fragile in one part only.
    arms = draw(_shape("both", "skewed", "zero", "one"))
    branches = draw(_shape("both", "skewed", "zero", "one"))
    covariate = draw(_shape("generic", "constant", "collinear"))
    effect = draw(_shape("random", "constant", "separated"))
    cost = draw(_shape("exponential", "constant", "zero", "huge"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    x = rng.normal(size=n)
    if covariate == "constant":
        x = np.full(n, 0.5)
    x1 = np.column_stack([x, 2.0 * x + 1.0]) if covariate == "collinear" else x
    a1 = _binary(rng, n, arms)
    l2 = _binary(rng, n, branches)
    lo2, hi2 = (np.where(l2 == 1, min(STAGE2_SUPPORT[1]), min(STAGE2_SUPPORT[0])),
                np.where(l2 == 1, max(STAGE2_SUPPORT[1]), max(STAGE2_SUPPORT[0])))
    a2 = np.where(rng.random(n) < 0.5, lo2, hi2)
    if effect == "random":
        y = rng.integers(0, 2, n)
    elif effect == "constant":
        y = np.full(n, rng.integers(0, 2))
    else:
        y = (x > np.median(x)).astype(np.int64)
    if cost == "exponential":
        c = rng.exponential(size=n)
    elif cost == "constant":
        c = np.full(n, 3.0)
    elif cost == "zero":
        c = np.zeros(n)
    else:
        c = 10.0 ** rng.uniform(0.0, 300.0, n)
    return Dataset(x1=x1, a1=a1, l2=l2, s2=rng.normal(size=n), a2=a2, y=y, c=c)


def write_trial(path, dataset: Dataset) -> None:
    header = ["id", *dataset.x1_names, "a1", "l2", "s2", "a2", "y", "c"]
    lines = [",".join(header)]
    for i in range(dataset.n):
        cells = [*dataset.x1[i], dataset.a1[i], dataset.l2[i], dataset.s2[i],
                 dataset.a2[i], dataset.y[i], dataset.c[i]]
        lines.append(",".join([str(i + 1), *(repr(v.item()) for v in cells)]))
    path.write_text("\n".join(lines) + "\n")
