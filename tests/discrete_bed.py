"""Discrete test bed: a two-stage SMART with finite support everywhere.

Covariates are binary and cost lies on {0, 1, 2}, so regime means have
closed forms (``gcomp_discrete``) and the nonparametric plug-in
(``empirical_discrete``) is computable exactly.  The estimators are
validated against both.  The library does not need the bed at run time;
its treatment codes are the design supports of ``smartcea.core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from smartcea.core import Dataset, RegimeSpec, check_reference
from smartcea.dgp import TruthTable, _finish_truth, embedded_regimes


COST_SUPPORT = (0.0, 1.0, 2.0)


@dataclass(frozen=True)
class DiscreteDgp:
    """Two-stage SMART with finite support everywhere.

    Covariates are binary and cost takes values in {0, 1, 2}.  Conditional
    tables are indexed [x1, a1, l2, s2, a2_option] where a2_option is the
    0/1 position of a2 within its branch's option pair; ``p_c`` has a
    trailing axis of length 3 holding the cost pmf.
    """

    p_x1: float
    p_l2: np.ndarray
    p_s2: np.ndarray
    p_y: np.ndarray
    p_c: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.p_x1 < 1.0:
            raise ValueError("p_x1 must lie strictly inside (0, 1)")
        for name, shape in (
            ("p_l2", (2, 2)),
            ("p_s2", (2, 2, 2)),
            ("p_y", (2, 2, 2, 2, 2)),
            ("p_c", (2, 2, 2, 2, 2, 3)),
        ):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, arr)
        if np.any(self.p_c < 0.0) or np.any(
            np.abs(self.p_c.sum(axis=-1) - 1.0) > 1e-12
        ):
            raise ValueError("p_c must hold a pmf on its trailing axis")


def make_discrete_dgp(seed: int) -> DiscreteDgp:
    """Random but well-behaved test-bed parameters (probabilities in [.25, .75],
    cost pmf entries bounded away from zero via a Dirichlet(3,3,3) draw)."""
    rng = np.random.default_rng(seed)
    return DiscreteDgp(
        p_x1=float(rng.uniform(0.3, 0.7)),
        p_l2=rng.uniform(0.25, 0.75, size=(2, 2)),
        p_s2=rng.uniform(0.25, 0.75, size=(2, 2, 2)),
        p_y=rng.uniform(0.25, 0.75, size=(2, 2, 2, 2, 2)),
        p_c=rng.dirichlet((3.0, 3.0, 3.0), size=(2, 2, 2, 2, 2)),
    )


def sample_discrete(dgp: DiscreteDgp, n: int, seed: int) -> Dataset:
    """Draw ``n`` observed trajectories from the test bed (treatments fair coins)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    x1 = (rng.random(n) < dgp.p_x1).astype(np.int64)
    a1 = rng.integers(0, 2, size=n)
    l2 = (rng.random(n) < dgp.p_l2[x1, a1]).astype(np.int64)
    s2 = (rng.random(n) < dgp.p_s2[x1, a1, l2]).astype(np.int64)
    opt = rng.integers(0, 2, size=n)
    a2 = np.where(l2 == 1, 1 + opt, 3 + opt)
    y = (rng.random(n) < dgp.p_y[x1, a1, l2, s2, opt]).astype(np.int64)
    cum = np.cumsum(dgp.p_c[x1, a1, l2, s2, opt], axis=1)
    c_level = (rng.random(n)[:, None] > cum).sum(axis=1)
    c = np.asarray(COST_SUPPORT)[c_level]
    return Dataset(
        x1=x1.astype(np.float64),
        a1=a1,
        l2=l2,
        s2=s2.astype(np.float64),
        a2=a2,
        y=y,
        c=c,
    )


def enumerate_paths(
    dgp: DiscreteDgp, regime: RegimeSpec
) -> Iterator[tuple[float, int, int, int, int, float]]:
    """Exhaustive counterfactual outcome space under the regime.

    Yields (probability, x1, l2, s2, y, c) for every support point; the
    probabilities sum to one.
    """
    for x1 in (0, 1):
        p_x = dgp.p_x1 if x1 == 1 else 1.0 - dgp.p_x1
        for l2 in (0, 1):
            pl = float(dgp.p_l2[x1, regime.d1])
            p_l = pl if l2 == 1 else 1.0 - pl
            a2 = regime.d2(l2)
            opt = a2 - 1 if l2 == 1 else a2 - 3
            for s2 in (0, 1):
                ps = float(dgp.p_s2[x1, regime.d1, l2])
                p_s = ps if s2 == 1 else 1.0 - ps
                p_path = p_x * p_l * p_s
                py = float(dgp.p_y[x1, regime.d1, l2, s2, opt])
                for y in (0, 1):
                    p_y = py if y == 1 else 1.0 - py
                    for level, c in enumerate(COST_SUPPORT):
                        p_cost = float(dgp.p_c[x1, regime.d1, l2, s2, opt, level])
                        yield (p_path * p_y * p_cost, x1, l2, s2, y, float(c))


def gcomp_discrete(dgp: DiscreteDgp, regime: RegimeSpec) -> tuple[float, float]:
    """Exact mean effect and cost under the regime, by path enumeration."""
    ey = 0.0
    ec = 0.0
    for prob, _x1, _l2, _s2, y, c in enumerate_paths(dgp, regime):
        ey += prob * y
        ec += prob * c
    return ey, ec


def discrete_true_values(
    dgp: DiscreteDgp,
    regimes: Sequence[RegimeSpec] | None = None,
    mc_draws: int = 200_000,
    seed: int = 0,
    reference_id: int = 1,
) -> TruthTable:
    """Monte Carlo counterfactual means on the test bed.

    Exists to cross-check gcomp_discrete through an entirely different code
    path; shares exogenous uniforms across regimes like ``true_values``, and
    like it raises ``ValueError`` before any draw for an unknown
    ``reference_id``.
    """
    if mc_draws < 10_000:
        raise ValueError("mc_draws must be at least 10000")
    regs = tuple(regimes) if regimes is not None else embedded_regimes()
    check_reference(regs, reference_id)
    rng = np.random.default_rng(seed)
    u_x1 = rng.random(mc_draws)
    u_l2 = rng.random(mc_draws)
    u_s2 = rng.random(mc_draws)
    u_y = rng.random(mc_draws)
    u_c = rng.random(mc_draws)
    x1 = (u_x1 < dgp.p_x1).astype(np.int64)

    sum_y = np.zeros(len(regs))
    sum_c = np.zeros(len(regs))
    sum_c2 = np.zeros(len(regs))
    levels = np.asarray(COST_SUPPORT)
    for i, reg in enumerate(regs):
        l2 = (u_l2 < dgp.p_l2[x1, reg.d1]).astype(np.int64)
        s2 = (u_s2 < dgp.p_s2[x1, reg.d1, l2]).astype(np.int64)
        a2 = np.where(l2 == 1, reg.d2_if_lapse, reg.d2_if_no_lapse)
        opt = np.where(l2 == 1, a2 - 1, a2 - 3)
        y = u_y < dgp.p_y[x1, reg.d1, l2, s2, opt]
        cum = np.cumsum(dgp.p_c[x1, reg.d1, l2, s2, opt], axis=1)
        c = levels[(u_c[:, None] > cum).sum(axis=1)]
        sum_y[i] = y.sum()
        sum_c[i] = c.sum()
        sum_c2[i] = (c * c).sum()

    return _finish_truth(regs, sum_y, sum_c, sum_c2, mc_draws, reference_id)


def empirical_discrete(dataset: Dataset, regime: RegimeSpec) -> tuple[float, float]:
    """Nonparametric plug-in of the sequential regression identity.

    All conditional laws are empirical frequencies; raises if the formula
    visits an empty stratum.
    """
    x1 = dataset.x1[:, 0].astype(np.int64)
    on_d1 = dataset.a1 == regime.d1
    ey = 0.0
    ec = 0.0
    for v_x in (0, 1):
        in_x = x1 == v_x
        p_x = float(in_x.mean())
        base = in_x & on_d1
        n_base = int(base.sum())
        if n_base == 0:
            raise ValueError(f"empty stratum: x1={v_x}, a1={regime.d1}")
        for v_l in (0, 1):
            in_l = base & (dataset.l2 == v_l)
            n_l = int(in_l.sum())
            if n_l == 0:
                raise ValueError(f"empty stratum: x1={v_x}, l2={v_l}")
            a2 = regime.d2(v_l)
            for v_s in (0, 1):
                in_s = in_l & (dataset.s2 == v_s)
                n_s = int(in_s.sum())
                if n_s == 0:
                    raise ValueError(
                        f"empty stratum: x1={v_x}, l2={v_l}, s2={v_s}"
                    )
                cons = in_s & (dataset.a2 == a2)
                if int(cons.sum()) == 0:
                    raise ValueError(
                        f"no records on a2={a2} in stratum x1={v_x}, l2={v_l}, s2={v_s}"
                    )
                w = p_x * (n_l / n_base) * (n_s / n_l)
                ey += w * float(dataset.y[cons].mean())
                ec += w * float(dataset.c[cons].mean())
    return ey, ec
