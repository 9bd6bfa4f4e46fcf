"""Weighted logistic regression via iteratively reweighted least squares.

Hand-rolled on purpose: the estimators need exact control over prior weights,
offsets, and fractional (quasibinomial) responses, and must fail loudly on
separation or rank deficiency rather than silently regularize.  Responses may
be any values in [0, 1]; prior weights may be zero for most rows (as with
inverse-probability fluctuation weights).

Only the rows with positive weight enter a fit: they are gathered once,
after validation, and the iterations run on them alone.  A Newton step is
halved only when it lowers the log-likelihood by more than its rounding
error (``LL_RTOL`` times its magnitude), so a step whose gain is below
rounding is taken instead of being halved to nothing.

A fit without an offset starts at the intercept-only MLE, as R's ``glm``
starts from the data rather than from zero: the coefficient of the design's
first all-ones column is the logit of the weighted mean response on the
weighted rows.  An intercept-only fit therefore returns at once, with
``iterations == 0``.  A fit with an offset, a design with no column that is
1 on every weighted row (a saturated coding, as a rule) or a response whose
weighted mean is 0 or 1 starts at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EstimationFailure

__all__ = [
    "SeparationDetected",
    "RankDeficient",
    "GlmFit",
    "expit",
    "logit",
    "fit_logistic",
]

SCORE_TOL = 1e-8
# A Newton step is halved only when it lowers the log-likelihood by more than
# this share of its magnitude, which is above the rounding error of the sum.
LL_RTOL = 1e-12
MAX_ITER = 100
RIDGE = 1e-10
MAX_HALVINGS = 10
ETA_DIVERGED = 30.0


class SeparationDetected(EstimationFailure):
    """The likelihood has no interior maximum: fitted probabilities are
    saturating on every weighted row while the score refuses to vanish."""


class RankDeficient(EstimationFailure):
    """The weighted normal equations are singular beyond the ridge guard."""


def expit(x):
    """Numerically stable inverse logit, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    up = x >= 0
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x) below.
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    den = 1.0 + out
    # The numerator is 1 where x >= 0 and e below, selected exactly: e lies
    # in [0, 1] or is NaN, which np.maximum keeps, so max(e, 1) is 1 and
    # max(e, 0) is e.
    np.maximum(out, up, out=out)
    out /= den
    return out


def logit(p):
    """Log odds, elementwise; requires p strictly inside (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    # NaN fails both comparisons, so it is refused too.
    if not (np.all(p > 0.0) and np.all(p < 1.0)):
        raise ValueError("logit requires probabilities strictly inside (0, 1)")
    return np.log(p) - np.log1p(-p)


@dataclass(frozen=True)
class GlmFit:
    coefficients: np.ndarray
    converged: bool
    iterations: int
    max_abs_score: float


def _as_matrix(design) -> np.ndarray:
    X = np.asarray(design, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("design must be 2-dimensional")
    return X


def fit_logistic(design, response, weights=None, offset=None) -> GlmFit:
    """Fit E[response | design] = expit(design @ beta + offset) by IRLS.

    Parameters
    ----------
    design : array_like, shape (n, p)
        Include the intercept column explicitly.
    response : array_like, shape (n,)
        Values in [0, 1]; fractional responses fit the quasibinomial score.
    weights : array_like, optional
        Finite nonnegative prior weights, not all zero.  Zero-weight rows do
        not contribute to the fit.
    offset : array_like, optional
        Fixed additive term on the linear predictor.

    Returns
    -------
    GlmFit
        Converged when the maximum absolute weighted score drops below
        1e-8; otherwise returns after 100 iterations with converged=False.

    Raises
    ------
    ValueError
        If the design has no rows or no columns, a shape does not match, a
        response lies outside [0, 1], a weight is negative or every weight
        is zero, or any entry of the design, response, weights or offset is
        not finite.
    RankDeficient
        If the ridged normal equations (ridge 1e-10 on the diagonal) are
        still singular, or the weighted design has rank below p (as it
        always has with fewer weighted rows than columns), by
        ``np.linalg.matrix_rank``'s rule.
    SeparationDetected
        If every weighted fitted probability saturates at its response's
        boundary (degenerate likelihood, MLE at infinity), or the score
        will not converge while |linear predictor| exceeds 30 on every
        weighted row.

    Notes
    -----
    Only the rows with positive weight enter the iterations; they are
    gathered once, so a fit with zero-weight rows is bit-equal to the fit
    without them.  For p = 1 the rank check is "the column is nonzero on
    some weighted row" and each Newton step is a scalar division.  Each
    step is halved (at most 10 times) while it lowers the weighted
    log-likelihood ll by more than its rounding error, i.e. while the
    candidate's ll < ll - 1e-12 |ll|; after ten halvings the reduced step
    is accepted as-is and the score criterion decides convergence.

    Without an offset, the iterations start at the intercept-only MLE: if
    some column is 1 on every weighted row and the weighted mean response
    zbar = sum(w z) / sum(w) over those rows lies strictly inside (0, 1),
    the first such column's coefficient starts at logit(zbar) and the
    others at 0.
    The start's score may already be below 1e-8, as it is for an
    intercept-only design, and the fit then returns with iterations == 0.
    Every other fit, and every fit with an offset, starts at beta = 0.

    A fit without weights is the fit with unit weights, bit for bit, since
    1.0 * x is x: it skips the weight checks, the scan for positive weights
    and the products by w in the Fisher weights and the score.  zbar and
    the log-likelihood still read a vector of ones, since a dot product
    need not round as the plain sum does.
    """
    X = _as_matrix(design)
    n, p = X.shape
    if p == 0:
        raise ValueError("design needs at least one column")
    if n == 0:
        raise ValueError("design needs at least one row")
    z = np.asarray(response, dtype=np.float64)
    if z.shape != (n,):
        raise ValueError("response length does not match design")
    # min and max propagate NaN, which therefore fails these tests too.
    if not (z.min() >= 0.0 and z.max() <= 1.0):
        raise ValueError("responses must lie in [0, 1]")
    unit = weights is None
    if unit:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("weights length does not match design")
        if w.min() < 0.0:
            raise ValueError("weights must be nonnegative")
        if not np.isfinite(w.max()):
            raise ValueError("weights must be finite")
    off = None if offset is None else np.asarray(offset, dtype=np.float64)
    if off is not None:
        if off.shape != (n,):
            raise ValueError("offset length does not match design")
        if not np.isfinite(off).all():
            raise ValueError("offset must be finite")
    if not np.isfinite(X).all():
        raise ValueError("design must be finite")

    m = n
    if not unit:
        rows = np.flatnonzero(w > 0.0)
        m = rows.size
        if m == 0:
            raise ValueError("weights must not be all zero")
        if m < n:
            X, z, w = X.take(rows, axis=0), z.take(rows), w.take(rows)
            if off is not None:
                off = off.take(rows)
    if p == 1:
        x = X[:, 0]
        if not x.any():
            raise RankDeficient(f"design has rank < 1 on the {m} weighted rows")
        xx = x * x
    else:
        # np.linalg.matrix_rank's rule on the singular values, from one SVD.
        s = np.linalg.svd(X, compute_uv=False)
        if np.count_nonzero(s > s.max() * max(m, p) * np.finfo(np.float64).eps) < p:
            raise RankDeficient(f"design has rank < {p} on the {m} weighted rows")
    XT = X.T

    def weigh(v):
        # w * v; unit weights leave v as it is, as 1.0 * v would, bit for bit.
        return v if unit else w * v

    def state(eta):
        # mu = expit(eta) and ll = sum w (z eta - softplus(eta)) from one
        # e = exp(-|eta|); softplus(eta) = max(eta, 0) + log1p(e), and the
        # max(eta, 0) - z eta term cancels exactly on saturated rows.
        # The numerator of mu is 1 where eta >= 0 and e below, the select of
        # ``expit``: e lies in [0, 1], so max(e, 1) is 1 and max(e, 0) is e.
        abs_eta = np.abs(eta)
        e = np.exp(-abs_eta)
        mu = np.maximum(e, eta >= 0.0)
        mu /= 1.0 + e
        loss = np.maximum(eta, 0.0)
        loss -= z * eta
        loss += np.log1p(e, out=e)
        return abs_eta, mu, -float(w @ loss)

    beta = np.zeros(p)
    if off is None:
        # The intercept-only MLE (see Notes).  zbar is a sum of w * z, not
        # w @ z: for a response of all ones it then adds the very terms of
        # w.sum(), so it is exactly 1 and the fit starts at zero, as for a
        # response of all zeros.
        zbar = float((w * z).sum() / w.sum())
        if 0.0 < zbar < 1.0:
            for j in range(p):
                if (X[:, j] == 1.0).all():
                    beta[j] = math.log(zbar) - math.log1p(-zbar)
                    break
        eta = X @ beta
    else:
        eta = off
    _, mu, ll = state(eta)
    score = XT @ weigh(z - mu)
    max_abs_score = float(np.abs(score).max())
    converged = max_abs_score < SCORE_TOL
    it = 0
    while not converged and it < MAX_ITER:
        it += 1
        # Fisher information with a ridge on the diagonal for rank safety.
        wfisher = weigh(mu) * (1.0 - mu)
        if p == 1:
            step = score / (wfisher @ xx + RIDGE)
        else:
            hess = (XT * wfisher) @ X
            hess.flat[:: p + 1] += RIDGE
            try:
                step = np.linalg.solve(hess, score)
            except np.linalg.LinAlgError:
                raise RankDeficient(
                    f"ridged Fisher information is singular at iteration {it} "
                    f"on the {m} weighted rows"
                ) from None

        floor = ll - LL_RTOL * abs(ll)
        for _ in range(MAX_HALVINGS + 1):
            cand = beta + step
            cand_eta = X @ cand if off is None else X @ cand + off
            abs_eta, cand_mu, cand_ll = state(cand_eta)
            if not cand_ll < floor:  # a NaN likelihood ends the search too
                break
            step = 0.5 * step
        beta, eta, mu, ll = cand, cand_eta, cand_mu, cand_ll

        score = XT @ weigh(z - mu)
        max_abs_score = float(np.abs(score).max())
        # A vanishing score proves nothing when every weighted row sits at
        # its matching boundary: the likelihood is degenerate and the MLE
        # lies at infinity, so report separation instead of convergence.
        # Saturation needs |eta| > logit(1 - 1e-8) = 18.42 on every row,
        # so the rows are examined only once min |eta| passes 18.
        min_abs_eta = float(abs_eta.min())
        if min_abs_eta > 18.0 and (
            ((z > 0.5) & (mu > 1.0 - 1e-8)) | ((z < 0.5) & (mu < 1e-8))
        ).all():
            raise SeparationDetected(
                f"fitted probabilities saturated at the response boundary on "
                f"all weighted rows at iteration {it} (degenerate likelihood)"
            )
        if max_abs_score < SCORE_TOL:
            converged = True
            break
        if min_abs_eta > ETA_DIVERGED:
            raise SeparationDetected(
                f"all weighted linear predictors exceed |{ETA_DIVERGED}| at "
                f"iteration {it} with score {max_abs_score:.3e} still above "
                f"{SCORE_TOL:.0e}"
            )
    return GlmFit(
        coefficients=beta,
        converged=converged,
        iterations=it,
        max_abs_score=max_abs_score,
    )

