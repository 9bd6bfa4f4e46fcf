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
"""

from __future__ import annotations

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
    "predict",
]

SCORE_TOL = 1e-8
# A Newton step is halved only when it lowers the log-likelihood by more than
# this share of its magnitude, which is above the rounding error of the sum.
LL_RTOL = 1e-12
MAX_ITER = 100
RIDGE = 1e-10
MAX_HALVINGS = 10
ETA_DIVERGED = 30.0
PROB_CLAMP = 1e-12


class SeparationDetected(EstimationFailure):
    """The likelihood has no interior maximum: fitted probabilities are
    saturating on every weighted row while the score refuses to vanish."""


class RankDeficient(EstimationFailure):
    """The weighted normal equations are singular beyond the ridge guard."""


def expit(x):
    """Numerically stable inverse logit, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x) below.
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def logit(p):
    """Log odds, elementwise; requires p strictly inside (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
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
        always has with fewer weighted rows than columns).
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
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("weights length does not match design")
    if w.min() < 0.0:
        raise ValueError("weights must be nonnegative")
    if not np.isfinite(w.max()):
        raise ValueError("weights must be finite")
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=np.float64)
    if off.shape != (n,):
        raise ValueError("offset length does not match design")
    if not np.isfinite(off).all():
        raise ValueError("offset must be finite")
    if not np.isfinite(X).all():
        raise ValueError("design must be finite")

    rows = np.flatnonzero(w > 0.0)
    m = rows.size
    if m == 0:
        raise ValueError("weights must not be all zero")
    if m < n:
        X, z, w, off = X.take(rows, axis=0), z.take(rows), w.take(rows), off.take(rows)
    if p == 1:
        x = X[:, 0]
        if not x.any():
            raise RankDeficient(f"design has rank < 1 on the {m} weighted rows")
        xx = x * x
    elif np.linalg.matrix_rank(X) < p:
        raise RankDeficient(f"design has rank < {p} on the {m} weighted rows")
    XT = X.T
    z_hi = z > 0.5
    z_lo = z < 0.5

    def state(eta):
        # mu = expit(eta) and ll = sum w (z eta - softplus(eta)) from one
        # e = exp(-|eta|); softplus(eta) = max(eta, 0) + log1p(e), and the
        # max(eta, 0) - z eta term cancels exactly on saturated rows.
        e = np.exp(-np.abs(eta))
        up = eta >= 0.0
        mu = np.where(up, 1.0, e)
        mu /= 1.0 + e
        loss = np.where(up, eta, 0.0) - z * eta + np.log1p(e)
        return mu, -float(w @ loss)

    beta = np.zeros(p)
    eta = off
    mu, ll = state(eta)
    score = XT @ (w * (z - mu))
    max_abs_score = float(np.abs(score).max())
    converged = max_abs_score < SCORE_TOL
    it = 0
    while not converged and it < MAX_ITER:
        it += 1
        # Fisher information with a ridge on the diagonal for rank safety.
        wfisher = w * mu * (1.0 - mu)
        if p == 1:
            step = score / (wfisher @ xx + RIDGE)
        else:
            hess = (XT * wfisher) @ X
            hess.flat[:: p + 1] += RIDGE
            try:
                step = np.linalg.solve(hess, score)
            except np.linalg.LinAlgError as err:
                raise RankDeficient(str(err)) from None

        cand = beta + step
        cand_eta = X @ cand + off
        cand_mu, cand_ll = state(cand_eta)
        floor = ll - LL_RTOL * abs(ll)
        halvings = 0
        while cand_ll < floor and halvings < MAX_HALVINGS:
            step = 0.5 * step
            cand = beta + step
            cand_eta = X @ cand + off
            cand_mu, cand_ll = state(cand_eta)
            halvings += 1
        beta, eta, mu, ll = cand, cand_eta, cand_mu, cand_ll

        score = XT @ (w * (z - mu))
        max_abs_score = float(np.abs(score).max())
        # A vanishing score proves nothing when every weighted row sits at
        # its matching boundary: the likelihood is degenerate and the MLE
        # lies at infinity, so report separation instead of convergence.
        # Saturation needs |eta| > logit(1 - 1e-8) = 18.42 on every row,
        # so the rows are examined only once min |eta| passes 18.
        min_abs_eta = float(np.abs(eta).min())
        if min_abs_eta > 18.0 and (
            (z_hi & (mu > 1.0 - 1e-8)) | (z_lo & (mu < 1e-8))
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


def predict(fit: GlmFit, design) -> np.ndarray:
    """expit(design @ coefficients), clamped to [1e-12, 1 - 1e-12].

    A fit with an offset is evaluated by its caller, which holds the offset.
    """
    X = _as_matrix(design)
    if X.shape[1] != fit.coefficients.shape[0]:
        raise ValueError(
            f"design has {X.shape[1]} columns, fit expects "
            f"{fit.coefficients.shape[0]}"
        )
    return np.clip(expit(X @ fit.coefficients), PROB_CLAMP, 1.0 - PROB_CLAMP)
