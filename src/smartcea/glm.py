"""Weighted logistic regression via iteratively reweighted least squares.

Hand-rolled on purpose: the estimators need exact control over prior weights,
offsets, and fractional (quasibinomial) responses, and must fail loudly on
separation or rank deficiency rather than silently regularize.  Responses may
be any values in [0, 1]; prior weights may be zero for most rows (as with
inverse-probability fluctuation weights).
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


def _log_likelihood(z, mu, w) -> float:
    mu = np.clip(mu, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.sum(w * (z * np.log(mu) + (1.0 - z) * np.log1p(-mu))))


def fit_logistic(design, response, weights=None, offset=None) -> GlmFit:
    """Fit E[response | design] = expit(design @ beta + offset) by IRLS.

    Parameters
    ----------
    design : array_like, shape (n, p)
        Include the intercept column explicitly.
    response : array_like, shape (n,)
        Values in [0, 1]; fractional responses fit the quasibinomial score.
    weights : array_like, optional
        Nonnegative prior weights, not all zero.  Zero-weight rows do not
        contribute to the fit.
    offset : array_like, optional
        Fixed additive term on the linear predictor.

    Returns
    -------
    GlmFit
        Converged when the maximum absolute weighted score drops below
        1e-8; otherwise returns after 100 iterations with converged=False.

    Raises
    ------
    RankDeficient
        If the ridged normal equations (ridge 1e-10 on the diagonal) are
        still singular, or the weighted design has rank below p.
    SeparationDetected
        If every weighted fitted probability saturates at its response's
        boundary (degenerate likelihood, MLE at infinity), or the score
        will not converge while |linear predictor| exceeds 30 on every
        weighted row.

    Notes
    -----
    Each Newton step is safeguarded by halving (at most 10 times) whenever
    the weighted log-likelihood decreases; after ten halvings the reduced
    step is accepted as-is and the score criterion decides convergence.
    """
    X = _as_matrix(design)
    n, p = X.shape
    z = np.asarray(response, dtype=np.float64)
    if z.shape != (n,):
        raise ValueError("response length does not match design")
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("responses must lie in [0, 1]")
    if n < p:
        raise ValueError(f"need at least as many rows ({n}) as columns ({p})")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("weights length does not match design")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise ValueError("weights must not be all zero")
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=np.float64)
    if off.shape != (n,):
        raise ValueError("offset length does not match design")

    supported = w > 0.0
    if np.linalg.matrix_rank(X[supported]) < p:
        raise RankDeficient(
            f"design has rank < {p} on the {int(supported.sum())} weighted rows"
        )

    beta = np.zeros(p)
    eta = X @ beta + off
    mu = expit(eta)
    ll = _log_likelihood(z, mu, w)
    score = X.T @ (w * (z - mu))
    max_abs_score = float(np.max(np.abs(score)))
    converged = max_abs_score < SCORE_TOL
    it = 0
    while not converged and it < MAX_ITER:
        it += 1
        # Fisher information with a ridge on the diagonal for rank safety.
        wfisher = w * mu * (1.0 - mu)
        hess = (X * wfisher[:, None]).T @ X
        hess[np.diag_indices_from(hess)] += RIDGE
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError as err:
            raise RankDeficient(str(err)) from None

        cand = beta + step
        cand_eta = X @ cand + off
        cand_mu = expit(cand_eta)
        cand_ll = _log_likelihood(z, cand_mu, w)
        halvings = 0
        while cand_ll < ll and halvings < MAX_HALVINGS:
            step = 0.5 * step
            cand = beta + step
            cand_eta = X @ cand + off
            cand_mu = expit(cand_eta)
            cand_ll = _log_likelihood(z, cand_mu, w)
            halvings += 1
        beta, eta, mu, ll = cand, cand_eta, cand_mu, cand_ll

        score = X.T @ (w * (z - mu))
        max_abs_score = float(np.max(np.abs(score)))
        # A vanishing score proves nothing when every weighted row sits at
        # its matching boundary: the likelihood is degenerate and the MLE
        # lies at infinity, so report separation instead of convergence.
        zs, ms = z[supported], mu[supported]
        if np.all(((zs > 0.5) & (ms > 1.0 - 1e-8)) | ((zs < 0.5) & (ms < 1e-8))):
            raise SeparationDetected(
                f"fitted probabilities saturated at the response boundary on "
                f"all weighted rows at iteration {it} (degenerate likelihood)"
            )
        if max_abs_score < SCORE_TOL:
            converged = True
            break
        if np.all(np.abs(eta[supported]) > ETA_DIVERGED):
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


def predict(fit: GlmFit, design, offset=None) -> np.ndarray:
    """expit(design @ coefficients + offset), clamped to [1e-12, 1 - 1e-12]."""
    X = _as_matrix(design)
    if X.shape[1] != fit.coefficients.shape[0]:
        raise ValueError(
            f"design has {X.shape[1]} columns, fit expects "
            f"{fit.coefficients.shape[0]}"
        )
    eta = X @ fit.coefficients
    if offset is not None:
        off = np.asarray(offset, dtype=np.float64)
        if off.shape != (X.shape[0],):
            raise ValueError("offset length does not match design")
        eta = eta + off
    return np.clip(expit(eta), PROB_CLAMP, 1.0 - PROB_CLAMP)
