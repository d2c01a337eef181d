"""Two-step GMM estimation, the overidentification statistic, and the
information-projection of a reference distribution onto a moment constraint set.

Estimation works on (distinct point, frequency) pairs: ``_compress`` groups
a sample's rows and sums their counts, so a sample on a finite support --
most cheaply passed as the support with its count vector -- reduces to S
points.  Sample moments are then frequency-weighted sums of one vectorised
moment evaluation, and each Gauss-Newton step costs O(S) array work: one
moment and one Jacobian evaluation, a Cholesky test of the normal matrix,
and moment-only evaluations for the line-search trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .chi2 import TestStatistic
from .dist import Dataset, DiscreteDistribution, make_distribution
from .errors import (
    DegenerateDof,
    Infeasible,
    NoConvergence,
    RankDeficientJacobian,
    SingularSigmaHat,
)
from .models import MomentModel
from .scores import (
    ScoreFunction,
    _population_moment_objects,
    centered_score,
    gmm_tangent_basis,
    project,
)

GRAD_TOL = 1e-10
STEP_TOL = 1e-12
MAX_ITER = 200
MAX_HALVINGS = 40


@dataclass(frozen=True)
class GmmEstimate:
    """Result of two-step GMM: parameter, moment variance, information, J value."""

    theta_hat: np.ndarray
    sigma_hat: np.ndarray
    info_hat: np.ndarray
    j_stat: float
    converged: bool
    iterations: int
    n: int
    l: int
    p: int


def efficient_influence(
    dist: DiscreteDistribution, model: MomentModel, theta0
) -> tuple[list[ScoreFunction], np.ndarray, list[ScoreFunction]]:
    """Efficient influence function, information matrix, and efficient score.

    The efficient score is -E[grad m]' Sigma^{-1} m evaluated on the support;
    the information is E[grad m]' Sigma^{-1} E[grad m]; the influence is the
    information inverse applied to the score.  Each influence coordinate is
    verified to lie in the model tangent space (projection residual < 1e-8).
    """
    theta0 = np.asarray(theta0, dtype=float)
    m_vals, sigma, gbar = _population_moment_objects(dist, model, theta0)
    ell = -m_vals @ np.linalg.solve(sigma, gbar)  # (S, p)
    info = gbar.T @ np.linalg.solve(sigma, gbar)
    info = 0.5 * (info + info.T)
    nu = ell @ np.linalg.inv(info)
    ell_scores = [centered_score(dist, ell[:, j]) for j in range(model.p)]
    nu_scores = [centered_score(dist, nu[:, j]) for j in range(model.p)]
    t_basis, _ = gmm_tangent_basis(dist, model, theta0)
    for j, f in enumerate(nu_scores):
        resid = (f - project(dist, f, t_basis)).norm()
        if resid > 1e-8:
            raise RankDeficientJacobian(
                f"influence coordinate {j} escapes the tangent space by {resid:.2e}"
            )
    return nu_scores, info, ell_scores


def _compress(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in sorted order and their sample frequencies.

    Rows are grouped with ``np.unique``, their counts summed, and rows whose
    total count is zero dropped.
    """
    pts, inverse = np.unique(data.rows, axis=0, return_inverse=True)
    totals = np.bincount(inverse.reshape(-1), weights=data.counts, minlength=pts.shape[0])
    keep = totals > 0
    return pts[keep], totals[keep] / data.n


def _weighted_moments(
    model: MomentModel, theta: np.ndarray, pts: np.ndarray, w: np.ndarray
) -> np.ndarray:
    return w @ model.moments_at(theta, pts)


def _weighted_jacobian(
    model: MomentModel, theta: np.ndarray, pts: np.ndarray, w: np.ndarray
) -> np.ndarray:
    g = model.jacobians_at(theta, pts)
    return (w @ g.reshape(g.shape[0], -1)).reshape(model.l, model.p)


def _gauss_newton(
    model: MomentModel,
    pts: np.ndarray,
    w: np.ndarray,
    theta_init: np.ndarray,
    weight: np.ndarray,
) -> tuple[np.ndarray, bool, int]:
    """Minimize mbar(theta)' W mbar(theta) by Gauss-Newton with a halving line search.

    A trial step is accepted on sufficient decrease (Armijo with constant
    1/4): the objective must fall by at least a quarter of what the gradient
    predicts for the step.  A normal matrix that is not positive definite, or
    a line search that finds no such step, ends the search unconverged.

    Convergence: gradient norm below GRAD_TOL, step norm below STEP_TOL, or
    the Newton decrement below the double-precision resolution of the
    objective (no representable improvement remains).
    """
    theta = np.asarray(theta_init, dtype=float).copy()
    mbar = _weighted_moments(model, theta, pts, w)
    for it in range(1, MAX_ITER + 1):
        gbar = _weighted_jacobian(model, theta, pts, w)
        gw = gbar.T @ weight
        rhs = gw @ mbar
        grad = 2.0 * rhs
        if np.linalg.norm(grad) < GRAD_TOL:
            return theta, True, it
        obj = mbar @ weight @ mbar
        normal = gw @ gbar
        try:
            np.linalg.cholesky(normal)  # raises unless positive definite
            step = -np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            return theta, False, it
        slope = grad @ step
        if -slope <= 1e-11 * max(obj, 1e-30):
            return theta, True, it
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            cand = model.clip_to_bounds(theta + alpha * step)
            m_c = _weighted_moments(model, cand, pts, w)
            if m_c @ weight @ m_c <= obj + 0.25 * alpha * slope:
                break
            alpha *= 0.5
        else:
            return theta, False, it
        moved = cand - theta
        theta, mbar = cand, m_c
        if np.linalg.norm(moved) < STEP_TOL:
            return theta, True, it
    return theta, False, MAX_ITER


def estimate_gmm(data: Dataset, model: MomentModel, theta_init) -> GmmEstimate:
    """Classic two-step GMM.

    Step one minimizes the identity-weighted moment norm from ``theta_init``;
    the moment variance is estimated there and held fixed while step two
    minimizes the efficiently weighted objective.  The overidentification
    value n * mbar' SigmaHat^{-1} mbar is computed with the same fixed weight.
    A failed line search or iteration cap yields ``converged=False`` rather
    than an exception.
    """
    theta_init = np.asarray(theta_init, dtype=float)
    if data.n <= model.l:
        raise ValueError(f"need n > l, got n={data.n}, l={model.l}")
    if not model.within_bounds(theta_init):
        raise ValueError("theta_init violates the parameter bounds")
    pts, w = _compress(data)
    theta1, conv1, it1 = _gauss_newton(model, pts, w, theta_init, np.eye(model.l))
    m_vals = model.moments_at(theta1, pts)
    sigma_hat = (m_vals.T * w) @ m_vals
    sigma_hat = 0.5 * (sigma_hat + sigma_hat.T)
    try:
        chol = scipy.linalg.cho_factor(sigma_hat)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        raise SingularSigmaHat("first-step moment variance is singular") from None
    weight = scipy.linalg.cho_solve(chol, np.eye(model.l))
    weight = 0.5 * (weight + weight.T)
    theta2, conv2, it2 = _gauss_newton(model, pts, w, theta1, weight)
    mbar = _weighted_moments(model, theta2, pts, w)
    gbar = _weighted_jacobian(model, theta2, pts, w)
    j_stat = float(data.n * mbar @ weight @ mbar)
    info_hat = gbar.T @ weight @ gbar
    info_hat = 0.5 * (info_hat + info_hat.T)
    if np.linalg.eigvalsh(info_hat)[0] <= 0.0:
        raise RankDeficientJacobian("sample information matrix is not positive definite")
    return GmmEstimate(
        theta_hat=theta2,
        sigma_hat=sigma_hat,
        info_hat=info_hat,
        j_stat=max(j_stat, 0.0),
        converged=bool(conv1 and conv2),
        iterations=it1 + it2,
        n=data.n,
        l=model.l,
        p=model.p,
    )


def j_statistic(data: Dataset, model: MomentModel, est: GmmEstimate) -> TestStatistic:
    """Overidentification test with l - p degrees of freedom."""
    if est.l != model.l or est.p != model.p or est.n != data.n:
        raise ValueError("estimate does not match the supplied data and model")
    dof = model.l - model.p
    if dof == 0:
        raise DegenerateDof("just-identified model: the J statistic has 0 dof")
    return TestStatistic(value=est.j_stat, dof=dof)


# --- information projection -----------------------------------------------------


def _hull_interior_margin(m_vals: np.ndarray) -> float:
    """LP margin for 0 being interior to the convex hull of the rows of m_vals.

    Maximizes t subject to sum_s a_s m_s = 0, sum_s a_s = 1, a_s >= t; the
    optimum is positive exactly when some strictly positive mixture of the
    moment values hits zero.
    """
    s, l = m_vals.shape
    # variables: (a_1..a_s, t); minimize -t
    c = np.zeros(s + 1)
    c[-1] = -1.0
    a_eq = np.zeros((l + 1, s + 1))
    a_eq[:l, :s] = m_vals.T
    a_eq[l, :s] = 1.0
    b_eq = np.zeros(l + 1)
    b_eq[l] = 1.0
    a_ub = np.hstack([-np.eye(s), np.ones((s, 1))])  # t - a_s <= 0
    b_ub = np.zeros(s)
    bounds = [(0.0, 1.0)] * s + [(-1.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        return -1.0
    return float(res.x[-1])


def kl_projection(
    eta: DiscreteDistribution, model: MomentModel, theta
) -> tuple[DiscreteDistribution, np.ndarray]:
    """Project ``eta`` onto the set of distributions with zero mean moments at ``theta``.

    The projection minimizes the Kullback-Leibler divergence to ``eta`` and has
    the exponential-tilt form eta * exp(lambda' m) / normalizer, with lambda
    minimizing the convex potential integral exp(lambda' m) d eta; Newton with
    a halving line search solves the dual.  Requires zero to be interior to
    the convex hull of the moment values on the support.
    """
    theta = np.asarray(theta, dtype=float)
    m_vals = model.moments_at(theta, eta.support)
    if _hull_interior_margin(m_vals) <= 1e-12:
        raise Infeasible("zero is not interior to the convex hull of the moment values")
    lam = np.zeros(model.l)
    w = eta.probs
    for _ in range(100):
        tilt = np.exp(m_vals @ lam)
        potential = math.fsum(w * tilt)
        grad = (w * tilt) @ m_vals
        if np.linalg.norm(grad) / potential < 1e-12:
            break
        hess = (m_vals.T * (w * tilt)) @ m_vals
        try:
            step = -scipy.linalg.solve(hess, grad, assume_a="pos")
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            raise NoConvergence("singular Hessian in the dual Newton solve") from None
        if -(grad @ step) <= 1e-14 * potential:
            # predicted decrease is below the float resolution of the
            # potential; the gradient still has full relative precision, so
            # the raw Newton step keeps contracting
            lam = lam + step
            continue
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            cand = lam + alpha * step
            pot_c = math.fsum(w * np.exp(m_vals @ cand))
            if pot_c < potential:
                break
            alpha *= 0.5
        else:
            raise NoConvergence("line search stalled in the dual Newton solve")
        lam = cand
    else:
        raise NoConvergence("dual Newton solve did not reach tolerance in 100 iterations")
    tilt = np.exp(m_vals @ lam)
    projected = make_distribution(eta.support, w * tilt)
    return projected, lam


def population_dataset(dist: DiscreteDistribution, copies: int = 1) -> Dataset:
    """A synthetic sample: the support with each atom counted ``copies * prob`` times.

    Only meaningful when ``copies * probs`` are integers (e.g. probabilities
    are multiples of 1/copies); used in tests as an 'infinite sample'.
    """
    counts = np.rint(dist.probs * copies).astype(int)
    if not np.allclose(counts / counts.sum(), dist.probs, atol=1e-12):
        raise ValueError("copies does not make every atom an integer count")
    return Dataset(dist.support, counts)
