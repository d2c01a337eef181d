"""Two-step GMM estimation with its overidentification test, and the
information projection of a reference distribution onto a moment constraint
set, once an exact LP in numpy (``_hull_interior_margin``) finds it feasible.

A sample is a ``Dataset``: rows with integer counts, most cheaply the
support with its count vector.  Sample moments are count-weighted sums of
one vectorised moment evaluation over the rows; a row with count zero adds
exact zeros.  Each GMM step minimises its weighted objective by damped
Newton (``_newton``), whose Hessian takes the second derivatives of the
moments from central differences of the vectorised Jacobian.  A Newton step
costs O(S) array work: one Jacobian evaluation, on the (1 + 2p, p) stack of
theta and its difference points, two p x p Cholesky factorisations at most,
and moment-only evaluations for the line-search trials.  Where the residual
is large, Gauss-Newton converges only linearly; Newton converges
quadratically and stops at the exact minimiser up to rounding.  Each step
records why it stopped (``GmmEstimate.stop_reasons``).  Every
positive-definite system here (the Newton and Gauss-Newton steps, SigmaHat,
the sample information and the dual Hessian of ``kl_projection``) is
factored by ``linalg._cholesky``, whose pivot test is also the verdict: a
system it cannot factor is refused, with no eigenvalue check beside it.  The
population objects (efficient score, information, influence) live on the
instance's design (``scores.moment_design``), not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chi2 import TestStatistic
from .dist import Dataset, DiscreteDistribution, make_distribution
from .errors import (
    Infeasible,
    NoConvergence,
    RankDeficientJacobian,
    ShapeMismatch,
    SingularSigmaHat,
)
from .linalg import _cholesky
from .models import MomentModel

FIRST_ORDER_TOL = 1e-13
DECREMENT_TOL = 1e-12
FINAL_STEPS = 2
STEP_TOL = 1e-12
MAX_ITER = 200
MAX_HALVINGS = 40

# Why a minimisation stopped.  The first three end it converged.
FIRST_ORDER = "first-order"
STEP = "step"
DECREMENT = "decrement"
ITERATION_CAP = "iteration cap"
NOT_POSITIVE_DEFINITE = "not positive definite"
LINE_SEARCH = "line search"
CONVERGED_REASONS = frozenset({FIRST_ORDER, STEP, DECREMENT})


@dataclass(frozen=True)
class GmmEstimate:
    """Result of two-step GMM: parameter, moment variance, information, and
    ``j``, Hansen's (1982) overidentification test with l - p dof.

    ``stop_reasons`` says why step one and step two stopped, each one of
    the reason strings of this module; ``converged`` holds when both are in
    ``CONVERGED_REASONS``.  ``iterations`` counts the steps (Newton or
    Gauss-Newton) that both minimisations took.
    """

    theta_hat: np.ndarray
    sigma_hat: np.ndarray
    info_hat: np.ndarray
    j: TestStatistic
    converged: bool
    iterations: int
    stop_reasons: tuple[str, str]


def _jacobians(
    model: MomentModel, pts: np.ndarray, w: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, D, widths) from one Jacobian evaluation on the (1 + 2p, p) stack
    theta, theta + h e_j, theta - h e_j: G the weighted Jacobian at theta, D
    (p, l, p) with D[j] = G(theta + h e_j) - G(theta - h e_j), and widths[j]
    the step as rounded in theta, not 2h."""
    p, t = model.p, theta.tolist()  # the stack is built in Python floats: a few us, not tens
    h = [6e-6 * max(1.0, abs(x)) for x in t]  # about eps^(1/3), the central-difference optimum
    ups = [[x + h[j] if i == j else x for i, x in enumerate(t)] for j in range(p)]
    dns = [[x - h[j] if i == j else x for i, x in enumerate(t)] for j in range(p)]
    g = w @ model.jacobians_at(np.array([t, *ups, *dns]), pts).reshape(2 * p + 1, len(pts), -1)
    g = g.reshape(2 * p + 1, model.l, p)
    return g[0], g[1 : p + 1] - g[p + 1 :], np.array([ups[j][j] - dns[j][j] for j in range(p)])


@dataclass(frozen=True)
class _Minimum:
    """Where a weighted minimisation stopped, with the moments there and the
    Jacobian evaluation ``jac`` = (gbar, diffs, widths) of ``_jacobians``."""

    theta: np.ndarray
    m_vals: np.ndarray  # (S, l): moments at theta on the sample rows
    mbar: np.ndarray
    jac: tuple[np.ndarray, np.ndarray, np.ndarray]
    steps: int
    reason: str


def _newton(
    model: MomentModel,
    pts: np.ndarray,
    w: np.ndarray,
    weight: np.ndarray,
    theta: np.ndarray,
    m_vals: np.ndarray,
    jac: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> _Minimum:
    """Minimise mbar(theta)' W mbar(theta) by damped Newton from ``theta``.

    The Hessian is 2 (G'WG + sum_k (W mbar)_k d^2 mbar_k), its second-order
    term from the central differences of G: column j is (W mbar)' times
    difference j over its width, then symmetrised.  Where it is not positive
    definite the Gauss-Newton step (normal matrix G'WG) is taken; where the
    normal matrix is not positive definite either, the search stops
    (NOT_POSITIVE_DEFINITE).
    A step is accepted on sufficient decrease: Armijo with constant 1/4,
    halving up to MAX_HALVINGS times, else the search stops (LINE_SEARCH).

    Once a step's predicted decrease is at most DECREMENT_TOL times
    |W mbar|' (sum_s w_s |m_s|), that step and every later one is applied
    without a line search.  That sum bounds the objective, and eps times it
    bounds the objective's rounding error (cancellation in mbar included), so
    below it the line search could no longer resolve a step.  Newton
    converges quadratically there, and the search stops at rounding level
    after FINAL_STEPS such steps (DECREMENT).

    Every iterate is first tested for the scale-free first-order condition
    ||G'W mbar|| <= FIRST_ORDER_TOL ||G|| ||W mbar|| (FIRST_ORDER).  A step
    shorter than STEP_TOL is applied without a line search, and so ends the
    search, as does a line-searched step that moves theta by less than
    STEP_TOL (STEP).  An iterate reached after MAX_ITER steps ends it too
    (ITERATION_CAP).  FIRST_ORDER, DECREMENT and STEP count as converged.
    It takes the moments and the Jacobian evaluation at ``theta`` (``m_vals``,
    ``jac``) and hands back those at the returned theta: one Jacobian
    evaluation per step.
    """
    gbar, diffs, widths = jac
    steps = 0
    unsearched = 0  # steps applied without a line search
    reason = None
    while True:
        mbar = w @ m_vals
        wm = weight @ mbar
        rhs = gbar.T @ wm  # half the gradient
        if reason is None:
            if rhs @ rhs <= FIRST_ORDER_TOL**2 * np.vdot(gbar, gbar) * (wm @ wm):
                reason = FIRST_ORDER
            elif unsearched == FINAL_STEPS:
                reason = DECREMENT
            elif steps == MAX_ITER:
                reason = ITERATION_CAP
            else:
                normal = gbar.T @ weight @ gbar
                curvature = (wm @ diffs) / widths[:, None]  # row j holds column j
                step = _cholesky(normal + 0.5 * (curvature + curvature.T), rhs)
                if step is None:  # the Hessian is not positive definite: Gauss-Newton
                    step = _cholesky(normal, rhs)
                if step is None:
                    reason = NOT_POSITIVE_DEFINITE
                else:
                    step = -step
        if reason is not None:
            return _Minimum(theta, m_vals, mbar, jac, steps, reason)
        steps += 1
        obj = mbar @ wm
        slope = 2.0 * (rhs @ step)
        bound = np.abs(wm) @ (w @ np.abs(m_vals))  # >= obj; eps * bound >= obj's rounding error
        if unsearched or -slope <= 2.0 * DECREMENT_TOL * bound:
            unsearched += 1
        elif step @ step < STEP_TOL**2:
            reason = STEP
        if unsearched or reason is not None:
            theta = theta + step
            m_vals = model.moments_at(theta, pts)
        else:
            alpha = 1.0
            for _ in range(MAX_HALVINGS):
                cand = theta + alpha * step
                m_c = model.moments_at(cand, pts)
                mbar_c = w @ m_c
                if mbar_c @ weight @ mbar_c <= obj + 0.25 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                return _Minimum(theta, m_vals, mbar, jac, steps, LINE_SEARCH)
            moved = cand - theta
            if moved @ moved < STEP_TOL**2:
                reason = STEP
            theta, m_vals = cand, m_c
        jac = gbar, diffs, widths = _jacobians(model, pts, w, theta)


def estimate_gmm(data: Dataset, model: MomentModel, theta_init) -> GmmEstimate:
    """Classic two-step GMM.

    Step one minimizes the identity-weighted moment norm from ``theta_init``,
    which must have shape (p,) (else ``ShapeMismatch``); the moment variance
    is estimated there and held fixed while step two minimizes the
    efficiently weighted objective from the step-one estimate.  Both steps
    run ``_newton``, which hands back the moments and the Jacobian evaluation
    at its minimiser: step two starts from them, and neither is evaluated
    again, so an estimate makes ``iterations + 1`` Jacobian calls.  The J
    test, n * mbar' SigmaHat^{-1} mbar (at least 0) with the same fixed
    weight, has l - p dof (none, never rejecting, at l = p).  SigmaHat and
    the sample information are refused (``SingularSigmaHat``,
    ``RankDeficientJacobian``) when ``_cholesky``, which also forms the
    weight, does not factor them: the rule every positive-definite system in
    the library is held to.  A failed line search, a normal matrix that is
    not positive definite or the iteration cap yields ``converged=False``
    rather than an exception; ``stop_reasons`` records which.
    """
    theta_init = np.array(theta_init, dtype=float)
    if theta_init.shape != (model.p,):
        raise ShapeMismatch(f"theta_init has shape {theta_init.shape}, expected ({model.p},)")
    if data.n <= model.l:
        raise ValueError(f"need n > l, got n={data.n}, l={model.l}")
    pts, w = data.rows, data.counts / data.n
    m_init, jac_init = model.moments_at(theta_init, pts), _jacobians(model, pts, w, theta_init)
    first = _newton(model, pts, w, np.eye(model.l), theta_init, m_init, jac_init)
    sigma_hat = (first.m_vals.T * w) @ first.m_vals
    sigma_hat = 0.5 * (sigma_hat + sigma_hat.T)
    weight = _cholesky(sigma_hat, np.eye(model.l))
    if weight is None:
        raise SingularSigmaHat("first-step moment variance is singular")
    weight = 0.5 * (weight + weight.T)
    second = _newton(model, pts, w, weight, first.theta, first.m_vals, first.jac)
    mbar, gbar = second.mbar, second.jac[0]
    j_value = float(data.n * mbar @ weight @ mbar)
    info_hat = gbar.T @ weight @ gbar
    info_hat = 0.5 * (info_hat + info_hat.T)
    if _cholesky(info_hat, np.eye(model.p)) is None:
        raise RankDeficientJacobian("sample information matrix is singular")
    return GmmEstimate(
        theta_hat=second.theta,
        sigma_hat=sigma_hat,
        info_hat=info_hat,
        j=TestStatistic(value=max(j_value, 0.0), dof=model.l - model.p),
        converged=first.reason in CONVERGED_REASONS and second.reason in CONVERGED_REASONS,
        iterations=first.steps + second.steps,
        stop_reasons=(first.reason, second.reason),
    )


# --- information projection -----------------------------------------------------


SIMPLEX_PIVOT_TOL = 1e-12  # a pivot exceeds it; an entering reduced cost is below minus it
SIMPLEX_FEASIBILITY_TOL = 1e-9  # the largest phase-one residual of a feasible system


def _pivot(tab: np.ndarray, basis: list[int], i: int, j: int) -> None:
    """Make column j of the tableau basic in row i, in place."""
    tab[i] /= tab[i, j]
    tab -= np.outer(tab[:, j] - np.eye(len(tab))[i], tab[i])
    basis[i] = j


def _bland(tab: np.ndarray, basis: list[int], columns: int) -> None:
    """Pivot by Bland's rule (Bland 1977), which cannot cycle, until no
    reduced cost (last row) among the first ``columns`` improves.  Both LPs
    are bounded below, so an improving column with no pivot is rounding."""
    while True:
        improving = np.flatnonzero(tab[-1, :columns] < -SIMPLEX_PIVOT_TOL)
        j = next((j for j in improving if np.max(tab[:-1, j]) > SIMPLEX_PIVOT_TOL), None)
        if j is None:
            return
        rows = np.flatnonzero(tab[:-1, j] > SIMPLEX_PIVOT_TOL)
        ratios = tab[rows, -1] / tab[rows, j]
        ties = rows[ratios <= ratios.min() + SIMPLEX_PIVOT_TOL]
        _pivot(tab, basis, min(ties, key=basis.__getitem__), j)


def _hull_interior_margin(m_vals: np.ndarray) -> float:
    """LP margin for 0 being interior to the convex hull of the rows of m_vals:
    max t subject to sum_s a_s m_s = 0, sum_s a_s = 1, a_s >= t, positive
    exactly when a strictly positive mixture of the rows hits zero.

    With b = a - t 1 it is (1 - min 1'b) / S over b >= 0 with
    sum_s b_s (m_s - mbar) = -mbar, or -1 where no such b exists.  Each row
    is divided by its largest entry, right side included (rescaling a moment
    leaves the verdict), and signed so the right side is >= 0.  Phase one of
    the simplex drives l artificial columns to zero and pivots out those
    still basic where their row allows; phase two minimises 1'b.
    """
    s, l = m_vals.shape
    mbar = m_vals.mean(axis=0)
    tab = np.zeros((l + 1, s + l + 1))  # constraint rows, then reduced costs; right side last
    tab[:l, :s], tab[:l, -1] = (m_vals - mbar).T, -mbar
    scale = np.max(np.abs(tab[:l]), axis=1)
    tab[:l] /= np.copysign(np.where(scale > 0.0, scale, 1.0), tab[:l, -1])[:, None]
    tab[:l, s:-1] = np.eye(l)
    tab[-1] = np.r_[np.zeros(s), np.ones(l), 0.0] - tab[:l].sum(axis=0)
    basis = list(range(s, s + l))
    _bland(tab, basis, s + l)
    if -tab[-1, -1] > SIMPLEX_FEASIBILITY_TOL:
        return -1.0
    for i in range(l):  # an artificial column left basic marks a redundant row
        pivots = np.flatnonzero(np.abs(tab[i, :s]) > SIMPLEX_PIVOT_TOL)
        if basis[i] >= s and pivots.size:
            _pivot(tab, basis, i, pivots[0])
    tab[-1] = np.r_[np.ones(s), np.zeros(l + 1)] - (np.array(basis) < s) @ tab[:l]
    _bland(tab, basis, s)
    return float((1.0 + tab[-1, -1]) / s)


def kl_projection(
    eta: DiscreteDistribution, model: MomentModel, theta
) -> tuple[DiscreteDistribution, np.ndarray]:
    """Project ``eta`` onto the set of distributions with zero mean moments at ``theta``.

    The projection minimizes the Kullback-Leibler divergence to ``eta`` and has
    the exponential-tilt form eta * exp(lambda' m) / normalizer, with lambda
    minimizing the convex potential integral exp(lambda' m) d eta; Newton with
    a halving line search solves the dual.  Raises ``Infeasible`` unless zero
    is interior to the hull of the moment values, an LP margin above 1e-12.
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
        step = _cholesky(hess, -grad)
        if step is None:
            raise NoConvergence("singular Hessian in the dual Newton solve")
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
