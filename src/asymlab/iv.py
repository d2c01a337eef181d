"""OLS and 2SLS for the linear IV design, and the estimator-contrast test.

Variance matrices are the homoskedastic forms throughout: the efficiency
claims that make the contrast test work (OLS efficient under exogeneity,
2SLS efficient under instrument validity) hold only in that setting, so
sandwich variances are deliberately out of scope.  A sample is a
``Dataset``: rows laid out as (y, x1, x2, z1) with integer counts, and every
cross-product and residual sum weights a row by its count, so a sample on a
finite support can be passed as the support and its count vector.  The
estimators read the sample's Gram G = rows' C rows, C the counts, and
factor X'X, Z'Z and X'P_Z X from it once each by ``linalg._cholesky``, as
every GMM system is; a matrix it cannot factor is refused by its named
error, a verdict that does not change when a regressor or an instrument is
rescaled, and the DWH rank is that rule too (``linalg._contrast_solve``).
The population design (``scores.iv_design``) runs the same two solves on
G = E[rows rows'].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .chi2 import TestStatistic
from .dist import Dataset
from .errors import RankDeficientFirstStage, ShapeMismatch, SingularDesign, SingularInstrumentGram
from .linalg import PIVOT_TOL, _cholesky, _contrast_solve
from .models import IVModel


def write_csv(data: Dataset, model: IVModel, path) -> None:
    """Write the sample with header y,x1_1..,x2_1..,z1_1.., one line per
    observation: each row repeated by its count, in row order."""
    k1, k2, q = model.dims
    if data.dim != model.point_dim:
        raise ShapeMismatch(f"rows have width {data.dim}, expected {model.point_dim}")
    header = (
        ["y"]
        + [f"x1_{j + 1}" for j in range(k1)]
        + [f"x2_{j + 1}" for j in range(k2)]
        + [f"z1_{j + 1}" for j in range(q)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.repeat(data.rows, data.counts, axis=0).tolist())


@dataclass(frozen=True)
class LinearEstimate:
    """A linear estimator's coefficients, asymptotic variance of sqrt(n) * error,
    and residual variance."""

    beta: np.ndarray
    vcov: np.ndarray
    sigma_sq_hat: float


def _design(data: Dataset, model: IVModel):
    """y, X and G = rows' C rows, C the counts, of a sample; refuses one
    with no more observations than columns, and (``ValueError``) one with a
    row that is not finite."""
    y, X, _ = model.design_matrices(data.rows)
    if data.n <= model.point_dim - 1:
        raise ShapeMismatch("need more observations than total columns")
    if not np.isfinite(data.rows).all():
        raise ValueError("sample rows must be finite")
    return y, X, (data.rows * data.counts[:, None]).T @ data.rows


def _least_squares(gram: np.ndarray, model: IVModel) -> np.ndarray:
    """[b | (X'X)^{-1}] (p, 1 + p) from the Gram ``gram`` of the rows, a
    sample's or the population's; ``SingularDesign`` unless X'X factors."""
    x, p = slice(1, 1 + model.n_params), model.n_params
    solved = _cholesky(gram[x, x], np.column_stack([gram[x, 0], np.eye(p)]))
    if solved is None:
        raise SingularDesign("X'X is singular")
    return solved


def _two_stage(gram: np.ndarray, model: IVModel) -> tuple[np.ndarray, np.ndarray]:
    """((Z'Z)^{-1} [Z'y | Z'X] (q + k2, 1 + p), [b | (X'P_Z X)^{-1}] (p, 1 + p))
    from the Gram of the rows; ``SingularInstrumentGram`` unless Z'Z
    factors, ``RankDeficientFirstStage`` unless X'P_Z X does."""
    z, p = model._z_columns, model.n_params
    zg = gram[z]  # Z' rows
    first = _cholesky(zg[:, z], zg[:, : 1 + p])
    if first is None:
        raise SingularInstrumentGram("Z'Z is singular")
    xp = zg[:, 1 : 1 + p].T @ first  # X' P_Z [y | X]
    solved = _cholesky(xp[:, 1:], np.column_stack([xp[:, 0], np.eye(p)]))
    if solved is None:
        raise RankDeficientFirstStage("instruments do not span the regressors")
    return first, solved


def _fit(data: Dataset, y, X, solved) -> LinearEstimate:
    """The estimate from ``solved``, the solution of the normal equations
    next to their matrix's inverse, with its residual variance and
    sqrt(n)-scaled variance."""
    beta = solved[:, 0]
    resid = y - X @ beta
    sigma_sq = float(data.counts @ resid**2) / data.n
    vcov = sigma_sq * data.n * solved[:, 1:]
    return LinearEstimate(beta=beta, vcov=0.5 * (vcov + vcov.T), sigma_sq_hat=sigma_sq)


def estimate_ols(data: Dataset, model: IVModel) -> LinearEstimate:
    """Least squares of y on X = [x1, x2] with homoskedastic variance."""
    y, X, gram = _design(data, model)
    return _fit(data, y, X, _least_squares(gram, model))


def estimate_2sls(data: Dataset, model: IVModel) -> LinearEstimate:
    """Two-stage least squares with instruments Z = [z1, x2]."""
    y, X, gram = _design(data, model)
    return _fit(data, y, X, _two_stage(gram, model)[1])


def dwh_statistic(
    data: Dataset, model: IVModel, ols: LinearEstimate, tsls: LinearEstimate
) -> TestStatistic:
    """Contrast test n d' (V_2sls - V_ols)^{-1} d with k1 dof, d the x1
    part of b_ols - b_2sls (both residuals are orthogonal to x2, so the x2
    part is a fixed map of it) and V the x1 blocks of the two variances at
    the 2SLS residual variance, whose difference is then positive
    semidefinite.  The statistic is 0 with no dof on an exact fit, where
    the OLS residual sum n sigma_ols^2, the pivot of y after X in the Gram
    of [X, y], is not above PIVOT_TOL times sum c y^2 (``_cholesky``'s
    rule), and where ``linalg._contrast_solve`` (the population DWH basis's
    rule) finds the contrast not positive definite."""
    if ols.beta.shape != tsls.beta.shape:
        raise ShapeMismatch("estimates have different parameter dimensions")
    k1 = model.k1
    delta = (ols.beta - tsls.beta)[:k1]
    if not data.n * ols.sigma_sq_hat > PIVOT_TOL * float(data.counts @ data.rows[:, 0] ** 2):
        return TestStatistic(value=0.0, dof=0)
    # rescale the OLS variance to the 2SLS residual variance
    ratio = tsls.sigma_sq_hat / ols.sigma_sq_hat
    solved = _contrast_solve(ratio * ols.vcov[:k1, :k1], tsls.vcov[:k1, :k1], delta)
    if solved is None:
        return TestStatistic(value=0.0, dof=0)
    return TestStatistic(value=max(float(data.n * delta @ solved), 0.0), dof=k1)
