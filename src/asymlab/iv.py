"""OLS and 2SLS for the linear IV design, and the estimator-contrast test.

Variance matrices are the homoskedastic forms throughout: the efficiency
claims that make the contrast test work (OLS efficient under exogeneity,
2SLS efficient under instrument validity) hold only in that setting, so
sandwich variances are deliberately out of scope.  A sample is a
``Dataset``: rows laid out as (y, x1, x2, z1) with integer counts, and every
cross-product and residual sum weights a row by its count, so a sample on a
finite support can be passed as the support and its count vector.  X'X,
Z'Z and X'P_Z X are each factored once by ``linalg._cholesky``, as every GMM
system is, and a matrix it cannot factor is refused by its named error: the
verdict does not change when a regressor or an instrument is rescaled,
and the DWH rank is that rule too (``linalg._contrast_solve``).  The
population influence functions of OLS and 2SLS and the DWH statistic
basis live on the instance's design (``scores.iv_design``), not here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .chi2 import TestStatistic
from .dist import Dataset
from .errors import RankDeficientFirstStage, ShapeMismatch, SingularDesign, SingularInstrumentGram
from .linalg import _cholesky, _contrast_solve
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
    """y, X and Z of a sample; refuses one with no more observations than
    columns, and (``ValueError``) one with a row that is not finite."""
    y, X, Z = model.design_matrices(data.rows)
    if data.n <= model.point_dim - 1:
        raise ShapeMismatch("need more observations than total columns")
    if not np.isfinite(data.rows).all():
        raise ValueError("sample rows must be finite")
    return y, X, Z


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
    y, X, _ = _design(data, model)
    cX = X * data.counts[:, None]
    solved = _cholesky(cX.T @ X, np.column_stack([cX.T @ y, np.eye(X.shape[1])]))
    if solved is None:
        raise SingularDesign("X'X is singular")
    return _fit(data, y, X, solved)


def estimate_2sls(data: Dataset, model: IVModel) -> LinearEstimate:
    """Two-stage least squares with instruments Z = [z1, x2]."""
    y, X, Z = _design(data, model)
    cZ = Z * data.counts[:, None]
    ztx = cZ.T @ X
    zty = cZ.T @ y
    first = _cholesky(cZ.T @ Z, np.hstack([ztx, zty[:, None]]))
    if first is None:
        raise SingularInstrumentGram("Z'Z is singular")
    xpx = ztx.T @ first[:, :-1]  # X' P_Z X
    xpy = ztx.T @ first[:, -1]
    solved = _cholesky(xpx, np.column_stack([xpy, np.eye(X.shape[1])]))
    if solved is None:
        raise RankDeficientFirstStage("instruments do not span the regressors")
    return _fit(data, y, X, solved)


def dwh_statistic(
    data: Dataset, model: IVModel, ols: LinearEstimate, tsls: LinearEstimate
) -> TestStatistic:
    """Contrast test n d' (V_2sls - V_ols)^{-1} d with k1 dof, d the x1
    part of b_ols - b_2sls (both residuals are orthogonal to x2, so the x2
    part is a fixed map of it) and V the x1 blocks of the two variances at
    the 2SLS residual variance, whose difference is then positive
    semidefinite.  Where ``linalg._contrast_solve`` (the population DWH
    basis's rule) finds it not positive definite, the statistic is 0 with
    no dof."""
    if ols.beta.shape != tsls.beta.shape:
        raise ShapeMismatch("estimates have different parameter dimensions")
    k1 = model.k1
    delta = (ols.beta - tsls.beta)[:k1]
    # rescale the OLS variance to the 2SLS residual variance; with an exact
    # fit (zero residual variance) both variance estimates are zero already
    ratio = tsls.sigma_sq_hat / ols.sigma_sq_hat if ols.sigma_sq_hat > 0.0 else 1.0
    solved = _contrast_solve(ratio * ols.vcov[:k1, :k1], tsls.vcov[:k1, :k1], delta)
    if solved is None:
        return TestStatistic(value=0.0, dof=0)
    return TestStatistic(value=max(float(data.n * delta @ solved), 0.0), dof=k1)
