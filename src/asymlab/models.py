"""Model descriptions: unconditional moment restrictions and the linear IV design.

These are pure data holders; estimation and tangent-space construction live in
``gmm``, ``iv`` and ``scores``.  Moment functions are vectorised over
observations and over parameters: one call evaluates every support point or
sample row at each parameter vector of a (B, p) stack, so a GMM step makes
one Jacobian call for theta and its 2p difference points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ShapeMismatch

JACOBIAN_TOL = 1e-6  # largest entry by which jac may differ from central differences of m


@dataclass(frozen=True)
class MomentModel:
    """Moment restriction E[m(theta0, X)] = 0 with l moments and p parameters.

    ``m(theta, points)`` takes a (B, p) stack of parameter vectors and an
    (S, d) array of observations and returns the moment values at every
    pair, shape (B, S, l); ``jac(theta, points)`` returns the derivatives of
    ``m`` in ``theta``, shape (B, S, l, p).  Entry (b, s) of either output
    must depend on row b of ``theta`` and row s of ``points`` only, so that
    a row of a stack is bit for bit the evaluation at that parameter alone.
    ``l == p`` is allowed (just identified) but then the overidentification
    test is degenerate.  The parameter is unbounded: GMM searches all of R^p, so ``m`` and
    ``jac`` must accept any finite theta.
    """

    m: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p: int
    l: int

    def __post_init__(self):
        if self.l < self.p or self.p < 1:
            raise ShapeMismatch(f"need l >= p >= 1, got l={self.l}, p={self.p}")

    def moments_at(self, theta: np.ndarray, points: np.ndarray) -> np.ndarray:
        """m on every row of ``points``: (S, l) at theta (p,), (B, S, l) at a (B, p) stack."""
        theta = np.asarray(theta, dtype=float)
        stack = theta if theta.ndim == 2 else theta[None]
        out = np.asarray(self.m(stack, points), dtype=float)
        if out.shape != (len(stack), points.shape[0], self.l):
            raise ShapeMismatch(
                f"moment function returned shape {out.shape}, "
                f"expected ({len(stack)}, {points.shape[0]}, {self.l})"
            )
        return out if theta.ndim == 2 else out[0]

    def jacobians_at(self, theta: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The Jacobian: (S, l, p) at theta (p,), (B, S, l, p) at a (B, p) stack."""
        theta = np.asarray(theta, dtype=float)
        stack = theta if theta.ndim == 2 else theta[None]
        out = np.asarray(self.jac(stack, points), dtype=float)
        if out.shape != (len(stack), points.shape[0], self.l, self.p):
            raise ShapeMismatch(
                f"jacobian returned shape {out.shape}, "
                f"expected ({len(stack)}, {points.shape[0]}, {self.l}, {self.p})"
            )
        return out if theta.ndim == 2 else out[0]

    def check_jacobian(self, theta: np.ndarray, points: np.ndarray) -> None:
        """Check ``jac`` to JACOBIAN_TOL against central differences of one ``m`` call."""
        theta, shift = np.asarray(theta, dtype=float), 1e-6 * np.eye(self.p)
        shifted = self.moments_at(np.vstack((theta + shift, theta - shift)), points)
        fd = (shifted[: self.p] - shifted[self.p :]) / 2e-6  # (p, S, l)
        analytic = np.moveaxis(self.jacobians_at(theta, points), 2, 0)
        errs = np.max(np.abs(fd - analytic), axis=(1, 2))
        for j in np.flatnonzero(errs > JACOBIAN_TOL)[:1]:  # the first column that disagrees
            raise ShapeMismatch(
                f"jacobian column {j} disagrees with finite differences by {errs[j]:.2e}"
            )


@dataclass(frozen=True)
class IVModel:
    """Linear structural model Y = X'beta0 + e with instruments.

    X = (X1', X2')' stacks the possibly endogenous X1 and the exogenous X2;
    the instrument vector is Z = (Z1', X2')'.  Under the null the error is
    conditionally mean zero and homoskedastic given (X1, Z).  ``dims`` is
    (k1, k2, q) = (dim X1, dim X2, dim Z1) with q >= k1 (order condition).
    """

    beta0: np.ndarray
    sigma0_sq: float
    dims: tuple[int, int, int]
    _z_columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k1, k2, q = self.dims
        if min(k1, q) < 1 or k2 < 0:
            raise ShapeMismatch(f"bad dims {self.dims}")
        if q < k1:
            raise ShapeMismatch(f"order condition fails: dim Z1 = {q} < dim X1 = {k1}")
        beta = np.asarray(self.beta0, dtype=float)
        if beta.shape != (k1 + k2,):
            raise ShapeMismatch(f"beta0 has shape {beta.shape}, expected ({k1 + k2},)")
        if not 0.0 < self.sigma0_sq < np.inf:  # inf would pass any relative tolerance
            raise ValueError(f"sigma0_sq must be positive and finite, got {self.sigma0_sq}")
        object.__setattr__(self, "beta0", beta)
        # Z = (z1, x2) in the row layout (y, x1, x2, z1)
        object.__setattr__(
            self, "_z_columns", np.r_[1 + k1 + k2 : 1 + k1 + k2 + q, 1 + k1 : 1 + k1 + k2]
        )

    @property
    def k1(self) -> int:
        return self.dims[0]

    @property
    def k2(self) -> int:
        return self.dims[1]

    @property
    def q(self) -> int:
        return self.dims[2]

    @property
    def n_params(self) -> int:
        return self.k1 + self.k2

    @property
    def point_dim(self) -> int:
        """Width of a support point / data row laid out as (y, x1, x2, z1)."""
        return 1 + self.k1 + self.k2 + self.q

    def _checked(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.point_dim:
            raise ShapeMismatch(
                f"rows have shape {rows.shape}, expected (*, {self.point_dim}) = (y, x1, x2, z1)"
            )
        return rows

    def design_matrices(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (y, X, Z) with X = [x1, x2] and Z = [z1, x2]: y and X are
        views of ``rows`` (x1 and x2 are adjacent), Z one gather of its
        columns."""
        rows = self._checked(rows)
        return rows[:, 0], rows[:, 1 : 1 + self.k1 + self.k2], rows.take(self._z_columns, axis=1)

    def errors_on(self, rows: np.ndarray) -> np.ndarray:
        """Structural errors e = y - X'beta0 on the given rows."""
        y, X, _ = self.design_matrices(rows)
        return y - X @ self.beta0
