"""The one positive-definite solve and the one full-column-rank rule.

Every symmetric positive-definite system in the library, sample or
population, is solved by ``_cholesky``, and its pivot test is the only rule
that decides positive-definiteness: a system whose factorisation fails is
refused, by the caller's named error, with no separate check before it.
The rule compares each pivot with its own diagonal entry, so it does not
change when a regressor, an instrument or a moment is rescaled.  The one
rule for a rectangular population matrix (the mean Jacobian, E[ZX']) is
``_full_column_rank``.
"""

from __future__ import annotations

import math

import numpy as np

PIVOT_TOL = 1e-12  # a pivot must exceed this times its diagonal entry
RANK_RATIO = 1e-10  # smallest over largest singular value of a full-column-rank matrix


def _cholesky(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve a x = b by the Cholesky factor of the symmetric ``a``'s upper
    triangle; None unless ``a`` is positive definite.

    ``a`` is factored as U'U in Python floats, each row of U scaled by the
    reciprocal of its pivot as OpenBLAS ``dpotrf`` does, and x comes from a
    forward and a back substitution, which multiply by the same reciprocals.
    Only the upper triangle is read (X'(c X) is symmetric only up to
    rounding, so the triangle sets the bits).  On a 1 x 1 system the result
    is bit-identical to LAPACK ``dpotrf``/``dpotrs``; on larger ones the
    summation order differs and the two agree to rounding.  ``a`` is refused
    when a pivot (the diagonal entry less the squares above it, before the
    square root) is not above PIVOT_TOL times its diagonal entry, a test
    that NaN fails too.  Scaling ``a`` to D a D, D diagonal and positive,
    scales each pivot by the square of its diagonal entry's factor, so the
    verdict does not depend on units (Higham 2002, ch. 10).  A pivot is at
    least the smallest eigenvalue and a diagonal entry at most the largest,
    so every matrix whose eigenvalue ratio exceeds PIVOT_TOL passes.

    The cost grows as n^3.  On a shared 2-core x86 machine it takes 2 to
    3 us at 1 x 1 and 5 to 10 us at 2 x 2 with three right-hand sides, where
    LAPACK through SciPy takes 1 to 3 us, and 110 us at 8 x 8 with nine,
    where LAPACK takes 5 us.  Every system of the shipped configs is 1 x 1
    or 2 x 2: G1's Newton steps are p x p with p = 1, its weight matrix
    l x l with l = 2, and the IV designs' X'X, Z'Z and X'P_Z X are 2 x 2.
    """
    n = len(a)
    u = a.tolist()  # overwritten by U on and above the diagonal
    inv = [0.0] * n
    for j in range(n):
        row = u[j]
        diag = row[j]
        for i in range(j):
            above = u[i]
            f = above[j]
            for c in range(j, n):
                row[c] -= f * above[c]
        if not row[j] > PIVOT_TOL * diag:
            return None
        row[j] = math.sqrt(row[j])
        r = inv[j] = 1.0 / row[j]
        for c in range(j + 1, n):
            row[c] *= r
    cols = [b.tolist()] if b.ndim == 1 else b.T.tolist()
    for x in cols:
        for i in range(n):  # U'z = b
            s = x[i]
            for k in range(i):
                s -= u[k][i] * x[k]
            x[i] = s * inv[i]
        for i in reversed(range(n)):  # U x = z
            s = x[i]
            row = u[i]
            for k in range(i + 1, n):
                s -= row[k] * x[k]
            x[i] = s * inv[i]
    return np.array(cols[0]) if b.ndim == 1 else np.array(cols).T


def _full_column_rank(a: np.ndarray) -> bool:
    """True when ``a`` (rows >= columns) is finite and its smallest
    singular value exceeds RANK_RATIO times its largest."""
    if not np.isfinite(a).all():
        return False
    svals = np.linalg.svd(a, compute_uv=False)
    return bool(svals[-1] > RANK_RATIO * svals[0])
