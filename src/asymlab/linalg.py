"""The one positive-definite solve, and with it the one rank rule.

Every symmetric positive-definite system in the library, sample or
population, is solved by ``_cholesky`` or its list form, and its pivot test
is the only rule that decides positive-definiteness or rank: a system whose
factorisation fails is refused, by the caller's named error, with no
separate check before it.  The rule compares each pivot with a diagonal
entry that scales with it, so it does not change when a regressor, an
instrument or a moment is rescaled; it also decides the DWH rank
(``_contrast_solve``).  A rectangular population matrix (the mean Jacobian,
E[ZX']) is judged by the normal matrix its caller factors, and no module
takes a singular value decomposition.
"""

from __future__ import annotations

import math

import numpy as np

PIVOT_TOL = 1e-12  # a pivot must exceed this times its diagonal entry


def _cholesky(a: np.ndarray, b: np.ndarray, diag: np.ndarray | None = None) -> np.ndarray | None:
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
    ``diag``, if given, replaces ``a``'s diagonal in the test by entries that
    bound it and scale with it, so that a pivot that is all rounding (E[ZX']
    of an instrument independent of a regressor) fails against them.

    ``_cholesky_lists``, the list form GMM's Newton kernel calls, does the
    work: on a shared 2-core x86 machine 1.6 us at 1 x 1 (LAPACK via SciPy
    1.2 to 1.5 us; arrays add 0.7 us), 5 us at 2 x 2 with three right-hand
    sides (LAPACK 1.6 us), 64 us at 8 x 8 with nine (LAPACK 2.7 us).  Every
    shipped system is 1 x 1 or 2 x 2: G1's Newton steps are p x p with p = 1,
    its weight l x l with l = 2, and the IV designs' X'X, Z'Z, X'P_Z X 2 x 2.
    """
    x = _cholesky_lists(a.tolist(), [b.tolist()] if b.ndim == 1 else b.T.tolist(), diag)
    return None if x is None else np.array(x[0] if b.ndim == 1 else x).T


def _cholesky_lists(
    a: list[list[float]], cols: list[list[float]], diag: list[float] | None = None
) -> list[list[float]] | None:
    """``_cholesky`` on lists: a by its rows, the right-hand sides and the
    solutions as columns; neither input is modified, and no columns give []."""
    n = len(a)
    u, inv = [], []  # rows of U, right of the diagonal scaled by the pivot's reciprocal
    for j, row in enumerate(a):
        row = row.copy()
        for above in u:
            f = above[j]
            for c in range(j, n):
                row[c] -= f * above[c]
        if not row[j] > PIVOT_TOL * (a[j][j] if diag is None else diag[j]):
            return None
        row[j] = math.sqrt(row[j])
        inv.append(1.0 / row[j])
        for c in range(j + 1, n):
            row[c] *= inv[j]
        u.append(row)
    solved = [col.copy() for col in cols]
    for x in solved:
        for i, r in enumerate(inv):  # U'z = b
            s = x[i]
            for k in range(i):
                s -= u[k][i] * x[k]
            x[i] = s * r
        for i in reversed(range(n)):  # U x = z
            s = x[i]
            row = u[i]
            for k in range(i + 1, n):
                s -= row[k] * x[k]
            x[i] = s * inv[i]
    return solved


def _contrast_solve(a: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """Solve (b - a) x = r, ``a`` an efficient estimator's variance and ``b``
    a consistent one's; None unless every pivot of b - a exceeds PIVOT_TOL
    times b's diagonal entry.  ``_cholesky`` of their joint variance
    [[a, a], [a, b]] (Hausman 1978) factors a, which must be positive
    definite, and leaves b - a as the Schur complement; x is the trailing
    half of the joint solution for (0, r)."""
    k = len(a)
    joint = np.tile(a, (2, 2))
    joint[k:, k:] = b
    solved = _cholesky(joint, np.concatenate([np.zeros(k), r]))
    return None if solved is None else solved[k:]

