"""Independent numerical oracles shared by the test modules.

These deliberately avoid the code paths they are used to check: the
noncentral chi-square CDF oracle integrates the Bessel-form density by
adaptive quadrature, with no Poisson mixture and no incomplete gamma; the
score-space oracles sum one support point at a time with ``math.fsum``
instead of forming whole-array products; the moment-model oracles evaluate
one observation at a time.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, iv


def noncentral_chisq_density(x: float, k: int, lam: float) -> float:
    if x <= 0:
        return 0.0
    if lam == 0:
        return x ** (0.5 * k - 1.0) * math.exp(-0.5 * x) / (2.0 ** (0.5 * k) * gamma(0.5 * k))
    return (
        0.5
        * math.exp(-0.5 * (x + lam))
        * (x / lam) ** (0.25 * k - 0.5)
        * iv(0.5 * k - 1.0, math.sqrt(lam * x))
    )


def noncentral_chisq_cdf_by_quadrature(x: float, k: int, lam: float) -> float:
    # substitute x = u^2 to remove the k = 1 endpoint singularity
    val, err = quad(
        lambda u: noncentral_chisq_density(u * u, k, lam) * 2.0 * u,
        0.0,
        math.sqrt(x),
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    assert err < 1e-10
    return val


def expectation_per_atom(probs, values) -> np.ndarray:
    """E[values] column by column, one ``math.fsum`` over per-atom products each."""
    flat = np.asarray(values, dtype=float).reshape(len(probs), -1)
    return np.array(
        [math.fsum(probs[s] * flat[s, j] for s in range(len(probs))) for j in range(flat.shape[1])]
    )


def gram_schmidt_fsum(probs, spanning, drop_tol: float) -> np.ndarray:
    """Modified Gram-Schmidt, each vector orthogonalized twice, every inner
    product a separate ``math.fsum``.

    Vectors are taken in input order; one whose residual norm is at most
    ``drop_tol`` times the largest input norm is dropped.  Each kept vector is
    normalized under the weights ``probs`` and its sign is fixed so that its
    first coordinate above 1e-8 of its largest magnitude is positive.
    Returns the kept vectors as rows, shape (k, S).
    """
    w = np.asarray(probs, dtype=float)

    def norm(v):
        return math.sqrt(max(math.fsum(w * v * v), 0.0))

    max_norm = max(norm(np.asarray(f, dtype=float)) for f in spanning)
    accepted = []
    for f in spanning:
        v = np.array(f, dtype=float)
        for _ in range(2):
            for b in accepted:
                v = v - math.fsum(w * b * v) * b
        nrm = norm(v)
        if nrm <= drop_tol * max_norm:
            continue
        v = v / nrm
        lead = v[np.abs(v) > 1e-8 * np.max(np.abs(v))][0]
        accepted.append(v if lead > 0 else -v)
    return np.array(accepted).reshape(len(accepted), len(w))


# --- per-observation reference definitions of the catalogue moment models --------


def overidentified_mean_per_row(v: float):
    """(m, jac) for one observation x: m = (x - t, (x - t)^2 - v)."""

    def m(theta, x):
        d = x[0] - theta[0]
        return np.array([d, d * d - v])

    def jac(theta, x):
        d = x[0] - theta[0]
        return np.array([[-1.0], [-2.0 * d]])

    return m, jac


def linear_iv_per_row(dims):
    """(m, jac) for one row (y, x1, x2, z1): m = z (y - x'beta), z = (z1, x2)."""
    k1, k2, _ = dims

    def split(row):
        x = np.concatenate([row[1 : 1 + k1], row[1 + k1 : 1 + k1 + k2]])
        z = np.concatenate([row[1 + k1 + k2 :], row[1 + k1 : 1 + k1 + k2]])
        return row[0], x, z

    def m(beta, row):
        y, x, z = split(row)
        return z * (y - x @ beta)

    def jac(beta, row):
        _, x, z = split(row)
        return -np.outer(z, x)

    return m, jac


def stack_rows(fn, theta, points) -> np.ndarray:
    """Apply a per-observation function to every row of ``points`` and stack."""
    return np.array([fn(theta, x) for x in points], dtype=float)
