"""Independent numerical oracles shared by the test modules.

These deliberately avoid the code paths they are used to check: the
noncentral chi-square CDF oracle integrates the Bessel-form density by
adaptive quadrature, with no Poisson mixture and no incomplete gamma, and
its second oracle keeps the mixture but takes the incomplete gamma from
SciPy; the hull-interior margin of the information projection comes from
SciPy's ``linprog`` (HiGHS) on the original LP, not from the library's
simplex on the substituted one; the score-space oracles sum one support
point at a time with ``math.fsum`` instead of forming whole-array products,
and split a score by projecting it on explicit tangent bases instead of on
the small spanning sets the library uses; the moment-model oracles evaluate
one observation at a time; the DWH oracle inverts the whole variance
difference by its spectrum, where the library solves the x1 block through
the joint variance's Cholesky factor.
"""

import csv
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.special import gamma, gammainc, iv

from asymlab.dist import Dataset, draw_indices
from asymlab.errors import ShapeMismatch
from asymlab.linalg import PIVOT_TOL
from asymlab.scores import SubspaceBasis


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


def noncentral_chisq_cdf_by_gammainc(x: float, k: int, lam: float) -> float:
    """The Poisson mixture of ``chi2.noncentral_chisq_cdf`` (the same
    weights, truncated at the same tail mass 1e-14) with each central CDF
    from SciPy's ``gammainc``: a reference for the incomplete gamma alone,
    whose error is far below the 1e-14 truncation the mixture allows."""
    half = 0.5 * lam
    weights = [math.exp(-half)]
    cum = weights[0]
    max_terms = 1000 + int(half + 60.0 * math.sqrt(half + 1.0))
    while 1.0 - cum > 1e-14 and len(weights) <= max_terms:
        weights.append(weights[-1] * half / len(weights))
        cum += weights[-1]
    central = gammainc(0.5 * k + np.arange(len(weights)), 0.5 * x)
    return min(max(math.fsum(np.array(weights) * central), 0.0), 1.0)


def hull_interior_margin_by_linprog(m_vals) -> float:
    """max t subject to sum_s a_s m_s = 0, sum_s a_s = 1, a_s >= t, with
    0 <= a_s <= 1 and -1 <= t <= 1, by ``linprog``; -1 where HiGHS finds no
    such a.  Zero is interior to the hull of the rows of ``m_vals`` exactly
    when the margin is positive."""
    s, l = m_vals.shape
    c = np.zeros(s + 1)
    c[-1] = -1.0  # variables (a_1 .. a_S, t); maximise t
    a_eq = np.zeros((l + 1, s + 1))
    a_eq[:l, :s] = np.asarray(m_vals, dtype=float).T
    a_eq[l, :s] = 1.0
    b_eq = np.zeros(l + 1)
    b_eq[l] = 1.0
    a_ub = np.hstack([-np.eye(s), np.ones((s, 1))])  # t - a_s <= 0
    bounds = [(0.0, 1.0)] * s + [(-1.0, 1.0)]
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(s), A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    return float(res.x[-1]) if res.success else -1.0


def expectation_per_atom(probs, values) -> np.ndarray:
    """E[values] column by column, one ``math.fsum`` over per-atom products each."""
    flat = np.asarray(values, dtype=float).reshape(len(probs), -1)
    return np.array(
        [math.fsum(probs[s] * flat[s, j] for s in range(len(probs))) for j in range(flat.shape[1])]
    )


def gram_schmidt_fsum(probs, spanning, drop_tol: float, tie: float = 1e-10) -> np.ndarray:
    """Pivoted modified Gram-Schmidt, each vector orthogonalized twice, every
    inner product a separate ``math.fsum``.

    A residual norm at most ``drop_tol`` times the largest input norm is
    negligible.  Every step recomputes the residual of each remaining vector
    against the accepted ones and, among the vectors whose residual is not
    negligible, takes the one whose residual norm is the largest share of
    its own norm; shares within a relative ``tie`` of the largest count as
    tied and the earliest input wins.  Once every residual is negligible the
    remaining vectors are dropped.  Each kept vector is normalized under the
    weights ``probs`` and its sign is fixed so that its first coordinate
    above 1e-8 of its largest magnitude is positive.  Returns the kept
    vectors as rows, shape (k, S).
    """
    w = np.asarray(probs, dtype=float)

    def norm(v):
        return math.sqrt(max(math.fsum(w * v * v), 0.0))

    def residual(f):
        v = np.array(f, dtype=float)
        for _ in range(2):
            for b in accepted:
                v = v - math.fsum(w * b * v) * b
        return v

    remaining = [np.asarray(f, dtype=float) for f in spanning]
    cutoff = drop_tol * max(norm(f) for f in remaining)
    accepted = []
    while remaining:
        residuals = [residual(f) for f in remaining]
        shares = [
            norm(v) / norm(f) if norm(v) > cutoff else -1.0 for v, f in zip(residuals, remaining)
        ]
        top = max(shares)
        if top < 0.0:
            break
        i = next(i for i, share in enumerate(shares) if share >= (1.0 - tie) * top)
        v = residuals[i] / norm(residuals[i])
        lead = v[np.abs(v) > 1e-8 * np.max(np.abs(v))][0]
        accepted.append(v if lead > 0 else -v)
        del remaining[i]
    return np.array(accepted).reshape(len(accepted), len(w))


def draw_sample(dist, n: int, seed: int) -> Dataset:
    """n i.i.d. draws from ``dist``, one row per observation in draw order:
    the support rows of ``draw_indices``."""
    return Dataset(rows=dist.support[draw_indices(dist, n, seed)])


def orthonormal_basis(dist, spanning, label: str = "full"):
    """The ``SubspaceBasis`` of ``gram_schmidt_fsum`` applied to the values of
    the scores ``spanning``, residuals below 1e-9 of the largest input norm
    dropped."""
    rows = gram_schmidt_fsum(dist.probs, [f.values for f in spanning], 1e-9)
    return SubspaceBasis(dist, rows, label)


def decompose_by_bases(probs, g, bases) -> tuple[list[np.ndarray], list[float]]:
    """The three-way split of ``g`` by explicit orthonormal bases: its
    projection on each (k, S) basis under the weights ``probs``, and each
    projection's variance, every inner product one ``math.fsum``.  The bases
    must jointly span the mean-zero space, as the tangent bases (T,
    T_perp_cap_M, M_perp) do, so the parts add back to ``g``."""
    w = np.asarray(probs, dtype=float)
    g = np.asarray(g, dtype=float)
    parts = []
    for basis in bases:
        part = np.zeros_like(g)
        for row in basis:
            part += math.fsum(w * row * g) * row
        parts.append(part)
    return parts, [math.fsum(w * part * part) for part in parts]


def read_csv(path) -> tuple[Dataset, tuple[int, int, int]]:
    """Read a sample written by ``iv.write_csv``; returns it with the block
    sizes (k1, k2, q) taken from the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = np.array([[float(v) for v in row] for row in reader])
    k1 = sum(1 for name in header if name.startswith("x1_"))
    k2 = sum(1 for name in header if name.startswith("x2_"))
    q = sum(1 for name in header if name.startswith("z1_"))
    if header[0] != "y" or 1 + k1 + k2 + q != len(header):
        raise ShapeMismatch(f"unrecognized header {header}")
    if body.ndim != 2 or body.shape[1] != len(header):
        raise ShapeMismatch(f"rows have shape {body.shape}, expected (*, {len(header)})")
    return Dataset(body), (k1, k2, q)


def fsum_moment(probs, a, b) -> np.ndarray:
    """E[a b'] for per-atom columns ``a`` (S, i) and ``b`` (S, j), one
    ``math.fsum`` per entry."""
    return np.array(
        [
            [math.fsum(probs * a[:, i] * b[:, j]) for j in range(b.shape[1])]
            for i in range(a.shape[1])
        ]
    )


def dwh_by_eigh(sample: Dataset, ols, tsls) -> tuple[float, int]:
    """(statistic, dof) of the DWH contrast n d' V^- d by a spectral
    generalized inverse: d = b_ols - b_2sls over all coefficients, V the
    difference of the two variance matrices with OLS's rescaled to the 2SLS
    residual variance, and V^- keeps the eigenvalues above 1e-8 times the
    largest entry of the two variance matrices, dropping the rest, negative
    ones among them.  An exact fit has no statistic by the library's rule:
    the OLS residual sum n sigma_ols^2 is not above PIVOT_TOL sum c y^2."""
    y_sum_sq = math.fsum(sample.counts * sample.rows[:, 0] ** 2)
    if not sample.n * ols.sigma_sq_hat > PIVOT_TOL * y_sum_sq:
        return 0.0, 0
    delta = ols.beta - tsls.beta
    ratio = tsls.sigma_sq_hat / ols.sigma_sq_hat
    vdiff = tsls.vcov - ratio * ols.vcov
    evals, evecs = np.linalg.eigh(0.5 * (vdiff + vdiff.T))
    # 1e-8: the cut-off the library's eigh form used (iv.RANK_TOL)
    keep = evals > 1e-8 * max(tsls.vcov.max(), ratio * ols.vcov.max())
    coords = evecs[:, keep].T @ delta
    return float(sample.n * np.sum(coords**2 / evals[keep])), int(keep.sum())


def iv_blocks(rows, model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x = (x1, x2), z = (z1, x2) and e = y - x'beta0 of rows laid out as
    (y, x1, x2, z1)."""
    k1, k2, _ = model.dims
    rows = np.asarray(rows, dtype=float)
    x = rows[:, 1 : 1 + k1 + k2]
    z = np.hstack([rows[:, 1 + k1 + k2 :], rows[:, 1 + k1 : 1 + k1 + k2]])
    return x, z, rows[:, 0] - x @ model.beta0


def iv_moments(dist, model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E[xx'], E[xz'], E[zz']) under ``dist``, one ``math.fsum`` per entry."""
    x, z, _ = iv_blocks(dist.support, model)
    return tuple(fsum_moment(dist.probs, a, b) for a, b in ((x, x), (x, z), (z, z)))


def iv_efficient_scores(probs, rows, model) -> tuple[np.ndarray, np.ndarray]:
    """Efficient-score columns of the linear IV null model, x e / sigma0^2,
    and of the maintained model, E[XZ'] E[ZZ']^{-1} z e / sigma0^2, each of
    shape (S, p); every population moment is a per-atom ``math.fsum``."""
    x, z, e = iv_blocks(rows, model)
    scale = (e / model.sigma0_sq)[:, None]
    ezz, exz = fsum_moment(probs, z, z), fsum_moment(probs, x, z)
    return x * scale, (z @ np.linalg.solve(ezz, exz.T)) * scale


def iv_bias_closed_forms(probs, rows, model, g) -> dict[str, np.ndarray]:
    """Asymptotic means of sqrt(n) (estimator - beta0) along the direction
    with per-atom values ``g``: OLS drifts by E[XX']^{-1} E[X e g], 2SLS by
    (E[XZ'] E[ZZ']^{-1} E[ZX'])^{-1} E[XZ'] E[ZZ']^{-1} E[Z e g].  Every
    population moment is a per-atom ``math.fsum``."""
    x, z, e = iv_blocks(rows, model)
    eg = (e * np.asarray(g, dtype=float))[:, None]
    exz, ezz = fsum_moment(probs, x, z), fsum_moment(probs, z, z)
    bread = exz @ np.linalg.solve(ezz, exz.T)
    ols = np.linalg.solve(fsum_moment(probs, x, x), fsum_moment(probs, x, eg)[:, 0])
    tsls = np.linalg.solve(bread, exz @ np.linalg.solve(ezz, fsum_moment(probs, z, eg)[:, 0]))
    return {"ols": ols, "tsls": tsls}


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


# --- two-step GMM -----------------------------------------------------------------


def overidentified_mean_two_step(values, counts, v) -> float:
    """Exact two-step GMM estimate for m = (x - t, (x - t)^2 - v) on a sample
    given as distinct scalar values with integer counts.

    All sample moments are exact rationals (``Fraction``).  With d = xbar - t
    and s2 the sample variance (divisor n), the identity-weighted objective
    d^2 + (s2 + d^2 - v)^2 has its unique minimum at d = 0 when
    s2 > v - 1/2, so step one is the sample mean.  The efficient weight
    W = SigmaHat^{-1} at the mean is then exact, and the step-two first-order
    condition (1, 2d) W (d, s2 + d^2 - v)' = 0 is the cubic
    2 c d^3 + 3 b d^2 + (a + 2 c e) d + b e = 0 with W = [[a, b], [b, c]] and
    e = s2 - v.  Its real roots are polished by Newton's method in 60-digit
    decimal arithmetic, and the root with the smallest objective wins.
    """
    from decimal import Decimal, localcontext
    from fractions import Fraction

    xs = [Fraction(float(x)) for x in values]
    ns = [int(c) for c in counts]
    n = sum(ns)
    mean = sum(c * x for c, x in zip(ns, xs)) / n

    def central(k):
        return sum(c * (x - mean) ** k for c, x in zip(ns, xs)) / n

    s2, m3, m4 = central(2), central(3), central(4)
    if not s2 > Fraction(v) - Fraction(1, 2):
        raise ValueError("the identity-weighted step has two minima off the sample mean")
    e = s2 - Fraction(v)
    sigma = [[s2, m3], [m3, m4 - 2 * Fraction(v) * s2 + Fraction(v) ** 2]]
    det = sigma[0][0] * sigma[1][1] - sigma[0][1] ** 2
    a, b, c = sigma[1][1] / det, -sigma[0][1] / det, sigma[0][0] / det
    coefs = [2 * c, 3 * b, a + 2 * c * e, b * e]

    def objective(d):
        m1, m2 = d, e + d * d
        return a * m1 * m1 + 2 * b * m1 * m2 + c * m2 * m2

    with localcontext() as ctx:
        ctx.prec = 60
        dec = [Decimal(q.numerator) / Decimal(q.denominator) for q in coefs]
        roots = []
        for guess in np.roots([float(q) for q in coefs]):
            if abs(guess.imag) > 1e-8 * max(1.0, abs(guess.real)):
                continue
            d = Decimal(float(guess.real))
            for _ in range(8):
                f = ((dec[0] * d + dec[1]) * d + dec[2]) * d + dec[3]
                df = (3 * dec[0] * d + 2 * dec[1]) * d + dec[2]
                d -= f / df
            roots.append(d)
        d_hat = min(roots, key=lambda d: objective(Fraction(d)))
        return float(Decimal(mean.numerator) / Decimal(mean.denominator) - d_hat)
