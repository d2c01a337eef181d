"""Noncentral chi-square distribution and chi-square test statistics.

The noncentral CDF is a Poisson mixture of central chi-square CDFs,
truncated when the remaining Poisson tail mass drops below 1e-14.  The
central CDF with k dof at x is 1 - Q(k/2, x/2), Q the regularized upper
incomplete gamma function, and the mixture needs Q only on the ladder
a = k/2, k/2 + 1, ...  So Q starts from its closed form at a = 1/2
(``erfc``) or a = 1 (``exp``) and climbs by the recurrence
Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1), a sum of positive terms;
one pass of the climb serves every term of the mixture.  Each term is the
Poisson density of Loader (2000), exp(-(Stirling error) - (deviance)) /
sqrt(2 pi a), whose exponent does not cancel.  Against SciPy's ``gammainc``
in the same mixture the CDF agrees to 2e-15 for k up to 60, lam up to 600
and x up to 3000, past the point where exp(-y) underflows.  That accuracy
is absolute: each central CDF in the mixture is 1 - Q, so a noncentral CDF
below about 1e-16 reads 0.  Below its mean the central CDF is the lower
series of P = 1 - Q, accurate relative to P, and so are its quantiles, which
come from bisection on this CDF, one source of truth for sizes and powers.
A ``TestStatistic`` with no degrees of freedom never rejects; whether a
configured test has any is for the population design (``PopulationDesign.dof``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

_POISSON_TAIL = 1e-14
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_MAX_HALF_NCP = 700.0  # beyond this exp(-lam/2) underflows; far past the intended scale


def _stirling_error(a: float) -> float:
    """lgamma(a + 1) - (a + 1/2) ln a + a - ln sqrt(2 pi), the error of
    Stirling's formula: directly up to a = 15 (absolute error below 1e-14),
    by its asymptotic series beyond (truncation error below 3e-16)."""
    if a <= 15.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _LOG_SQRT_2PI
    t = 1.0 / (a * a)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - t / 1188) * t) * t) * t) / a


def _deviance(a: float, y: float) -> float:
    """a ln(a / y) + y - a, by a series in v = (a - y) / (a + y) where the
    direct form would cancel (Loader 2000)."""
    if abs(a - y) >= 0.1 * (a + y):
        return a * math.log(a / y) + y - a
    v = (a - y) / (a + y)
    total = (a - y) * v
    term = 2.0 * a * v
    v *= v
    j = 1
    while True:
        term *= v
        nxt = total + term / (2 * j + 1)
        if nxt == total:
            return total
        total = nxt
        j += 1


def _ladder_term(a: float, y: float) -> float:
    """Q(a + 1, y) - Q(a, y) = y^a e^-y / Gamma(a + 1), to about 1e-14 relative.

    The direct form exp(a ln y - y - lgamma(a + 1)) rounds summands of a
    few thousand and so puts errors near 1e-13 into the CDF at lam = 600.
    """
    return math.exp(-_stirling_error(a) - _deviance(a, y)) / math.sqrt(2.0 * math.pi * a)


def _lower_gamma(a: float, y: float) -> float:
    """P(a, y) = 1 - Q(a, y) for y < a by its lower series, accurate relative to P:
    y^a e^-y / Gamma(a + 1) * sum_j y^j / ((a + 1) ... (a + j)), positive terms."""
    term = total = j = 1.0
    while term > 1e-17 * total:
        term *= y / (a + j)
        total += term
        j += 1.0
    return _ladder_term(a, y) * total


def noncentral_chisq_cdf(x: float, k: int, lam: float) -> float:
    """P(X <= x) for X noncentral chi-square with k dof and noncentrality lam."""
    x, lam = float(x), float(lam)
    if not (math.isfinite(x) and math.isfinite(lam)):
        raise DomainError(f"non-finite argument x={x}, lam={lam}")
    if x < 0 or k < 1 or lam < 0:
        raise DomainError(f"need x >= 0, k >= 1, lam >= 0; got x={x}, k={k}, lam={lam}")
    y = 0.5 * x
    if y == 0.0:  # x is 0 or the smallest subnormal, where the CDF is below 1e-161
        return 0.0
    half = 0.5 * lam
    if half > _MAX_HALF_NCP:
        raise DomainError(f"noncentrality {lam} exceeds the supported range")
    if half == 0.0 and y < 0.5 * k:
        return _lower_gamma(0.5 * k, y)
    a, q = (0.5, math.erfc(math.sqrt(y))) if k % 2 else (1.0, math.exp(-y))
    while a < 0.5 * k:
        q += _ladder_term(a, y)
        a += 1.0
    weight = math.exp(-half)
    cum_weight = weight
    total = weight * (1.0 - q)
    j = 0
    max_terms = 1000 + int(half + 60.0 * math.sqrt(half + 1.0))
    while 1.0 - cum_weight > _POISSON_TAIL and j < max_terms:
        j += 1
        q += _ladder_term(a, y)
        a += 1.0
        weight *= half / j
        cum_weight += weight
        total += weight * (1.0 - q)
    return min(max(total, 0.0), 1.0)


@lru_cache(maxsize=4096)
def chisq_quantile(k: int, prob: float) -> float:
    """Central chi-square quantile by bisection, to a bracket of width 1e-10
    relative to the quantile below 1 and absolute from 1 up; refused where it underflows."""
    if k < 1 or not 0.0 < prob < 1.0:
        raise DomainError(f"need k >= 1 and 0 < prob < 1; got k={k}, prob={prob}")
    lo, hi = 0.0, max(1.0, float(k))
    while noncentral_chisq_cdf(hi, k, 0.0) < prob:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError("quantile bracket exploded")
    while hi - lo > 1e-10 * min(1.0, hi):
        if hi < 2.0**-1022:  # below the smallest normal float
            raise DomainError(f"the chi-square({k}) quantile at {prob} underflows")
        mid = 0.5 * (lo + hi)
        if noncentral_chisq_cdf(mid, k, 0.0) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def local_power(k: int, ncp: float, alpha: float) -> float:
    """Rejection probability of a level-alpha chi-square(k) test at noncentrality ncp."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"need 0 < alpha < 1, got {alpha}")
    if 1.0 - alpha == 1.0:
        raise DomainError(f"alpha = {alpha} is too small: 1 - alpha rounds to 1")
    if ncp < 0:
        raise DomainError(f"need ncp >= 0, got {ncp}")
    crit = chisq_quantile(k, 1.0 - alpha)
    return 1.0 - noncentral_chisq_cdf(crit, k, ncp)


@dataclass(frozen=True)
class TestStatistic:
    """A chi-square-type test statistic with its degrees of freedom."""

    value: float
    dof: int

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.value < 0 or self.dof < 0:
            raise ValueError(f"need value >= 0 and dof >= 0, got {self.value}, {self.dof}")

    def reject(self, alpha: float) -> bool:
        """True when the statistic exceeds the central upper-alpha quantile; a
        statistic with no degrees of freedom never rejects."""
        return self.dof > 0 and self.value > chisq_quantile(self.dof, 1.0 - alpha)
