"""Noncentral chi-square distribution and chi-square test statistics.

The noncentral CDF is a Poisson mixture of central chi-square CDFs,
truncated when the remaining Poisson tail mass drops below 1e-14; the
central CDF is the regularized lower incomplete gamma function (SciPy's
``gammainc``, which switches between the series and the continued fraction
at the standard threshold).  Quantiles come from bisection on this CDF, one
source of truth for sizes and powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import gammainc

from .errors import DegenerateDof, DomainError

_POISSON_TAIL = 1e-14
_MAX_HALF_NCP = 700.0  # beyond this exp(-lam/2) underflows; far past the intended scale


def noncentral_chisq_cdf(x: float, k: int, lam: float) -> float:
    """P(X <= x) for X noncentral chi-square with k dof and noncentrality lam."""
    x, lam = float(x), float(lam)
    if not (math.isfinite(x) and math.isfinite(lam)):
        raise DomainError(f"non-finite argument x={x}, lam={lam}")
    if x < 0 or k < 1 or lam < 0:
        raise DomainError(f"need x >= 0, k >= 1, lam >= 0; got x={x}, k={k}, lam={lam}")
    if x == 0.0:
        return 0.0
    if lam == 0.0:
        return float(gammainc(0.5 * k, 0.5 * x))
    half = 0.5 * lam
    if half > _MAX_HALF_NCP:
        raise DomainError(f"noncentrality {lam} exceeds the supported range")
    weight = math.exp(-half)
    cum_weight = weight
    total = weight * float(gammainc(0.5 * k, 0.5 * x))
    j = 0
    max_terms = 1000 + int(half + 60.0 * math.sqrt(half + 1.0))
    while 1.0 - cum_weight > _POISSON_TAIL and j < max_terms:
        j += 1
        weight *= half / j
        cum_weight += weight
        total += weight * float(gammainc(0.5 * k + j, 0.5 * x))
    return min(max(total, 0.0), 1.0)


@lru_cache(maxsize=4096)
def chisq_quantile(k: int, prob: float) -> float:
    """Central chi-square quantile by bisection to bracket width 1e-10."""
    if k < 1 or not 0.0 < prob < 1.0:
        raise DomainError(f"need k >= 1 and 0 < prob < 1; got k={k}, prob={prob}")
    lo, hi = 0.0, max(1.0, float(k))
    while noncentral_chisq_cdf(hi, k, 0.0) < prob:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError("quantile bracket exploded")
    while hi - lo > 1e-10:
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

    def critical_value(self, alpha: float) -> float:
        if self.dof == 0:
            raise DegenerateDof("test has zero degrees of freedom")
        return chisq_quantile(self.dof, 1.0 - alpha)

    def reject(self, alpha: float) -> bool:
        """True when the statistic exceeds the central upper-alpha quantile."""
        if self.dof == 0:
            return False
        return self.value > self.critical_value(alpha)
