"""Local deviation paths through a base distribution.

A path moves the base distribution in the direction of a score g, either by
an exponential tilt (valid for every t >= 0) or a linear tilt (valid while
t * max|g| < 1).  Both have score g at t = 0.  The quadratic-mean
differentiability defect of a path is evaluated exactly on the finite
support, which is what makes the smoothness diagnostics testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDistribution, make_distribution
from .errors import DomainError, PositivityViolated
from .scores import ScoreFunction, _require_same_dist

TILTS = ("exponential", "linear")
SCORE_STEP = 1e-5  # numerical_score's step in t


@dataclass(frozen=True)
class LocalPath:
    """t -> P_t with score ``score`` at t = 0, starting from ``base``."""

    base: DiscreteDistribution
    score: ScoreFunction
    tilt: str = "exponential"

    def __post_init__(self):
        if self.tilt not in TILTS:
            raise ValueError(f"tilt must be one of {TILTS}, got {self.tilt!r}")
        _require_same_dist(self.base, self.score)

    @property
    def positivity_bound(self) -> float:
        """Largest usable t: 1/max|g| for the linear tilt, infinity otherwise."""
        if self.tilt == "exponential":
            return math.inf
        peak = float(np.max(np.abs(self.score.values)))
        return math.inf if peak == 0.0 else 1.0 / peak


def path_distribution(path: LocalPath, t: float) -> DiscreteDistribution:
    """The distribution at parameter ``t`` along the path; ``DomainError``
    where the tilted weights are not finite (an overflowing exponential
    tilt, or a non-finite t)."""
    if t < 0:
        raise ValueError(f"path parameter must be >= 0, got {t}")
    if t == 0.0:
        return path.base
    g = path.score.values
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
        if path.tilt == "exponential":
            weights = path.base.probs * np.exp(t * g)
        else:
            factors = 1.0 + t * g
            if np.min(factors) <= 0.0 or t >= path.positivity_bound:
                raise PositivityViolated(
                    f"linear tilt needs t * max|g| < 1; got t = {t}, max|g| = {np.max(np.abs(g))}"
                )
            weights = path.base.probs * factors
    if not np.isfinite(weights).all():
        raise DomainError(
            f"the {path.tilt} tilt's weights are not finite at t = {t}, max|g| = "
            f"{np.max(np.abs(g))}"
        )
    return make_distribution(path.base.support, weights)


def hellinger_residual(path: LocalPath, t: float) -> float:
    """Quadratic-mean differentiability defect at parameter ``t``.

    Sums, over the support, the squared gap between the scaled root-mass
    increment and half the score times the base root-mass.  For a smooth path
    this is O(t^2) as t -> 0.
    """
    if not t > 0:
        raise ValueError(f"need t > 0, got {t}")
    p = path.base.probs
    q = path_distribution(path, t).probs
    g = path.score.values
    terms = ((np.sqrt(q) - np.sqrt(p)) / t - 0.5 * g * np.sqrt(p)) ** 2
    return math.fsum(terms)


def numerical_score(path: LocalPath) -> np.ndarray:
    """Central difference of log dP_t at t = 0, one value per support point.

    The path at -t equals the path at +t with the score negated (for either
    tilt), which gives the central difference without leaving the t >= 0
    domain.  SCORE_STEP balances truncation against rounding at the 1e-6
    comparison tolerance.
    """
    mirrored = LocalPath(path.base, -path.score, path.tilt)
    up = np.log(path_distribution(path, SCORE_STEP).probs)
    dn = np.log(path_distribution(mirrored, SCORE_STEP).probs)
    return (up - dn) / (2.0 * SCORE_STEP)
