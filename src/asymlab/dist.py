"""Finite-support probability distributions.

Everything downstream lives on a fixed finite support, so expectations are
finite weighted sums (evaluated with compensated summation, ``math.fsum``)
and mean-zero functions form a finite-dimensional vector space.  Sampling is
inverse-CDF over the fixed support ordering driven by the counter-based
Philox generator, so draws are reproducible for a given seed in [0, 2^64)
(any other is refused) and independent of any scheduling.  Support points
and the IV null model's (x1, z) cells are matched by one rule,
``_row_groups``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DuplicateSupportPoint, LengthMismatch, ZeroOrNegativeProb

@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass function on ``S >= 2`` distinct points in R^d.

    ``support`` has shape (S, d) and ``probs`` shape (S,); probs are strictly
    positive and sum to one (normalized at construction).  Instances are
    immutable and safe to share across threads.
    """

    support: np.ndarray
    probs: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def column(self, j: int) -> np.ndarray:
        """Values of coordinate ``j`` on the support, shape (S,)."""
        return self.support[:, j]

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities in support order, the last exactly one
        (a guard against accumulated rounding at the top); read-only."""
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        cum.setflags(write=False)
        return cum


@dataclass(frozen=True)
class Dataset:
    """An i.i.d. sample held as rows with multiplicities.

    ``rows`` has shape (m, d); ``counts`` (shape (m,), non-negative
    integers, all ones by default) says how many observations each row
    stands for, so a sample on a finite support can be passed as the support
    and its count vector.  ``n = counts.sum()`` is the sample size.  Every
    consumer weights a row by its count.
    """

    rows: np.ndarray
    counts: np.ndarray | None = None
    n: int = field(init=False)

    def __post_init__(self):
        m = self.rows.shape[0]
        if self.counts is None:
            counts = np.ones(m, dtype=np.int64)
        else:
            counts = np.asarray(self.counts)
            if counts.shape != (m,):
                raise LengthMismatch(f"counts have shape {counts.shape} for {m} rows")
            if counts.dtype.kind not in "iu":
                raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
            if m and counts.min() < 0:
                raise ValueError(f"counts must be non-negative, got {counts.min()}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(counts.sum()))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def make_distribution(support, probs) -> DiscreteDistribution:
    """Validate and normalize a finite-support distribution.

    ``support`` is a sequence of d-vectors (plain scalars are treated as
    1-vectors); ``probs`` a same-length sequence of strictly positive weights,
    rescaled to sum to one.
    """
    pts = np.asarray(support, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise LengthMismatch(f"support must be a list of vectors, got ndim={pts.ndim}")
    w = np.asarray(probs, dtype=float)
    if w.ndim != 1 or w.shape[0] != pts.shape[0]:
        raise LengthMismatch(
            f"{w.shape[0] if w.ndim == 1 else w.shape} probs for {pts.shape[0]} support points"
        )
    if pts.shape[0] < 2 or pts.shape[1] < 1:
        raise ValueError("need at least 2 support points of dimension >= 1")
    if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
        raise ValueError("support and probs must be finite")
    if np.any(w <= 0.0):
        raise ZeroOrNegativeProb(f"minimum prob {w.min()} is not strictly positive")
    if _row_groups(pts)[1] < pts.shape[0]:
        raise DuplicateSupportPoint("support points must be pairwise distinct")
    total = math.fsum(w)
    w = w / total
    pts = pts.copy()
    pts.setflags(write=False)
    w.setflags(write=False)
    return DiscreteDistribution(support=pts, probs=w)


def same_distribution(a: DiscreteDistribution, b: DiscreteDistribution) -> bool:
    """True when the two objects describe the identical distribution."""
    if a is b:
        return True
    return (
        a.support.shape == b.support.shape
        and np.array_equal(a.support, b.support)
        and np.array_equal(a.probs, b.probs)
    )


def expectation(dist: DiscreteDistribution, values) -> float | np.ndarray:
    """Exact expectation of a per-support-point function.

    ``values`` has one entry (scalar or vector/matrix) per support point,
    i.e. shape (S,) or (S, ...).  The ``prob * value`` products are formed in
    one array operation; each output component is then the correctly rounded
    sum (``math.fsum``) of its column of products, so linearity and the unit
    integral hold to well below 1e-12 and the result does not depend on the
    order of the atoms.  Returns a float for scalar input, else an array of
    the trailing shape.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[0] != dist.n_atoms:
        raise LengthMismatch(f"{v.shape[0]} values for {dist.n_atoms} support points")
    products = dist.probs[:, None] * v.reshape(dist.n_atoms, -1)
    out = np.array([math.fsum(column) for column in products.T.tolist()])
    if v.ndim == 1:
        return float(out[0])
    return out.reshape(v.shape[1:])


def _checked_seed(seed: int) -> int:
    """``seed`` as an int, refused with ``ValueError`` unless it is an
    integer (``operator.index``: truncating 1.7 would run seed 1's stream)
    in [0, 2^64): a seed is one 64-bit word, and reducing a wider one modulo
    2^64 would give two seeds one stream."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def draw_indices(dist: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. categorical draws returned as support indices, shape (n,)."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(key=_checked_seed(seed)))
    return np.searchsorted(dist.cdf, rng.random(n), side="right")


def replication_seed(master_seed: int, rep: int) -> int:
    """Derive the seed of replication ``rep`` from a master seed.

    Uses a keyed split (``SeedSequence`` with spawn key ``(rep,)``), so the
    per-replication streams are statistically independent and the mapping
    does not depend on how replications are scheduled.
    """
    ss = np.random.SeedSequence(entropy=_checked_seed(master_seed), spawn_key=(int(rep),))
    return int(ss.generate_state(1, np.uint64)[0])


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(group id of each of the m ``rows``, number of groups).  Rows equal
    under ``==`` (-0.0 is 0.0; NaN equals nothing) share an id, and ids
    follow first occurrence, so distinct rows get ids 0..m-1 in order."""
    order = np.lexsort(rows.T)  # stable: equal rows end up adjacent, in order
    ordered = rows[order]
    starts = np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)])
    first = order[starts]  # each group's first row
    ids = np.empty_like(order)
    ids[order] = np.argsort(np.argsort(first))[np.cumsum(starts) - 1]
    return ids, first.shape[0]

