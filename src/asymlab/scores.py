"""The Hilbert space of mean-zero scores on a finite support.

A score is one real value per support point with zero mean under the carrying
distribution; the inner product is <f, g> = E[f g].  Subspaces are held as
explicit orthonormal bases, so projections are dot products.  Null spaces of
linear constraints are computed from symmetric eigendecompositions (constraint
Gram matrix, then the complement projector), which is deterministic up to
signs; signs are fixed by making the first nonzero coordinate of every basis
vector positive.

The tangent-space constructors at the bottom build, for a moment-restriction
model, the directions along which the model can be deformed (span of the
efficient score plus the nuisance scores) and, for the linear IV design, the
three-way split between the null model, the maintained model, and everything
else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDistribution, expectation, same_distribution
from .errors import (
    DistributionMismatch,
    EmptySpan,
    MomentNotSatisfied,
    NestingViolated,
    NullModelViolated,
    RankDeficientFirstStage,
    RankDeficientJacobian,
    SingularSigma,
)
from .models import IVModel, MomentModel

MEAN_ZERO_TOL = 1e-10
ORTHO_TOL = 1e-10
DROP_TOL = 1e-9  # Gram-Schmidt residual drop tolerance, relative to largest input norm

SUBSPACE_LABELS = ("T", "T_perp", "T_perp_cap_M", "M_perp", "M", "full")


@dataclass(frozen=True)
class ScoreFunction:
    """An element of the mean-zero score space: one value per support point."""

    dist: DiscreteDistribution
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.dist.n_atoms,):
            raise DistributionMismatch(
                f"score has {v.shape} values for {self.dist.n_atoms} support points"
            )
        mean = expectation(self.dist, v)
        scale = max(1.0, float(np.max(np.abs(v))))
        if abs(mean) > MEAN_ZERO_TOL * scale:
            raise ValueError(f"score is not mean-zero: E[g] = {mean:.3e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        return math.sqrt(max(inner_product(self.dist, self, self), 0.0))

    def __add__(self, other: "ScoreFunction") -> "ScoreFunction":
        _require_same_dist(self.dist, other)
        return ScoreFunction(self.dist, self.values + other.values)

    def __sub__(self, other: "ScoreFunction") -> "ScoreFunction":
        _require_same_dist(self.dist, other)
        return ScoreFunction(self.dist, self.values - other.values)

    def __mul__(self, c: float) -> "ScoreFunction":
        return ScoreFunction(self.dist, float(c) * self.values)

    __rmul__ = __mul__

    def __neg__(self) -> "ScoreFunction":
        return ScoreFunction(self.dist, -self.values)


def centered_score(dist: DiscreteDistribution, values) -> ScoreFunction:
    """Build a score from raw per-point values by subtracting the exact mean."""
    v = np.asarray(values, dtype=float)
    return ScoreFunction(dist, v - expectation(dist, v))


def zero_score(dist: DiscreteDistribution) -> ScoreFunction:
    return ScoreFunction(dist, np.zeros(dist.n_atoms))


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of the score space.

    ``label`` names which subspace of the tangent decomposition this is
    ("T", "T_perp", "T_perp_cap_M", "M_perp", "M", or "full").  An empty
    basis represents the trivial subspace.
    """

    dist: DiscreteDistribution
    functions: tuple[ScoreFunction, ...]
    label: str = "full"

    def __post_init__(self):
        if self.label not in SUBSPACE_LABELS:
            raise ValueError(f"unknown subspace label {self.label!r}")
        for f in self.functions:
            _require_same_dist(self.dist, f)
        mat = self.matrix()
        if mat.shape[0]:
            gram = (mat * self.dist.probs) @ mat.T
            if np.max(np.abs(gram - np.eye(mat.shape[0]))) > ORTHO_TOL:
                raise ValueError("basis functions are not orthonormal under the distribution")

    @property
    def dim(self) -> int:
        return len(self.functions)

    def matrix(self) -> np.ndarray:
        """Basis values stacked row-wise, shape (dim, S)."""
        if not self.functions:
            return np.zeros((0, self.dist.n_atoms))
        return np.array([f.values for f in self.functions])


def _require_same_dist(dist: DiscreteDistribution, f: ScoreFunction) -> None:
    if not same_distribution(dist, f.dist):
        raise DistributionMismatch("score function is attached to a different distribution")


def inner_product(dist: DiscreteDistribution, f: ScoreFunction, g: ScoreFunction) -> float:
    """<f, g> = E[f(X) g(X)] under ``dist`` (compensated summation)."""
    _require_same_dist(dist, f)
    _require_same_dist(dist, g)
    return expectation(dist, f.values * g.values)


def _fix_sign(values: np.ndarray) -> np.ndarray:
    """Make the first non-negligible coordinate positive (deterministic output)."""
    scale = np.max(np.abs(values))
    if scale == 0.0:
        return values
    for v in values:
        if abs(v) > 1e-8 * scale:
            return values if v > 0 else -values
    return values


def orthonormal_basis(
    dist: DiscreteDistribution, spanning: list[ScoreFunction], label: str = "full"
) -> SubspaceBasis:
    """Orthonormalize a spanning set by classical Gram-Schmidt applied twice (CGS2).

    Vectors are taken in input order.  The accepted basis is held as the rows
    of one (k, S) array, so each orthogonalization pass is one weighted
    mat-vec for the coefficients against every accepted vector and one
    mat-vec for the update; the second pass (re-orthogonalization) keeps the
    loss of orthogonality near machine precision.  Vectors whose residual
    norm falls below ``DROP_TOL`` times the largest input norm are discarded,
    so the output size is the numerical rank of the span.  Raises
    ``EmptySpan`` when nothing survives.
    """
    if not spanning:
        raise EmptySpan("no spanning functions supplied")
    for f in spanning:
        _require_same_dist(dist, f)
    w = dist.probs
    max_norm = max(math.sqrt(max(expectation(dist, f.values**2), 0.0)) for f in spanning)
    if max_norm == 0.0:
        raise EmptySpan("all spanning functions are zero")
    basis = np.empty((len(spanning), dist.n_atoms))  # accepted vectors in rows [:k]
    weighted = np.empty_like(basis)  # the same rows times the probabilities
    k = 0
    for f in spanning:
        v = f.values
        for _ in range(2):
            v = v - (weighted[:k] @ v) @ basis[:k]
        nrm = math.sqrt(max(expectation(dist, v**2), 0.0))
        if nrm <= DROP_TOL * max_norm:
            continue
        basis[k] = _fix_sign(v / nrm)
        weighted[k] = w * basis[k]
        k += 1
    if k == 0:
        raise EmptySpan("spanning set has numerical rank zero")
    return SubspaceBasis(dist, tuple(ScoreFunction(dist, v) for v in basis[:k]), label)


def project(dist: DiscreteDistribution, g: ScoreFunction, onto: SubspaceBasis) -> ScoreFunction:
    """Orthogonal projection of ``g`` onto the subspace spanned by ``onto``."""
    _require_same_dist(dist, g)
    if not same_distribution(dist, onto.dist):
        raise DistributionMismatch("basis is attached to a different distribution")
    if onto.dim == 0:
        return zero_score(dist)
    mat = onto.matrix()
    coefs = (mat * dist.probs) @ g.values
    return ScoreFunction(dist, coefs @ mat)


# --- null spaces of linear constraints -----------------------------------------


def _constraint_span_whitened(dist: DiscreteDistribution, constraints: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the constraint functions, in whitened coordinates.

    Whitening maps f to sqrt(p) * f, turning the weighted inner product into
    the Euclidean one.  The span is extracted from the eigendecomposition of
    the constraint Gram matrix (symmetric PSD, deterministic up to signs).
    """
    if constraints.shape[0] == 0:
        return np.zeros((0, dist.n_atoms))
    white = constraints * np.sqrt(dist.probs)
    gram = white @ white.T
    evals, evecs = np.linalg.eigh(gram)
    top = evals[-1]
    if top <= 0.0:
        return np.zeros((0, dist.n_atoms))
    keep = evals > 1e-24 * top  # rank cut on squared norms
    q = (evecs[:, keep] / np.sqrt(evals[keep])).T @ white
    # polish: one re-orthonormalization pass for well-separated output
    q, _ = np.linalg.qr(q.T)
    return q.T


def complement_basis(
    dist: DiscreteDistribution, constraints: list[np.ndarray], label: str = "full"
) -> SubspaceBasis:
    """Orthonormal basis of the mean-zero functions orthogonal to all constraints.

    ``constraints`` are raw per-point value arrays; the constant function is
    always appended so the result lies in the mean-zero space.  The basis is
    read off the eigendecomposition of the orthogonal-complement projector.
    """
    s = dist.n_atoms
    sqp = np.sqrt(dist.probs)
    stacked = np.vstack([np.asarray(c, dtype=float) for c in constraints] + [np.ones(s)])
    q = _constraint_span_whitened(dist, stacked)
    proj_comp = np.eye(s) - q.T @ q
    evals, evecs = np.linalg.eigh(proj_comp)
    cols = [i for i in range(s) if evals[i] > 0.5]
    functions = []
    for i in cols:
        vals = _fix_sign(evecs[:, i] / sqp)
        functions.append(centered_score(dist, vals))  # exact re-centering kills rounding
    return SubspaceBasis(dist, tuple(functions), label)


# --- GMM tangent construction ----------------------------------------------------


def _population_moment_objects(
    dist: DiscreteDistribution, model: MomentModel, theta0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m values (S, l), Sigma (l, l), mean Jacobian (l, p)) with rank checks."""
    theta0 = np.asarray(theta0, dtype=float)
    model.check_jacobian(theta0, dist.support)
    m_vals = model.moments_at(theta0, dist.support)
    mbar = expectation(dist, m_vals)
    if np.max(np.abs(mbar)) > 1e-8:
        raise MomentNotSatisfied(
            f"max |E[m]| = {np.max(np.abs(mbar)):.3e} at the supplied parameter"
        )
    sigma = (m_vals.T * dist.probs) @ m_vals
    sigma = 0.5 * (sigma + sigma.T)
    evals = np.linalg.eigvalsh(sigma)
    if evals[0] <= 1e-12 * max(evals[-1], 1e-300):
        raise SingularSigma(f"moment second-moment matrix is singular (eigs {evals})")
    gbar = expectation(dist, model.jacobians_at(theta0, dist.support))
    svals = np.linalg.svd(gbar, compute_uv=False)
    if svals[-1] <= 1e-10 * svals[0]:
        raise RankDeficientJacobian(f"mean Jacobian singular values {svals}")
    return m_vals, sigma, gbar


def gmm_tangent_basis(
    dist: DiscreteDistribution, model: MomentModel, theta0
) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Tangent space of the moment model at ``dist`` and its orthocomplement.

    The tangent space is the span of the efficient score for the parameter
    plus every mean-zero direction uncorrelated with the moment function (the
    nuisance scores).  Its orthocomplement has dimension l - p when the
    support is rich enough.
    """
    theta0 = np.asarray(theta0, dtype=float)
    m_vals, sigma, gbar = _population_moment_objects(dist, model, theta0)
    ell = -m_vals @ np.linalg.solve(sigma, gbar)  # (S, p), efficient score columns
    nuisance = complement_basis(dist, [m_vals[:, j] for j in range(model.l)])
    spanning = [centered_score(dist, ell[:, j]) for j in range(model.p)]
    spanning.extend(nuisance.functions)
    t_basis = orthonormal_basis(dist, spanning, label="T")
    t_perp = complement_basis(dist, [f.values for f in t_basis.functions], label="T_perp")
    return t_basis, t_perp


# --- linear IV tangent construction -----------------------------------------------


def check_iv_null_model(dist: DiscreteDistribution, model: IVModel, tol: float = 1e-10) -> None:
    """Verify the conditional null on the support: E[e | x1, z] = 0, E[e^2 | x1, z] = sigma0^2."""
    y, x1, x2, z1 = model.split_rows(dist.support)
    e = model.errors_on(dist.support)
    groups = _conditioning_groups(x1, x2, z1)
    for key, idx in groups.items():
        w = dist.probs[idx]
        mass = math.fsum(w)
        m1 = math.fsum(w * e[idx]) / mass
        m2 = math.fsum(w * e[idx] ** 2) / mass
        if abs(m1) > tol:
            raise NullModelViolated(f"E[e | group {key}] = {m1:.3e} != 0")
        if abs(m2 - model.sigma0_sq) > tol * max(1.0, model.sigma0_sq):
            raise NullModelViolated(
                f"E[e^2 | group {key}] = {m2:.6g} != sigma0^2 = {model.sigma0_sq}"
            )


def _conditioning_groups(x1: np.ndarray, x2: np.ndarray, z1: np.ndarray) -> dict:
    """Support indices grouped by the distinct values of (x1, z) = (x1, z1, x2)."""
    cond = np.hstack([x1, z1, x2])
    groups: dict[bytes, list[int]] = {}
    for s in range(cond.shape[0]):
        groups.setdefault(cond[s].tobytes(), []).append(s)
    return {k: np.array(v) for k, v in groups.items()}


def iv_population_matrices(
    dist: DiscreteDistribution, model: IVModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E[XX'], E[XZ'], E[ZZ']) under ``dist``."""
    _, X, Z = model.design_matrices(dist.support)
    exx = expectation(dist, X[:, :, None] * X[:, None, :])
    exz = expectation(dist, X[:, :, None] * Z[:, None, :])
    ezz = expectation(dist, Z[:, :, None] * Z[:, None, :])
    return exx, exz, ezz


def iv_tangent_bases(
    dist: DiscreteDistribution, model: IVModel
) -> tuple[SubspaceBasis, SubspaceBasis, SubspaceBasis]:
    """Three-way tangent split for the exogeneity testing problem.

    Returns orthonormal bases of the null-model tangent space T, of the part
    of the maintained (instrument-validity) tangent space orthogonal to it,
    and of the orthocomplement of the maintained space.  The conditional
    mean-zero constraint defining the nuisance directions of the null model
    is encoded as one linear constraint per distinct (x1, z) support value,
    which is exact on a finite support.
    """
    check_iv_null_model(dist, model)
    _, X, Z = model.design_matrices(dist.support)
    y, x1, x2, z1 = model.split_rows(dist.support)
    e = model.errors_on(dist.support)
    exx, exz, ezz = iv_population_matrices(dist, model)
    if np.linalg.matrix_rank(exz, tol=1e-10 * max(np.linalg.norm(exz), 1e-300)) < model.n_params:
        raise RankDeficientFirstStage("E[ZX'] does not have full rank")

    # Null model: efficient score x e / sigma0^2; nuisance scores are the
    # mean-zero directions orthogonal to every (indicator of (x1, z)) * e.
    ell_p_vals = X * (e / model.sigma0_sq)[:, None]  # (S, p)
    groups = _conditioning_groups(x1, x2, z1)
    constraints_p = []
    for idx in groups.values():
        c = np.zeros(dist.n_atoms)
        c[idx] = e[idx]
        constraints_p.append(c)
    nuis_p = complement_basis(dist, constraints_p)
    t_spanning = [centered_score(dist, ell_p_vals[:, j]) for j in range(model.n_params)]
    t_spanning.extend(nuis_p.functions)
    t_basis = orthonormal_basis(dist, t_spanning, label="T")

    # Maintained model: efficient score E[XZ'] E[ZZ']^{-1} z e / sigma0^2;
    # nuisance scores are orthogonal to every coordinate of z e.
    coef = exz @ np.linalg.inv(ezz)
    ell_m_vals = (Z @ coef.T) * (e / model.sigma0_sq)[:, None]
    constraints_m = [Z[:, j] * e for j in range(Z.shape[1])]
    nuis_m = complement_basis(dist, constraints_m)
    m_spanning = [centered_score(dist, ell_m_vals[:, j]) for j in range(model.n_params)]
    m_spanning.extend(nuis_m.functions)
    m_basis = orthonormal_basis(dist, m_spanning, label="M")

    # T_perp intersected with M: residuals of the M basis after removing T.
    residuals = []
    for f in m_basis.functions:
        r = f - project(dist, f, t_basis)
        if r.norm() > DROP_TOL:
            residuals.append(r)
    if residuals:
        t_perp_cap_m = orthonormal_basis(dist, residuals, label="T_perp_cap_M")
    else:
        t_perp_cap_m = SubspaceBasis(dist, (), label="T_perp_cap_M")

    m_perp = complement_basis(dist, [f.values for f in m_basis.functions], label="M_perp")

    for f in t_basis.functions:
        leak = project(dist, f, m_perp).norm()
        if leak > 1e-10:
            raise NestingViolated(f"a null tangent direction leaks {leak:.2e} outside M")
    return t_basis, t_perp_cap_m, m_perp


# --- three-way decomposition -------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    """Orthogonal split of a score into tangent, detectable, and invisible parts."""

    pi_T: ScoreFunction
    pi_TperpM: ScoreFunction
    pi_Mperp: ScoreFunction
    variances: tuple[float, float, float]

    @property
    def var_T(self) -> float:
        return self.variances[0]

    @property
    def var_TperpM(self) -> float:
        return self.variances[1]

    @property
    def var_Mperp(self) -> float:
        return self.variances[2]


def decompose_score(
    dist: DiscreteDistribution,
    g: ScoreFunction,
    bases: tuple[SubspaceBasis, SubspaceBasis, SubspaceBasis],
) -> DecompositionReport:
    """Project ``g`` on each of the three orthogonal subspaces.

    The bases must jointly span the mean-zero space (as produced by
    ``iv_tangent_bases``, or by ``gmm_tangent_basis`` plus an empty third
    basis), so the three parts add back to ``g``.
    """
    _require_same_dist(dist, g)
    parts = [project(dist, g, b) for b in bases]
    total = parts[0] + parts[1] + parts[2]
    gap = float(np.max(np.abs(total.values - g.values)))
    if gap > 1e-8 * max(1.0, float(np.max(np.abs(g.values)))):
        raise ValueError(
            f"projections miss g by {gap:.2e}; the three bases do not span the score space"
        )
    variances = tuple(inner_product(dist, p, p) for p in parts)
    return DecompositionReport(parts[0], parts[1], parts[2], variances)
