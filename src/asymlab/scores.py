"""The Hilbert space of mean-zero scores on a finite support, and the
population design of each model kind.

A score is one real value per support point with zero mean under the carrying
distribution; the inner product is <f, g> = E[f g].  Subspaces are held as
explicit orthonormal bases, one (k, S) array each, so projections are matrix
products.  Every basis comes from one Householder QR in whitened coordinates
(f -> sqrt(p) f): ``_split_span`` turns a few spanning columns A and B into
orthonormal columns for span(A) less the constant minus the projection of
span(B) on it, all mean-zero to rounding.  No other step pivots or drops a
column, so a basis is a fixed sequence of LAPACK calls on its inputs, the
same bits under any BLAS thread count, and its signs are fixed by its first
non-negligible coordinate.

Each instance has one population design (``moment_design`` or
``iv_design``), derived once with all of its checks, and the only route to
its population objects: each estimator's influence function, whose inner
products with a score are its bias (``bias``), and each test's statistic
basis, whose coordinates of a score are the test's limit drift (``drift``;
J: the moment functions orthogonal to the efficient score; DWH: the
OLS/2SLS influence differences).  Every inverse a design takes (Sigma, the
information; for IV the estimators' own solves on E[rows rows']) is a
``linalg._cholesky`` solve, refused by a named error when the
factorisation fails.  The same factorisations decide rank: the
information's for the mean Jacobian, the estimators' own solves for
E[ZX'], and ``linalg._contrast_solve`` for the DWH rank, as for the
sample's, each pivot against a diagonal rounding cannot shrink; no verdict
depends on the units of a regressor, an instrument or a moment.  A score's
three-way split and the tangent bases are read from
the same two small spans of each design (``_spans``):
T_perp (the J basis; the IV design's cell-wise errors, over the (x1, z)
cells that ``dist._row_groups`` finds, minus x e) and M_perp (empty for a
moment design; the instrument errors z e minus the projection of x e on
them).  T is the complement of the constant and T_perp.  ``bases`` gives
the same (T, T_perp or T_perp_cap_M, M_perp) triple for both kinds; the
bases (T has nearly S dimensions) are built only for a score given by basis
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import DiscreteDistribution, _row_groups, expectation, same_distribution
from .errors import (
    DistributionMismatch,
    MomentNotSatisfied,
    NullModelViolated,
    RankDeficientFirstStage,
    RankDeficientJacobian,
    ShapeMismatch,
    SingularSigma,
)
from .iv import _least_squares, _two_stage
from .linalg import PIVOT_TOL, _cholesky, _contrast_solve
from .models import IVModel, MomentModel

MEAN_ZERO_TOL = 1e-10
ORTHO_TOL = 1e-10
NULL_MODEL_TOL = 1e-10  # on E[e | cell] and, times max(1, sigma0^2), on E[e^2 | cell]

SUBSPACE_LABELS = ("T", "T_perp", "T_perp_cap_M", "M_perp", "full")


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
        if not np.isfinite(v).all():
            raise ValueError(f"score values must be finite, got {v[~np.isfinite(v)][0]}")
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


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of the score space.

    ``values`` holds the basis functions as the rows of one read-only
    (dim, S) array, each row mean-zero and the rows orthonormal under the
    distribution.  ``label`` names which subspace of the tangent
    decomposition this is ("T", "T_perp", "T_perp_cap_M", "M_perp", or
    "full").  A (0, S) array represents the trivial subspace.
    """

    dist: DiscreteDistribution
    values: np.ndarray
    label: str = "full"

    def __post_init__(self):
        if self.label not in SUBSPACE_LABELS:
            raise ValueError(f"unknown subspace label {self.label!r}")
        mat = np.array(self.values, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self.dist.n_atoms:
            raise DistributionMismatch(
                f"basis has shape {mat.shape} for {self.dist.n_atoms} support points"
            )
        if mat.shape[0]:
            scale = np.maximum(1.0, np.max(np.abs(mat), axis=1))
            if np.any(np.abs(mat @ self.dist.probs) > MEAN_ZERO_TOL * scale):
                raise ValueError("basis functions are not mean-zero")
            gram = (mat * self.dist.probs) @ mat.T
            if np.max(np.abs(gram - np.eye(mat.shape[0]))) > ORTHO_TOL:
                raise ValueError("basis functions are not orthonormal under the distribution")
        mat.setflags(write=False)
        object.__setattr__(self, "values", mat)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _require_same_dist(dist: DiscreteDistribution, f: ScoreFunction) -> None:
    if not same_distribution(dist, f.dist):
        raise DistributionMismatch("score function is attached to a different distribution")


def inner_product(dist: DiscreteDistribution, f: ScoreFunction, g: ScoreFunction) -> float:
    """<f, g> = E[f(X) g(X)] under ``dist`` (compensated summation)."""
    _require_same_dist(dist, f)
    _require_same_dist(dist, g)
    return expectation(dist, f.values * g.values)


# --- orthonormalization ----------------------------------------------------------


def _white(dist: DiscreteDistribution, cols: np.ndarray) -> np.ndarray:
    """Per-atom columns ``cols`` (S, k) whitened (f -> sqrt(p) f)."""
    return cols * np.sqrt(dist.probs)[:, None]


def _split_span(dist: DiscreteDistribution, a: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """Orthonormal columns (S, i) spanning span(a) less the constant, in
    whitened coordinates: the first j span the projection of the columns of
    ``b`` (S, j) on it, the rest the remainder.  A Householder QR of
    [sqrt(p), a], which must have full column rank, less the constant's
    column, rotated by a complete QR of b's coordinates in it; ``a`` None
    is the whole space.  The constant leads, so no input need be centered
    and every column is mean-zero to rounding however ill-conditioned."""
    root_p = np.sqrt(dist.probs)[:, None]
    if a is None:
        return np.linalg.qr(np.hstack([root_p, b]), mode="complete")[0][:, 1:]
    q = np.linalg.qr(np.hstack([root_p, a]))[0][:, 1:]
    rot, _ = np.linalg.qr(q.T @ b, mode="complete")
    return q @ rot


def _fix_sign(rows: np.ndarray) -> np.ndarray:
    """Make the first non-negligible coordinate of every row positive (deterministic output)."""
    mag = np.abs(rows)
    lead = np.argmax(mag > 1e-8 * np.max(mag, axis=1, initial=0.0)[:, None], axis=1)
    return rows * np.where(rows[np.arange(rows.shape[0]), lead] < 0.0, -1.0, 1.0)[:, None]


def _basis(dist: DiscreteDistribution, white: np.ndarray, label: str) -> SubspaceBasis:
    """The basis whose whitened columns are ``white`` (S, k): un-whitened, signs fixed."""
    return SubspaceBasis(dist, _fix_sign(white.T / np.sqrt(dist.probs)), label)


def _tangent_basis(dist: DiscreteDistribution, t_perp: np.ndarray) -> SubspaceBasis:
    """T, the mean-zero functions orthogonal to the whitened columns ``t_perp``."""
    return _basis(dist, _split_span(dist, None, t_perp)[:, t_perp.shape[1] :], "T")


def coordinates(dist: DiscreteDistribution, g: ScoreFunction, basis: SubspaceBasis) -> np.ndarray:
    """Inner products of ``g`` with each basis function, shape (dim,)."""
    _require_same_dist(dist, g)
    if not same_distribution(dist, basis.dist):
        raise DistributionMismatch("basis is attached to a different distribution")
    return basis.values @ (dist.probs * g.values)


def project(dist: DiscreteDistribution, g: ScoreFunction, onto: SubspaceBasis) -> ScoreFunction:
    """Orthogonal projection of ``g`` onto the subspace spanned by ``onto``."""
    return ScoreFunction(dist, coordinates(dist, g, onto) @ onto.values)


# --- population designs ----------------------------------------------------------


@dataclass(frozen=True)
class PopulationDesign:
    """What every prediction and score split of one instance reads:
    ``influence`` maps each estimator to its centered influence values
    (S, p), whose inner products with g are its bias along g; ``statistic``
    maps each test to its statistic basis, orthonormal rows (k, S) whose
    coordinates of g are the test's limit drift mu (dof k, ncp |mu|^2).

    A score's three-way split is read from each kind's ``_spans``: whitened
    orthonormal columns (S, k) for its two small spans, T_perp and M_perp.
    The middle space, T_perp minus M_perp, is labelled ``middle_label``."""

    dist: DiscreteDistribution
    influence: dict[str, np.ndarray]
    statistic: dict[str, SubspaceBasis]

    def __post_init__(self):
        # every reader of an instance shares its design, so its arrays are read-only
        for value in (*vars(self).values(), *self.influence.values()):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def bias(self, estimator: str, g: ScoreFunction) -> np.ndarray:
        """b = E[nu g] (p,), the asymptotic mean of the estimator's scaled
        error along the deviation ``g``."""
        _require_same_dist(self.dist, g)
        return expectation(self.dist, self.influence[estimator] * g.values[:, None])

    def dof(self, test: str) -> int:
        """k, the dimension of the test's statistic basis; ``ShapeMismatch``
        naming ``no_dof_cause`` when 0, where the test cannot be run (J with
        l = p; DWH where 2SLS equals OLS along some combination of x1)."""
        k = self.statistic[test].dim
        if k == 0:
            raise ShapeMismatch(
                f"the {test} test has no degrees of freedom on this instance: {self.no_dof_cause}"
            )
        return k

    def drift(self, test: str, g: ScoreFunction) -> np.ndarray:
        """mu (k,), the test's limit drift along ``g``: g's coordinates on
        its statistic basis (noncentrality |mu|^2, dof k)."""
        return coordinates(self.dist, g, self.statistic[test])

    def covariance(self, estimator: str, test: str) -> np.ndarray:
        """C = E[b nu'] (k, p), the limit covariance of the test's vector with
        the estimator's; zero for an estimator efficient under the test's
        null (Hausman 1978)."""
        nu = self.influence[estimator]
        return self.statistic[test].values @ (self.dist.probs[:, None] * nu)

    @cached_property
    def bases(self) -> tuple[SubspaceBasis, SubspaceBasis, SubspaceBasis]:
        """(T, the middle space, M_perp).  The middle is T_perp minus M_perp,
        and T, the tangent space, is the orthocomplement of the constant and
        T_perp.  T has nearly S dimensions, so the bases are built only for
        a score given by basis coefficients."""
        dist, (t_perp, m_perp) = self.dist, self._spans
        middle = _split_span(dist, t_perp, m_perp)[:, m_perp.shape[1] :]
        return (
            _tangent_basis(dist, t_perp),
            _basis(dist, middle, self.middle_label),
            _basis(dist, m_perp, "M_perp"),
        )

    def orthocomplement_parts(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(part of per-atom ``values`` (S,) in T_perp, part in M_perp), each
        projected on its whitened columns; an empty M_perp gives exact zeros."""
        sqp = np.sqrt(self.dist.probs)
        white = values * sqp
        return tuple((span @ (span.T @ white)) / sqp for span in self._spans)


@dataclass(frozen=True)
class MomentDesign(PopulationDesign):
    """A moment model at theta0: efficient score ``ell`` = -m Sigma^{-1} gbar
    (S, p), information, and ``frame``, orthonormal moment functions whose
    first p rows span ell and last l - p (the J statistic basis) span
    T_perp."""

    ell: np.ndarray
    info: np.ndarray
    frame: SubspaceBasis

    estimators = ("gmm",)
    tests = ("j",)
    middle_label = "T_perp"
    no_dof_cause = "the moments just identify the parameters (l = p)"

    @cached_property
    def _spans(self) -> tuple[np.ndarray, np.ndarray]:
        """T_perp, spanned by the J statistic basis; its orthocomplement T is
        the efficient score plus the nuisance scores (every direction
        uncorrelated with m).  The maintained model is everything, so M_perp
        is empty."""
        dist = self.dist
        return _white(dist, self.statistic["j"].values.T), np.zeros((dist.n_atoms, 0))


def moment_design(dist: DiscreteDistribution, model: MomentModel, theta0) -> MomentDesign:
    """The design of ``model`` at ``theta0`` once theta0 has shape (p,) (else
    ``ShapeMismatch``), the Jacobian agrees with finite differences,
    E[m] = 0, Sigma and the information factor by ``_cholesky`` (else
    ``SingularSigma``, naming the failing pivot, and ``RankDeficientJacobian``:
    the information's factorisation, its pivots against the Jacobian columns'
    E[J_j' Sigma^-1 J_j], is the one rank rule for gbar), and the
    efficient influence lies in the tangent space (|C(gmm, j)| <= 1e-8).
    The frame is ``_split_span`` of the moments and ell: its first p rows
    span ell, the rest span(m) minus span(ell); with l = p, J has no rows.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (model.p,):
        raise ShapeMismatch(f"theta0 has shape {theta0.shape}, expected ({model.p},)")
    model.check_jacobian(theta0, dist.support)
    m_vals = model.moments_at(theta0, dist.support)
    mbar = expectation(dist, m_vals)
    if np.max(np.abs(mbar)) > 1e-8:
        raise MomentNotSatisfied(
            f"max |E[m]| = {np.max(np.abs(mbar)):.3e} at the supplied parameter"
        )
    sigma = (m_vals.T * dist.probs) @ m_vals
    sigma = 0.5 * (sigma + sigma.T)
    jac = model.jacobians_at(theta0, dist.support)
    gbar = expectation(dist, jac)
    solved = _cholesky(sigma, np.column_stack([gbar, np.eye(model.l)]))
    if solved is None:  # a leading block's factor is the leading part of the whole one
        blocks = (sigma[: j + 1, : j + 1] for j in range(model.l))
        j = next(j for j, block in enumerate(blocks) if _cholesky(block, block[0]) is None)
        raise SingularSigma(
            f"moment second-moment matrix is singular: its Cholesky pivot for moment {j} "
            f"(counting from 0) is not above {PIVOT_TOL:g} times its diagonal entry"
        )
    weighted = solved[:, : model.p]
    info = gbar.T @ weighted
    info = 0.5 * (info + info.T)
    ell = -m_vals @ weighted
    second = np.einsum("s,sij,ik,skj->j", dist.probs, jac, solved[:, model.p :], jac)
    info_inv = _cholesky(info, np.eye(model.p), second)
    if info_inv is None:
        raise RankDeficientJacobian("the information matrix is singular")
    nu = ell @ info_inv
    frame = _split_span(dist, _white(dist, m_vals), _white(dist, ell)).T / np.sqrt(dist.probs)
    frame = SubspaceBasis(dist, frame)
    j_basis = SubspaceBasis(dist, frame.values[model.p :], "T_perp")
    influence = dict(zip(MomentDesign.estimators, [nu - expectation(dist, nu)]))
    statistic = dict(zip(MomentDesign.tests, [j_basis]))
    design = MomentDesign(dist, influence, statistic, ell, info, frame)
    escape = np.linalg.norm(design.covariance("gmm", "j"), axis=0).max()
    if escape > 1e-8:
        raise RankDeficientJacobian(f"the influence escapes the tangent space by {escape:.2e}")
    return design


def check_iv_null_model(dist: DiscreteDistribution, model: IVModel) -> None:
    """Verify E[e | x1, z] = 0, E[e^2 | x1, z] = sigma0^2 on the support, to NULL_MODEL_TOL."""
    _null_cells(dist, model)


def _null_cells(dist: DiscreteDistribution, model: IVModel) -> tuple[np.ndarray, ...]:
    """(cell of each atom, errors e) once ``check_iv_null_model`` passes.  The
    cells are the ``_row_groups`` of (x1, z) = (x1, x2, z1), the rows less y,
    numbered in support order; a bincount sums p, p e and p e^2 per cell."""
    e = model.errors_on(dist.support)
    cell, count = _row_groups(dist.support[:, 1:])
    mass, m1, m2 = (np.bincount(cell, dist.probs * v, count) for v in (1.0, e, e * e))
    m1, m2 = m1 / mass, m2 / mass
    tol_m2 = NULL_MODEL_TOL * max(1.0, model.sigma0_sq)
    good = (np.abs(m1) <= NULL_MODEL_TOL) & (np.abs(m2 - model.sigma0_sq) <= tol_m2)
    if not good.all():  # a NaN moment is a violation too
        c = int(np.argmin(good))
        at = f"(x1, x2, z1) = {tuple(dist.support[cell == c][0, 1:].tolist())}"
        if not abs(m1[c]) <= NULL_MODEL_TOL:
            raise NullModelViolated(f"E[e | {at}] = {m1[c]:.3e} != 0")
        raise NullModelViolated(f"E[e^2 | {at}] = {m2[c]:.6g} != sigma0^2 = {model.sigma0_sq}")
    return cell, e


@dataclass(frozen=True)
class IvDesign(PopulationDesign):
    """The linear IV null model: X, Z, errors e and (x1, z) cell of each
    atom.  The DWH basis spans the OLS/2SLS influence differences."""

    X: np.ndarray
    Z: np.ndarray
    e: np.ndarray
    cell: np.ndarray

    estimators = ("ols", "tsls")
    tests = ("dwh",)
    middle_label = "T_perp_cap_M"
    no_dof_cause = "2SLS equals OLS along some combination of x1"

    @cached_property
    def _spans(self) -> tuple[np.ndarray, np.ndarray]:
        """T_perp, the orthocomplement of the null-model tangent space: the
        span of the cell-wise errors 1_c e, one per (x1, z) cell, minus the
        span of x e.  M_perp, the orthocomplement of the maintained
        (instrument-validity) one: span(z e) minus the projection of x e on
        it, which has q - k1 dimensions.  x e and z e lie in the span of the
        1_c e because x and z are functions of the cell, and M_perp lies in
        T_perp (see ``iv_design``)."""
        dist, e, cell = self.dist, self.e, self.cell
        on_cells = np.where(cell[:, None] == np.arange(cell.max() + 1), e[:, None], 0.0)
        xe, p = _white(dist, self.X * e[:, None]), self.X.shape[1]
        t_perp = _split_span(dist, _white(dist, on_cells), xe)[:, p:]
        return t_perp, _split_span(dist, _white(dist, self.Z * e[:, None]), xe)[:, p:]


def iv_design(dist: DiscreteDistribution, model: IVModel) -> IvDesign:
    """The design of the IV null model once the conditional null holds and
    the estimators' own solves (``iv._two_stage``, ``iv._least_squares``)
    accept the population Gram E[rows rows'], refusing by the errors they
    give a sample; they are the one rank rule for E[ZX'].

    The null tangent space then nests in the maintained one.  The
    maintained efficient score is E[XZ'] E[ZZ']^{-1} z e / sigma0^2, and
    x and z are functions of the (x1, z) cell with E[e^2 | cell] =
    sigma0^2, so E[x e (z e)'] = sigma0^2 E[xz'] and that score spans the
    projection of x e on span(z e).  M_perp is therefore span(z e) minus
    that projection, read without E[ZZ']^{-1}: x e has no part in it, by
    construction, and it lies in T_perp.

    The DWH basis spans the OLS/2SLS influence differences, which are
    uncorrelated with OLS's influence (Hausman 1978), so span(x1_hat e)
    minus span(x e), x1_hat the projection of x1 on z: the k1 trailing
    columns of ``_split_span`` of [x e, x1_hat e] and x e, which does not
    cancel where 2SLS is close to OLS and, like every span, keeps the
    columns mean-zero to rounding.  There are none unless
    ``linalg._contrast_solve`` (the sample statistic's rule) finds the x1
    blocks of E[XX']^{-1} and (E[XZ'] E[ZZ']^{-1} E[ZX'])^{-1} a positive
    definite contrast.
    """
    cell, e = _null_cells(dist, model)
    _, X, Z = model.design_matrices(dist.support)
    gram = expectation(dist, dist.support[:, :, None] * dist.support[:, None, :])
    try:
        first, solved = _two_stage(gram, model)
    except RankDeficientFirstStage:  # Z'Z factors: X'X is named before X'P_Z X
        _least_squares(gram, model)
        raise
    exx_inv, projected_inv = _least_squares(gram, model)[:, 1:], solved[:, 1:]
    ols = (X @ exx_inv) * e[:, None]
    tsls = (Z @ first[:, 1:] @ projected_inv) * e[:, None]
    ols, tsls = (v - expectation(dist, v) for v in (ols, tsls))
    k1, dwh = model.k1, np.zeros((dist.n_atoms, 0))
    if _contrast_solve(exx_inv[:k1, :k1], projected_inv[:k1, :k1], np.zeros(k1)) is not None:
        xe = _white(dist, X * e[:, None])
        fitted = _white(dist, (Z @ first[:, 1 : 1 + k1]) * e[:, None])
        dwh = _split_span(dist, np.hstack([xe, fitted]), xe)[:, xe.shape[1] :]
    dwh = _basis(dist, dwh, "T_perp_cap_M")
    influence = dict(zip(IvDesign.estimators, [ols, tsls]))
    statistic = dict(zip(IvDesign.tests, [dwh]))
    return IvDesign(dist, influence, statistic, X, Z, e, cell)


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
