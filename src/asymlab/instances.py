"""Catalog of ready-made problem instances, score-direction resolution, and
the three-way split of a score.

Each instance holds one population design (``design``), derived with all of
its checks on first use; predictions, score splits and tangent bases read it.
The tangent bases and a score's split come from the same Householder QR of
the few functions that span each orthocomplement (``scores._split_span``),
so a basis vector, and a score given by basis coefficients, is the same
under any BLAS thread count.

Two built-ins cover the full verification surface:

* ``G1`` — the five-point symmetric distribution on {-2,...,2} with the
  overidentified mean model m(theta, x) = (x - theta, (x - theta)^2 - 1.2):
  one parameter, two moments, one overidentifying restriction.
* ``IV1`` — the eight-point linear IV design built from independent signs
  (z1, w, e), with x1 = z1 + w endogenous, an intercept, and beta0 = (1, 0):
  just-identified instruments, endogeneity testable by an OLS/2SLS contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dist import DiscreteDistribution, make_distribution
from .errors import ConfigInvalid
from .models import IVModel, MomentModel
from .scores import (
    DecompositionReport,
    IvDesign,
    MomentDesign,
    ScoreFunction,
    SubspaceBasis,
    _require_same_dist,
    inner_product,
    iv_design,
    moment_design,
)


@dataclass(frozen=True)
class GmmInstance:
    """A distribution paired with a moment model holding at ``theta0``."""

    name: str
    dist: DiscreteDistribution
    model: MomentModel
    theta0: np.ndarray

    kind = "gmm"
    estimators = MomentDesign.estimators
    tests = MomentDesign.tests

    @property
    def truth(self) -> np.ndarray:
        return self.theta0

    @cached_property
    def design(self) -> MomentDesign:
        """The population design, derived with its checks on first use."""
        return moment_design(self.dist, self.model, self.theta0)


@dataclass(frozen=True)
class IvInstance:
    """A distribution satisfying the linear IV null model exactly."""

    name: str
    dist: DiscreteDistribution
    model: IVModel

    kind = "iv"
    estimators = IvDesign.estimators
    tests = IvDesign.tests

    @property
    def truth(self) -> np.ndarray:
        return self.model.beta0

    @cached_property
    def design(self) -> IvDesign:
        """The population design, derived with its checks on first use."""
        return iv_design(self.dist, self.model)


Instance = GmmInstance | IvInstance


def overidentified_mean_model(v: float) -> MomentModel:
    """Mean model with a known-variance side restriction: m = (x - t, (x - t)^2 - v)."""

    def m(theta, x):
        d = x[:, 0] - theta[:, :1]  # (B, S)
        out = np.empty(d.shape + (2,))
        out[..., 0] = d
        out[..., 1] = d * d - v
        return out

    def jac(theta, x):
        d = x[:, 0] - theta[:, :1]
        out = np.empty(d.shape + (2, 1))
        out[..., 0, 0] = -1.0
        out[..., 1, 0] = -2.0 * d
        return out

    return MomentModel(m=m, jac=jac, p=1, l=2)


def linear_iv_moment_model(dims: tuple[int, int, int]) -> MomentModel:
    """Instrument orthogonality moments m(beta, row) = z (y - x'beta)."""
    k1, k2, q = dims
    shell = IVModel(beta0=np.zeros(k1 + k2), sigma0_sq=1.0, dims=dims)

    def m(beta, rows):
        y, X, Z = shell.design_matrices(rows)
        fitted = (X * beta[:, None, :]).sum(axis=2)  # (B, S); elementwise, so row b is B-free
        return Z * (y - fitted)[:, :, None]

    def jac(beta, rows):
        _, X, Z = shell.design_matrices(rows)
        return np.repeat(-(Z[None, :, :, None] * X[None, :, None, :]), len(beta), axis=0)

    return MomentModel(m=m, jac=jac, p=k1 + k2, l=q + k2)


@lru_cache(maxsize=1)
def g1_instance() -> GmmInstance:
    dist = make_distribution(
        support=[-2.0, -1.0, 0.0, 1.0, 2.0],
        probs=[0.1, 0.2, 0.4, 0.2, 0.1],
    )
    return GmmInstance(
        name="G1", dist=dist, model=overidentified_mean_model(1.2), theta0=np.array([0.0])
    )


@lru_cache(maxsize=1)
def iv1_instance() -> IvInstance:
    rows, probs = [], []
    for z1 in (-1.0, 1.0):
        for w in (-1.0, 1.0):
            for e in (-1.0, 1.0):
                x1 = z1 + w
                y = x1 * 1.0 + 1.0 * 0.0 + e
                rows.append([y, x1, 1.0, z1])
                probs.append(0.125)
    dist = make_distribution(rows, probs)
    model = IVModel(beta0=np.array([1.0, 0.0]), sigma0_sq=1.0, dims=(1, 1, 1))
    return IvInstance(name="IV1", dist=dist, model=model)


_BUILTINS = {"G1": g1_instance, "IV1": iv1_instance}


def instance_by_name(name: str) -> Instance:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ConfigInvalid(
            f"unknown instance {name!r}; built-ins are {sorted(_BUILTINS)}"
        ) from None


def tangent_bases(instance: Instance) -> tuple[SubspaceBasis, SubspaceBasis, SubspaceBasis]:
    """(T, T_perp, M_perp) for a moment instance, M_perp empty because the
    maintained model is everything; (T, T_perp_cap_M, M_perp) for an IV
    one: built from the design's two small spans on the first call and held
    on the design.  Only a score given by basis coefficients needs them."""
    return instance.design.bases


def decompose_score(instance: Instance, g: ScoreFunction) -> DecompositionReport:
    """Split ``g`` into its parts in T, in T_perp_cap_M and in M_perp.

    p = P_{T_perp} g and pi_Mperp = P_{M_perp} g are projections on the
    design's two small spans (``orthocomplement_parts``), the same ones its
    ``bases`` are built from; pi_TperpM = p - pi_Mperp and pi_T = g - p.
    Each variance is taken from its own part, so an empty part reads at
    rounding level.
    """
    dist = instance.dist
    _require_same_dist(dist, g)
    t_perp, m_perp = instance.design.orthocomplement_parts(g.values)
    parts = [ScoreFunction(dist, v) for v in (g.values - t_perp, t_perp - m_perp, m_perp)]
    return DecompositionReport(*parts, tuple(inner_product(dist, f, f) for f in parts))


def _is_number(value, kinds=(int, float)) -> bool:
    """True for a JSON number parsed as one of ``kinds``; a bool is not one."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _numbers(spec: dict, key: str, where: str) -> np.ndarray:
    """``spec[key]``, which must be a JSON array of numbers, as a float array;
    ``where`` names ``spec`` in the error."""
    items = spec.get(key)
    if not isinstance(items, list) or not all(_is_number(v) for v in items):
        raise ConfigInvalid(f"{where} field {key!r} must be an array of numbers")
    return np.array(items, dtype=float)


def resolve_score(instance: Instance, spec: dict) -> ScoreFunction:
    """Build the deviation direction from its configuration entry.

    Either explicit per-support values ({"kind": "values", "values": [...]})
    or coefficients on one of the instance's orthonormal tangent-split bases
    ({"kind": "basis", "space": "T" | "T_perp" | "T_perp_cap_M" | "M_perp",
    "coefficients": [...]}).  Values and coefficients must be arrays of
    numbers.  Coefficients refer to ``scores._split_span``'s vectors (on a
    space of more than one dimension, not those of earlier versions).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigInvalid("score must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "values":
        extra = set(spec) - {"kind", "values"}
        if extra:
            raise ConfigInvalid(f"unknown score fields {sorted(extra)}")
        values = _numbers(spec, "values", "score")
    elif kind == "basis":
        extra = set(spec) - {"kind", "space", "coefficients"}
        if extra:
            raise ConfigInvalid(f"unknown score fields {sorted(extra)}")
        space = spec.get("space")
        coefs = _numbers(spec, "coefficients", "score")
        bases = tangent_bases(instance)
        basis = next((b for b in bases if b.label == space), None)
        if basis is None:
            labels = [b.label for b in bases]
            raise ConfigInvalid(f"space {space!r} not available; choose from {labels}")
        if coefs.shape != (basis.dim,):
            raise ConfigInvalid(
                f"{space} has dimension {basis.dim}, got {coefs.shape[0]} coefficients"
            )
        with np.errstate(over="ignore"):  # an overflow is refused below, by name
            values = coefs @ basis.values
    else:
        raise ConfigInvalid(f"unknown score kind {kind!r}")
    try:
        return ScoreFunction(instance.dist, values)
    except ValueError as exc:
        raise ConfigInvalid(f"bad score values: {exc}") from None
