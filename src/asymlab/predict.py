"""Closed-form local-asymptotic predictions.

Everything here is computed at the population level from the base
distribution, never plugged in from samples: the outputs are the ground
truth that the Monte Carlo lab checks its empirical results against.  An
estimator's drift along a deviation direction g is the inner product of its
influence function with g; a chi-square test's noncentrality is the squared
drift of the mean-zero functions composing the statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chi2 import local_power
from .dist import DiscreteDistribution, expectation
from .errors import ShapeMismatch, WrongSubspaceLabel
from .gmm import efficient_influence
from .instances import GmmInstance, IvInstance, decompose_score
from .iv import hausman_contrast_basis, iv_influence_functions
from .models import MomentModel
from .scores import (
    ScoreFunction,
    SubspaceBasis,
    _population_moment_objects,
    coordinates,
    inner_product,
)


def predicted_bias(
    dist: DiscreteDistribution, influence: Sequence[ScoreFunction], g: ScoreFunction
) -> np.ndarray:
    """Asymptotic mean of the scaled estimation error along direction ``g``.

    Coordinate j is E[nu_j(X) g(X)] for influence coordinate nu_j.
    """
    return np.array([inner_product(dist, f, g) for f in influence])


def _hall_projector(
    dist: DiscreteDistribution, model: MomentModel, theta0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sigma^{-1/2}, projection matrix onto the identifying directions, m values)."""
    m_vals, sigma, gbar, _, _ = _population_moment_objects(dist, model, theta0)
    evals, evecs = np.linalg.eigh(sigma)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    whitened = inv_sqrt @ gbar
    proj = whitened @ np.linalg.solve(whitened.T @ whitened, whitened.T)
    proj = 0.5 * (proj + proj.T)
    return inv_sqrt, proj, m_vals


def hall_split(
    dist: DiscreteDistribution, model: MomentModel, theta0, g: ScoreFunction
) -> tuple[np.ndarray, np.ndarray]:
    """Split the scaled moment drift into identifying and overidentifying parts.

    The drift is delta = Sigma^{-1/2} E[m g]; the identifying part is its
    projection onto the span of the whitened mean Jacobian (what moves the
    estimator), the overidentifying part is the orthogonal remainder (what
    moves the overidentification statistic).
    """
    theta0 = np.asarray(theta0, dtype=float)
    inv_sqrt, proj, m_vals = _hall_projector(dist, model, theta0)
    drift = inv_sqrt @ expectation(dist, m_vals * g.values[:, None])
    identifying = proj @ drift
    return identifying, drift - identifying


def j_noncentrality(
    dist: DiscreteDistribution, model: MomentModel, theta0, g: ScoreFunction
) -> float:
    """Noncentrality of the overidentification statistic along direction ``g``.

    Equals the squared norm of the overidentifying part of the moment drift;
    only the component of g orthogonal to the model tangent space contributes.
    """
    _, overidentifying = hall_split(dist, model, theta0, g)
    return float(max(overidentifying @ overidentifying, 0.0))


def hausman_noncentrality(
    dist: DiscreteDistribution, f_basis: SubspaceBasis, g: ScoreFunction
) -> tuple[float, int]:
    """Noncentrality and dof of a contrast test composed of the basis functions.

    ``f_basis`` must be labeled as part of the detectable subspace
    (T_perp_cap_M, or T_perp when the maintained model is everything).
    """
    if f_basis.label not in ("T_perp_cap_M", "T_perp"):
        raise WrongSubspaceLabel(
            f"contrast basis must be labeled T_perp_cap_M or T_perp, got {f_basis.label!r}"
        )
    coefs = coordinates(dist, g, f_basis)
    return float(coefs @ coefs), f_basis.dim


# --- bundled predictions for an experiment -----------------------------------------


@dataclass(frozen=True)
class TestPrediction:
    dof: int
    ncp: float
    power: float

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.ncp < 0 or not 0.0 <= self.power <= 1.0 or self.dof < 0:
            raise ShapeMismatch(
                f"invalid prediction: dof={self.dof}, ncp={self.ncp}, power={self.power}"
            )


@dataclass(frozen=True)
class Prediction:
    """Analytic predictions for one instance and one deviation direction."""

    alpha: float
    biases: dict[str, np.ndarray]
    tests: dict[str, TestPrediction]
    decomposition: dict[str, float] | None = None

    def to_dict(self) -> dict:
        doc = {
            "alpha": self.alpha,
            "bias": [
                {"estimator": name, "values": [float(v) for v in vec]}
                for name, vec in self.biases.items()
            ],
            "tests": [
                {"name": name, "dof": t.dof, "ncp": t.ncp, "power": t.power}
                for name, t in self.tests.items()
            ],
        }
        if self.decomposition is not None:
            doc["decomposition"] = dict(self.decomposition)
        return doc


def build_prediction(
    instance: GmmInstance | IvInstance,
    g: ScoreFunction,
    estimators: Sequence[str],
    tests: Sequence[str],
    alpha: float,
) -> Prediction:
    """Analytic bias, noncentrality, and local power for a configured experiment."""
    dist = instance.dist
    biases: dict[str, np.ndarray] = {}
    test_preds: dict[str, TestPrediction] = {}
    if isinstance(instance, GmmInstance):
        for name in estimators:
            if name != "gmm":
                raise ShapeMismatch(f"estimator {name!r} does not apply to a moment instance")
            nu, _, _ = efficient_influence(dist, instance.model, instance.theta0)
            biases[name] = predicted_bias(dist, nu, g)
        for name in tests:
            if name != "j":
                raise ShapeMismatch(f"test {name!r} does not apply to a moment instance")
            ncp = j_noncentrality(dist, instance.model, instance.theta0, g)
            dof = instance.model.l - instance.model.p
            test_preds[name] = TestPrediction(dof, ncp, local_power(dof, ncp, alpha))
    else:
        influence = dict(zip(("ols", "tsls"), iv_influence_functions(dist, instance.model)))
        for name in estimators:
            if name not in influence:
                raise ShapeMismatch(f"estimator {name!r} does not apply to an IV instance")
            biases[name] = predicted_bias(dist, influence[name], g)
        for name in tests:
            if name != "dwh":
                raise ShapeMismatch(f"test {name!r} does not apply to an IV instance")
            basis = hausman_contrast_basis(dist, instance.model)
            ncp, dof = hausman_noncentrality(dist, basis, g)
            test_preds[name] = TestPrediction(dof, ncp, local_power(dof, ncp, alpha))
    report = decompose_score(instance, g)
    decomposition = {
        "var_T": report.var_T,
        "var_TperpM": report.var_TperpM,
        "var_Mperp": report.var_Mperp,
    }
    return Prediction(alpha=alpha, biases=biases, tests=test_preds, decomposition=decomposition)
