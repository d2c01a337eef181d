"""Closed-form local-asymptotic predictions.

Everything here is computed at the population level from the base
distribution, never plugged in from samples: the outputs are the ground
truth that the Monte Carlo lab checks its empirical results against.  Every
number is read from the instance's population design (``scores``): an
estimator's drift along a deviation direction g is the inner product of its
influence function with g; a chi-square test's statistic basis is an
orthonormal set of mean-zero functions whose coordinates of g are the
test's limit drift mu, so its noncentrality is |mu|^2 and its dof the
basis's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chi2 import local_power
from .dist import DiscreteDistribution
from .errors import ShapeMismatch, WrongSubspaceLabel
from .instances import GmmInstance, IvInstance, decompose_score
from .models import MomentModel
from .scores import (
    ScoreFunction,
    SubspaceBasis,
    as_scores,
    coordinates,
    inner_product,
    moment_design,
)


def predicted_bias(
    dist: DiscreteDistribution, influence: Sequence[ScoreFunction], g: ScoreFunction
) -> np.ndarray:
    """Asymptotic mean of the scaled estimation error along direction ``g``.

    Coordinate j is E[nu_j(X) g(X)] for influence coordinate nu_j.
    """
    return np.array([inner_product(dist, f, g) for f in influence])


def hall_split(
    dist: DiscreteDistribution, model: MomentModel, theta0, g: ScoreFunction
) -> tuple[np.ndarray, np.ndarray]:
    """Split the scaled moment drift into identifying and overidentifying parts.

    The drift is g's coordinates in the moment design's frame (Sigma^{-1/2}
    E[m g] up to a rotation).  The identifying part keeps the first p, along
    the efficient score (what moves the estimator); the overidentifying part
    the last l - p, on the J statistic basis (what moves the J statistic).
    """
    drift = coordinates(dist, g, moment_design(dist, model, theta0).frame)
    identifying = np.where(np.arange(drift.size) < model.p, drift, 0.0)
    return identifying, drift - identifying


def j_noncentrality(
    dist: DiscreteDistribution, model: MomentModel, theta0, g: ScoreFunction
) -> float:
    """Noncentrality of the overidentification statistic along direction
    ``g``: |mu|^2 for g's coordinates mu on the J statistic basis, which
    spans the orthocomplement of the model tangent space."""
    mu = coordinates(dist, g, moment_design(dist, model, theta0).statistic["j"])
    return float(mu @ mu)


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
    """Analytic bias, noncentrality, and local power for a configured
    experiment, read from the instance's population design."""
    dist, design = instance.dist, instance.design
    biases: dict[str, np.ndarray] = {}
    test_preds: dict[str, TestPrediction] = {}
    for name in estimators:
        if name not in design.influence:
            raise ShapeMismatch(f"estimator {name!r} does not apply to a {instance.kind} instance")
        biases[name] = predicted_bias(dist, as_scores(dist, design.influence[name]), g)
    for name in tests:
        if name not in design.statistic:
            raise ShapeMismatch(f"test {name!r} does not apply to a {instance.kind} instance")
        mu = coordinates(dist, g, design.statistic[name])
        ncp, dof = float(mu @ mu), design.statistic[name].dim
        test_preds[name] = TestPrediction(dof, ncp, local_power(dof, ncp, alpha))
    report = decompose_score(instance, g)
    decomposition = {
        "var_T": report.var_T,
        "var_TperpM": report.var_TperpM,
        "var_Mperp": report.var_Mperp,
    }
    return Prediction(alpha=alpha, biases=biases, tests=test_preds, decomposition=decomposition)
