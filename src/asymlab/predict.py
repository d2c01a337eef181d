"""Closed-form local-asymptotic predictions.

Everything here is computed at the population level from the base
distribution, never plugged in from samples: the outputs are the ground
truth that the Monte Carlo lab checks its empirical results against.  Every
number is read from the instance's population design (``instance.design``):
an estimator's bias along a deviation direction g, ``design.bias``, is the
inner product of its influence function with g; a chi-square test's drift,
``design.drift``, is g's coordinates on its statistic basis, an orthonormal
set of mean-zero functions, so its noncentrality is |mu|^2 and its dof the
basis's dimension; ``design.covariance`` is the limit covariance of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chi2 import local_power
from .errors import ShapeMismatch
from .instances import GmmInstance, IvInstance, decompose_score
from .scores import ScoreFunction, coordinates


def hall_split(instance: GmmInstance, g: ScoreFunction) -> tuple[np.ndarray, np.ndarray]:
    """Split the scaled moment drift into identifying and overidentifying parts.

    The drift is g's coordinates in the moment design's frame (Sigma^{-1/2}
    E[m g] up to a rotation).  The identifying part keeps the first p, along
    the efficient score (what moves the estimator); the overidentifying part
    the last l - p, on the J statistic basis (what moves the J statistic).
    """
    drift = coordinates(instance.dist, g, instance.design.frame)
    identifying = np.where(np.arange(drift.size) < instance.model.p, drift, 0.0)
    return identifying, drift - identifying


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
    design = instance.design
    biases: dict[str, np.ndarray] = {}
    test_preds: dict[str, TestPrediction] = {}
    for name in estimators:
        if name not in design.influence:
            raise ShapeMismatch(f"estimator {name!r} does not apply to a {instance.kind} instance")
        biases[name] = design.bias(name, g)
    for name in tests:
        if name not in design.statistic:
            raise ShapeMismatch(f"test {name!r} does not apply to a {instance.kind} instance")
        dof, mu = design.dof(name), design.drift(name, g)
        ncp = float(mu @ mu)
        test_preds[name] = TestPrediction(dof, ncp, local_power(dof, ncp, alpha))
    report = decompose_score(instance, g)
    decomposition = {
        "var_T": report.var_T,
        "var_TperpM": report.var_TperpM,
        "var_Mperp": report.var_Mperp,
    }
    return Prediction(alpha=alpha, biases=biases, tests=test_preds, decomposition=decomposition)
