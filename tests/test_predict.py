import json
import math

import numpy as np
import pytest

from asymlab.dist import expectation, make_distribution
from asymlab.errors import (
    MomentNotSatisfied,
    NullModelViolated,
    RankDeficientFirstStage,
    ShapeMismatch,
)
from asymlab.instances import GmmInstance, IvInstance, decompose_score, tangent_bases
from asymlab.models import IVModel
from asymlab.paths import LocalPath, path_distribution
from asymlab.predict import build_prediction, hall_split, local_power
from asymlab.scores import (
    ScoreFunction,
    centered_score,
    project,
)


def ncp(instance, test, g):
    """|mu|^2 for the test's drift mu along ``g``."""
    mu = instance.design.drift(test, g)
    return float(mu @ mu)


class TestPredictedBias:
    def test_zero_direction(self, g1):
        zero = ScoreFunction(g1.dist, np.zeros(5))
        assert np.array_equal(g1.design.bias("gmm", zero), [0.0])

    def test_orthocomplement_direction_is_invisible(self, g1):
        # oracle: E[x^3] = 0 by symmetry
        x = g1.dist.column(0)
        g = centered_score(g1.dist, (x**2 - 1.2) / math.sqrt(2.16))
        assert abs(g1.design.bias("gmm", g)[0]) < 1e-12

    def test_efficient_score_direction_moves_one_for_one(self, g1):
        # oracle: E[x * c x / 1.2] = c since E[x^2] = 1.2
        for c in (0.5, 1.5, -2.0):
            g = centered_score(g1.dist, c * g1.dist.column(0) / 1.2)
            assert g1.design.bias("gmm", g)[0] == pytest.approx(c, abs=1e-12)


class TestJNoncentrality:
    def test_tangent_directions_are_null(self, g1, rng):
        t_basis, _, _ = tangent_bases(g1)
        for _ in range(20):
            coefs = rng.standard_normal(t_basis.dim)
            g = ScoreFunction(g1.dist, coefs @ t_basis.values)
            assert ncp(g1, "j", g) < 1e-10

    def test_zero_score(self, g1):
        assert ncp(g1, "j", ScoreFunction(g1.dist, np.zeros(5))) == 0.0

    def test_hand_value_on_detectable_direction(self, g1):
        # oracle: Sigma^{-1/2} E[m g] = (0, c sqrt(2.16)) and the identifying
        # projector kills only the first coordinate, so ncp = c^2 * 2.16
        x = g1.dist.column(0)
        for c in (0.5, 2.0):
            g = centered_score(g1.dist, c * (x**2 - 1.2))
            assert ncp(g1, "j", g) == pytest.approx(c * c * 2.16, abs=1e-10)

    def test_matches_quadratic_form_with_projected_score(self, g1, rng):
        # the noncentrality is the same whether computed from g or from its
        # orthocomplement projection
        t_basis, t_perp, _ = tangent_bases(g1)
        for _ in range(10):
            g = centered_score(g1.dist, rng.standard_normal(5))
            g_perp = project(g1.dist, g, t_perp)
            assert ncp(g1, "j", g) == pytest.approx(ncp(g1, "j", g_perp), abs=1e-10)


class TestHausmanNoncentrality:
    def test_tangent_direction_null(self, iv1):
        e = iv1.model.errors_on(iv1.dist.support)
        g = centered_score(iv1.dist, iv1.dist.column(1) * e)
        mu = iv1.design.drift("dwh", g)
        assert mu @ mu < 1e-12 and mu.size == 1

    def test_basis_element_has_unit_ncp(self, iv1):
        basis = iv1.design.statistic["dwh"]
        g = ScoreFunction(basis.dist, basis.values[0])
        assert ncp(iv1, "dwh", g) == pytest.approx(1.0, abs=1e-12)

    def test_detectable_direction_matches_decomposition(self, iv1):
        # oracle: the exact three-way split on the support
        e = iv1.model.errors_on(iv1.dist.support)
        x1, z1 = iv1.dist.column(1), iv1.dist.column(3)
        c = 2.0
        g = centered_score(iv1.dist, c * (z1 - 0.5 * x1) * e)
        report = decompose_score(iv1, g)
        assert ncp(iv1, "dwh", g) == pytest.approx(report.var_TperpM, abs=1e-10)
        assert ncp(iv1, "dwh", g) == pytest.approx(2.0, abs=1e-10)


class TestHallSplit:
    def test_parts_orthogonal_and_additive(self, g1, rng):
        for _ in range(20):
            g = centered_score(g1.dist, rng.standard_normal(5))
            ident, over = hall_split(g1, g)
            assert abs(ident @ over) < 1e-12
            total = np.linalg.norm(ident) ** 2 + np.linalg.norm(over) ** 2
            drift = ident + over
            assert total == pytest.approx(drift @ drift, abs=1e-12)

    def test_orthocomplement_direction_has_no_identifying_part(self, g1):
        # oracle: the influence is orthogonal to g, so E[grad m]' Sigma^{-1}
        # E[m g] vanishes
        _, t_perp, _ = tangent_bases(g1)
        g = ScoreFunction(t_perp.dist, t_perp.values[0])
        ident, _ = hall_split(g1, g)
        assert np.linalg.norm(ident) < 1e-10

    def test_tangent_direction_has_no_overidentifying_part(self, g1, rng):
        t_basis, _, _ = tangent_bases(g1)
        coefs = rng.standard_normal(t_basis.dim)
        g = ScoreFunction(g1.dist, coefs @ t_basis.values)
        _, over = hall_split(g1, g)
        assert np.linalg.norm(over) < 1e-10

    def test_zero_score(self, g1):
        ident, over = hall_split(g1, ScoreFunction(g1.dist, np.zeros(5)))
        assert np.linalg.norm(ident) == 0.0 and np.linalg.norm(over) == 0.0


class TestOrthogonalityProposition:
    def test_bias_and_power_live_on_orthogonal_channels(self, g1, rng):
        # computable form: a nonzero bias needs tangent variance, a nonzero
        # noncentrality needs orthocomplement variance; and the cross checks
        # vanish exactly
        for _ in range(100):
            g = centered_score(g1.dist, rng.standard_normal(5))
            report = decompose_score(g1, g)
            if np.linalg.norm(g1.design.bias("gmm", g)) > 1e-12:
                assert report.var_T > 1e-12
            if ncp(g1, "j", g) > 1e-12:
                assert report.var_TperpM > 1e-12
            assert np.linalg.norm(g1.design.bias("gmm", report.pi_TperpM)) < 1e-10
            assert ncp(g1, "j", report.pi_T) < 1e-10


class TestPathwiseDerivative:
    def test_mean_functional_derivative_matches_inner_product(self, g1, rng):
        # central difference of the mean along the path against E[nu g]
        step = 1e-4
        for _ in range(5):
            g = centered_score(g1.dist, rng.standard_normal(5))
            up = LocalPath(g1.dist, g)
            down = LocalPath(g1.dist, -g)
            mean_up = expectation(path_distribution(up, step), g1.dist.column(0))
            mean_down = expectation(path_distribution(down, step), g1.dist.column(0))
            derivative = (mean_up - mean_down) / (2.0 * step)
            assert derivative == pytest.approx(g1.design.bias("gmm", g)[0], abs=1e-6)


class TestBuildPrediction:
    def test_gmm_document_roundtrip(self, g1):
        x = g1.dist.column(0)
        g = centered_score(g1.dist, 2.0 * (x**2 - 1.2) / math.sqrt(2.16))
        pred = build_prediction(g1, g, ["gmm"], ["j"], 0.05)
        assert pred.tests["j"].ncp == pytest.approx(4.0, abs=1e-10)
        assert pred.tests["j"].dof == 1
        assert pred.tests["j"].power == pytest.approx(local_power(1, 4.0, 0.05), abs=1e-12)
        assert np.max(np.abs(pred.biases["gmm"])) < 1e-10
        assert pred.decomposition["var_T"] == pytest.approx(0.0, abs=1e-10)
        assert pred.decomposition["var_TperpM"] == pytest.approx(4.0, abs=1e-10)
        doc = json.loads(json.dumps(pred.to_dict()))
        j = pred.tests["j"]
        assert doc["tests"] == [{"name": "j", "dof": 1, "ncp": j.ncp, "power": j.power}]
        assert doc["bias"] == [{"estimator": "gmm", "values": pred.biases["gmm"].tolist()}]
        assert doc["decomposition"] == pred.decomposition

    def test_iv_document(self, iv1):
        e = iv1.model.errors_on(iv1.dist.support)
        g = centered_score(iv1.dist, iv1.dist.column(1) * e)
        pred = build_prediction(iv1, g, ["ols", "tsls"], ["dwh"], 0.05)
        assert np.allclose(pred.biases["ols"], [1.0, 0.0], atol=1e-10)
        assert np.allclose(pred.biases["tsls"], [1.0, 0.0], atol=1e-10)
        assert pred.tests["dwh"].ncp == pytest.approx(0.0, abs=1e-12)
        assert pred.tests["dwh"].power == pytest.approx(0.05, abs=1e-8)

    def test_incompatible_names_rejected(self, g1):
        g = ScoreFunction(g1.dist, np.zeros(5))
        with pytest.raises(ShapeMismatch):
            build_prediction(g1, g, ["ols"], [], 0.05)
        with pytest.raises(ShapeMismatch):
            build_prediction(g1, g, ["gmm"], ["dwh"], 0.05)

    def test_invalid_prediction_fields_rejected(self):
        from asymlab.predict import TestPrediction

        with pytest.raises(ShapeMismatch):
            TestPrediction(dof=1, ncp=-1.0, power=0.5)
        with pytest.raises(ShapeMismatch):
            TestPrediction(dof=1, ncp=1.0, power=1.5)


class TestBuildPredictionChecks:
    """build_prediction builds no tangent basis, yet every check that ran
    with the bases still runs: once through the estimators' influence
    functions, and once through the decomposition alone."""

    LISTS = pytest.mark.parametrize("with_lists", [True, False])

    @staticmethod
    def predict(instance, with_lists):
        lists = {"iv": (["ols", "tsls"], ["dwh"]), "gmm": (["gmm"], ["j"])}[instance.kind]
        estimators, tests = lists if with_lists else ([], [])
        zero = ScoreFunction(instance.dist, np.zeros(instance.dist.n_atoms))
        return build_prediction(instance, zero, estimators, tests, 0.05)

    @LISTS
    def test_null_model_violation(self, iv1, with_lists):
        skewed = make_distribution(iv1.dist.support, np.arange(1.0, 9.0))
        with pytest.raises(NullModelViolated):
            self.predict(IvInstance(name="skewed", dist=skewed, model=iv1.model), with_lists)

    @LISTS
    def test_wrong_sigma(self, iv1, with_lists):
        model = IVModel(beta0=iv1.model.beta0, sigma0_sq=2.0, dims=iv1.model.dims)
        with pytest.raises(NullModelViolated):
            self.predict(IvInstance(name="sigma", dist=iv1.dist, model=model), with_lists)

    @LISTS
    def test_rank_deficient_first_stage(self, with_lists):
        # z1 is independent of x1 and mean zero: E[ZX'] = [[0, 0], [0, 1]]
        rows = [
            [x1 + e, x1, 1.0, z1] for x1 in (-1.0, 1.0) for z1 in (-1.0, 1.0) for e in (-1.0, 1.0)
        ]
        dist = make_distribution(rows, np.full(8, 0.125))
        model = IVModel(beta0=np.array([1.0, 0.0]), sigma0_sq=1.0, dims=(1, 1, 1))
        with pytest.raises(RankDeficientFirstStage):
            self.predict(IvInstance(name="weak", dist=dist, model=model), with_lists)

    @LISTS
    def test_moment_not_satisfied(self, g1, with_lists):
        instance = GmmInstance(name="off", dist=g1.dist, model=g1.model, theta0=np.array([0.5]))
        with pytest.raises(MomentNotSatisfied):
            self.predict(instance, with_lists)
