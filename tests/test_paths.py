import math

import numpy as np
import pytest

from asymlab.dist import draw_indices, expectation, make_distribution
from asymlab.errors import DomainError, PositivityViolated
from asymlab.paths import (
    LocalPath,
    hellinger_residual,
    numerical_score,
    path_distribution,
)
from asymlab.scores import ScoreFunction, centered_score


def two_point_path():
    dist = make_distribution([1.0, -1.0], [0.5, 0.5])
    g = centered_score(dist, [1.0, -1.0])
    return LocalPath(dist, g, tilt="exponential")


class TestPathDistribution:
    def test_t_zero_is_exactly_base(self, g1):
        path = LocalPath(g1.dist, centered_score(g1.dist, g1.dist.column(0)))
        assert path_distribution(path, 0.0) is g1.dist

    def test_zero_score_keeps_base(self, g1):
        path = LocalPath(g1.dist, ScoreFunction(g1.dist, np.zeros(5)))
        probs = path_distribution(path, 0.3).probs
        assert np.max(np.abs(probs - g1.dist.probs)) < 1e-15

    def test_two_point_exponential_closed_form(self):
        # oracle: probs (e^t, e^{-t}) / (e^t + e^{-t}) at t = 0.1
        path = two_point_path()
        probs = path_distribution(path, 0.1).probs
        z = math.exp(0.1) + math.exp(-0.1)
        assert probs[0] == pytest.approx(math.exp(0.1) / z, abs=1e-15)
        assert probs[1] == pytest.approx(math.exp(-0.1) / z, abs=1e-15)

    def test_probabilities_sum_to_one(self, g1, rng):
        g = centered_score(g1.dist, rng.standard_normal(5))
        for tilt in ("exponential", "linear"):
            path = LocalPath(g1.dist, g, tilt=tilt)
            for t in (0.01, 0.05, 0.1):
                assert abs(math.fsum(path_distribution(path, t).probs) - 1.0) < 1e-12

    def test_linear_positivity_enforced(self, g1):
        g = centered_score(g1.dist, g1.dist.column(0))  # max |g| = 2
        path = LocalPath(g1.dist, g, tilt="linear")
        assert path.positivity_bound == pytest.approx(0.5)
        path_distribution(path, 0.49)
        with pytest.raises(PositivityViolated):
            path_distribution(path, 0.5)

    @pytest.mark.parametrize(
        "tilt, t",
        [
            ("exponential", 800.0),
            ("exponential", math.inf),
            ("exponential", math.nan),
            ("linear", math.nan),
        ],
    )
    def test_non_finite_weights_refused_by_name(self, g1, tilt, t):
        # these once reached make_distribution's bare "must be finite" ValueError
        path = LocalPath(g1.dist, centered_score(g1.dist, g1.dist.column(0)), tilt=tilt)
        with pytest.raises(DomainError, match=f"not finite at t = {t}, max\\|g\\| = 2.0"):
            path_distribution(path, t)

    def test_negative_t_rejected(self, g1):
        path = LocalPath(g1.dist, ScoreFunction(g1.dist, np.zeros(5)))
        with pytest.raises(ValueError):
            path_distribution(path, -0.1)


class TestHellingerResidual:
    def test_zero_score_has_zero_residual(self, g1):
        path = LocalPath(g1.dist, ScoreFunction(g1.dist, np.zeros(5)))
        for t in (0.1, 0.05, 0.025):
            assert hellinger_residual(path, t) == pytest.approx(0.0, abs=1e-30)

    def test_residual_decreases_quadratically(self, g1, iv1, rng):
        for inst in (g1, iv1):
            for tilt in ("exponential", "linear"):
                raw = rng.standard_normal(inst.dist.n_atoms)
                g = centered_score(inst.dist, raw)
                g = (1.0 / g.norm()) * g
                path = LocalPath(inst.dist, g, tilt=tilt)
                res = [hellinger_residual(path, t) for t in (0.1, 0.05, 0.025)]
                assert res[0] > res[1] > res[2] > 0.0
                ratios = [r / t**2 for r, t in zip(res, (0.1, 0.05, 0.025))]
                assert max(ratios) < 4.0 * min(ratios)

    def test_two_point_closed_form(self):
        # oracle: independent evaluation of the two-atom formula
        path = two_point_path()
        t = 0.1
        z = math.exp(t) + math.exp(-t)
        q = (math.exp(t) / z, math.exp(-t) / z)
        p = (0.5, 0.5)
        g = (1.0, -1.0)
        expected = sum(
            ((math.sqrt(qs) - math.sqrt(ps)) / t - 0.5 * gs * math.sqrt(ps)) ** 2
            for qs, ps, gs in zip(q, p, g)
        )
        assert hellinger_residual(path, t) == pytest.approx(expected, abs=1e-12)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            hellinger_residual(two_point_path(), 0.0)


class TestSampleLocal:
    def test_total_variation_shrinks_at_root_n_rate(self, g1, rng):
        # oracle: exact total variation on the finite support
        g = centered_score(g1.dist, rng.standard_normal(5))
        path = LocalPath(g1.dist, g)
        peak = np.max(np.abs(g.values))
        for n in (10**2, 10**4):
            t = 1.0 / math.sqrt(n)
            q = path_distribution(path, t).probs
            tv = 0.5 * np.sum(np.abs(q - g1.dist.probs))
            assert 0.0 < tv <= 0.5 * peak * t * 1.1


class TestScoreRecovery:
    def test_numerical_score_matches(self, g1, iv1, rng):
        for inst in (g1, iv1):
            for tilt in ("exponential", "linear"):
                g = centered_score(inst.dist, rng.standard_normal(inst.dist.n_atoms))
                path = LocalPath(inst.dist, g, tilt=tilt)
                fd = numerical_score(path)
                assert np.max(np.abs(fd - g.values)) < 1e-6


class TestLogLikelihoodRatio:
    def test_expansion_error_shrinks_with_n(self, g1):
        # the log likelihood ratio approaches (1/sqrt(n)) sum g - E[g^2] / 2;
        # the replication-average absolute gap must fall as n grows
        x = g1.dist.column(0)
        g = centered_score(g1.dist, x / math.sqrt(1.2))
        path = LocalPath(g1.dist, g)
        second_moment = expectation(g1.dist, g.values**2)
        means = []
        for n in (100, 1000, 10000):
            t = 1.0 / math.sqrt(n)
            q = path_distribution(path, t).probs
            logs = np.log(q) - np.log(g1.dist.probs)
            gaps = []
            for rep in range(200):
                idx = draw_indices(g1.dist, n, seed=1000 + rep)
                loglr = float(np.sum(logs[idx]))
                linear = float(np.sum(g.values[idx])) / math.sqrt(n) - 0.5 * second_moment
                gaps.append(abs(loglr - linear))
            means.append(np.mean(gaps))
        assert means[0] > means[1] > means[2]
