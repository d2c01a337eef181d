import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import linear_iv_per_row, overidentified_mean_per_row, stack_rows

from asymlab.dist import Dataset, draw_sample, expectation, make_distribution
from asymlab.errors import (
    AsymlabError,
    DegenerateDof,
    Infeasible,
    MomentNotSatisfied,
    ShapeMismatch,
    SingularSigma,
)
from asymlab.gmm import (
    _compress,
    efficient_influence,
    estimate_gmm,
    j_statistic,
    kl_projection,
    population_dataset,
)
from asymlab.instances import linear_iv_moment_model, overidentified_mean_model, tangent_bases
from asymlab.models import MomentModel
from asymlab.scores import ScoreFunction, project


def mean_model():
    def m(theta, x):
        return x[:, :1] - theta[0]

    def jac(theta, x):
        return np.full((x.shape[0], 1, 1), -1.0)

    return MomentModel(m=m, jac=jac, p=1, l=1)


class TestEfficientInfluence:
    def test_g1_hand_algebra(self, g1):
        # oracle: E[grad m] = (-1, 0)', Sigma = diag(1.2, 2.16), so the
        # efficient score is x / 1.2, the information 1/1.2, the influence x
        nu, info, ell = efficient_influence(g1.dist, g1.model, g1.theta0)
        x = g1.dist.column(0)
        assert info.shape == (1, 1) and info[0, 0] == pytest.approx(1.0 / 1.2, abs=1e-12)
        assert np.max(np.abs(nu[0].values - x)) < 1e-10
        assert np.max(np.abs(ell[0].values - x / 1.2)) < 1e-10

    def test_just_identified_sample_mean_influence(self, g1):
        nu, info, _ = efficient_influence(g1.dist, mean_model(), np.array([0.0]))
        assert np.max(np.abs(nu[0].values - g1.dist.column(0))) < 1e-10

    def test_duplicate_moment_singular(self, g1):
        def m(theta, x):
            d = x[:, 0] - theta[0]
            return np.stack([d, d], axis=1)

        def jac(theta, x):
            return np.full((x.shape[0], 2, 1), -1.0)

        with pytest.raises(SingularSigma):
            efficient_influence(g1.dist, MomentModel(m=m, jac=jac, p=1, l=2), np.array([0.0]))

    def test_moment_not_satisfied(self, g1):
        with pytest.raises(MomentNotSatisfied):
            efficient_influence(g1.dist, g1.model, np.array([0.7]))

    def test_influence_lies_in_tangent_space(self, g1):
        nu, _, _ = efficient_influence(g1.dist, g1.model, g1.theta0)
        t_basis, _ = tangent_bases(g1)
        for f in nu:
            assert (f - project(g1.dist, f, t_basis)).norm() < 1e-8


class TestEstimateGmm:
    def test_population_sample_recovers_truth(self, g1):
        # oracle: population moments vanish exactly at the truth
        data = population_dataset(g1.dist, 10)
        est = estimate_gmm(data, g1.model, np.array([0.6]))
        assert est.converged
        assert abs(est.theta_hat[0]) < 1e-8
        assert est.j_stat < 1e-12

    def test_just_identified_equals_sample_mean(self, g1):
        data = draw_sample(g1.dist, 200, seed=11)
        est = estimate_gmm(data, mean_model(), np.array([0.3]))
        assert est.theta_hat[0] == pytest.approx(float(np.mean(data.rows)), abs=1e-10)
        assert est.j_stat < 1e-10

    def test_null_sampling_distribution(self, g1):
        # oracle: chi-square(1) has mean one under the null; the scaled
        # estimator stays within four standard deviations of zero
        reps, n = 300, 1000
        j_values, devs = [], []
        for rep in range(reps):
            data = draw_sample(g1.dist, n, seed=42 + rep)
            est = estimate_gmm(data, g1.model, g1.theta0)
            assert est.converged
            j_values.append(est.j_stat)
            devs.append(math.sqrt(n) * est.theta_hat[0])
        assert abs(np.mean(j_values) - 1.0) < 4.0 * math.sqrt(2.0 / reps)
        assert abs(np.mean(devs)) < 4.0 * math.sqrt(1.2 / reps)

    def test_large_sample_consistency(self, g1):
        # two-step on data generated from the truth reproduces it
        n = 10**5
        data = draw_sample(g1.dist, n, seed=77)
        est = estimate_gmm(data, g1.model, np.array([0.2]))
        assert abs(est.theta_hat[0]) < 5.0 * math.sqrt(1.2 / n)

    def test_preconditions(self, g1):
        data = draw_sample(g1.dist, 2, seed=1)
        with pytest.raises(ValueError):
            estimate_gmm(data, g1.model, np.array([0.0]))
        bounded = MomentModel(
            m=g1.model.m,
            jac=g1.model.jac,
            p=1,
            l=2,
            theta_bounds=(np.array([-0.5]), np.array([0.5])),
        )
        with pytest.raises(ValueError):
            estimate_gmm(population_dataset(g1.dist, 10), bounded, np.array([0.9]))

    def test_sigma_hat_positive_definite(self, g1):
        data = draw_sample(g1.dist, 500, seed=5)
        est = estimate_gmm(data, g1.model, g1.theta0)
        evals = np.linalg.eigvalsh(est.sigma_hat)
        assert evals[0] > 0
        assert np.linalg.eigvalsh(est.info_hat)[0] > 0

    def test_singular_sigma_hat_detected(self, g1):
        from asymlab.errors import SingularSigmaHat

        # a constant sample makes the moment outer product rank one
        data = Dataset(rows=np.zeros((10, 1)))
        with pytest.raises(SingularSigmaHat):
            estimate_gmm(data, g1.model, g1.theta0)

    def test_rank_deficient_jacobian_detected(self, g1):
        from asymlab.errors import RankDeficientJacobian

        def m(theta, x):
            return np.stack([x[:, 0], x[:, 0] ** 2 - 1.2], axis=1)  # does not depend on theta

        def jac(theta, x):
            return np.zeros((x.shape[0], 2, 1))

        flat = MomentModel(m=m, jac=jac, p=1, l=2)
        with pytest.raises(RankDeficientJacobian):
            efficient_influence(g1.dist, flat, np.array([0.0]))


class TestJStatistic:
    def test_degenerate_dof_refused(self, g1):
        data = draw_sample(g1.dist, 100, seed=2)
        est = estimate_gmm(data, mean_model(), np.array([0.0]))
        with pytest.raises(DegenerateDof):
            j_statistic(data, mean_model(), est)

    def test_dof_is_overidentification_count(self, g1):
        data = draw_sample(g1.dist, 100, seed=3)
        est = estimate_gmm(data, g1.model, g1.theta0)
        assert j_statistic(data, g1.model, est).dof == 1

    def test_population_data_never_rejects(self, g1):
        data = population_dataset(g1.dist, 10)
        est = estimate_gmm(data, g1.model, g1.theta0)
        stat = j_statistic(data, g1.model, est)
        assert not stat.reject(0.05)

    def test_estimate_must_match_data(self, g1):
        data = draw_sample(g1.dist, 100, seed=3)
        est = estimate_gmm(data, g1.model, g1.theta0)
        other = draw_sample(g1.dist, 120, seed=3)
        with pytest.raises(ValueError):
            j_statistic(other, g1.model, est)


class TestKlProjection:
    def test_member_projects_to_itself(self, g1):
        projected, lam = kl_projection(g1.dist, g1.model, g1.theta0)
        assert np.linalg.norm(lam) < 1e-10
        assert np.max(np.abs(projected.probs - g1.dist.probs)) < 1e-10

    def test_two_point_closed_form(self):
        # oracle: solving 0.6 e^lam = 0.4 e^{-lam} gives lam = log(2/3) / 2
        eta = make_distribution([1.0, -1.0], [0.6, 0.4])

        def m(theta, x):
            return x[:, :1].copy()

        def jac(theta, x):
            return np.ones((x.shape[0], 1, 1))

        model = MomentModel(m=m, jac=jac, p=1, l=1)
        projected, lam = kl_projection(eta, model, np.array([0.0]))
        assert lam[0] == pytest.approx(0.5 * math.log(2.0 / 3.0), abs=1e-10)
        assert np.allclose(projected.probs, [0.5, 0.5], atol=1e-10)

    def test_infeasible_target(self, g1):
        def m(theta, x):
            return x[:, :1] - 3.0

        def jac(theta, x):
            return np.zeros((x.shape[0], 1, 1))

        model = MomentModel(m=m, jac=jac, p=1, l=1)
        with pytest.raises(Infeasible):
            kl_projection(g1.dist, model, np.array([0.0]))

    def test_random_feasible_pairs(self, g1, rng):
        for _ in range(10):
            eta = make_distribution(g1.dist.support, rng.dirichlet(np.full(5, 4.0)))
            theta = rng.uniform(-0.3, 0.3, size=1)
            projected, lam = kl_projection(eta, g1.model, theta)
            moments = expectation(projected, g1.model.moments_at(theta, projected.support))
            assert np.max(np.abs(moments)) < 1e-10
            # dual form: projected probs proportional to eta * exp(lam' m)
            m_vals = g1.model.moments_at(theta, eta.support)
            weights = eta.probs * np.exp(m_vals @ lam)
            assert np.max(np.abs(projected.probs - weights / weights.sum())) < 1e-10


class TestProjectionMatrixIdentity:
    def test_projector_idempotent_symmetric(self, g1):
        from asymlab.predict import _hall_projector

        _, proj, _ = _hall_projector(g1.dist, g1.model, g1.theta0)
        assert np.max(np.abs(proj - proj.T)) < 1e-10
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10

    def test_tangent_scores_have_no_overidentifying_drift(self, g1, rng):
        # for scores inside the tangent space the whitened moment drift lies
        # entirely in the identifying subspace
        from asymlab.predict import hall_split

        t_basis, _ = tangent_bases(g1)
        for _ in range(50):
            coefs = rng.standard_normal(t_basis.dim)
            g = ScoreFunction(g1.dist, coefs @ t_basis.matrix())
            _, over = hall_split(g1.dist, g1.model, g1.theta0, g)
            assert np.linalg.norm(over) < 1e-10


class TestMomentContract:
    def test_per_row_moment_function_is_refused(self, g1):
        # a function written for one observation sees the whole (S, d) array
        # and returns the wrong shape
        def m(theta, x):
            return np.array([x[0] - theta[0]])

        def jac(theta, x):
            return np.array([[-1.0]])

        model = MomentModel(m=m, jac=jac, p=1, l=1)
        with pytest.raises(ShapeMismatch):
            model.moments_at(np.array([0.0]), g1.dist.support)
        with pytest.raises(ShapeMismatch):
            model.jacobians_at(np.array([0.0]), g1.dist.support)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(1, 40),
        v=st.floats(0.1, 5.0),
    )
    def test_overidentified_mean_matches_per_row_oracle(self, seed, n_points, v):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-3.0, 3.0, (n_points, 1))
        theta = rng.uniform(-1.0, 1.0, 1)
        model = overidentified_mean_model(v)
        m_row, jac_row = overidentified_mean_per_row(v)
        assert np.array_equal(model.moments_at(theta, points), stack_rows(m_row, theta, points))
        assert np.array_equal(
            model.jacobians_at(theta, points), stack_rows(jac_row, theta, points)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(1, 40),
        k1=st.integers(1, 2),
        k2=st.integers(0, 2),
        extra=st.integers(0, 2),
    )
    def test_linear_iv_matches_per_row_oracle(self, seed, n_points, k1, k2, extra):
        dims = (k1, k2, k1 + extra)
        rng = np.random.default_rng(seed)
        points = rng.uniform(-2.0, 2.0, (n_points, 1 + k1 + k2 + k1 + extra))
        beta = rng.uniform(-2.0, 2.0, k1 + k2)
        model = linear_iv_moment_model(dims)
        m_row, jac_row = linear_iv_per_row(dims)
        got_m = model.moments_at(beta, points)
        want_m = stack_rows(m_row, beta, points)
        assert got_m.shape == want_m.shape
        assert np.max(np.abs(got_m - want_m)) <= 1e-14 * max(1.0, np.max(np.abs(want_m)))
        got_jac = model.jacobians_at(beta, points)
        want_jac = stack_rows(jac_row, beta, points)
        assert got_jac.shape == want_jac.shape
        assert np.max(np.abs(got_jac - want_jac)) <= 1e-14 * max(1.0, np.max(np.abs(want_jac)))


@st.composite
def count_samples(draw):
    """Distinct support points in random order with counts, some of them zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_atoms = draw(st.integers(2, 9))
    support = rng.choice(np.linspace(-3.0, 3.0, 25), n_atoms, replace=False)[:, None]
    counts = rng.integers(0, 40, n_atoms)
    counts[rng.random(n_atoms) < 0.3] = 0
    return support, counts, rng


def _estimate_or_error(data, model):
    try:
        return estimate_gmm(data, model, np.array([0.0]))
    except (AsymlabError, ValueError) as exc:
        return type(exc)


class TestCountSamples:
    def test_compress_groups_unsorted_rows_and_drops_zero_counts(self):
        rows = np.array([[2.0], [-1.0], [2.0], [0.5]])
        pts, w = _compress(Dataset(rows, np.array([3, 4, 1, 0])))
        assert np.array_equal(pts, [[-1.0], [2.0]])
        assert np.array_equal(w, [0.5, 0.5])

    @settings(max_examples=150, deadline=None)
    @given(case=count_samples())
    def test_counts_and_expanded_rows_give_identical_estimates(self, g1, case):
        support, counts, rng = case
        rows = rng.permutation(np.repeat(support, counts, axis=0))
        by_counts = _estimate_or_error(Dataset(support, counts), g1.model)
        by_rows = _estimate_or_error(Dataset(rows), g1.model)
        if isinstance(by_rows, type):
            assert by_counts is by_rows
            return
        assert not isinstance(by_counts, type)
        assert np.array_equal(by_counts.theta_hat, by_rows.theta_hat)
        assert by_counts.j_stat == by_rows.j_stat
        assert by_counts.iterations == by_rows.iterations
        assert by_counts.converged == by_rows.converged
        assert by_counts.n == by_rows.n == int(counts.sum())
