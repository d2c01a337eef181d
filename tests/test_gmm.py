import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    draw_sample,
    estimate_gmm_by_arrays,
    hull_interior_margin_by_linprog,
    linear_iv_per_row,
    overidentified_mean_per_row,
    overidentified_mean_two_step,
    stack_rows,
)

import asymlab.gmm as gmm
from asymlab.config import build_experiment, load_raw, validate_raw
from asymlab.dist import (
    Dataset,
    draw_indices,
    expectation,
    make_distribution,
    replication_seed,
)
from asymlab.errors import (
    AsymlabError,
    Infeasible,
    MomentNotSatisfied,
    RankDeficientJacobian,
    ShapeMismatch,
    SingularSigma,
    SingularSigmaHat,
)
from asymlab.gmm import (
    _jacobians,
    _newton,
    estimate_gmm,
    kl_projection,
    population_dataset,
)
from asymlab.instances import (
    GmmInstance,
    linear_iv_moment_model,
    overidentified_mean_model,
    tangent_bases,
)
from asymlab.linalg import _cholesky
from asymlab.models import MomentModel
from asymlab.paths import LocalPath, path_distribution
from asymlab.predict import hall_split
from asymlab.scores import ScoreFunction, moment_design, project

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
G1_V = 1.2  # the variance restriction of the G1 instance

def mean_model():
    def m(theta, x):
        return x[None, :, :1] - theta[:, None, :1]

    def jac(theta, x):
        return np.full((len(theta), x.shape[0], 1, 1), -1.0)

    return MomentModel(m=m, jac=jac, p=1, l=1)


class TestEfficientInfluence:
    @pytest.mark.parametrize("theta0", [[0.0, 0.0, 0.0], [], 0.0, [[0.0]]])
    def test_theta0_of_another_shape_is_refused(self, g1, theta0):
        # a (3,) theta0 once built a design with a (5, 1) influence
        with pytest.raises(ShapeMismatch, match=r"expected \(1,\)"):
            moment_design(g1.dist, g1.model, theta0)

    def test_g1_hand_algebra(self, g1):
        # oracle: E[grad m] = (-1, 0)', Sigma = diag(1.2, 2.16), so the
        # efficient score is x / 1.2, the information 1/1.2, the influence x
        design = g1.design
        x = g1.dist.column(0)
        info = design.info
        assert info.shape == (1, 1) and info[0, 0] == pytest.approx(1.0 / 1.2, abs=1e-12)
        assert np.max(np.abs(design.influence["gmm"][:, 0] - x)) < 1e-10
        assert np.max(np.abs(design.ell[:, 0] - x / 1.2)) < 1e-10

    def test_just_identified_sample_mean_influence(self, g1):
        nu = moment_design(g1.dist, mean_model(), np.array([0.0])).influence["gmm"]
        assert np.max(np.abs(nu[:, 0] - g1.dist.column(0))) < 1e-10

    def test_duplicate_moment_singular(self, g1):
        def m(theta, x):
            d = x[:, 0] - theta[:, :1]
            return np.stack([d, d], axis=2)

        def jac(theta, x):
            return np.full((len(theta), x.shape[0], 2, 1), -1.0)

        with pytest.raises(SingularSigma):
            moment_design(g1.dist, MomentModel(m=m, jac=jac, p=1, l=2), np.array([0.0]))

    def test_two_atom_designs_have_singular_sigma(self, rng):
        # on two atoms the mean-zero functions span one dimension, so with
        # theta0 the mean and v the variance E[m] = 0 and Sigma has rank one
        for _ in range(200):
            p = rng.uniform(0.02, 0.98)
            dist = make_distribution(rng.uniform(-3.0, 3.0, 2), [p, 1.0 - p])
            x = dist.column(0)
            mean = expectation(dist, x)
            model = overidentified_mean_model(expectation(dist, (x - mean) ** 2))
            with pytest.raises(SingularSigma):
                GmmInstance("two atoms", dist, model, np.array([mean])).design

    def test_moment_not_satisfied(self, g1):
        with pytest.raises(MomentNotSatisfied):
            moment_design(g1.dist, g1.model, np.array([0.7]))

    def test_influence_lies_in_tangent_space(self, g1):
        t_basis, _, _ = tangent_bases(g1)
        for values in g1.design.influence["gmm"].T:
            f = ScoreFunction(g1.dist, values)
            assert (f - project(g1.dist, f, t_basis)).norm() < 1e-8


class TestEstimateGmm:
    def test_population_sample_recovers_truth(self, g1):
        # oracle: population moments vanish exactly at the truth
        data = population_dataset(g1.dist, 10)
        est = estimate_gmm(data, g1.model, np.array([0.6]))
        assert est.converged
        assert abs(est.theta_hat[0]) < 1e-8
        assert est.j.value < 1e-12

    def test_just_identified_equals_sample_mean(self, g1):
        data = draw_sample(g1.dist, 200, seed=11)
        est = estimate_gmm(data, mean_model(), np.array([0.3]))
        assert est.theta_hat[0] == pytest.approx(float(np.mean(data.rows)), abs=1e-10)
        assert est.j.value < 1e-10

    def test_null_sampling_distribution(self, g1):
        # oracle: chi-square(1) has mean one under the null; the scaled
        # estimator stays within four standard deviations of zero
        reps, n = 300, 1000
        j_values, devs = [], []
        for rep in range(reps):
            data = draw_sample(g1.dist, n, seed=42 + rep)
            est = estimate_gmm(data, g1.model, g1.theta0)
            assert est.converged
            j_values.append(est.j.value)
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
        # a named refusal, which a Monte Carlo run counts as a failed replication
        data = draw_sample(g1.dist, 2, seed=1)
        with pytest.raises(ShapeMismatch, match="more observations than moments"):
            estimate_gmm(data, g1.model, np.array([0.0]))

    @pytest.mark.parametrize("theta_init", [[0.0, 0.0, 0.0], [], 0.0, [[0.0]]])
    def test_theta_init_of_another_shape_is_refused(self, g1, theta_init):
        # a (3,) start once returned three copies of the p = 1 estimate
        with pytest.raises(ShapeMismatch, match=r"expected \(1,\)"):
            estimate_gmm(draw_sample(g1.dist, 500, seed=3), g1.model, theta_init)

    def test_a_rescaled_moment_leaves_the_estimate(self, g1):
        # efficient GMM does not depend on the units of a moment; with the
        # second scaled by 1e-7 the eigenvalue ratio of SigmaHat (about
        # 1e-14) once refused the sample with SingularSigmaHat
        data = count_sample(g1.dist, 1000, seed=3)
        scaled = _rescaled(g1.model, [1.0, 1e-7])
        want = estimate_gmm(data, g1.model, g1.theta0)
        got = estimate_gmm(data, scaled, g1.theta0)
        assert got.converged and abs(got.theta_hat[0] - want.theta_hat[0]) <= 1e-8

    def test_sigma_hat_positive_definite(self, g1):
        data = draw_sample(g1.dist, 500, seed=5)
        est = estimate_gmm(data, g1.model, g1.theta0)
        evals = np.linalg.eigvalsh(est.sigma_hat)
        assert evals[0] > 0
        assert np.linalg.eigvalsh(est.info_hat)[0] > 0

    def test_singular_sigma_hat_detected(self, g1):
        # a constant sample makes the moment outer product rank one
        data = Dataset(rows=np.zeros((10, 1)))
        with pytest.raises(SingularSigmaHat):
            estimate_gmm(data, g1.model, g1.theta0)

    @pytest.mark.parametrize("x", [0.75, 1.0, 1.5, 2.0, 3.0])
    def test_one_point_samples_have_singular_sigma_hat(self, g1, x):
        # n observations at one x give a rank-one SigmaHat whatever rounding
        # leaves in its smallest eigenvalue, as rows or as one counted row
        for data in (Dataset(np.full((50, 1), x)), Dataset(np.array([[x]]), np.array([50]))):
            with pytest.raises(SingularSigmaHat):
                estimate_gmm(data, g1.model, g1.theta0)

    def test_rank_deficient_jacobian_detected(self, g1):
        from asymlab.errors import RankDeficientJacobian

        def m(theta, x):
            one = np.stack([x[:, 0], x[:, 0] ** 2 - 1.2], axis=1)  # does not depend on theta
            return np.repeat(one[None], len(theta), axis=0)

        def jac(theta, x):
            return np.zeros((len(theta), x.shape[0], 2, 1))

        flat = MomentModel(m=m, jac=jac, p=1, l=2)
        with pytest.raises(RankDeficientJacobian):
            moment_design(g1.dist, flat, np.array([0.0]))


class TestJStatistic:
    def test_just_identified_has_no_dof_and_never_rejects(self, g1):
        data = draw_sample(g1.dist, 100, seed=2)
        est = estimate_gmm(data, mean_model(), np.array([0.0]))
        assert est.j.dof == 0 and not est.j.reject(0.05)

    def test_dof_is_overidentification_count(self, g1):
        data = draw_sample(g1.dist, 100, seed=3)
        assert estimate_gmm(data, g1.model, g1.theta0).j.dof == 1

    def test_population_data_never_rejects(self, g1):
        data = population_dataset(g1.dist, 10)
        est = estimate_gmm(data, g1.model, g1.theta0)
        assert not est.j.reject(0.05)


class TestKlProjection:
    def test_member_projects_to_itself(self, g1):
        projected, lam = kl_projection(g1.dist, g1.model, g1.theta0)
        assert np.linalg.norm(lam) < 1e-10
        assert np.max(np.abs(projected.probs - g1.dist.probs)) < 1e-10

    def test_two_point_closed_form(self):
        # oracle: solving 0.6 e^lam = 0.4 e^{-lam} gives lam = log(2/3) / 2
        eta = make_distribution([1.0, -1.0], [0.6, 0.4])

        def m(theta, x):
            return np.repeat(x[None, :, :1], len(theta), axis=0)

        def jac(theta, x):
            return np.ones((len(theta), x.shape[0], 1, 1))

        model = MomentModel(m=m, jac=jac, p=1, l=1)
        projected, lam = kl_projection(eta, model, np.array([0.0]))
        assert lam[0] == pytest.approx(0.5 * math.log(2.0 / 3.0), abs=1e-10)
        assert np.allclose(projected.probs, [0.5, 0.5], atol=1e-10)

    def test_infeasible_target(self, g1):
        def m(theta, x):
            return np.repeat(x[None, :, :1] - 3.0, len(theta), axis=0)

        def jac(theta, x):
            return np.zeros((len(theta), x.shape[0], 1, 1))

        model = MomentModel(m=m, jac=jac, p=1, l=1)
        with pytest.raises(Infeasible):
            kl_projection(g1.dist, model, np.array([0.0]))

    def test_zero_on_an_edge_of_the_hull(self):
        # 0 is the midpoint of the hull's edge from (-1, 0) to (1, 0), so the
        # LP margin is 0.  Without that certificate the dual Newton reports
        # convergence at |lambda| about 40, with a tilted mass of 1e-35.
        points = [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [-1.5, 0.7]]
        eta = make_distribution(points, np.full(5, 0.2))
        model = MomentModel(
            m=lambda t, x: np.repeat(x[None], len(t), axis=0),
            jac=lambda t, x: np.zeros((len(t), x.shape[0], 2, 1)),
            p=1,
            l=2,
        )
        with pytest.raises(Infeasible):
            kl_projection(eta, model, np.array([0.0]))
        assert hull_interior_margin_by_linprog(np.array(points)) <= 1e-12

    def test_feasibility_matches_the_angular_gaps(self, rng):
        # oracle: for l = 2, zero is interior to the hull of the moment points
        # iff every angular gap between them, seen from zero, is below pi
        verdicts = []
        for _ in range(400):
            size = int(rng.integers(2, 7))
            support, probs = rng.uniform(-3.0, 3.0, size), rng.dirichlet(np.ones(size))
            theta, v = rng.uniform(-2.0, 2.0, 1), rng.uniform(0.1, 4.0)
            model = overidentified_mean_model(v)
            points = model.moments_at(theta, support[:, None])
            angles = np.sort(np.arctan2(points[:, 1], points[:, 0]))
            gap = np.max(np.diff(angles, append=angles[0] + 2.0 * math.pi))
            assert abs(gap - math.pi) > 1e-6  # no design on the boundary
            assert (hull_interior_margin_by_linprog(points) > 1e-12) == (gap < math.pi)
            eta = make_distribution(support, probs)
            try:
                projected, _ = kl_projection(eta, model, theta)
            except Infeasible:
                verdicts.append(False)
            else:
                verdicts.append(True)
                moments = expectation(projected, model.moments_at(theta, projected.support))
                assert np.max(np.abs(moments)) < 1e-10
            assert verdicts[-1] == (gap < math.pi)
        assert 0 < sum(verdicts) < len(verdicts)

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


def random_design(rng) -> np.ndarray:
    """S = 2..12 moment values in l = 1..4 dimensions, Gaussian about a random offset."""
    l, s = int(rng.integers(1, 5)), int(rng.integers(2, 13))
    return rng.normal(size=(s, l)) + rng.normal(size=l) * rng.uniform(0.0, 2.0)


def boundary_design(rng) -> np.ndarray:
    """Zero on a face of the hull: the centroid of k <= l face points in d's
    orthocomplement, every other point with d'x > 0, in shuffled order."""
    l = int(rng.integers(1, 5))
    k = int(rng.integers(1, l + 1))
    s = int(rng.integers(k + 1, 13))
    d = rng.normal(size=l)
    d /= np.linalg.norm(d)
    perp = np.eye(l) - np.outer(d, d)
    face = rng.normal(size=(k, l)) @ perp
    face -= face.mean(axis=0)
    others = rng.normal(size=(s - k, l)) @ perp + rng.uniform(0.1, 2.0, (s - k, 1)) * d
    return rng.permutation(np.vstack([face, others]))


def grid_design(rng) -> np.ndarray:
    """S = 2..12 moment values in l = 1..4 dimensions with entries in {-2, ..., 2}."""
    l, s = int(rng.integers(1, 5)), int(rng.integers(2, 13))
    return rng.integers(-2, 3, size=(s, l)).astype(float)


class TestHullInteriorMargin:
    # generator seeds fixed before the first run; a disagreement with
    # linprog is a finding, not a reason to draw other designs
    @pytest.mark.parametrize(
        "generate, seed, count",
        [(random_design, 20241, 2000), (boundary_design, 20242, 500), (grid_design, 20243, 1000)],
        ids=["random", "boundary", "grid"],
    )
    def test_the_simplex_gives_linprogs_verdict(self, generate, seed, count):
        rng = np.random.default_rng(seed)
        feasible = 0
        for _ in range(count):
            m_vals = generate(rng)
            got, want = gmm._hull_interior_margin(m_vals), hull_interior_margin_by_linprog(m_vals)
            assert (got > 1e-12) == (want > 1e-12), m_vals
            if want > 1e-12:
                feasible += 1
                assert abs(got - want) <= 1e-12, m_vals
            for factors in (1e-6, 1e6, rng.choice([1e-6, 1e6], m_vals.shape[1])):
                rescaled = gmm._hull_interior_margin(m_vals * factors)
                assert (rescaled > 1e-12) == (got > 1e-12), (m_vals, factors)
        if generate is boundary_design:
            assert feasible == 0
        else:
            assert 0 < feasible < count

    def test_redundant_and_constant_moments(self, rng):
        m_vals = rng.normal(size=(6, 2))
        margin = gmm._hull_interior_margin(m_vals)
        assert margin > 0.0
        # an identically zero moment is a redundant row: its artificial column stays basic
        assert gmm._hull_interior_margin(np.zeros((4, 3))) == pytest.approx(0.25, abs=1e-15)
        with_zero = np.column_stack([m_vals, np.zeros(6)])
        assert gmm._hull_interior_margin(with_zero) == pytest.approx(margin, abs=1e-15)
        # a moment of 1e-300 everywhere keeps zero off the hull: the row is
        # scaled by its largest entry, right side included
        tiny = np.column_stack([m_vals, np.full(6, 1e-300)])
        assert gmm._hull_interior_margin(tiny) == -1.0


class TestProjectionMatrixIdentity:
    def test_projector_idempotent_symmetric(self, g1):
        # the J statistic basis: orthonormal rows, orthogonal to the efficient
        # score, spanning T_perp; its whitened projector is symmetric and
        # idempotent and equals T_perp's
        basis = g1.design.statistic["j"]
        assert basis.dim == g1.model.l - g1.model.p
        rows = basis.values
        assert np.max(np.abs((rows * g1.dist.probs) @ rows.T - np.eye(basis.dim))) < 1e-12
        ell = g1.design.ell[:, 0]
        assert np.max(np.abs(rows @ (g1.dist.probs * ell))) < 1e-12
        root_p = np.sqrt(g1.dist.probs)
        proj = (rows * root_p).T @ (rows * root_p)
        assert np.max(np.abs(proj - proj.T)) < 1e-12
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12
        t_perp = tangent_bases(g1)[1].values * root_p
        assert np.max(np.abs(proj - t_perp.T @ t_perp)) < 1e-12

    def test_tangent_scores_have_no_overidentifying_drift(self, g1, rng):
        # for scores inside the tangent space the whitened moment drift lies
        # entirely in the identifying subspace
        t_basis, _, _ = tangent_bases(g1)
        for _ in range(50):
            coefs = rng.standard_normal(t_basis.dim)
            g = ScoreFunction(g1.dist, coefs @ t_basis.values)
            _, over = hall_split(g1, g)
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

    def test_moments_without_the_stack_axis_are_refused(self, g1):
        # a function written for one parameter vector returns (S, l) for a
        # stack; the check names the (B, S, l) shape it expected
        def m(theta, x):
            return g1.model.m(theta, x)[0]

        model = MomentModel(m=m, jac=g1.model.jac, p=1, l=2)
        stack = np.array([[0.0], [0.1], [0.2]])
        with pytest.raises(ShapeMismatch, match=r"returned shape \(5, 2\), expected \(3, 5, 2\)"):
            model.moments_at(stack, g1.dist.support)
        with pytest.raises(ShapeMismatch, match=r"expected \(1, 5, 2\)"):
            model.moments_at(np.array([0.0]), g1.dist.support)

    def test_jacobian_that_disagrees_with_the_moments_is_refused(self, g1):
        doubled = MomentModel(
            m=g1.model.m, jac=lambda t, x: 2.0 * g1.model.jac(t, x), p=g1.model.p, l=g1.model.l
        )
        instance = GmmInstance(name="doubled", dist=g1.dist, model=doubled, theta0=g1.theta0)
        with pytest.raises(ShapeMismatch, match="finite differences"):
            tangent_bases(instance)

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


def assert_stack_rows_are_single_evaluations(model, stack, points):
    """Row b of a stacked evaluation is bit for bit the evaluation at stack[b]."""
    m_stack = model.moments_at(stack, points)
    jac_stack = model.jacobians_at(stack, points)
    assert m_stack.shape == (len(stack), len(points), model.l)
    assert jac_stack.shape == (len(stack), len(points), model.l, model.p)
    for b, theta in enumerate(stack):
        assert np.array_equal(m_stack[b], model.moments_at(theta, points))
        assert np.array_equal(jac_stack[b], model.jacobians_at(theta, points))


class TestParameterStacks:
    def test_catalogue_models(self, g1, iv1):
        rng = np.random.default_rng(5)
        assert_stack_rows_are_single_evaluations(
            g1.model, rng.uniform(-1.0, 1.0, (3, 1)), g1.dist.support
        )
        iv_model = linear_iv_moment_model(iv1.model.dims)
        assert_stack_rows_are_single_evaluations(
            iv_model, rng.uniform(-2.0, 2.0, (3, iv_model.p)), iv1.dist.support
        )

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(1, 40),
        v=st.floats(0.1, 5.0),
        k1=st.integers(1, 2),
        k2=st.integers(0, 2),
        extra=st.integers(0, 2),
    )
    def test_generated_models(self, seed, n_points, v, k1, k2, extra):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-3.0, 3.0, (n_points, 1))
        assert_stack_rows_are_single_evaluations(
            overidentified_mean_model(v), rng.uniform(-1.0, 1.0, (3, 1)), points
        )
        dims = (k1, k2, k1 + extra)
        rows = rng.uniform(-2.0, 2.0, (n_points, 1 + k1 + k2 + k1 + extra))
        assert_stack_rows_are_single_evaluations(
            linear_iv_moment_model(dims), rng.uniform(-2.0, 2.0, (3, k1 + k2)), rows
        )


def counted(model):
    """``model`` with every call of m and jac appended to a list as
    ("m" or "jac", number of parameter rows)."""
    calls = []

    def m(theta, x):
        calls.append(("m", len(theta)))
        return model.m(theta, x)

    def jac(theta, x):
        calls.append(("jac", len(theta)))
        return model.jac(theta, x)

    return MomentModel(m=m, jac=jac, p=model.p, l=model.l), calls


class TestEvaluationCounts:
    @pytest.mark.parametrize("seed", [0, 3, 71])
    def test_one_jacobian_call_per_newton_step(self, g1, seed):
        model, calls = counted(g1.model)
        est = estimate_gmm(count_sample(g1.dist, 1000, seed), model, g1.theta0)
        jacobians = [rows for kind, rows in calls if kind == "jac"]
        assert est.iterations > 0
        assert jacobians == [1 + 2 * model.p] * (est.iterations + 1)
        assert all(rows == 1 for kind, rows in calls if kind == "m")
        # no line-search trial is rejected on these samples: one moment call per iterate
        assert sum(kind == "m" for kind, _ in calls) == est.iterations + 1

    def test_one_jacobian_call_per_newton_step_at_p_2(self):
        # the linear IV moments on a two-parameter design
        iv = _iv_two_parameter_sample()
        model, calls = counted(linear_iv_moment_model((1, 1, 2)))
        est = estimate_gmm(iv, model, np.zeros(2))
        jacobians = [rows for kind, rows in calls if kind == "jac"]
        assert est.iterations > 0
        assert jacobians == [5] * (est.iterations + 1)
        assert sum(kind == "m" for kind, _ in calls) == est.iterations + 1

    def test_check_jacobian_makes_one_moment_call(self, g1, iv1):
        for base, points, theta in (
            (g1.model, g1.dist.support, np.array([0.3])),
            (linear_iv_moment_model(iv1.model.dims), iv1.dist.support, iv1.model.beta0),
        ):
            model, calls = counted(base)
            model.check_jacobian(theta, points)
            assert calls == [("m", 2 * model.p), ("jac", 1)]


def _iv_two_parameter_sample():
    """A count sample of rows (y, x1, x2, z1, z2) with y = x1 + x2 + noise."""
    rng = np.random.default_rng(8)
    z = rng.standard_normal((60, 2))
    x1 = z @ [1.0, 0.5] + 0.3 * rng.standard_normal(60)
    x2 = rng.standard_normal(60)
    y = x1 + x2 + rng.standard_normal(60)
    rows = np.column_stack([y, x1, x2, z])
    return Dataset(rows, rng.integers(1, 5, 60))


def count_sample(dist, n, seed):
    """The draws of ``draw_sample(dist, n, seed)`` as the support with its counts."""
    idx = draw_indices(dist, n, seed)
    return Dataset(dist.support, np.bincount(idx, minlength=dist.n_atoms))


def rows_and_weights(data):
    """The (points, weights) pair ``estimate_gmm`` hands to ``_newton``."""
    return data.rows, data.counts / data.n


def newton_from(model, pts, w, theta, weight):
    """``_newton`` from ``theta``, with the moments and Jacobian there, as
    ``estimate_gmm`` starts step one; ``theta`` and ``weight`` are arrays."""
    theta = theta.tolist()
    m_vals = model.moments_at(theta, pts)
    jac = _jacobians(model, pts, w, theta)
    return _newton(model, pts, w, weight.tolist(), theta, m_vals, jac)


def _flat_direction_model():
    """m = (x - t1 - t2, x^2 - 1.2): the Jacobian has rank one everywhere."""

    def m(theta, x):
        out = np.empty((len(theta), x.shape[0], 2))
        out[..., 0] = x[:, 0] - theta[:, :1] - theta[:, 1:]
        out[..., 1] = x[:, 0] ** 2 - G1_V
        return out

    def jac(theta, x):
        out = np.zeros((len(theta), x.shape[0], 2, 2))
        out[..., 0, :] = -1.0
        return out

    return MomentModel(m=m, jac=jac, p=2, l=2)


def _rescaled(model, factors):
    """``model`` with moment j multiplied by ``factors[j]``."""
    c = np.asarray(factors)
    return MomentModel(
        m=lambda t, x: model.m(t, x) * c,
        jac=lambda t, x: model.jac(t, x) * c[:, None],
        p=model.p,
        l=model.l,
    )


def _sign_flipped(model):
    """The same moments with the Jacobian negated: every step goes uphill."""
    return MomentModel(m=model.m, jac=lambda t, x: -model.jac(t, x), p=model.p, l=model.l)


class TestStopReasons:
    def test_first_order_at_the_start_takes_no_step(self, g1):
        est = estimate_gmm(population_dataset(g1.dist, 10), g1.model, g1.theta0)
        assert est.stop_reasons == (gmm.FIRST_ORDER, gmm.FIRST_ORDER)
        assert est.iterations == 0 and est.theta_hat[0] == 0.0

    def test_step(self, g1):
        # the just-identified mean model is linear: from 0.3 one Newton step
        # lands on the sample mean up to the rounding of 0.3, and on data
        # spread over 1e-8 the objective still resolves the next step, which
        # is below STEP_TOL
        data = draw_sample(g1.dist, 200, seed=11)
        tiny = Dataset(1e-8 * data.rows, data.counts)
        est = estimate_gmm(tiny, mean_model(), np.array([0.3]))
        assert est.stop_reasons[0] == gmm.STEP
        assert est.converged
        assert est.theta_hat[0] == pytest.approx(1e-8 * float(np.mean(data.rows)), rel=1e-12)

    def test_first_order(self, g1):
        est = estimate_gmm(draw_sample(g1.dist, 100, seed=0), g1.model, g1.theta0)
        assert est.stop_reasons == (gmm.FIRST_ORDER, gmm.FIRST_ORDER)
        assert est.converged

    def test_decrement(self, g1):
        # J is 7.6e-6 on this sample: W mbar is so small that rounding keeps
        # the first-order test from passing, and the search ends after its
        # FINAL_STEPS unsearched Newton steps
        est = estimate_gmm(count_sample(g1.dist, 100, seed=71), g1.model, g1.theta0)
        assert est.j.value < 1e-5
        assert est.stop_reasons == (gmm.DECREMENT, gmm.DECREMENT)
        assert est.converged

    def test_iteration_cap(self, g1, monkeypatch):
        monkeypatch.setattr(gmm, "MAX_ITER", 1)
        est = estimate_gmm(draw_sample(g1.dist, 100, seed=0), g1.model, g1.theta0)
        assert est.stop_reasons == (gmm.ITERATION_CAP, gmm.ITERATION_CAP)
        assert est.iterations == 2 and not est.converged

    def test_line_search(self, g1):
        data = draw_sample(g1.dist, 100, seed=0)
        est = estimate_gmm(data, _sign_flipped(g1.model), np.array([0.3]))
        assert est.stop_reasons == (gmm.LINE_SEARCH, gmm.LINE_SEARCH)
        assert not est.converged and est.theta_hat[0] == 0.3

    def test_not_positive_definite(self, g1):
        # a rank-one Jacobian leaves both the Hessian and the normal matrix
        # singular; estimate_gmm then refuses the sample information
        model = _flat_direction_model()
        pts, w = rows_and_weights(count_sample(g1.dist, 100, seed=0))
        found = newton_from(model, pts, w, np.zeros(2), np.eye(2))
        assert found.reason == gmm.NOT_POSITIVE_DEFINITE and found.steps == 0
        assert np.array_equal(found.theta, np.zeros(2))
        with pytest.raises(RankDeficientJacobian):
            estimate_gmm(draw_sample(g1.dist, 100, seed=0), model, np.zeros(2))

    def test_not_positive_definite_in_step_two(self, g1):
        # the efficient weight leaves G'WG rank one, as the identity did; its
        # second pivot is rounding noise, so step two stops where step one
        # did instead of stepping along the unidentified direction t1 - t2
        model = _flat_direction_model()
        pts, w = rows_and_weights(draw_sample(g1.dist, 100, seed=0))
        first = newton_from(model, pts, w, np.zeros(2), np.eye(2))
        sigma_hat = (first.m_vals.T * w) @ first.m_vals
        weight = _cholesky(0.5 * (sigma_hat + sigma_hat.T), np.eye(2))
        weight = 0.5 * (weight + weight.T)
        second = _newton(model, pts, w, weight.tolist(), first.theta, first.m_vals, first.jac)
        assert second.reason == gmm.NOT_POSITIVE_DEFINITE and second.steps == 0
        assert np.array_equal(second.theta, np.zeros(2))

    def test_newton_hands_back_the_moments_at_its_minimiser(self, g1):
        pts, w = rows_and_weights(count_sample(g1.dist, 100, seed=0))
        found = newton_from(g1.model, pts, w, g1.theta0, np.eye(2))
        assert np.array_equal(found.m_vals, g1.model.moments_at(found.theta, pts))
        assert np.array_equal(found.mbar, w @ found.m_vals)
        for got, want in zip(found.jac, _jacobians(g1.model, pts, w, found.theta)):
            assert np.array_equal(got, want)

    def test_gauss_newton_step_where_the_hessian_is_refused(self, g1, monkeypatch):
        # with the variance restriction at 3.0 instead of 1.2 the curvature
        # term leaves the Hessian at 0.3 not positive definite; the
        # Gauss-Newton step moves on, and Newton ends at a first-order point
        model = overidentified_mean_model(3.0)
        pts, w = rows_and_weights(draw_sample(g1.dist, 200, seed=1))
        refused = []  # per Cholesky factorisation: whether it failed
        cholesky = gmm._cholesky_lists

        def recorded_cholesky(a, cols):
            x = cholesky(a, cols)
            refused.append(x is None)
            return x

        monkeypatch.setattr(gmm, "_cholesky_lists", recorded_cholesky)
        found = newton_from(model, pts, w, np.array([0.3]), np.eye(2))
        assert found.reason == gmm.FIRST_ORDER and found.steps == 6
        # step one: the Hessian refused, G'WG accepted; every later Hessian accepted
        assert refused == [True, False] + [False] * (found.steps - 1)
        gbar_t = np.array(_jacobians(model, pts, w, found.theta)[0])  # G's columns as rows
        mbar = w @ model.moments_at(found.theta, pts)
        gradient = np.linalg.norm(gbar_t @ mbar)
        assert gradient <= gmm.FIRST_ORDER_TOL * np.linalg.norm(gbar_t) * np.linalg.norm(mbar)

    def test_step_two_starts_from_what_step_one_evaluated(self, g1, monkeypatch):
        evaluated = []  # ("m" or "jac", parameter stack) of every evaluation, in order

        def m(theta, x):
            evaluated.append(("m", theta.copy()))
            return g1.model.m(theta, x)

        def jac(theta, x):
            evaluated.append(("jac", theta.copy()))
            return g1.model.jac(theta, x)

        minima = []
        newton = gmm._newton

        def recorded_newton(*args):
            found = newton(*args)
            minima.append(found.theta)
            return found

        monkeypatch.setattr(gmm, "_newton", recorded_newton)
        data = draw_sample(g1.dist, 1000, seed=3)
        est = estimate_gmm(data, MomentModel(m=m, jac=jac, p=1, l=2), g1.theta0)
        theta1 = minima[0]
        assert not np.array_equal(est.theta_hat, theta1)  # step two moved
        at_theta1 = [kind for kind, rows in evaluated for r in rows if np.array_equal(r, theta1)]
        assert at_theta1 == ["m", "jac"]  # once each, by step one
        plain = estimate_gmm(data, g1.model, g1.theta0)
        assert np.array_equal(est.theta_hat, plain.theta_hat)
        assert est.iterations == plain.iterations and est.stop_reasons == plain.stop_reasons


class TestCurvature:
    @pytest.mark.parametrize("theta", [-0.5, 0.1, 0.5])
    def test_central_difference_is_exact(self, g1, theta):
        # d^2 mbar / dt^2 = (0, 2), so the curvature (W mbar)' times the
        # difference over its width is 2 (W mbar)_2 exactly
        base = overidentified_mean_model(G1_V)
        seen = []

        def jac(theta, x):
            seen.append(theta.copy())
            return base.jac(theta, x)

        model = MomentModel(m=base.m, jac=jac, p=1, l=2)
        pts, w = rows_and_weights(count_sample(g1.dist, 100, seed=0))
        wm = np.array([0.3, -0.7])
        gbar, diffs, widths = _jacobians(model, pts, w, [theta])
        got = (np.array(diffs) @ wm) / np.array(widths)[:, None]  # diffs[j][k]: column k
        assert got == pytest.approx(np.array([[2.0 * wm[1]]]), rel=1e-8)
        assert np.array_equal(gbar[0], w @ base.jacobians_at(np.array([theta]), pts)[:, :, 0])
        # one evaluation, on theta and its two difference points
        assert len(seen) == 1 and seen[0].shape == (3, 1)
        assert seen[0][0, 0] == theta and seen[0][1, 0] > theta > seen[0][2, 0]
        assert widths[0] == seen[0][1, 0] - seen[0][2, 0]


@pytest.fixture(scope="module")
def g1_perp_sample():
    """The count sample of replication ``rep`` of the shipped g1_perp config
    under master seed ``seed``, drawn as ``run_experiment`` draws it."""
    experiment = build_experiment(validate_raw(load_raw(CONFIG_DIR / "g1_perp.json")))
    path = LocalPath(experiment.instance.dist, experiment.score, tilt="exponential")
    local = path_distribution(path, 1.0 / math.sqrt(experiment.n))

    def sample(seed, rep):
        idx = draw_indices(local, experiment.n, replication_seed(seed, rep))
        return Dataset(local.support, np.bincount(idx, minlength=local.n_atoms))

    return sample


G1_PERP_REPS = [*range(1, 101), 411]


class TestExactTwoStep:
    def test_g1_perp_estimates_are_the_exact_two_step_minimiser(self, g1, g1_perp_sample):
        for rep in G1_PERP_REPS:
            data = g1_perp_sample(7, rep)
            est = estimate_gmm(data, g1.model, g1.theta0)
            exact = overidentified_mean_two_step(data.rows[:, 0], data.counts, G1_V)
            assert est.converged
            assert abs(est.theta_hat[0] - exact) <= 1e-12, rep

    def test_seed_7_rep_411(self, g1, g1_perp_sample):
        # a sample whose identity-weighted objective stays large (J near 30):
        # Gauss-Newton, linear there, stopped 3e-7 short of the minimiser
        data = g1_perp_sample(7, 411)
        est = estimate_gmm(data, g1.model, g1.theta0)
        exact = overidentified_mean_two_step(data.rows[:, 0], data.counts, G1_V)
        assert est.j.value > 20.0
        assert abs(est.theta_hat[0] - exact) <= 1e-12

    def test_two_starts_give_the_same_estimate(self, g1, g1_perp_sample):
        for rep in G1_PERP_REPS:
            data = g1_perp_sample(7, rep)
            a = estimate_gmm(data, g1.model, np.array([0.0]))
            b = estimate_gmm(data, g1.model, np.array([0.3]))
            assert abs(a.theta_hat[0] - b.theta_hat[0]) <= 1e-12, rep


@st.composite
def overidentified_mean_samples(draw):
    """A random support of 3 to 12 points with counts, at least three of them
    positive, and a variance restriction v below s2 + 1/2 (s2 the sample
    variance), so that the identity-weighted objective has one minimum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_atoms = draw(st.integers(3, 12))
    support = rng.uniform(-3.0, 3.0, (n_atoms, 1))
    counts = rng.integers(0, 60, n_atoms)
    counts[rng.choice(n_atoms, 3, replace=False)] += 1
    x, w = support[:, 0], counts / counts.sum()
    s2 = w @ (x - w @ x) ** 2
    v = min(draw(st.floats(0.5, 1.5)) * s2, s2 + 0.4)
    starts = (w @ x) + rng.uniform(-0.5, 0.5, 2)
    return Dataset(support, counts), v, starts


def _first_order_residual(model, v, data, est):
    """G'W mbar at theta-hat (p = 1), its scale ||G|| ||W mbar||, and the
    rounding floor of its evaluation for the overidentified-mean model.

    The weight is the solver's, bit for bit: the same factorisation and
    solve of SigmaHat.  mbar sums terms of size |x| + |theta| and
    (x - theta)^2 + v, each rounded; the floor is 64 ulps of their weighted
    sum, carried through ||G|| ||W||.
    """
    pts, w = rows_and_weights(data)
    weight = _cholesky(est.sigma_hat, np.eye(model.l))
    weight = 0.5 * (weight + weight.T)
    theta = est.theta_hat
    wm = weight @ (w @ model.moments_at(theta, pts))
    gbar = np.array(_jacobians(model, pts, w, theta.tolist())[0]).T
    x = pts[:, 0]
    terms = w @ (np.abs(x) + abs(theta[0]) + (x - theta[0]) ** 2 + v)
    g_norm = np.linalg.norm(gbar)
    floor = 64 * np.finfo(float).eps * g_norm * np.linalg.norm(weight) * terms
    return float((gbar.T @ wm)[0]), g_norm * np.linalg.norm(wm), floor


class TestNewtonOnRandomSupports:
    @settings(max_examples=100, deadline=None)
    @given(case=overidentified_mean_samples())
    def test_first_order_condition_holds_and_starts_agree(self, case):
        data, v, starts = case
        model = overidentified_mean_model(v)
        a, b = (estimate_gmm(data, model, np.array([s])) for s in starts)
        assert a.converged and b.converged
        assert abs(a.theta_hat[0] - b.theta_hat[0]) <= 1e-12
        # the scale-free first-order condition, down to the rounding floor
        # that a sample with J near zero leaves in G'W mbar
        r, scale, floor = _first_order_residual(model, v, data, a)
        assert abs(r) <= 1e-13 * scale + floor
        exact = overidentified_mean_two_step(data.rows[:, 0], data.counts, v)
        assert abs(a.theta_hat[0] - exact) <= 1e-12


@st.composite
def linear_iv_samples(draw):
    """A count sample of 8 to 30 rows (y, x1, x2, z1) with k1 + k2 = p of 1 to
    3 regressors and q >= k1 instruments, y = x'beta + noise, for the linear
    IV moments; with a start near beta."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k1, k2, extra = draw(st.integers(1, 2)), draw(st.integers(0, 1)), draw(st.integers(0, 2))
    q, n_rows = k1 + extra, draw(st.integers(8, 30))
    z = rng.standard_normal((n_rows, q))
    first_stage = np.vstack([np.eye(k1), rng.uniform(-0.5, 0.5, (extra, k1))])  # well conditioned
    x1 = z @ first_stage + 0.5 * rng.standard_normal((n_rows, k1))
    x2 = rng.standard_normal((n_rows, k2))
    beta = rng.uniform(-2.0, 2.0, k1 + k2)
    y = np.column_stack([x1, x2]) @ beta + rng.standard_normal(n_rows)
    rows = np.column_stack([y, x1, x2, z])
    counts = rng.integers(1, 6, n_rows)
    start = beta + rng.uniform(-0.5, 0.5, k1 + k2)
    return Dataset(rows, counts), linear_iv_moment_model((k1, k2, q)), start


@st.composite
def overidentified_mean_cases(draw):
    data, v, starts = draw(overidentified_mean_samples())
    return data, overidentified_mean_model(v), starts[:1]


class TestFloatKernelAgainstArrays:
    """``estimate_gmm`` against the same two-step GMM with the Newton algebra
    on numpy arrays (``oracles.estimate_gmm_by_arrays``): only the rounding
    of sums of l or p terms differs between them."""

    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(overidentified_mean_cases(), linear_iv_samples()))
    def test_the_same_estimate_and_steps(self, case):
        data, model, start = case
        try:
            want, ratios = estimate_gmm_by_arrays(data, model, start)
        except AsymlabError as exc:
            with pytest.raises(type(exc)):
                estimate_gmm(data, model, start)
            return
        got = estimate_gmm(data, model, start)
        assert got.converged and want.converged
        theta, j = want.theta_hat, want.j.value
        assert np.max(np.abs(got.theta_hat - theta)) <= 1e-12 * max(1.0, np.max(np.abs(theta)))
        assert abs(got.j.value - j) <= 1e-12 * max(1.0, j)
        if got.iterations != want.iterations:
            # rounding may tip the first-order test only where its ratio is
            # within 10x of the tolerance, give or take the ratio's rounding
            # floor (large where the moments vanish at the estimate, l = p)
            tol = gmm.FIRST_ORDER_TOL
            assert any(r - floor <= 10.0 * tol and r + floor >= 0.1 * tol for r, floor in ratios)
