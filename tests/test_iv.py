import math

import numpy as np
import pytest

from asymlab.dist import draw_sample, make_distribution
from asymlab.errors import (
    NegativeSpectrumWarning,
    NullModelViolated,
    RankDeficientFirstStage,
    ShapeMismatch,
    SingularDesign,
)
from asymlab.gmm import population_dataset
from asymlab.instances import tangent_bases
from asymlab.iv import (
    IVDataset,
    LinearEstimate,
    dwh_statistic,
    estimate_2sls,
    estimate_ols,
    hausman_contrast_basis,
    iv_efficient_scores,
    iv_influence_functions,
    iv_predicted_biases,
    ivdataset_from_rows,
    read_csv,
    write_csv,
)
from asymlab.scores import ScoreFunction, inner_product, project


def iv1_sample(iv1, n=400, seed=8):
    return ivdataset_from_rows(draw_sample(iv1.dist, n, seed).rows, iv1.model.dims)


class TestIVDataset:
    def test_from_rows_layout(self, iv1):
        data = iv1_sample(iv1)
        assert data.X.shape == (400, 2) and data.Z.shape == (400, 2)
        # X stacks (x1, x2), Z stacks (z1, x2): shared exogenous column
        assert np.array_equal(data.X[:, 1], data.Z[:, 1])

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            IVDataset(
                y=np.zeros(5),
                x1=np.zeros((4, 1)),
                x2=np.zeros((5, 1)),
                z1=np.zeros((5, 1)),
            )
        with pytest.raises(ShapeMismatch):
            ivdataset_from_rows(np.zeros((5, 3)), dims=(1, 1, 1))

    def test_order_condition_enforced(self):
        from asymlab.models import IVModel

        with pytest.raises(ShapeMismatch):
            IVModel(beta0=np.zeros(3), sigma0_sq=1.0, dims=(2, 1, 1))
        with pytest.raises(ValueError):
            IVModel(beta0=np.zeros(2), sigma0_sq=0.0, dims=(1, 1, 1))

    def test_csv_roundtrip(self, iv1, tmp_path):
        data = iv1_sample(iv1, n=60, seed=2)
        path = tmp_path / "sample.csv"
        write_csv(data, path)
        header = path.read_text().splitlines()[0]
        assert header == "y,x1_1,x2_1,z1_1"
        back = read_csv(path)
        assert np.allclose(back.y, data.y)
        assert np.allclose(back.x1, data.x1)
        assert np.allclose(back.z1, data.z1)


class TestOls:
    def test_noiseless_exact_fit(self, rng):
        X = rng.standard_normal((50, 2))
        beta = np.array([2.0, -1.0])
        data = IVDataset(y=X @ beta, x1=X[:, :1], x2=X[:, 1:], z1=rng.standard_normal((50, 1)))
        est = estimate_ols(data)
        assert np.max(np.abs(est.beta - beta)) < 1e-12

    def test_population_weighted_sample(self, iv1):
        # oracle: E[X e] = 0 under the design by independence
        rows = population_dataset(iv1.dist, 8).rows
        est = estimate_ols(ivdataset_from_rows(rows, iv1.model.dims))
        assert np.max(np.abs(est.beta - iv1.model.beta0)) < 1e-10

    def test_collinear_design(self, rng):
        x = rng.standard_normal((30, 1))
        data = IVDataset(y=rng.standard_normal(30), x1=x, x2=x.copy(), z1=np.ones((30, 1)))
        with pytest.raises(SingularDesign):
            estimate_ols(data)


class TestTsls:
    def test_just_identified_closed_form(self, iv1):
        # oracle: with dim Z = dim X the estimator is (Z'X)^{-1} Z'Y
        data = iv1_sample(iv1, n=300, seed=21)
        est = estimate_2sls(data)
        direct = np.linalg.solve(data.Z.T @ data.X, data.Z.T @ data.y)
        assert np.max(np.abs(est.beta - direct)) < 1e-10

    def test_noiseless_recovery(self, rng):
        z = rng.standard_normal((80, 1))
        x1 = z + 0.1 * rng.standard_normal((80, 1))
        x2 = np.ones((80, 1))
        beta = np.array([1.5, -0.5])
        X = np.hstack([x1, x2])
        data = IVDataset(y=X @ beta, x1=x1, x2=x2, z1=z)
        est = estimate_2sls(data)
        assert np.max(np.abs(est.beta - beta)) < 1e-12

    def test_rank_deficient_first_stage(self, rng):
        # instrument orthogonal to the regressor in-sample
        x1 = np.concatenate([np.ones(20), -np.ones(20)])[:, None]
        z1 = np.concatenate([np.ones(10), -np.ones(10), np.ones(10), -np.ones(10)])[:, None]
        data = IVDataset(
            y=rng.standard_normal(40), x1=x1, x2=np.ones((40, 1)), z1=z1
        )
        with pytest.raises(RankDeficientFirstStage):
            estimate_2sls(data)


class TestDwh:
    def test_equal_estimates_give_zero(self, iv1):
        # identical coefficient vectors leave nothing to contrast
        data = iv1_sample(iv1, n=100, seed=17)
        beta = np.array([1.0, 0.1])
        ols = LinearEstimate(beta=beta, vcov=np.diag([0.5, 1.0]), sigma_sq_hat=1.0)
        tsls = LinearEstimate(beta=beta.copy(), vcov=np.diag([1.0, 1.0]), sigma_sq_hat=1.0)
        stat = dwh_statistic(data, ols, tsls)
        assert stat.value == 0.0

    def test_iv1_rank_one(self, iv1):
        # oracle: the population variance difference has rank k1 = 1
        assert hausman_contrast_basis(iv1.dist, iv1.model).dim == 1
        data = iv1_sample(iv1, n=500, seed=31)
        stat = dwh_statistic(data, estimate_ols(data), estimate_2sls(data))
        assert stat.dof == 1

    def test_row_reordering_invariance(self, iv1, rng):
        data = iv1_sample(iv1, n=200, seed=12)
        stat = dwh_statistic(data, estimate_ols(data), estimate_2sls(data))
        perm = rng.permutation(200)
        rows = np.hstack([data.y[:, None], data.x1, data.x2, data.z1])[perm]
        shuffled = ivdataset_from_rows(rows, iv1.model.dims)
        stat2 = dwh_statistic(shuffled, estimate_ols(shuffled), estimate_2sls(shuffled))
        assert stat2.value == pytest.approx(stat.value, rel=1e-12)
        assert stat2.dof == stat.dof

    def test_null_rejection_rate(self, iv1):
        # oracle: central chi-square(1) calibration under the null
        reps, n, hits = 400, 800, 0
        for rep in range(reps):
            data = iv1_sample(iv1, n=n, seed=5000 + rep)
            if dwh_statistic(data, estimate_ols(data), estimate_2sls(data)).reject(0.05):
                hits += 1
        rate = hits / reps
        assert abs(rate - 0.05) < 4.0 * math.sqrt(0.05 * 0.95 / reps)

    def test_negative_spectrum_warns(self, iv1):
        data = iv1_sample(iv1, n=100, seed=3)
        ols = LinearEstimate(
            beta=np.array([1.0, 0.0]), vcov=np.diag([0.5, 1.0]), sigma_sq_hat=1.0
        )
        tsls = LinearEstimate(
            beta=np.array([1.1, 0.0]), vcov=np.diag([1.0, 0.5]), sigma_sq_hat=1.0
        )
        with pytest.warns(NegativeSpectrumWarning):
            stat = dwh_statistic(data, ols, tsls)
        assert stat.dof == 1  # only the positive direction is kept

    def test_population_variance_ordering(self, iv1):
        # efficiency under the null: the 2SLS variance dominates the OLS one
        from asymlab.scores import iv_population_matrices

        exx, exz, ezz = iv_population_matrices(iv1.dist, iv1.model)
        v_ols = iv1.model.sigma0_sq * np.linalg.inv(exx)
        v_tsls = iv1.model.sigma0_sq * np.linalg.inv(
            exz @ np.linalg.solve(ezz, exz.T)
        )
        assert np.linalg.eigvalsh(v_tsls - v_ols)[0] > -1e-12


class TestPopulationScores:
    def test_iv1_efficient_scores_hand_values(self, iv1):
        # oracle: E[XZ'] = E[ZZ'] = identity and sigma0^2 = 1 on this support
        ell_p, ell_m = iv_efficient_scores(iv1.dist, iv1.model)
        e = iv1.model.errors_on(iv1.dist.support)
        x1, z1 = iv1.dist.column(1), iv1.dist.column(3)
        assert np.max(np.abs(ell_p[0].values - x1 * e)) < 1e-12
        assert np.max(np.abs(ell_p[1].values - e)) < 1e-12
        assert np.max(np.abs(ell_m[0].values - z1 * e)) < 1e-12
        assert np.max(np.abs(ell_m[1].values - e)) < 1e-12

    def test_degenerate_error_rejected(self, iv1):
        rows = []
        for x1 in (-1.0, 1.0):
            for z1 in (-1.0, 1.0):
                rows.append([x1, x1, 1.0, z1])  # y = x1 exactly, e = 0
        dist = make_distribution(rows, np.full(4, 0.25))
        with pytest.raises(NullModelViolated):
            iv_efficient_scores(dist, iv1.model)

    def test_influence_functions_match_estimator_limits(self, iv1):
        # OLS influence: E[XX']^{-1} X e; 2SLS influence: z e here
        nu, tau = iv_influence_functions(iv1.dist, iv1.model)
        e = iv1.model.errors_on(iv1.dist.support)
        x1, z1 = iv1.dist.column(1), iv1.dist.column(3)
        assert np.max(np.abs(nu[0].values - 0.5 * x1 * e)) < 1e-12
        assert np.max(np.abs(nu[1].values - e)) < 1e-12
        assert np.max(np.abs(tau[0].values - z1 * e)) < 1e-12

    def test_contrast_basis_is_detectable_and_hand_checked(self, iv1):
        basis = hausman_contrast_basis(iv1.dist, iv1.model)
        assert basis.dim == 1 and basis.label == "T_perp_cap_M"
        e = iv1.model.errors_on(iv1.dist.support)
        x1, z1 = iv1.dist.column(1), iv1.dist.column(3)
        ref = math.sqrt(2.0) * (z1 - 0.5 * x1) * e
        gap = min(
            np.max(np.abs(basis.functions[0].values - ref)),
            np.max(np.abs(basis.functions[0].values + ref)),
        )
        assert gap < 1e-10
        t_basis, t_perp_m, m_perp = tangent_bases(iv1)
        f = basis.functions[0]
        assert project(iv1.dist, f, t_basis).norm() < 1e-10
        assert (f - project(iv1.dist, f, t_perp_m)).norm() < 1e-10


class TestBiasChannels:
    def test_tangent_scores_bias_both_estimators_equally(self, iv1, rng):
        # a direction inside the null tangent space drifts both estimators by
        # the same vector h
        from asymlab.scores import orthonormal_basis

        t_basis, _, _ = tangent_bases(iv1)
        ell_p, _ = iv_efficient_scores(iv1.dist, iv1.model)
        score_span = orthonormal_basis(iv1.dist, list(ell_p))
        for _ in range(10):
            h = rng.standard_normal(2)
            raw = ScoreFunction(iv1.dist, rng.standard_normal(t_basis.dim) @ t_basis.matrix())
            nuisance = raw - project(iv1.dist, raw, score_span)
            g = h[0] * ell_p[0] + h[1] * ell_p[1] + nuisance
            biases = iv_predicted_biases(iv1.dist, iv1.model, g)
            assert np.max(np.abs(biases["ols"] - h)) < 1e-10
            assert np.max(np.abs(biases["tsls"] - h)) < 1e-10

    def test_detectable_scores_leave_ols_unbiased(self, iv1, rng):
        # directions orthogonal to the null tangent space: OLS unbiased, the
        # 2SLS drift equals the coefficient of the maintained efficient score
        _, t_perp_m, _ = tangent_bases(iv1)
        _, ell_m = iv_efficient_scores(iv1.dist, iv1.model)
        gram = np.array(
            [[inner_product(iv1.dist, a, b) for b in ell_m] for a in ell_m]
        )
        for _ in range(10):
            coefs = rng.standard_normal(t_perp_m.dim)
            g = ScoreFunction(iv1.dist, coefs @ t_perp_m.matrix())
            cross = np.array([inner_product(iv1.dist, a, g) for a in ell_m])
            h = np.linalg.solve(gram, cross)
            biases = iv_predicted_biases(iv1.dist, iv1.model, g)
            assert np.max(np.abs(biases["ols"])) < 1e-10
            assert np.max(np.abs(biases["tsls"] - h)) < 1e-10

    def test_contrast_direction_moves_tsls_only(self, iv1):
        basis = hausman_contrast_basis(iv1.dist, iv1.model)
        g = basis.functions[0]
        biases = iv_predicted_biases(iv1.dist, iv1.model, g)
        assert np.max(np.abs(biases["ols"])) < 1e-10
        assert np.linalg.norm(biases["tsls"]) > 0.1
