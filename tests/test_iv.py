import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    draw_sample,
    dwh_by_eigh,
    iv_bias_closed_forms,
    iv_efficient_scores,
    orthonormal_basis,
    read_csv,
)

from asymlab.chi2 import TestStatistic
from asymlab.cli import execute
from asymlab.config import build_experiment, build_instance, load_raw, validate_raw
from asymlab.dist import Dataset, draw_indices, make_distribution, replication_seed
from asymlab.errors import (
    AsymlabError,
    ConfigInvalid,
    NullModelViolated,
    RankDeficientFirstStage,
    ShapeMismatch,
    SingularDesign,
    SingularInstrumentGram,
)
from asymlab.gmm import population_dataset
from asymlab.instances import iv1_instance, tangent_bases
from asymlab.iv import (
    LinearEstimate,
    dwh_statistic,
    estimate_2sls,
    estimate_ols,
    write_csv,
)
from asymlab.linalg import PIVOT_TOL
from asymlab.mc import local_distribution
from asymlab.models import IVModel
from asymlab.predict import build_prediction
from asymlab.scores import (
    ScoreFunction,
    centered_score,
    inner_product,
    iv_design,
    project,
)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def iv1_sample(iv1, n=400, seed=8):
    return draw_sample(iv1.dist, n, seed)


def synthetic(y, x1, x2, z1):
    """Rows laid out as (y, x1, x2, z1) and an IV model with the matching dims."""
    k1, k2, q = x1.shape[1], x2.shape[1], z1.shape[1]
    model = IVModel(beta0=np.zeros(k1 + k2), sigma0_sq=1.0, dims=(k1, k2, q))
    return Dataset(np.column_stack([y, x1, x2, z1])), model


class TestIVDataset:
    def test_from_rows_layout(self, iv1):
        data = iv1_sample(iv1)
        _, X, Z = iv1.model.design_matrices(data.rows)
        assert X.shape == (400, 2) and Z.shape == (400, 2)
        # X stacks (x1, x2), Z stacks (z1, x2): shared exogenous column
        assert np.array_equal(X[:, 1], Z[:, 1])

    def test_shape_validation(self):
        model = IVModel(beta0=np.zeros(2), sigma0_sq=1.0, dims=(1, 1, 1))
        narrow = Dataset(np.zeros((5, 3)))
        with pytest.raises(ShapeMismatch):
            model.design_matrices(narrow.rows)
        for estimator in (estimate_ols, estimate_2sls):
            with pytest.raises(ShapeMismatch):
                estimator(narrow, model)

    def test_non_finite_row_refused(self, iv1):
        rows = iv1.dist.support.copy()
        rows[3, 0] = np.nan
        for estimator in (estimate_ols, estimate_2sls):
            with pytest.raises(ValueError):
                estimator(Dataset(rows, np.full(8, 10)), iv1.model)

    def test_order_condition_enforced(self):
        with pytest.raises(ShapeMismatch):
            IVModel(beta0=np.zeros(3), sigma0_sq=1.0, dims=(2, 1, 1))
        with pytest.raises(ValueError):
            IVModel(beta0=np.zeros(2), sigma0_sq=0.0, dims=(1, 1, 1))

    def test_csv_roundtrip(self, iv1, tmp_path):
        data = iv1_sample(iv1, n=60, seed=2)
        path = tmp_path / "sample.csv"
        write_csv(data, iv1.model, path)
        header = path.read_text().splitlines()[0]
        assert header == "y,x1_1,x2_1,z1_1"
        back, dims = read_csv(path)
        assert dims == iv1.model.dims
        for block, back_block in zip(
            iv1.model.design_matrices(data.rows), iv1.model.design_matrices(back.rows)
        ):
            assert np.allclose(back_block, block)
        # a count sample is written one line per observation
        counts = np.array([3, 0, 1, 2, 0, 0, 4, 1])
        write_csv(Dataset(iv1.dist.support, counts), iv1.model, path)
        assert len(path.read_text().splitlines()) == 1 + counts.sum()
        back, _ = read_csv(path)
        assert np.array_equal(back.rows, np.repeat(iv1.dist.support, counts, axis=0))

    def test_csv_refuses_bad_header_and_width(self, iv1, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("y,x1_1,w,z1_1\n1,2,3,4\n")
        with pytest.raises(ShapeMismatch):
            read_csv(path)
        path.write_text("y,x1_1,x2_1,z1_1\n1,2,3\n")
        with pytest.raises(ShapeMismatch):
            read_csv(path)
        with pytest.raises(ShapeMismatch):
            write_csv(Dataset(np.zeros((4, 3))), iv1.model, path)


class TestOls:
    def test_noiseless_exact_fit(self, rng):
        X = rng.standard_normal((50, 2))
        beta = np.array([2.0, -1.0])
        data, model = synthetic(X @ beta, X[:, :1], X[:, 1:], rng.standard_normal((50, 1)))
        est = estimate_ols(data, model)
        assert np.max(np.abs(est.beta - beta)) < 1e-12

    def test_population_weighted_sample(self, iv1):
        # oracle: E[X e] = 0 under the design by independence
        est = estimate_ols(population_dataset(iv1.dist, 8), iv1.model)
        assert np.max(np.abs(est.beta - iv1.model.beta0)) < 1e-10

    def test_collinear_design(self, rng):
        x = rng.standard_normal((30, 1))
        data, model = synthetic(rng.standard_normal(30), x, x.copy(), np.ones((30, 1)))
        with pytest.raises(SingularDesign):
            estimate_ols(data, model)


class TestTsls:
    def test_just_identified_closed_form(self, iv1):
        # oracle: with dim Z = dim X the estimator is (Z'X)^{-1} Z'Y
        data = iv1_sample(iv1, n=300, seed=21)
        est = estimate_2sls(data, iv1.model)
        y, X, Z = iv1.model.design_matrices(data.rows)
        direct = np.linalg.solve(Z.T @ X, Z.T @ y)
        assert np.max(np.abs(est.beta - direct)) < 1e-10

    def test_noiseless_recovery(self, rng):
        z = rng.standard_normal((80, 1))
        x1 = z + 0.1 * rng.standard_normal((80, 1))
        x2 = np.ones((80, 1))
        beta = np.array([1.5, -0.5])
        X = np.hstack([x1, x2])
        data, model = synthetic(X @ beta, x1, x2, z)
        est = estimate_2sls(data, model)
        assert np.max(np.abs(est.beta - beta)) < 1e-12

    def test_a_rescaled_regressor_rescales_its_coefficient(self, iv1):
        # OLS and 2SLS do not depend on the units of x1; scaled by 1e-7,
        # X'P_Z X once failed its eigenvalue-ratio test (about 1e-14) and
        # 2SLS raised RankDeficientFirstStage while OLS went through
        counts = np.bincount(draw_indices(iv1.dist, 2000, 7), minlength=iv1.dist.n_atoms)
        rows = iv1.dist.support.copy()
        rows[:, 1] *= 1e-7
        for estimate in (estimate_ols, estimate_2sls):
            want = estimate(Dataset(iv1.dist.support, counts), iv1.model).beta
            got = estimate(Dataset(rows, counts), iv1.model).beta * [1e-7, 1.0]
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("c", range(1, 11))
    def test_constant_instrument_refused(self, iv1, c):
        # counts only on the four z1 = +1 atoms: z1 equals the intercept, so
        # Z'Z is singular; its second pivot is rounding noise far below
        # 1e-12 times its diagonal entry, so the Gram check fires for every c
        counts = np.where(iv1.dist.column(3) > 0, c, 0)
        data = Dataset(iv1.dist.support, counts)
        with pytest.raises(SingularInstrumentGram):
            estimate_2sls(data, iv1.model)

    def test_rank_deficient_first_stage(self, rng):
        # instrument orthogonal to the regressor in-sample
        x1 = np.concatenate([np.ones(20), -np.ones(20)])[:, None]
        z1 = np.concatenate([np.ones(10), -np.ones(10), np.ones(10), -np.ones(10)])[:, None]
        data, model = synthetic(rng.standard_normal(40), x1, np.ones((40, 1)), z1)
        with pytest.raises(RankDeficientFirstStage, match="do not span the regressors"):
            estimate_2sls(data, model)


class TestDwh:
    def test_equal_estimates_give_zero(self, iv1):
        # identical coefficient vectors leave nothing to contrast
        data = iv1_sample(iv1, n=100, seed=17)
        beta = np.array([1.0, 0.1])
        ols = LinearEstimate(beta=beta, vcov=np.diag([0.5, 1.0]), sigma_sq_hat=1.0)
        tsls = LinearEstimate(beta=beta.copy(), vcov=np.diag([1.0, 1.0]), sigma_sq_hat=1.0)
        stat = dwh_statistic(data, iv1.model, ols, tsls)
        assert stat.value == 0.0 and stat.dof == 1

    def test_iv1_rank_one(self, iv1):
        # oracle: the population variance difference has rank k1 = 1
        assert iv1.design.statistic["dwh"].dim == 1
        data = iv1_sample(iv1, n=500, seed=31)
        ols, tsls = estimate_ols(data, iv1.model), estimate_2sls(data, iv1.model)
        assert dwh_statistic(data, iv1.model, ols, tsls).dof == 1

    def test_row_reordering_invariance(self, iv1, rng):
        data = iv1_sample(iv1, n=200, seed=12)
        stat, stat2 = (
            dwh_statistic(d, iv1.model, estimate_ols(d, iv1.model), estimate_2sls(d, iv1.model))
            for d in (data, Dataset(data.rows[rng.permutation(200)]))
        )
        assert stat2.value == pytest.approx(stat.value, rel=1e-12)
        assert stat2.dof == stat.dof

    @pytest.mark.parametrize("counts", [[7, 2, 0, 0, 0, 0, 3, 9], [5, 3, 0, 0, 0, 0, 4, 6]])
    def test_coinciding_estimators_have_no_contrast(self, iv1, counts):
        # x1 = 2 z1 on atoms 0, 1, 6 and 7, so OLS and 2SLS coincide and their
        # variance difference is rounding alone, whatever the row layout
        counts = np.array(counts)
        samples = (
            Dataset(iv1.dist.support, counts),
            Dataset(np.repeat(iv1.dist.support, counts, axis=0)[::-1]),
        )
        for data in samples:
            ols, tsls = estimate_ols(data, iv1.model), estimate_2sls(data, iv1.model)
            stat = dwh_statistic(data, iv1.model, ols, tsls)
            assert stat.dof == 0 and stat.value == 0.0

    def test_null_rejection_rate(self, iv1):
        # oracle: central chi-square(1) calibration under the null
        reps, n, hits = 400, 800, 0
        for rep in range(reps):
            data = iv1_sample(iv1, n=n, seed=5000 + rep)
            ols, tsls = estimate_ols(data, iv1.model), estimate_2sls(data, iv1.model)
            if dwh_statistic(data, iv1.model, ols, tsls).reject(0.05):
                hits += 1
        rate = hits / reps
        assert abs(rate - 0.05) < 4.0 * math.sqrt(0.05 * 0.95 / reps)

    @pytest.mark.parametrize("v_tsls", [0.5, 1.0])
    def test_no_efficiency_gain_gives_no_dof(self, iv1, v_tsls):
        # V_2sls,11 <= V_ols,11: the contrast variance is not positive
        # definite, so the statistic has no dof and never rejects, however
        # far apart the estimates are (the x2 block is not contrasted)
        data = iv1_sample(iv1, n=100, seed=3)
        ols = LinearEstimate(beta=np.array([1.0, 0.0]), vcov=np.diag([1.0, 0.5]), sigma_sq_hat=1.0)
        tsls = LinearEstimate(
            beta=np.array([1.5, 0.0]), vcov=np.diag([v_tsls, 1.0]), sigma_sq_hat=1.0
        )
        stat = dwh_statistic(data, iv1.model, ols, tsls)
        assert stat.dof == 0 and stat.value == 0.0 and not stat.reject(0.05)

    def test_population_variance_ordering(self, iv1):
        # efficiency under the null: the 2SLS variance dominates the OLS one
        from asymlab.scores import iv_population_matrices

        exx, exz, ezz = iv_population_matrices(iv1.dist, iv1.model)
        v_ols = iv1.model.sigma0_sq * np.linalg.inv(exx)
        v_tsls = iv1.model.sigma0_sq * np.linalg.inv(
            exz @ np.linalg.solve(ezz, exz.T)
        )
        assert np.linalg.eigvalsh(v_tsls - v_ols)[0] > -1e-12


@st.composite
def iv_count_samples(draw):
    """An IV support (IV1's or a random one), its model and counts, some zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_iv1 = draw(st.booleans())
    if on_iv1:
        iv1 = iv1_instance()
        support, model = iv1.dist.support, iv1.model
    else:
        k1, k2 = draw(st.integers(1, 2)), draw(st.integers(0, 2))
        q = k1 + draw(st.integers(0, 2))
        model = IVModel(beta0=np.zeros(k1 + k2), sigma0_sq=1.0, dims=(k1, k2, q))
        n_atoms = draw(st.integers(k1 + k2 + q + 3, 14))
        support = rng.uniform(-2.0, 2.0, (n_atoms, model.point_dim))
        # x1 is the first k1 instruments plus small noise: a strong first
        # stage in every sample, so 2SLS is well conditioned and rounding
        # differences stay near machine precision
        x1 = support[:, 1 : 1 + k1]
        x1[:] = support[:, 1 + k1 + k2 : 1 + 2 * k1 + k2] + 0.25 * x1
    counts = rng.integers(1, 30, support.shape[0])
    counts[rng.random(support.shape[0]) < 0.3] = 0
    # on fewer random atoms than columns a Gram matrix is singular and only
    # rounding decides whether its factorisation fails; IV1's integer sums are exact
    assume(on_iv1 or np.count_nonzero(counts) >= model.point_dim)
    return support, counts, model, rng


def _fit_or_error(data, model):
    try:
        return estimate_ols(data, model), estimate_2sls(data, model)
    except AsymlabError as exc:
        return type(exc)


def _contrast_margin(ols, tsls, k1):
    """The smallest Cholesky pivot of the x1 contrast variance b - a over its
    diagonal entry of b (b = V_2sls, a = V_ols rescaled to the 2SLS residual
    variance): 0.0 where the contrast is rounding alone (|b - a|_ij at most
    1e-14 sqrt(b_ii b_jj)), so that every form of it is refused, and NaN
    where it is neither that nor positive definite."""
    if ols.sigma_sq_hat <= 0.0:
        return math.nan
    b = tsls.vcov[:k1, :k1]
    diff = b - tsls.sigma_sq_hat / ols.sigma_sq_hat * ols.vcov[:k1, :k1]
    if np.all(np.abs(diff) <= 1e-14 * np.sqrt(np.outer(np.diag(b), np.diag(b)))):
        return 0.0
    try:
        pivots = np.diag(np.linalg.cholesky(0.5 * (diff + diff.T))) ** 2
    except np.linalg.LinAlgError:
        return math.nan
    return float(np.min(pivots / np.diag(b)))


def _contrast_is_determined(ols, tsls, k1):
    """True when rounding cannot change the DWH dof: the contrast is rounding
    alone, or its pivots clear the rule's PIVOT_TOL a thousandfold."""
    pivot = _contrast_margin(ols, tsls, k1)
    return pivot == 0.0 or pivot >= 1e3 * PIVOT_TOL


class TestCountSamples:
    @settings(max_examples=150, deadline=None)
    @given(case=iv_count_samples())
    def test_counts_and_expanded_rows_agree(self, case):
        support, counts, model, rng = case
        by_counts = Dataset(support, counts)
        by_rows = Dataset(rng.permutation(np.repeat(support, counts, axis=0)))
        got, want = _fit_or_error(by_counts, model), _fit_or_error(by_rows, model)
        if isinstance(want, type):
            assert got is want
            return
        assert not isinstance(got, type)
        y, X, _ = model.design_matrices(by_rows.rows)
        for a, b in zip(got, want):
            # summation order perturbs the cross-products by a few ulps; the
            # normal matrix amplifies that by its condition number, so the
            # 1e-12 holds relative to scale up to a condition number of 100
            amplify = max(100.0, np.linalg.cond(b.vcov) if b.sigma_sq_hat > 0.0 else 1.0) / 100.0
            beta_scale = max(1.0, np.max(np.abs(b.beta)))
            # residuals are differences of y and X beta, so their rounding
            # scales with |y| + |X| |beta|, not with the residuals themselves
            scale = np.mean((np.abs(y) + np.abs(X) @ np.abs(b.beta)) ** 2)
            vcov_scale = np.max(np.abs(b.vcov)) * max(1.0, scale / max(b.sigma_sq_hat, 1e-300))
            assert np.max(np.abs(a.beta - b.beta)) <= 1e-12 * amplify * beta_scale
            assert np.max(np.abs(a.vcov - b.vcov)) <= 1e-12 * amplify * vcov_scale
            assert abs(a.sigma_sq_hat - b.sigma_sq_hat) <= 1e-12 * scale
        if not _contrast_is_determined(*want, model.k1):
            return
        stat_counts = dwh_statistic(by_counts, model, *got)
        stat_rows = dwh_statistic(by_rows, model, *want)
        assert stat_counts.dof == stat_rows.dof
        assert stat_counts.value == pytest.approx(stat_rows.value, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 20))
    def test_too_few_observations_refused_whatever_the_row_count(self, iv1, seed, n_rows):
        rng = np.random.default_rng(seed)
        support = rng.uniform(-2.0, 2.0, (n_rows, iv1.model.point_dim))
        counts = np.zeros(n_rows, dtype=np.int64)
        columns = iv1.model.point_dim - 1
        np.add.at(counts, rng.integers(0, n_rows, rng.integers(0, columns + 1)), 1)
        data = Dataset(support, counts)
        assert data.n <= columns
        for estimator in (estimate_ols, estimate_2sls):
            with pytest.raises(ShapeMismatch):
                estimator(data, iv1.model)


class TestPopulationScores:
    def test_iv1_efficient_scores_hand_values(self, iv1):
        # oracle: E[XZ'] = E[ZZ'] = identity and sigma0^2 = 1 on this support,
        # so the null efficient scores are x1 e and e, the maintained ones z1 e and e
        t_basis, t_perp_m, _ = tangent_bases(iv1)
        e = iv1.model.errors_on(iv1.dist.support)
        x1, z1 = iv1.dist.column(1), iv1.dist.column(3)
        ell_p, ell_m = iv_efficient_scores(iv1.dist.probs, iv1.dist.support, iv1.model)
        assert np.max(np.abs(ell_p - np.column_stack([x1 * e, e]))) < 1e-12
        assert np.max(np.abs(ell_m - np.column_stack([z1 * e, e]))) < 1e-12
        for values in (x1 * e, e):
            g = centered_score(iv1.dist, values)
            assert (g - project(iv1.dist, g, t_basis)).norm() < 1e-10
        g = centered_score(iv1.dist, z1 * e)
        in_m = project(iv1.dist, g, t_basis) + project(iv1.dist, g, t_perp_m)
        assert (g - in_m).norm() < 1e-10

    def test_degenerate_error_rejected(self, iv1):
        rows = []
        for x1 in (-1.0, 1.0):
            for z1 in (-1.0, 1.0):
                rows.append([x1, x1, 1.0, z1])  # y = x1 exactly, e = 0
        dist = make_distribution(rows, np.full(4, 0.25))
        with pytest.raises(NullModelViolated):
            iv_design(dist, iv1.model)

    def test_influence_functions_match_estimator_limits(self, iv1):
        # OLS influence: E[XX']^{-1} X e; 2SLS influence: z e here
        nu, tau = iv1.design.influence["ols"], iv1.design.influence["tsls"]
        e = iv1.model.errors_on(iv1.dist.support)
        x1, z1 = iv1.dist.column(1), iv1.dist.column(3)
        assert np.max(np.abs(nu[:, 0] - 0.5 * x1 * e)) < 1e-12
        assert np.max(np.abs(nu[:, 1] - e)) < 1e-12
        assert np.max(np.abs(tau[:, 0] - z1 * e)) < 1e-12

    def test_contrast_basis_is_detectable_and_hand_checked(self, iv1):
        basis = iv1.design.statistic["dwh"]
        assert basis.dim == 1 and basis.label == "T_perp_cap_M"
        e = iv1.model.errors_on(iv1.dist.support)
        x1, z1 = iv1.dist.column(1), iv1.dist.column(3)
        ref = math.sqrt(2.0) * (z1 - 0.5 * x1) * e
        gap = min(
            np.max(np.abs(ScoreFunction(basis.dist, basis.values[0]).values - ref)),
            np.max(np.abs(ScoreFunction(basis.dist, basis.values[0]).values + ref)),
        )
        assert gap < 1e-10
        t_basis, t_perp_m, m_perp = tangent_bases(iv1)
        f = ScoreFunction(basis.dist, basis.values[0])
        assert project(iv1.dist, f, t_basis).norm() < 1e-10
        assert (f - project(iv1.dist, f, t_perp_m)).norm() < 1e-10


def efficient_scores(instance):
    """The null and maintained efficient scores of an IV instance as score
    functions, one per coefficient, from the reference in ``oracles``."""
    dist = instance.dist
    return tuple(
        [centered_score(dist, col) for col in ell.T]
        for ell in iv_efficient_scores(dist.probs, dist.support, instance.model)
    )


def predicted_biases(instance, g):
    """OLS and 2SLS drifts along ``g`` as ``build_prediction`` reports them."""
    return build_prediction(instance, g, ["ols", "tsls"], [], 0.05).biases


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workload definitions (``bench/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def iv_wide_design(workloads):
    """``iv_wide_design(seed)`` of the benchmark's workload definitions."""
    return workloads.iv_wide_design


class TestBiasChannels:
    def test_tangent_scores_bias_both_estimators_equally(self, iv1, rng):
        # a direction inside the null tangent space drifts both estimators by
        # the same vector h
        t_basis, _, _ = tangent_bases(iv1)
        ell_p, _ = efficient_scores(iv1)
        score_span = orthonormal_basis(iv1.dist, list(ell_p))
        for _ in range(10):
            h = rng.standard_normal(2)
            raw = ScoreFunction(iv1.dist, rng.standard_normal(t_basis.dim) @ t_basis.values)
            nuisance = raw - project(iv1.dist, raw, score_span)
            g = h[0] * ell_p[0] + h[1] * ell_p[1] + nuisance
            biases = predicted_biases(iv1, g)
            assert np.max(np.abs(biases["ols"] - h)) < 1e-10
            assert np.max(np.abs(biases["tsls"] - h)) < 1e-10

    def test_detectable_scores_leave_ols_unbiased(self, iv1, rng):
        # directions orthogonal to the null tangent space: OLS unbiased, the
        # 2SLS drift equals the coefficient of the maintained efficient score
        _, t_perp_m, _ = tangent_bases(iv1)
        _, ell_m = efficient_scores(iv1)
        gram = np.array(
            [[inner_product(iv1.dist, a, b) for b in ell_m] for a in ell_m]
        )
        for _ in range(10):
            coefs = rng.standard_normal(t_perp_m.dim)
            g = ScoreFunction(iv1.dist, coefs @ t_perp_m.values)
            cross = np.array([inner_product(iv1.dist, a, g) for a in ell_m])
            h = np.linalg.solve(gram, cross)
            biases = predicted_biases(iv1, g)
            assert np.max(np.abs(biases["ols"])) < 1e-10
            assert np.max(np.abs(biases["tsls"] - h)) < 1e-10

    def test_contrast_direction_moves_tsls_only(self, iv1):
        basis = iv1.design.statistic["dwh"]
        g = ScoreFunction(basis.dist, basis.values[0])
        biases = predicted_biases(iv1, g)
        assert np.max(np.abs(biases["ols"])) < 1e-10
        assert np.linalg.norm(biases["tsls"]) > 0.1

    def test_influence_route_matches_the_closed_forms(self, iv_wide_design):
        cases = []
        for name in ("iv1_power", "iv1_bias_equal"):
            experiment = build_experiment(validate_raw(load_raw(CONFIG_DIR / f"{name}.json")))
            cases.append((experiment.instance, experiment.score))
        for seed in (1, 2, 3):
            design = iv_wide_design(seed)
            instance = build_instance(design["instance"])
            cases.append((instance, ScoreFunction(instance.dist, np.array(design["g"]))))
        for instance, g in cases:
            dist = instance.dist
            want = iv_bias_closed_forms(dist.probs, dist.support, instance.model, g.values)
            got = predicted_biases(instance, g)
            for name in ("ols", "tsls"):
                scale = max(1.0, np.max(np.abs(want[name])))
                assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale


# --- the DWH rank: one rule for the sample and the population -------------------


def replication_fits(config, count):
    """(sample, OLS, 2SLS) of the first ``count`` replications of ``config``,
    drawn as ``run_experiment`` draws them."""
    local, model = local_distribution(config), config.instance.model
    for rep in range(1, count + 1):
        idx = draw_indices(local, config.n, replication_seed(config.master_seed, rep))
        sample = Dataset(local.support, np.bincount(idx, minlength=local.n_atoms))
        yield sample, estimate_ols(sample, model), estimate_2sls(sample, model)


def near_exogenous_config(eps, reps=200):
    """IV1 with x1 = z1 + eps w, as an inline config with IV1's drift,
    n = 1000 and seed 7.  2SLS approaches OLS as eps falls: the contrast
    variance of x1's coefficient is eps^2 / (1 + eps^2) of 2SLS's."""
    rows = []
    for z1 in (-1.0, 1.0):
        for w in (-1.0, 1.0):
            x1 = z1 + eps * w
            rows += [[x1 + e, x1, 1.0, z1] for e in (-1.0, 1.0)]
    model = {"beta0": [1.0, 0.0], "sigma0_sq": 1.0, "dims": [1, 1, 1]}
    distribution = {"support": rows, "probs": [0.125] * 8}
    instance = {"kind": "iv", "model": model, "distribution": distribution}
    score = {"kind": "values", "values": [0.0, 0.0, 2.0, -2.0, -2.0, 2.0, 0.0, 0.0]}
    return {
        "schema": 1, "instance": instance, "score": score, "n": 1000, "reps": reps,
        "alpha": 0.05, "seed": 7, "estimators": ["ols", "tsls"], "tests": ["dwh"],
    }


def two_regressor_config(seed, second=None):
    """A seeded IV design with k1 = 2 endogenous regressors, an intercept and
    q = 2 instruments, as an inline config (n = 1000).  Atoms are the sign
    grid of (z1, z2, w1, w2, e), x1 = A z + diag(c) w and y = beta'x + e;
    the atoms e = -1 and e = +1 of a cell carry equal mass, so the
    conditional null holds.  The drift is e (w1 + w2).  With ``second`` the
    second regressor is z2 + second * w2: 2SLS approaches OLS along it as
    ``second`` falls, and at 0.0 (w2 dropped) the second regressor is z2
    itself and the contrast variance has rank one."""
    rng = np.random.default_rng([seed, 2])
    a = np.eye(2) + rng.uniform(-0.3, 0.3, (2, 2))
    c = rng.uniform(0.4, 0.8, 2)
    beta = np.round(rng.uniform(-1.0, 1.0, 3), 2)
    if second is not None:
        a[1], c[1] = [0.0, 1.0], second
    rows, probs, drift = [], [], []
    for z in itertools.product((-1.0, 1.0), repeat=2):
        for w in itertools.product((-1.0, 1.0), (0.0,) if second == 0.0 else (-1.0, 1.0)):
            x1 = a @ z + c * w
            mass = float(rng.uniform(0.5, 1.5))
            for e in (-1.0, 1.0):
                rows.append([float(beta[:2] @ x1 + beta[2] + e), *x1.tolist(), 1.0, *z])
                probs.append(mass)
                drift.append(e * (w[0] + w[1]))
    model = {"beta0": beta.tolist(), "sigma0_sq": 1.0, "dims": [2, 1, 2]}
    instance = {"kind": "iv", "model": model, "distribution": {"support": rows, "probs": probs}}
    return {
        "schema": 1, "instance": instance, "score": {"kind": "values", "values": drift},
        "n": 1000, "reps": 1000, "alpha": 0.05, "seed": seed,
        "estimators": ["ols", "tsls"], "tests": ["dwh"],
    }


NO_DWH_DOF = (
    "error: the dwh test has no degrees of freedom on this instance: "
    "2SLS equals OLS along some combination of x1\n"
)


def assert_matches_eigh_contrast(sample, model, ols, tsls):
    """The DWH statistic agrees with the spectral oracle: the same dof, the
    value to 1e-12 relative (absolute below 1), the same reject flag."""
    stat = dwh_statistic(sample, model, ols, tsls)
    value, dof = dwh_by_eigh(sample.n, ols, tsls)
    assert stat.dof == dof
    assert abs(stat.value - value) <= 1e-12 * max(1.0, value)
    assert stat.reject(0.05) == TestStatistic(value, dof).reject(0.05)


class TestNearlyExogenousRegressor:
    # with x1 = z1 + eps w the sample statistic kept eigenvalues above 1e-8
    # of the variance scale and the population basis singular values above
    # 1e-9: at eps = 1e-4 and 1e-5 the population had dof 1 and most
    # samples dof 0, and at 1e-8 the population basis failed its mean-zero
    # check; both rules are now the pivot test on the joint variance
    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 3e-6, 1.5e-6, 1.2e-6, 1.1e-6, 1.05e-6, 3e-7, 3e-8])
    def test_sample_dof_is_the_population_dof(self, eps):
        # the contrast variance crosses PIVOT_TOL at eps = 1e-6; just above
        # it the basis is a QR column over a pivot near 1e-6 of its column
        # norm, whose rounding is mean-zero only because the QR leads with
        # the constant (without it 1.1e-6 and 1.5e-6 fail the basis check)
        instance = build_instance(near_exogenous_config(eps)["instance"])
        dof = instance.design.statistic["dwh"].dim
        assert dof == (eps > 1e-6)
        for seed in range(200):
            counts = np.bincount(draw_indices(instance.dist, 1000, seed), minlength=8)
            sample = Dataset(instance.dist.support, counts)
            ols, tsls = estimate_ols(sample, instance.model), estimate_2sls(sample, instance.model)
            assert dwh_statistic(sample, instance.model, ols, tsls).dof == dof

    def test_run_passes(self, tmp_path, capsys):
        path = tmp_path / "near.json"
        path.write_text(json.dumps(near_exogenous_config(1e-5, reps=1000)))
        assert execute(["run", "--config", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["comparison"]["all_pass"]
        assert doc["summary"]["tests"]["dwh"]["mean_dof"] == 1.0

    @pytest.mark.parametrize("command", ["predict", "run"])
    def test_exogenous_to_rounding_is_refused_by_name(self, tmp_path, capsys, command):
        path = tmp_path / "near.json"
        path.write_text(json.dumps(near_exogenous_config(1e-8)))
        assert execute([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == NO_DWH_DOF


class TestTwoEndogenousRegressors:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_rank_matches_the_eigh_contrast(self, seed):
        config = build_experiment(validate_raw(two_regressor_config(seed)))
        assert config.instance.design.dof("dwh") == 2
        for sample, ols, tsls in replication_fits(config, 300):
            assert dwh_statistic(sample, config.instance.model, ols, tsls).dof == 2
            assert_matches_eigh_contrast(sample, config.instance.model, ols, tsls)

    @pytest.mark.parametrize("second", [3e-6, 1.5e-6, 1.2e-6, 1.1e-6, 1.05e-6])
    def test_just_above_the_switch_keeps_both_dof(self, second):
        config = build_experiment(validate_raw(two_regressor_config(1, second)))
        assert config.instance.design.dof("dwh") == 2
        for sample, ols, tsls in replication_fits(config, 200):
            assert dwh_statistic(sample, config.instance.model, ols, tsls).dof == 2

    def test_full_rank_run_passes(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps(two_regressor_config(1)))
        assert execute(["run", "--config", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["comparison"]["all_pass"]
        assert doc["prediction"]["tests"][0]["dof"] == 2
        assert doc["summary"]["tests"]["dwh"]["mean_dof"] == 2.0

    @pytest.mark.parametrize("command", ["predict", "run"])
    def test_a_self_instrumented_regressor_is_refused_by_name(self, tmp_path, capsys, command):
        # the contrast has rank one; the regressor belongs in x2
        raw = two_regressor_config(1, second=0.0)
        with pytest.raises(ConfigInvalid, match="2SLS equals OLS along some combination of x1"):
            build_experiment(validate_raw(raw))
        path = tmp_path / "self.json"
        path.write_text(json.dumps(raw))
        assert execute([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == NO_DWH_DOF


class TestAgainstTheEighContrast:
    # the statistic the library computed before its rank came from the joint
    # variance, on the designs the benchmark and the shipped configs run
    @pytest.mark.parametrize("design", ["iv1_power", 1, 2, 3])
    def test_shipped_and_wide_designs(self, workloads, design):
        if design == "iv1_power":
            raw = load_raw(CONFIG_DIR / "iv1_power.json")
            raw["seed"] = 3
        else:
            raw = workloads.make_config(str(BENCH.parent), "iv_wide", design)
        config = build_experiment(validate_raw(raw))
        for sample, ols, tsls in replication_fits(config, 3000):
            assert_matches_eigh_contrast(sample, config.instance.model, ols, tsls)

    @settings(max_examples=300, deadline=None)
    @given(case=iv_count_samples())
    def test_count_samples(self, case):
        support, counts, model, _ = case
        data = Dataset(support, counts)
        fits = _fit_or_error(data, model)
        assume(not isinstance(fits, type))
        # both forms subtract nearly equal variances, which amplifies rounding
        # by the reciprocal of the contrast's smallest relative pivot: on 2983
        # random samples |dW| / max(1, W) stayed below 1.3e-14 over that
        # pivot, so the 1e-12 bound is checked where the pivot is at least
        # 0.02 (two thirds of the samples) or the contrast is rounding alone
        pivot = _contrast_margin(*fits, model.k1)
        assume(pivot == 0.0 or pivot >= 0.02)
        # an exact fit leaves residual variances of rounding alone, which the
        # two forms invert to different noise (IV1 with counts
        # [0, 0, 11, 0, 5, 0, 10, 0]: 46.9 and 75.9, both with dof 1)
        y, X, _ = model.design_matrices(support[counts > 0])
        scale = np.max((np.abs(y) + np.abs(X) @ np.abs(fits[0].beta)) ** 2)
        assume(min(fit.sigma_sq_hat for fit in fits) > 1e-6 * scale)
        assert_matches_eigh_contrast(data, model, *fits)
