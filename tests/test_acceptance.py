"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``criterion NN PASS/FAIL`` line (visible with
``pytest -s`` or on failure).  The four Monte Carlo criteria run the full
10000-replication experiments defined by the shipped config files, so this
module dominates the suite's runtime (a couple of minutes).
"""

import math
from pathlib import Path

import numpy as np
from oracles import noncentral_chisq_cdf_by_quadrature, orthonormal_basis

from asymlab.chi2 import local_power, noncentral_chisq_cdf
from asymlab.config import build_experiment, load_raw, validate_raw
from asymlab.dist import draw_indices, expectation, make_distribution, replication_seed
from asymlab.gmm import kl_projection
from asymlab.instances import g1_instance, iv1_instance, tangent_bases
from asymlab.mc import run_experiment
from asymlab.paths import LocalPath, hellinger_residual, path_distribution
from asymlab.predict import hall_split
from asymlab.scores import ScoreFunction, centered_score, project

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status}: {description}{detail}")
    assert ok, f"criterion {num} failed: {description}{detail}"


def _experiment(name: str):
    raw = validate_raw(load_raw(CONFIG_DIR / f"{name}.json"))
    return build_experiment(raw)


def _unit_scores(basis, count, rng):
    for _ in range(count):
        coefs = rng.standard_normal(basis.dim)
        coefs /= np.linalg.norm(coefs)
        yield ScoreFunction(basis.dist, coefs @ basis.values)


def _ncp(instance, test, g) -> float:
    mu = instance.design.drift(test, g)
    return float(mu @ mu)


def test_criterion_01_orthogonality_exact():
    g1 = g1_instance()
    rng = np.random.default_rng(101)
    t_basis, t_perp, _ = tangent_bases(g1)
    worst_ncp = max(_ncp(g1, "j", g) for g in _unit_scores(t_basis, 100, rng))
    worst_bias = max(
        float(np.linalg.norm(g1.design.bias("gmm", g))) for g in _unit_scores(t_perp, 100, rng)
    )
    _criterion(
        1,
        "tangent directions give no test drift and orthogonal ones no estimator drift",
        worst_ncp < 1e-10 and worst_bias < 1e-10,
        f" (max ncp {worst_ncp:.2e}, max |bias| {worst_bias:.2e})",
    )


def test_criterion_02_j_test_local_power():
    experiment = _experiment("g1_perp")
    g1 = experiment.instance
    ncp = _ncp(g1, "j", experiment.score)
    power = local_power(1, ncp, experiment.alpha)
    summary = run_experiment(experiment)
    rate_gap = abs(summary.tests["j"].rate - power)
    mean_gap = abs(summary.estimators["gmm"].mean[0])
    mean_bound = 4.0 * math.sqrt(1.2 / experiment.reps)
    _criterion(
        2,
        "overidentification test matches its noncentral local power",
        rate_gap <= 0.015 and mean_gap <= mean_bound,
        f" (rate {summary.tests['j'].rate:.4f} vs {power:.4f}, "
        f"mean {summary.estimators['gmm'].mean[0]:+.4f} within {mean_bound:.4f})",
    )


def test_criterion_03_gmm_bias_channel():
    experiment = _experiment("g1_tangent")
    summary = run_experiment(experiment)
    mean = summary.estimators["gmm"].mean[0]
    se = summary.estimators["gmm"].se[0]
    rate = summary.tests["j"].rate
    _criterion(
        3,
        "tangent drift biases the estimator by its predicted value, test stays at level",
        abs(mean - 1.5) <= 4.0 * se and abs(rate - experiment.alpha) <= 0.015,
        f" (mean {mean:.4f} vs 1.5 +- {4 * se:.4f}, rate {rate:.4f})",
    )


def test_criterion_04_contrast_bias_equality():
    experiment = _experiment("iv1_bias_equal")
    summary = run_experiment(experiment)
    target = np.array([1.0, 0.0])
    ok = True
    detail = []
    for name in ("ols", "tsls"):
        est = summary.estimators[name]
        ok = ok and bool(np.all(np.abs(est.mean - target) <= 4.0 * est.se))
        detail.append(f"{name} mean {np.round(est.mean, 4)}")
    rate = summary.tests["dwh"].rate
    ok = ok and abs(rate - experiment.alpha) <= 0.015
    _criterion(
        4,
        "both estimators drift identically and the contrast test stays at level",
        ok,
        f" ({', '.join(detail)}, rate {rate:.4f})",
    )


def test_criterion_05_contrast_power_channel():
    experiment = _experiment("iv1_power")
    iv1 = experiment.instance
    mu = iv1.design.drift("dwh", experiment.score)
    power = local_power(mu.size, float(mu @ mu), experiment.alpha)
    summary = run_experiment(experiment)
    ols, tsls = summary.estimators["ols"], summary.estimators["tsls"]
    rate = summary.tests["dwh"].rate
    ok = (
        bool(np.all(np.abs(ols.mean) <= 4.0 * ols.se))
        and bool(np.all(np.abs(tsls.mean - np.array([1.0, 0.0])) <= 4.0 * tsls.se))
        and abs(rate - power) <= 0.015
    )
    _criterion(
        5,
        "detectable drift leaves the efficient estimator unbiased but powers the test",
        ok,
        f" (ols {np.round(ols.mean, 4)}, tsls {np.round(tsls.mean, 4)}, "
        f"rate {rate:.4f} vs {power:.4f})",
    )


def test_criterion_06_hellinger_differentiability():
    rng = np.random.default_rng(606)
    grid = (0.1, 0.05, 0.025)
    ok = True
    for index in range(20):
        inst = g1_instance() if index % 2 == 0 else iv1_instance()
        tilt = "exponential" if index % 4 < 2 else "linear"
        g = centered_score(inst.dist, rng.standard_normal(inst.dist.n_atoms))
        g = (1.0 / g.norm()) * g
        path = LocalPath(inst.dist, g, tilt=tilt)
        res = [hellinger_residual(path, t) for t in grid]
        ratios = [r / t**2 for r, t in zip(res, grid)]
        ok = ok and res[0] > res[1] > res[2] > 0.0 and max(ratios) < 4.0 * min(ratios)
    _criterion(6, "path residuals vanish at the quadratic-mean rate", ok)


def test_criterion_07_loglikelihood_expansion():
    g1 = g1_instance()
    x = g1.dist.column(0)
    g = centered_score(g1.dist, x / math.sqrt(1.2))
    path = LocalPath(g1.dist, g)
    half_second_moment = 0.5 * expectation(g1.dist, g.values**2)
    means = []
    for n in (100, 1000, 10000):
        t = 1.0 / math.sqrt(n)
        logs = np.log(path_distribution(path, t).probs) - np.log(g1.dist.probs)
        gaps = np.empty(2000)
        for rep in range(2000):
            idx = draw_indices(g1.dist, n, replication_seed(707, rep))
            loglr = float(np.sum(logs[idx]))
            linear = float(np.sum(g.values[idx])) / math.sqrt(n) - half_second_moment
            gaps[rep] = abs(loglr - linear)
        means.append(float(gaps.mean()))
    _criterion(
        7,
        "log likelihood ratio matches its linear-quadratic expansion at increasing n",
        means[0] > means[1] > means[2],
        f" (mean gaps {means[0]:.2e} > {means[1]:.2e} > {means[2]:.2e})",
    )


def test_criterion_08_moment_drift_split():
    g1 = g1_instance()
    rng = np.random.default_rng(808)
    t_basis, _, _ = tangent_bases(g1)
    nu = [ScoreFunction(g1.dist, v) for v in g1.design.influence["gmm"].T]
    nu_span = orthonormal_basis(g1.dist, nu)
    ok = True
    for draw in range(50):
        g = centered_score(g1.dist, rng.standard_normal(5))
        stripped = g - project(g1.dist, g, nu_span)
        for cand in (g, stripped):
            ident, over = hall_split(g1, cand)
            ok = ok and abs(ident @ over) < 1e-12
            ident_zero = np.linalg.norm(ident) < 1e-10
            proj_zero = project(g1.dist, cand, nu_span).norm() < 1e-10
            ok = ok and ident_zero == proj_zero
    for g in _unit_scores(t_basis, 20, rng):
        _, over = hall_split(g1, g)
        ok = ok and np.linalg.norm(over) < 1e-10
    _criterion(
        8,
        "identifying part tracks the influence span, overidentifying part dies on the tangent",
        ok,
    )


def test_criterion_09_information_projection():
    g1 = g1_instance()
    rng = np.random.default_rng(909)
    _, lam0 = kl_projection(g1.dist, g1.model, g1.theta0)
    ok = bool(np.linalg.norm(lam0) < 1e-10)
    for _ in range(20):
        eta = make_distribution(g1.dist.support, rng.dirichlet(np.full(5, 4.0)))
        theta = rng.uniform(-0.4, 0.4, size=1)
        projected, lam = kl_projection(eta, g1.model, theta)
        moments = expectation(projected, g1.model.moments_at(theta, projected.support))
        ok = ok and np.max(np.abs(moments)) < 1e-10
        m_vals = g1.model.moments_at(theta, eta.support)
        weights = eta.probs * np.exp(m_vals @ lam)
        dual_form = weights / math.fsum(weights)
        ok = ok and np.max(np.abs(projected.probs - dual_form)) < 1e-10
    _criterion(
        9,
        "information projection satisfies the constraints in exponential-tilt form",
        ok,
        f" (tilt norm at the truth {np.linalg.norm(lam0):.2e})",
    )


def test_criterion_10_noncentral_chisq_cdf():
    worst = 0.0
    for k in range(1, 6):
        for lam in (0.0, 1.0, 5.0, 20.0):
            for x in np.arange(0.5, 30.5, 0.5):
                err = abs(
                    noncentral_chisq_cdf(float(x), k, lam)
                    - noncentral_chisq_cdf_by_quadrature(float(x), k, lam)
                )
                worst = max(worst, err)
    size_gap = max(
        abs(local_power(k, 0.0, alpha) - alpha)
        for k in range(1, 6)
        for alpha in (0.01, 0.05, 0.10)
    )
    _criterion(
        10,
        "distribution function matches quadrature and sizes are exact",
        worst < 1e-8 and size_gap < 1e-8,
        f" (max cdf error {worst:.2e}, max size gap {size_gap:.2e})",
    )
