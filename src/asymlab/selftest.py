"""Fast invariant battery behind the ``selftest`` CLI command.

Each check re-derives a structural fact from scratch (dimension counts,
orthogonality, closed forms, small Monte Carlo smoke runs) and prints one
PASS/FAIL line.  The heavy acceptance experiments live in the test suite,
not here; this battery runs in seconds.
"""

from __future__ import annotations

import math

import numpy as np

from .chi2 import local_power, noncentral_chisq_cdf
from .dist import expectation, make_distribution
from .gmm import estimate_gmm, kl_projection, population_dataset
from .instances import (
    decompose_score,
    g1_instance,
    iv1_instance,
    linear_iv_moment_model,
    tangent_bases,
)
from .iv import dwh_statistic, estimate_2sls, estimate_ols
from .paths import LocalPath, hellinger_residual, numerical_score, path_distribution
from .predict import hall_split
from .scores import ScoreFunction, centered_score, inner_product, project


def _require(ok: bool, message: str) -> None:
    """Fail a check; unlike ``assert`` this still runs under ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _random_score(dist, rng) -> ScoreFunction:
    return centered_score(dist, rng.standard_normal(dist.n_atoms))


def _check_expectation():
    g1 = g1_instance()
    x = g1.dist.column(0)
    _require(abs(expectation(g1.dist, np.ones(5)) - 1.0) < 1e-12, "E[1] != 1")
    _require(abs(expectation(g1.dist, x)) < 1e-12, "E[x] != 0")
    _require(abs(expectation(g1.dist, x**2) - 1.2) < 1e-12, "E[x^2] != 1.2")
    _require(abs(expectation(g1.dist, x**4) - 3.6) < 1e-12, "E[x^4] != 3.6")


def _check_projections():
    g1 = g1_instance()
    rng = np.random.default_rng(11)
    t_basis = tangent_bases(g1)[0]
    for _ in range(5):
        g = _random_score(g1.dist, rng)
        h = _random_score(g1.dist, rng)
        pg = project(g1.dist, g, t_basis)
        ppg = project(g1.dist, pg, t_basis)
        _require((pg - ppg).norm() < 1e-10, "projection not idempotent")
        lhs = inner_product(g1.dist, pg, h)
        rhs = inner_product(g1.dist, g, project(g1.dist, h, t_basis))
        _require(abs(lhs - rhs) < 1e-10, "projection not self-adjoint")


def _check_g1_dimensions():
    g1 = g1_instance()
    t_basis, t_perp, m_perp = tangent_bases(g1)
    _require(
        (t_basis.dim, t_perp.dim, m_perp.dim) == (3, 1, 0),
        f"dimensions {(t_basis.dim, t_perp.dim, m_perp.dim)}",
    )
    x = g1.dist.column(0)
    ref = centered_score(g1.dist, (x**2 - 1.2) / math.sqrt(2.16))
    gap = abs(abs(inner_product(g1.dist, ref, ScoreFunction(g1.dist, t_perp.values[0]))) - 1.0)
    _require(gap < 1e-10, "orthocomplement direction is not the standardized second moment")


def _check_orthogonality_channels():
    g1 = g1_instance()
    rng = np.random.default_rng(7)
    t_basis, t_perp, _ = tangent_bases(g1)
    design = g1.design
    _require(abs(design.info[0, 0] - 1.0 / 1.2) < 1e-12, "efficient information is not 1 / 1.2")
    for _ in range(20):
        coefs = rng.standard_normal(t_basis.dim)
        g_in_t = ScoreFunction(g1.dist, coefs @ t_basis.values)
        mu = design.drift("j", g_in_t)
        _require(mu @ mu < 1e-10, "a tangent direction moves the J test")
        coefs = rng.standard_normal(t_perp.dim)
        g_perp = ScoreFunction(g1.dist, coefs @ t_perp.values)
        _require(
            np.max(np.abs(design.bias("gmm", g_perp))) < 1e-10,
            "an orthocomplement direction biases the estimator",
        )


def _check_iv1_structure():
    iv1 = iv1_instance()
    t_basis, t_perp_m, m_perp = tangent_bases(iv1)
    _require(
        (t_basis.dim, t_perp_m.dim, m_perp.dim) == (5, 2, 0),
        f"dimensions {(t_basis.dim, t_perp_m.dim, m_perp.dim)}",
    )
    e = iv1.model.errors_on(iv1.dist.support)
    x1 = iv1.dist.column(1)
    z1 = iv1.dist.column(3)
    g_tan = centered_score(iv1.dist, x1 * e)
    _require(
        (g_tan - project(iv1.dist, g_tan, t_basis)).norm() < 1e-10,
        "x e is not in the null tangent space",
    )
    g_det = centered_score(iv1.dist, (z1 - 0.5 * x1) * e)
    _require(
        project(iv1.dist, g_det, t_basis).norm() < 1e-10,
        "the detectable direction is not orthogonal to T",
    )
    report = decompose_score(iv1, g_det)
    _require(
        abs(report.var_TperpM - inner_product(iv1.dist, g_det, g_det)) < 1e-10,
        "the detectable direction is not all in T_perp_cap_M",
    )
    # the split read from the two small spans against projections on the
    # explicit bases, T among them, built as the complement of T_perp
    for g in (g_det, _random_score(iv1.dist, np.random.default_rng(17))):
        report = decompose_score(iv1, g)
        parts = (report.pi_T, report.pi_TperpM, report.pi_Mperp)
        for part, basis in zip(parts, (t_basis, t_perp_m, m_perp)):
            _require(
                (part - project(iv1.dist, g, basis)).norm() < 1e-10,
                f"the {basis.label} part is not the projection on its basis",
            )


def _check_paths():
    g1 = g1_instance()
    rng = np.random.default_rng(3)
    for tilt in ("exponential", "linear"):
        g = _random_score(g1.dist, rng)
        g = (1.0 / g.norm()) * g
        path = LocalPath(g1.dist, g, tilt=tilt)
        res = [hellinger_residual(path, t) for t in (0.1, 0.05, 0.025)]
        _require(res[0] > res[1] > res[2] > 0, "residual not decreasing")
        ratios = [r / t**2 for r, t in zip(res, (0.1, 0.05, 0.025))]
        _require(max(ratios) < 4 * min(ratios), "residual not quadratic")
        fd = numerical_score(path)
        _require(np.max(np.abs(fd - g.values)) < 1e-6, "score mismatch")
        probs = path_distribution(path, 0.05).probs
        _require(abs(math.fsum(probs) - 1.0) < 1e-12, "path probabilities do not sum to one")


def _check_kl():
    g1 = g1_instance()
    rng = np.random.default_rng(5)
    proj, lam = kl_projection(g1.dist, g1.model, g1.theta0)
    _require(np.linalg.norm(lam) < 1e-10, "tilt at the truth is not zero")
    for _ in range(5):
        eta = make_distribution(g1.dist.support, rng.dirichlet(np.full(5, 5.0)))
        theta = rng.uniform(-0.3, 0.3, size=1)
        proj, lam = kl_projection(eta, g1.model, theta)
        moments = expectation(proj, g1.model.moments_at(theta, proj.support))
        _require(np.max(np.abs(moments)) < 1e-10, "projection violates the constraints")


def _check_chi2():
    _require(
        abs(noncentral_chisq_cdf(3.841458820694124, 1, 0.0) - 0.95) < 1e-9,
        "chi2(1) CDF at its 95% quantile is not 0.95",
    )
    for k in (1, 3):
        for alpha in (0.01, 0.05, 0.10):
            _require(
                abs(local_power(k, 0.0, alpha) - alpha) < 1e-8,
                "power at zero noncentrality is not alpha",
            )
    values = [local_power(1, ncp, 0.05) for ncp in (0.0, 1.0, 2.0, 4.0, 8.0)]
    _require(all(a < b for a, b in zip(values, values[1:])), "power not increasing")


def _check_estimators():
    g1 = g1_instance()
    data = population_dataset(g1.dist, 10)
    est = estimate_gmm(data, g1.model, np.array([0.4]))
    _require(
        est.converged and abs(est.theta_hat[0]) < 1e-8 and est.j.value < 1e-12,
        "GMM at the population is not exact",
    )
    _require(est.j.dof == 1, "J test degrees of freedom")
    iv1 = iv1_instance()
    ivdata = population_dataset(iv1.dist, 8)
    ols = estimate_ols(ivdata, iv1.model)
    tsls = estimate_2sls(ivdata, iv1.model)
    _require(
        np.max(np.abs(ols.beta - iv1.model.beta0)) < 1e-10,
        "OLS at the population is not exact",
    )
    _require(
        np.max(np.abs(tsls.beta - iv1.model.beta0)) < 1e-10,
        "2SLS at the population is not exact",
    )
    _require(dwh_statistic(ivdata, ols, tsls).dof == 1, "DWH degrees of freedom")


def _check_moment_contract():
    g1 = g1_instance()
    iv1 = iv1_instance()
    iv_model = linear_iv_moment_model(iv1.model.dims)
    cases = [
        ("overidentified_mean", g1.model, g1.dist.support, g1.theta0),
        ("linear_iv_moments", iv_model, iv1.dist.support, iv1.model.beta0),
    ]
    for name, model, points, theta in cases:
        stack = theta + np.array([[0.0], [0.3], [-0.2]])  # (3, p)
        for rows in (stack[:1], stack):
            want = (len(rows), points.shape[0], model.l)
            shape = np.shape(model.m(rows, points))
            _require(shape == want, f"{name} moments have shape {shape}")
            shape = np.shape(model.jac(rows, points))
            _require(shape == want + (model.p,), f"{name} Jacobians have shape {shape}")
        for what, fn in (("moments", model.m), ("Jacobians", model.jac)):
            singles = [fn(row[None], points)[0] for row in stack]
            same = all(map(np.array_equal, fn(stack, points), singles))
            _require(same, f"{name} {what} of a stack row differ from its single evaluation")
        model.check_jacobian(theta + 0.3, points)


def _check_hall():
    g1 = g1_instance()
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = _random_score(g1.dist, rng)
        ident, over = hall_split(g1, g)
        _require(abs(ident @ over) < 1e-12, "split is not orthogonal")
    for instance, efficient in ((g1, "gmm"), (iv1_instance(), "ols")):
        design = instance.design
        for name, basis in design.statistic.items():
            gram = (basis.values * instance.dist.probs) @ basis.values.T
            gap = np.max(np.abs(gram - np.eye(basis.dim)), initial=0.0)
            _require(gap < 1e-12, f"the {name} statistic basis is not orthonormal")
            cross = np.max(np.abs(design.covariance(efficient, name)), initial=0.0)
            _require(cross < 1e-12, f"C({efficient}, {name}) = {cross:.2e} is not zero")


_CHECKS = [
    ("expectation-exactness", _check_expectation),
    ("projection-idempotent-self-adjoint", _check_projections),
    ("g1-tangent-dimensions", _check_g1_dimensions),
    ("bias-power-orthogonality", _check_orthogonality_channels),
    ("iv1-tangent-structure", _check_iv1_structure),
    ("path-differentiability", _check_paths),
    ("kl-projection", _check_kl),
    ("chi2-distribution", _check_chi2),
    ("estimators-at-population", _check_estimators),
    ("moment-drift-split", _check_hall),
    ("moment-contract", _check_moment_contract),
]


def run_selftest() -> tuple[int, list[str]]:
    """Run every check; returns (failure count, printable lines)."""
    lines = []
    failures = 0
    for name, check in _CHECKS:
        try:
            check()
        except Exception as exc:  # a failed invariant, not a usage error
            failures += 1
            lines.append(f"FAIL {name}: {exc}")
        else:
            lines.append(f"PASS {name}")
    lines.append(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return failures, lines
