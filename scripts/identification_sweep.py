"""Where the population designs refuse ill-conditioned IV designs, and how
the Monte Carlo agrees with the prediction on the designs they accept.

The library once held E[ZX'] and the mean Jacobian to a singular-value rule
(refused when the smallest singular value was at most 1e-10 times the
largest), which depends on the units of each column.  This script compares
that rule, emulated here, with the library's only rule now, the pivot test
of the solves each design already makes (X'P_Z X's pivots against X'X's
diagonal, the information's against each Jacobian column's whitened second
moment).

    PYTHONPATH=src python scripts/identification_sweep.py table
    PYTHONPATH=src python scripts/identification_sweep.py monte-carlo

``table`` builds 8000 generated IV designs (``designs``, rng seed 7), once
as IV designs and once as ``linear_iv_moment_model`` instances at beta0,
the latter also with one support column rescaled by 10^U(-12, 2); it
prints each design's class with and without the singular-value rule, and
the groups by what the generator did to them.  ``monte-carlo`` runs every
IV design the rule refused and the library now accepts at n = 2000 with
2000 replications (master seed 7001 + its index): at the zero score and,
where DWH has one degree of freedom, along its basis at ncp 2.  It prints
every comparison with |z| > 4, the number of comparisons and the largest
|z|.  Neither is collected by the test suite; on one core ``table``
takes about 15 s and ``monte-carlo`` about 10 minutes.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from collections import Counter

import numpy as np

from asymlab.dist import make_distribution
from asymlab.errors import (
    AsymlabError,
    RankDeficientFirstStage,
    RankDeficientJacobian,
    TooManyFailures,
)
from asymlab.instances import GmmInstance, IvInstance, linear_iv_moment_model
from asymlab.mc import ExperimentConfig, compare_to_theory, run_experiment
from asymlab.models import IVModel
from asymlab.predict import build_prediction
from asymlab.scores import ScoreFunction

N_DESIGNS = 8000
N, REPS = 2000, 2000  # the Monte Carlo's sample size and replications
RANK_RATIO = 1e-10  # the singular-value rule's cut-off


def designs(seed: int = 7, count: int = N_DESIGNS):
    """(features, rows, probabilities, model) of ``count`` IV designs on a
    grid: q = 1 or 2 instruments of 2 or 3 levels in (-2, 2), 2 or 3 shocks
    w in (-1, 1), x1 = z'a + w with slopes a in (0.5, 1.5), errors -1 and +1
    of equal mass in each (x1, z) cell, and the intercept coded as c.  In
    half, two levels of the first instrument are 10^-U(2, 12) apart; in 30%
    two shocks are; in 40% the slopes are scaled by 10^-U(0, 10); in 30% c
    is 10^U(-8, 2), else 1.  ``features`` names what was done."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = int(rng.integers(1, 3))
        levels = [np.sort(rng.uniform(-2.0, 2.0, rng.integers(2, 4))) for _ in range(q)]
        w = np.sort(rng.uniform(-1.0, 1.0, rng.integers(2, 4)))
        a, beta = rng.uniform(0.5, 1.5, q), rng.uniform(-1.0, 1.0, 2)
        features = []
        if rng.uniform() < 0.5:
            levels[0][1] = levels[0][0] + 10.0 ** -rng.uniform(2.0, 12.0)
            features.append("close levels")
        if rng.uniform() < 0.3:
            w[1] = w[0] + 10.0 ** -rng.uniform(2.0, 12.0)
            features.append("close shocks")
        if rng.uniform() < 0.4:
            a = a * 10.0 ** -rng.uniform(0.0, 10.0)
            features.append("weak slopes")
        c = 1.0
        if rng.uniform() < 0.3:
            c = 10.0 ** rng.uniform(-8.0, 2.0)
            features.append("intercept scaled")
        rows = []
        for z in itertools.product(*levels):
            for shock in w:
                x1 = float(a @ z) + shock
                rows += [[beta[0] * x1 + beta[1] * c + e, x1, c, *z] for e in (-1.0, 1.0)]
        probs = np.repeat(rng.uniform(0.5, 1.5, len(rows) // 2), 2)
        model = IVModel(beta0=beta, sigma0_sq=1.0, dims=(1, 1, q))
        yield tuple(features), np.array(rows), probs, model


def rescaled(rows, model, column, scale):
    """The design with support column ``column`` multiplied by ``scale`` and
    the model restated in the new units, so that it still holds."""
    rows, beta, sigma_sq = rows.copy(), model.beta0.copy(), model.sigma0_sq
    rows[:, column] *= scale
    if column == 0:
        beta, sigma_sq = beta * scale, sigma_sq * scale**2
    elif column <= len(beta):
        beta[column - 1] /= scale
    return rows, IVModel(beta0=beta, sigma0_sq=sigma_sq, dims=model.dims)


def instrument_moments(dist, model):
    """(E[ZX'], E[ZZ']) of the design; E[ZX'] is minus the mean Jacobian of
    ``linear_iv_moment_model`` at any beta."""
    _, X, Z = model.design_matrices(dist.support)
    return (Z.T * dist.probs) @ X, (Z.T * dist.probs) @ Z


def ratio_refuses(a) -> bool:
    """The singular-value rule: smallest over largest at most RANK_RATIO."""
    svals = np.linalg.svd(a, compute_uv=False)
    return not svals[-1] > RANK_RATIO * svals[0]


def whitened_ratio(exz, ezz) -> float:
    """The singular-value ratio of E[ZX'] once the instruments are whitened
    by E[ZZ'] and each regressor's column has unit norm: what the pivot
    tests of E[ZZ'] and of the normal matrix X'P_Z X judge, free of the
    units and coordinates of both."""
    try:
        white = np.linalg.solve(np.linalg.cholesky(ezz), exz)
    except np.linalg.LinAlgError:
        return math.nan
    svals = np.linalg.svd(white / np.linalg.norm(white, axis=0), compute_uv=False)
    return svals[-1] / svals[0]


def outcome(build) -> str:
    """'dof k' for a design built, else the name of the error refusing it."""
    try:
        design = build()
    except AsymlabError as exc:
        return type(exc).__name__
    return f"dof {design.statistic[design.tests[0]].dim}"


# the errors each design raises before the singular-value rule ran
EARLIER = {
    "iv": {"NullModelViolated"},
    "gmm": {"ShapeMismatch", "MomentNotSatisfied", "SingularSigma"},
}
RULE_ERROR = {"iv": RankDeficientFirstStage.__name__, "gmm": RankDeficientJacobian.__name__}


def classes(kind, dist, model) -> tuple[str, str]:
    """The class of the IV design (``kind`` "iv") or of the
    ``linear_iv_moment_model`` design at beta0 ("gmm") with the
    singular-value rule on E[ZX'] and without it."""
    if kind == "iv":
        now = outcome(lambda: IvInstance("iv", dist, model).design)
    else:
        moments = linear_iv_moment_model(model.dims)
        now = outcome(lambda: GmmInstance("gmm", dist, moments, model.beta0).design)
    if now in EARLIER[kind] or not ratio_refuses(instrument_moments(dist, model)[0]):
        return now, now
    return RULE_ERROR[kind], now


def print_table(title, pairs, ratios):
    print(f"\n{title}: {len(pairs)} designs")
    for (before, now), count in sorted(Counter(pairs).items(), key=lambda kv: -kv[1]):
        changed = [r for pair, r in zip(pairs, ratios) if pair == (before, now)]
        mark = f"   <- changed; whitened ratio >= {np.nanmin(changed):.2g}" if before != now else ""
        print(f"  {before:>26} -> {now:<26} {count:5d}{mark}")


def table() -> None:
    rng = np.random.default_rng(8)  # the rescaled copies' columns and scales
    tables = {"iv": [], "gmm": [], "gmm rescaled": []}
    ratios = {label: [] for label in tables}
    groups = Counter()
    for features, rows, probs, model in designs():
        column, scale = int(rng.integers(rows.shape[1])), 10.0 ** rng.uniform(-12.0, 2.0)
        for label, (r, m) in (
            ("iv", (rows, model)),
            ("gmm", (rows, model)),
            ("gmm rescaled", rescaled(rows, model, column, scale)),
        ):
            try:
                dist = make_distribution(r, probs)
            except (AsymlabError, ValueError) as exc:
                pair = (type(exc).__name__,) * 2
            else:
                pair = classes(label.split()[0], dist, m)
            tables[label].append(pair)
            ratios[label].append(
                whitened_ratio(*instrument_moments(dist, m)) if pair[0] != pair[1] else math.nan
            )
            if label == "iv" and pair[0] != pair[1]:
                groups[pair[1], " + ".join(features) or "none"] += 1
    print_table("IV designs, with the singular-value rule -> without", tables["iv"], ratios["iv"])
    print("\nIV designs whose class changed, by the new class and the generator's features:")
    for (now, features), count in sorted(groups.items(), key=lambda kv: (kv[0][0], -kv[1])):
        print(f"  {now:>26}  {features:<58} {count:5d}")
    print_table("linear_iv_moments designs", tables["gmm"], ratios["gmm"])
    print_table(
        "linear_iv_moments designs, one column rescaled",
        tables["gmm rescaled"],
        ratios["gmm rescaled"],
    )


def first_stage_strength(dist, model) -> float:
    """N times the variance of x1's projection on the instruments over that
    of its residual, per excluded instrument: the first-stage F that a
    sample of N would show on average.  Where it is small the normal
    approximation of 2SLS and DWH is poor at N (Staiger and Stock 1997)."""
    _, X, Z = model.design_matrices(dist.support)
    x1, p = X[:, 0], dist.probs
    exz, ezz = instrument_moments(dist, model)
    fitted = Z @ np.linalg.solve(ezz, exz[:, 0])
    spread = p @ (fitted - p @ fitted) ** 2
    return N * spread / (p @ (x1 - fitted) ** 2) / model.dims[2]


def monte_carlo() -> None:
    comparisons, largest, runs = 0, 0.0, 0
    for index, (features, rows, probs, model) in enumerate(designs()):
        try:
            dist = make_distribution(rows, probs)
        except (AsymlabError, ValueError):
            continue
        before, now = classes("iv", dist, model)
        if before == now or not now.startswith("dof"):
            continue
        instance = IvInstance("iv", dist, model)
        basis = instance.design.statistic["dwh"].values
        tests = ["dwh"] if basis.shape[0] else []
        scores = {"zero": np.zeros(dist.n_atoms)}
        if basis.shape[0] == 1:
            scores["dwh ncp 2"] = math.sqrt(2.0) * basis[0]
        strength = first_stage_strength(dist, model)
        where = f"design {index} ({', '.join(features)}; {now}; F {strength:.3g})"
        for label, values in scores.items():
            g = ScoreFunction(dist, values)
            config = ExperimentConfig(
                instance, g, N, REPS, 0.05, 7001 + index, ("ols", "tsls"), tuple(tests)
            )
            try:
                summary = run_experiment(config)
            except TooManyFailures as exc:
                print(f"{where}, {label}: {exc}")
                if exc.summary is None:
                    continue
                summary = exc.summary
            report = compare_to_theory(
                summary, build_prediction(instance, g, ("ols", "tsls"), tests, 0.05)
            )
            runs += 1
            for entry in report.entries:
                comparisons += 1
                largest = max(largest, abs(entry.z))
                if abs(entry.z) > 4.0:
                    print(
                        f"{where}, {label}: {entry.name} predicted {entry.predicted:.6g}, "
                        f"empirical {entry.empirical:.6g}, z {entry.z:.2f}"
                    )
            sys.stdout.flush()
    print(f"{runs} runs, {comparisons} comparisons, largest |z| {largest:.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=["table", "monte-carlo"])
    args = parser.parse_args()
    if args.what == "table":
        table()
    else:
        monte_carlo()


if __name__ == "__main__":
    main()
