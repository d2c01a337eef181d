"""Monte Carlo engine: sample from a local deviation, estimate, test, compare.

Replication r draws n atoms from ``local_distribution`` under the seed
``replication_seed(master_seed, r)``, so a run is reproducible bit-for-bit
no matter how replications would be scheduled; replications are executed
sequentially here.  Every replication's sample, GMM or IV, is the count
vector of its draws over the support (a sufficient statistic on a finite
support for every estimator and test run here).  Its estimates and test
results (GMM's J test is ``GmmEstimate.j``) fill one row of the run's record,
from which both the summary and the raw CSV are read.  Replications whose
estimator fails are counted and excluded from the moments, never retried
(retrying would distort the sampling distribution).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dist import Dataset, DiscreteDistribution, _checked_seed, draw_indices, replication_seed
from .errors import AsymlabError, ConfigInvalid, NoConvergence, ShapeMismatch, TooManyFailures
from .gmm import estimate_gmm
from .instances import GmmInstance, Instance
from .iv import dwh_statistic, estimate_2sls, estimate_ols
from .paths import LocalPath, path_distribution
from .predict import Prediction
from .scores import ScoreFunction, _require_same_dist

Z_PASS_BOUND = 4.0  # family-wise slack for dozens of simultaneous checks


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment, refused on construction
    (``ConfigInvalid``) where it could not run, as where a test has no dof."""

    instance: Instance
    score: ScoreFunction
    n: int
    reps: int
    alpha: float
    master_seed: int
    estimators: tuple[str, ...]
    tests: tuple[str, ...]

    def __post_init__(self):
        for key in ("n", "reps"):
            value = getattr(self, key)
            try:
                operator.index(value)
            except TypeError:
                raise ConfigInvalid(f"{key} must be an integer, got {value!r}") from None
        if self.n < 50:
            raise ConfigInvalid(f"need n >= 50, got {self.n}")
        if self.reps < 100:
            raise ConfigInvalid(f"need reps >= 100, got {self.reps}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigInvalid(f"need 0 < alpha < 1, got {self.alpha}")
        try:
            _checked_seed(self.master_seed)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None
        inst, kind = self.instance, self.instance.kind
        if not self.estimators and not self.tests:
            raise ConfigInvalid("configure at least one estimator or test")
        bad = set(self.estimators) - set(inst.estimators)
        if bad:
            raise ConfigInvalid(f"estimators {sorted(bad)} unavailable for a {kind} instance")
        bad = set(self.tests) - set(inst.tests)
        if bad:
            raise ConfigInvalid(f"tests {sorted(bad)} unavailable for a {kind} instance")
        design = inst.design  # derived once, here; a design refused keeps its named error
        try:
            _require_same_dist(inst.dist, self.score)
            for name in self.tests:
                design.dof(name)
        except AsymlabError as exc:
            raise ConfigInvalid(str(exc)) from None


@dataclass(frozen=True)
class EstimatorSummary:
    mean: np.ndarray  # empirical mean of sqrt(n) (estimate - truth)
    cov: np.ndarray
    se: np.ndarray  # Monte Carlo standard error of the mean, per coordinate
    reps_used: int


@dataclass(frozen=True)
class TestSummary:
    rate: float  # rejection frequency at the configured level
    se: float  # binomial standard error of the frequency
    mean_dof: float
    reps_used: int


@dataclass(frozen=True)
class ExperimentSummary:
    n: int
    reps: int
    alpha: float
    estimators: dict[str, EstimatorSummary]
    tests: dict[str, TestSummary]
    reps_failed: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "reps": self.reps,
            "alpha": self.alpha,
            "reps_failed": self.reps_failed,
            "estimators": {
                name: {
                    "mean": s.mean.tolist(),
                    "cov": s.cov.tolist(),
                    "se": s.se.tolist(),
                    "reps_used": s.reps_used,
                }
                for name, s in self.estimators.items()
            },
            "tests": {
                name: {
                    "rate": t.rate,
                    "se": t.se,
                    "mean_dof": t.mean_dof,
                    "reps_used": t.reps_used,
                }
                for name, t in self.tests.items()
            },
        }


def local_distribution(config: ExperimentConfig) -> DiscreteDistribution:
    """The distribution every replication draws from: the instance's
    distribution tilted exponentially along the score to t = 1/sqrt(n)."""
    path = LocalPath(config.instance.dist, config.score, tilt="exponential")
    return path_distribution(path, 1.0 / math.sqrt(config.n))


def _columns(config: ExperimentConfig) -> list[str]:
    """Names of the record's columns: each estimator's coordinates, then each
    test's statistic, dof and reject flag (dof and flag held as whole floats)."""
    p = config.instance.truth.shape[0]
    names = [f"{name}_{j + 1}" for name in config.estimators for j in range(p)]
    for name in config.tests:
        names.extend([f"{name}_stat", f"{name}_dof", f"{name}_reject"])
    return names


def _replication(config: ExperimentConfig, sample: Dataset) -> np.ndarray:
    """One replication's row of the record, in ``_columns`` order; raises on failure.

    ``sample`` is a ``Dataset`` of the support points and their counts in
    the replication's draws.
    """
    inst = config.instance
    if isinstance(inst, GmmInstance):
        est = estimate_gmm(sample, inst.model, inst.theta0)
        if not est.converged:
            raise NoConvergence(f"two-step GMM stopped on {est.stop_reasons}")
        estimates, stat = {"gmm": est.theta_hat}, est.j
    else:
        ols = estimate_ols(sample, inst.model)
        tsls = estimate_2sls(sample, inst.model)
        estimates = {"ols": ols.beta, "tsls": tsls.beta}
        stat = dwh_statistic(sample, inst.model, ols, tsls) if config.tests else None
    row = [estimates[name] for name in config.estimators]
    if config.tests:  # an instance kind has one test
        row.append([stat.value, stat.dof, stat.reject(config.alpha)])
    return np.concatenate(row)


def run_experiment(config: ExperimentConfig, raw_sink=None) -> ExperimentSummary:
    """Run all replications and aggregate.

    Replication r fills row r - 1 of a (reps, columns) record (``_columns``)
    and marks it in a mask when it succeeds; ``_summarize`` reads the marked
    rows.  ``raw_sink`` may be a writable text file object; each marked row
    is then appended to it at once as CSV (rep, seed, the record's columns).

    More than 1% of failures raise ``TooManyFailures``, which counts them by
    exception class and carries the summary of the rest (None below two).
    """
    local = local_distribution(config)
    columns = _columns(config)
    record = np.empty((config.reps, len(columns)))
    ok = np.zeros(config.reps, dtype=bool)
    failures: Counter[str] = Counter()
    if raw_sink is not None:
        raw_sink.write(",".join(["rep", "seed", *columns]) + "\n")
        cells = ("{:.0f}" if c.endswith(("_dof", "_reject")) else "{!r}" for c in columns)
        line = ",".join(["{}", "{}", *cells]) + "\n"
    for rep in range(1, config.reps + 1):
        seed = replication_seed(config.master_seed, rep)
        idx = draw_indices(local, config.n, seed)
        sample = Dataset(local.support, np.bincount(idx, minlength=local.n_atoms))
        try:
            record[rep - 1] = _replication(config, sample)
        except AsymlabError as exc:
            failures[type(exc).__name__] += 1
            continue
        ok[rep - 1] = True
        if raw_sink is not None:
            raw_sink.write(line.format(rep, seed, *record[rep - 1].tolist()))
    summary = _summarize(config, columns, record, ok)
    failed = sum(failures.values())
    if failed > 0.01 * config.reps:
        causes = ", ".join(f"{count} {name}" for name, count in failures.most_common())
        raise TooManyFailures(f"{failed} of {config.reps} replications failed: {causes}", summary)
    return summary


def _summarize(config, columns, record, ok) -> ExperimentSummary | None:
    """Means and covariances of sqrt(n) (estimate - truth), rejection rates
    and mean dofs over the record rows that ``ok`` marks; None when fewer
    than two are marked."""
    rows = record[ok]
    used = rows.shape[0]
    if used < 2:
        return None
    at = {name: j for j, name in enumerate(columns)}
    p = config.instance.truth.shape[0]
    root_n = math.sqrt(config.n)
    est_summaries = {}
    for name in config.estimators:
        first = at[f"{name}_1"]
        devs = root_n * (rows[:, first : first + p] - config.instance.truth)
        cov = np.atleast_2d(np.cov(devs, rowvar=False, ddof=1))
        est_summaries[name] = EstimatorSummary(
            mean=devs.mean(axis=0), cov=cov, se=np.sqrt(np.diag(cov) / used), reps_used=used
        )
    test_summaries = {}
    for name in config.tests:
        rate = int(np.count_nonzero(rows[:, at[f"{name}_reject"]])) / used
        test_summaries[name] = TestSummary(
            rate=rate,
            se=math.sqrt(rate * (1.0 - rate) / used),
            mean_dof=float(rows[:, at[f"{name}_dof"]].mean()),
            reps_used=used,
        )
    return ExperimentSummary(
        n=config.n,
        reps=config.reps,
        alpha=config.alpha,
        estimators=est_summaries,
        tests=test_summaries,
        reps_failed=config.reps - used,
    )


# --- comparison against the analytic predictions -------------------------------------


@dataclass(frozen=True)
class ComparisonEntry:
    name: str
    predicted: float
    empirical: float
    se: float
    z: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[ComparisonEntry, ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "entries": [
                {
                    "name": e.name,
                    "predicted": e.predicted,
                    "empirical": e.empirical,
                    "se": e.se,
                    "z": e.z,
                    "pass": e.passed,
                }
                for e in self.entries
            ],
        }


def _entry(name: str, predicted: float, empirical: float, se: float) -> ComparisonEntry:
    if se > 0.0:
        z = (empirical - predicted) / se
    else:
        z = 0.0 if empirical == predicted else math.inf
    return ComparisonEntry(
        name=name,
        predicted=float(predicted),
        empirical=float(empirical),
        se=float(se),
        z=float(z),
        passed=bool(abs(z) <= Z_PASS_BOUND),
    )


def compare_to_theory(summary: ExperimentSummary, pred: Prediction) -> ComparisonReport:
    """z-scores of empirical results against the analytic predictions.

    Estimator means are compared coordinatewise using their Monte Carlo
    standard errors; rejection rates are compared against the predicted
    local power using the binomial standard error at the predicted value.
    A comparison passes when |z| <= 4.
    """
    entries: list[ComparisonEntry] = []
    for name, est in summary.estimators.items():
        if name not in pred.biases:
            raise ShapeMismatch(f"prediction is missing estimator {name!r}")
        bias = pred.biases[name]
        if bias.shape != est.mean.shape:
            raise ShapeMismatch(f"bias for {name!r} has shape {bias.shape}, want {est.mean.shape}")
        for j in range(bias.shape[0]):
            entries.append(_entry(f"{name}_bias_{j + 1}", bias[j], est.mean[j], est.se[j]))
    for name, test in summary.tests.items():
        if name not in pred.tests:
            raise ShapeMismatch(f"prediction is missing test {name!r}")
        power = pred.tests[name].power
        se = math.sqrt(power * (1.0 - power) / test.reps_used)
        entries.append(_entry(f"{name}_rejection", power, test.rate, se))
    return ComparisonReport(entries=tuple(entries))
