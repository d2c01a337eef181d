"""Monte Carlo engine: sample from a local deviation, estimate, test, compare.

Each replication draws its seed from the master seed by a keyed split, so a
run is reproducible bit-for-bit no matter how replications would be
scheduled; replications are executed sequentially here.  Every
replication's sample, GMM or IV, is the count vector of its draws over the
support (a sufficient statistic on a finite support for every estimator and
test run here).  Replications whose estimator fails to converge are counted
and excluded from the moments, never retried (retrying would distort the
sampling distribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import Dataset, draw_indices, replication_seed
from .errors import AsymlabError, ConfigInvalid, ShapeMismatch, TooManyFailures
from .gmm import estimate_gmm, j_statistic
from .instances import GmmInstance, Instance
from .iv import dwh_statistic, estimate_2sls, estimate_ols
from .paths import LocalPath, path_distribution
from .predict import Prediction
from .scores import ScoreFunction, _require_same_dist

_ESTIMATORS = {"gmm": ("gmm",), "iv": ("ols", "tsls")}
_TESTS = {"gmm": ("j",), "iv": ("dwh",)}
Z_PASS_BOUND = 4.0  # family-wise slack for dozens of simultaneous checks


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    instance: Instance
    score: ScoreFunction
    n: int
    reps: int
    alpha: float
    master_seed: int
    estimators: tuple[str, ...]
    tests: tuple[str, ...]
    theta_init: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 50:
            raise ConfigInvalid(f"need n >= 50, got {self.n}")
        if self.reps < 100:
            raise ConfigInvalid(f"need reps >= 100, got {self.reps}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigInvalid(f"need 0 < alpha < 1, got {self.alpha}")
        kind = self.instance.kind
        if not self.estimators and not self.tests:
            raise ConfigInvalid("configure at least one estimator or test")
        bad = set(self.estimators) - set(_ESTIMATORS[kind])
        if bad:
            raise ConfigInvalid(f"estimators {sorted(bad)} unavailable for a {kind} instance")
        bad = set(self.tests) - set(_TESTS[kind])
        if bad:
            raise ConfigInvalid(f"tests {sorted(bad)} unavailable for a {kind} instance")
        if kind == "gmm" and "j" in self.tests and self.instance.model.l == self.instance.model.p:
            raise ConfigInvalid("the overidentification test is degenerate when l == p")
        try:
            _require_same_dist(self.instance.dist, self.score)
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

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSummary":
        return cls(
            n=int(doc["n"]),
            reps=int(doc["reps"]),
            alpha=float(doc["alpha"]),
            reps_failed=int(doc["reps_failed"]),
            estimators={
                name: EstimatorSummary(
                    mean=np.asarray(s["mean"], float),
                    cov=np.asarray(s["cov"], float),
                    se=np.asarray(s["se"], float),
                    reps_used=int(s["reps_used"]),
                )
                for name, s in doc["estimators"].items()
            },
            tests={
                name: TestSummary(
                    rate=float(t["rate"]),
                    se=float(t["se"]),
                    mean_dof=float(t["mean_dof"]),
                    reps_used=int(t["reps_used"]),
                )
                for name, t in doc["tests"].items()
            },
        )


def _replication(config: ExperimentConfig, sample: Dataset) -> tuple[dict, dict]:
    """Estimates and test records for one sample; raises on failure.

    ``sample`` is a ``Dataset`` of the support points and their counts in
    the replication's draws.
    """
    inst = config.instance
    ests: dict[str, np.ndarray] = {}
    tests: dict[str, tuple[float, int, bool]] = {}
    if isinstance(inst, GmmInstance):
        start = inst.theta0 if config.theta_init is None else config.theta_init
        est = estimate_gmm(sample, inst.model, start)
        if not est.converged:
            raise AsymlabError("estimator did not converge")
        if "gmm" in config.estimators:
            ests["gmm"] = est.theta_hat
        if "j" in config.tests:
            stat = j_statistic(sample, inst.model, est)
            tests["j"] = (stat.value, stat.dof, stat.reject(config.alpha))
    else:
        ols = estimate_ols(sample, inst.model)
        tsls = estimate_2sls(sample, inst.model)
        if "ols" in config.estimators:
            ests["ols"] = ols.beta
        if "tsls" in config.estimators:
            ests["tsls"] = tsls.beta
        if "dwh" in config.tests:
            stat = dwh_statistic(sample, ols, tsls)
            tests["dwh"] = (stat.value, stat.dof, stat.reject(config.alpha))
    return ests, tests


def run_experiment(config: ExperimentConfig, raw_sink=None) -> ExperimentSummary:
    """Run all replications and aggregate.

    ``raw_sink`` may be a writable text file object; each replication then
    appends a CSV row (rep, seed, estimator coordinates, test statistic,
    dof, reject flag).
    """
    path = LocalPath(config.instance.dist, config.score, tilt="exponential")
    root_n = math.sqrt(config.n)
    local_dist = path_distribution(path, 1.0 / root_n)
    truth = config.instance.truth
    devs: dict[str, list[np.ndarray]] = {name: [] for name in config.estimators}
    flags: dict[str, list[tuple[float, int, bool]]] = {name: [] for name in config.tests}
    failed = 0
    if raw_sink is not None:
        header = ["rep", "seed"]
        for name in config.estimators:
            header.extend(f"{name}_{j + 1}" for j in range(truth.shape[0]))
        for name in config.tests:
            header.extend([f"{name}_stat", f"{name}_dof", f"{name}_reject"])
        raw_sink.write(",".join(header) + "\n")
    for rep in range(1, config.reps + 1):
        seed = replication_seed(config.master_seed, rep)
        idx = draw_indices(local_dist, config.n, seed)
        sample = Dataset(local_dist.support, np.bincount(idx, minlength=local_dist.n_atoms))
        try:
            rep_ests, rep_tests = _replication(config, sample)
        except AsymlabError:
            failed += 1
            continue
        for name in config.estimators:
            devs[name].append(root_n * (rep_ests[name] - truth))
        for name in config.tests:
            flags[name].append(rep_tests[name])
        if raw_sink is not None:
            cells = [str(rep), str(seed)]
            for name in config.estimators:
                cells.extend(repr(v) for v in rep_ests[name].tolist())
            for name in config.tests:
                value, dof, reject = rep_tests[name]
                cells.extend([f"{value!r}", str(dof), str(int(reject))])
            raw_sink.write(",".join(cells) + "\n")
    summary = _summarize(config, devs, flags, failed)
    if failed > 0.01 * config.reps:
        raise TooManyFailures(f"{failed} of {config.reps} replications failed")
    return summary


def _summarize(config, devs, flags, failed) -> ExperimentSummary:
    est_summaries = {}
    for name, rows in devs.items():
        stack = np.array(rows)
        used = stack.shape[0]
        if used < 2:
            raise TooManyFailures(f"only {used} usable replications for {name}")
        mean = stack.mean(axis=0)
        cov = np.atleast_2d(np.cov(stack, rowvar=False, ddof=1))
        est_summaries[name] = EstimatorSummary(
            mean=mean, cov=cov, se=np.sqrt(np.diag(cov) / used), reps_used=used
        )
    test_summaries = {}
    for name, records in flags.items():
        used = len(records)
        if used == 0:
            raise TooManyFailures(f"no usable replications for test {name}")
        rate = sum(1 for _, _, r in records if r) / used
        test_summaries[name] = TestSummary(
            rate=rate,
            se=math.sqrt(rate * (1.0 - rate) / used),
            mean_dof=sum(d for _, d, _ in records) / used,
            reps_used=used,
        )
    return ExperimentSummary(
        n=config.n,
        reps=config.reps,
        alpha=config.alpha,
        estimators=est_summaries,
        tests=test_summaries,
        reps_failed=failed,
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
