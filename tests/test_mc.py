import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import asymlab.mc
from asymlab.config import build_experiment, load_raw, validate_raw
from asymlab.dist import Dataset, draw_indices, replication_seed
from asymlab.errors import (
    AsymlabError,
    ConfigInvalid,
    NoConvergence,
    ShapeMismatch,
    TooManyFailures,
)
from asymlab.gmm import estimate_gmm
from asymlab.instances import GmmInstance
from asymlab.iv import estimate_2sls, estimate_ols
from asymlab.paths import LocalPath, path_distribution
from asymlab.mc import ExperimentConfig, compare_to_theory, run_experiment
from asymlab.predict import build_prediction
from asymlab.scores import ScoreFunction, centered_score

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def g1_config(g1, score=None, **kw):
    defaults = dict(
        n=1000,
        reps=100,
        alpha=0.05,
        master_seed=7,
        estimators=("gmm",),
        tests=("j",),
    )
    defaults.update(kw)
    if score is None:
        score = ScoreFunction(g1.dist, np.zeros(5))
    return ExperimentConfig(g1, score, **defaults)


class TestConfigValidation:
    def test_bounds(self, g1):
        with pytest.raises(ConfigInvalid):
            g1_config(g1, n=10)
        with pytest.raises(ConfigInvalid):
            g1_config(g1, reps=50)
        with pytest.raises(ConfigInvalid):
            g1_config(g1, alpha=1.5)

    def test_seed_outside_64_bits_refused(self, g1):
        # reduced modulo 2^64, seed -1 ran seed 2^64 - 1's replications
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ConfigInvalid, match="2\\^64"):
                g1_config(g1, master_seed=seed)
        assert g1_config(g1, master_seed=2**64 - 1).master_seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [1.7, 42.0])
    def test_seed_that_is_not_an_integer_refused(self, g1, seed):
        # truncated by int(), master_seed=1.7 ran seed 1's replications
        with pytest.raises(ConfigInvalid, match="integer"):
            g1_config(g1, master_seed=seed)

    @pytest.mark.parametrize("field, value", [("n", 1000.5), ("reps", 150.5), ("n", "1000")])
    def test_n_and_reps_must_be_integers(self, g1, field, value):
        # n = 1000.5 once passed and every replication died in numpy's
        # TypeError, outside the failure accounting; reps = 150.5 in range()
        with pytest.raises(ConfigInvalid, match=f"{field} must be an integer"):
            replace(g1_config(g1), **{field: value})
        assert getattr(replace(g1_config(g1), **{field: np.int64(200)}), field) == 200

    def test_estimator_test_compatibility(self, g1, iv1):
        with pytest.raises(ConfigInvalid):
            g1_config(g1, estimators=("ols",))
        with pytest.raises(ConfigInvalid):
            g1_config(g1, tests=("dwh",))
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(
                iv1,
                ScoreFunction(iv1.dist, np.zeros(8)),
                n=100,
                reps=100,
                alpha=0.05,
                master_seed=1,
                estimators=("gmm",),
                tests=(),
            )
        with pytest.raises(ConfigInvalid):
            g1_config(g1, estimators=(), tests=())

    def test_degenerate_overidentification_refused(self, g1):
        import numpy as np

        from asymlab.models import MomentModel

        def m(theta, x):
            return x[None, :, :1] - theta[:, None, :1]

        def jac(theta, x):
            return np.full((len(theta), x.shape[0], 1, 1), -1.0)

        flat = GmmInstance(
            name="flat",
            dist=g1.dist,
            model=MomentModel(m=m, jac=jac, p=1, l=1),
            theta0=np.array([0.0]),
        )
        with pytest.raises(ConfigInvalid, match="the j test has no degrees of freedom"):
            ExperimentConfig(
                flat,
                ScoreFunction(g1.dist, np.zeros(5)),
                n=100,
                reps=100,
                alpha=0.05,
                master_seed=1,
                estimators=("gmm",),
                tests=("j",),
            )

    def test_score_must_match_instance(self, g1, iv1):
        with pytest.raises(ConfigInvalid):
            g1_config(g1, score=ScoreFunction(iv1.dist, np.zeros(8)))


class TestRunExperiment:
    def test_bit_identical_reruns(self, g1):
        config = g1_config(g1, n=200, reps=100)
        a = run_experiment(config).to_dict()
        b = run_experiment(config).to_dict()
        assert a == b

    def test_null_size_within_binomial_error(self, g1):
        config = g1_config(g1, n=1000, reps=2000, master_seed=11)
        summary = run_experiment(config)
        se = math.sqrt(0.05 * 0.95 / 2000)
        assert abs(summary.tests["j"].rate - 0.05) < 4 * se
        assert summary.reps_failed <= 2

    def test_iv_null_size(self, iv1):
        config = ExperimentConfig(
            iv1,
            ScoreFunction(iv1.dist, np.zeros(8)),
            n=500,
            reps=1000,
            alpha=0.05,
            master_seed=13,
            estimators=("ols", "tsls"),
            tests=("dwh",),
        )
        summary = run_experiment(config)
        se = math.sqrt(0.05 * 0.95 / 1000)
        assert abs(summary.tests["dwh"].rate - 0.05) < 4 * se
        assert summary.tests["dwh"].mean_dof == pytest.approx(1.0)

    def test_bias_gap_shrinks_with_n(self, g1):
        # drift along the efficient score: the empirical bias approaches the
        # predicted value as n grows, within two Monte Carlo standard errors
        x = g1.dist.column(0)
        g = centered_score(g1.dist, 1.5 * x / 1.2)
        pred = build_prediction(g1, g, ["gmm"], [], 0.05)
        target = pred.biases["gmm"][0]
        gaps, ses = [], []
        for n in (250, 1000, 4000):
            config = g1_config(g1, score=g, n=n, reps=400, tests=(), master_seed=17)
            summary = run_experiment(config)
            gaps.append(abs(summary.estimators["gmm"].mean[0] - target))
            ses.append(summary.estimators["gmm"].se[0])
        assert gaps[1] <= gaps[0] + 2 * math.hypot(ses[0], ses[1])
        assert gaps[2] <= gaps[1] + 2 * math.hypot(ses[1], ses[2])

    def test_raw_csv_stream(self, g1):
        sink = io.StringIO()
        config = g1_config(g1, n=100, reps=100)
        run_experiment(config, raw_sink=sink)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "rep,seed,gmm_1,j_stat,j_dof,j_reject"
        assert len(lines) == 101
        cells = lines[1].split(",")
        assert int(cells[0]) == 1
        assert int(cells[4]) == 1  # dof column
        assert cells[5] in ("0", "1")

    def test_raw_csv_holds_the_estimators_own_values(self, g1, iv1):
        x = g1.dist.column(0)
        e = iv1.model.errors_on(iv1.dist.support)
        configs = [
            g1_config(g1, score=centered_score(g1.dist, 1.5 * x / 1.2), n=100, reps=100),
            ExperimentConfig(
                iv1,
                centered_score(iv1.dist, iv1.dist.column(3) * e),
                n=100,
                reps=100,
                alpha=0.05,
                master_seed=3,
                estimators=("ols", "tsls"),
                tests=(),
            ),
        ]
        for config in configs:
            sink = io.StringIO()
            run_experiment(config, raw_sink=sink)
            header, *lines = sink.getvalue().strip().splitlines()
            assert len(lines) == config.reps
            local = path_distribution(
                LocalPath(config.instance.dist, config.score, tilt="exponential"),
                1.0 / math.sqrt(config.n),
            )
            names = header.split(",")
            for line in lines:
                cells = dict(zip(names, line.split(",")))
                seed = replication_seed(config.master_seed, int(cells["rep"]))
                assert int(cells["seed"]) == seed
                idx = draw_indices(local, config.n, seed)
                sample = Dataset(local.support, np.bincount(idx, minlength=local.n_atoms))
                if "gmm" in config.estimators:
                    found = {"gmm": estimate_gmm(sample, g1.model, g1.theta0).theta_hat}
                else:
                    found = {
                        "ols": estimate_ols(sample, iv1.model).beta,
                        "tsls": estimate_2sls(sample, iv1.model).beta,
                    }
                for name, values in found.items():
                    for j, value in enumerate(values.tolist()):
                        assert float(cells[f"{name}_{j + 1}"]) == value

    def test_g1_perp_at_n100_has_no_failures(self):
        # the identity-weighted Gauss-Newton step used to oscillate on small
        # samples until MAX_ITER; sufficient decrease in the line search ends it
        raw = validate_raw(load_raw(CONFIG_DIR / "g1_perp.json"))
        config = replace(build_experiment(raw), n=100, reps=300)
        summary = run_experiment(config)
        assert summary.reps_failed == 0

    def test_too_many_failures(self, g1, monkeypatch):
        real = asymlab.mc._replication
        calls = {"k": 0}

        def flaky(config, rows):
            calls["k"] += 1
            if calls["k"] % 10 == 0:
                raise AsymlabError("synthetic failure")
            return real(config, rows)

        monkeypatch.setattr(asymlab.mc, "_replication", flaky)
        with pytest.raises(TooManyFailures) as caught:
            run_experiment(g1_config(g1, n=100, reps=100))
        assert str(caught.value) == "10 of 100 replications failed: 10 AsymlabError"
        # the exception keeps the summary of the 90 replications that succeeded
        summary = caught.value.summary
        assert summary.reps_failed == 10
        assert summary.estimators["gmm"].reps_used == summary.tests["j"].reps_used == 90

    def test_unconverged_gmm_fails_with_its_stop_reasons(self, g1, monkeypatch):
        real = asymlab.mc.estimate_gmm

        def stalled(*args):
            return replace(real(*args), converged=False, stop_reasons=("line search", "step"))

        monkeypatch.setattr(asymlab.mc, "estimate_gmm", stalled)
        sample = Dataset(g1.dist.support, np.full(5, 20))
        with pytest.raises(NoConvergence, match="line search"):
            asymlab.mc._replication(g1_config(g1), sample)
        with pytest.raises(TooManyFailures) as caught:
            run_experiment(g1_config(g1, n=100, reps=100))
        assert str(caught.value) == "100 of 100 replications failed: 100 NoConvergence"
        assert caught.value.summary is None

    def test_failures_counted_not_dropped(self, g1, monkeypatch):
        real = asymlab.mc._replication

        def rarely_flaky(config, rows):
            if rarely_flaky.k == 50:
                rarely_flaky.k += 1
                raise AsymlabError("synthetic failure")
            rarely_flaky.k += 1
            return real(config, rows)

        rarely_flaky.k = 0
        monkeypatch.setattr(asymlab.mc, "_replication", rarely_flaky)
        summary = run_experiment(g1_config(g1, n=100, reps=200))
        assert summary.reps_failed == 1
        assert summary.estimators["gmm"].reps_used == 199


def summary_from_csv(config, text) -> dict:
    """The summary document of a run, recomputed from its raw CSV alone,
    one replication at a time as lists."""
    header, *lines = text.splitlines()
    names = header.split(",")
    table = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    used = table.shape[0]
    truth = config.instance.truth
    doc = {"n": config.n, "reps": config.reps, "alpha": config.alpha}
    doc["reps_failed"] = config.reps - used
    doc["estimators"], doc["tests"] = {}, {}
    for name in config.estimators:
        cols = [names.index(f"{name}_{j + 1}") for j in range(truth.shape[0])]
        devs = np.array([math.sqrt(config.n) * (row[cols] - truth) for row in table])
        cov = np.atleast_2d(np.cov(devs, rowvar=False, ddof=1))
        doc["estimators"][name] = {
            "mean": devs.mean(axis=0).tolist(),
            "cov": cov.tolist(),
            "se": np.sqrt(np.diag(cov) / used).tolist(),
            "reps_used": used,
        }
    for name in config.tests:
        rate = int(table[:, names.index(f"{name}_reject")].sum()) / used
        doc["tests"][name] = {
            "rate": rate,
            "se": math.sqrt(rate * (1.0 - rate) / used),
            "mean_dof": int(table[:, names.index(f"{name}_dof")].sum()) / used,
            "reps_used": used,
        }
    return doc


class TestRecord:
    @pytest.mark.parametrize("kind", ["g1", "iv1"])
    def test_raw_csv_and_summary_come_from_one_record(self, kind, g1, iv1, monkeypatch):
        if kind == "g1":
            x = g1.dist.column(0)
            config = g1_config(g1, score=centered_score(g1.dist, 1.5 * x / 1.2), n=200, reps=200)
        else:
            e = iv1.model.errors_on(iv1.dist.support)
            config = ExperimentConfig(
                iv1,
                centered_score(iv1.dist, iv1.dist.column(3) * e),
                n=200,
                reps=200,
                alpha=0.05,
                master_seed=3,
                estimators=("ols", "tsls"),
                tests=("dwh",),
            )
        real = asymlab.mc._replication
        calls = []

        def failing(config, sample):
            calls.append(len(calls) + 1)
            if calls[-1] in (50, 120):
                raise AsymlabError("synthetic failure")
            return real(config, sample)

        written = []  # replications run when each line was written

        class Sink(io.StringIO):
            def write(self, text):
                written.append(len(calls))
                return super().write(text)

        monkeypatch.setattr(asymlab.mc, "_replication", failing)
        sink = Sink()
        summary = run_experiment(config, raw_sink=sink)
        kept = [rep for rep in range(1, 201) if rep not in (50, 120)]
        lines = sink.getvalue().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == kept
        assert written == [0, *kept]  # each row is written as its replication ends
        assert summary_from_csv(config, sink.getvalue()) == summary.to_dict()


class TestCompareToTheory:
    def test_exact_match_passes_with_zero_z(self, g1):
        x = g1.dist.column(0)
        g = centered_score(g1.dist, 1.5 * x / 1.2)
        config = g1_config(g1, score=g, n=1000, reps=400, master_seed=19)
        summary = run_experiment(config)
        pred = build_prediction(g1, g, ["gmm"], ["j"], 0.05)
        report = compare_to_theory(summary, pred)
        names = [e.name for e in report.entries]
        assert names == ["gmm_bias_1", "j_rejection"]
        assert report.all_pass

    def test_gross_mismatch_fails(self, g1):
        summary = run_experiment(g1_config(g1, n=1000, reps=400, master_seed=23))
        zero = ScoreFunction(g1.dist, np.zeros(5))
        pred = build_prediction(g1, zero, ["gmm"], ["j"], 0.05)
        # tamper with the prediction: claim a rejection rate of one half
        from asymlab.predict import Prediction, TestPrediction

        wrong = Prediction(
            alpha=0.05,
            biases=pred.biases,
            tests={"j": TestPrediction(dof=1, ncp=8.0, power=0.5)},
        )
        report = compare_to_theory(summary, wrong)
        assert not report.all_pass

    def test_missing_keys_rejected(self, g1):
        summary = run_experiment(g1_config(g1, n=100, reps=100))
        zero = ScoreFunction(g1.dist, np.zeros(5))
        pred = build_prediction(g1, zero, ["gmm"], [], 0.05)
        with pytest.raises(ShapeMismatch):
            compare_to_theory(summary, pred)

    def test_summary_roundtrip(self, g1):
        # the document holds plain Python numbers only, so JSON keeps it exactly
        doc = run_experiment(g1_config(g1, n=100, reps=100)).to_dict()
        assert json.loads(json.dumps(doc)) == doc

        def leaves(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [leaf for child in node for leaf in leaves(child)]
            return [node]

        assert {type(v) for v in leaves(doc)} == {int, float}
