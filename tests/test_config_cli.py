import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import read_csv

import asymlab.cli
import asymlab.instances
import asymlab.mc
from asymlab.cli import execute
from asymlab.config import (
    apply_overrides,
    build_experiment,
    build_instance_and_score,
    load_raw,
    prediction_fields,
    validate_raw,
)
from asymlab.errors import AsymlabError, ConfigInvalid, ShapeMismatch
from asymlab.instances import iv1_instance
from asymlab.iv import estimate_ols
from asymlab.mc import ComparisonEntry, ComparisonReport, compare_to_theory, run_experiment
from asymlab.predict import build_prediction

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_config(**overrides):
    doc = {
        "schema": 1,
        "instance": "G1",
        "score": {"kind": "values", "values": [0.0, 0.0, 0.0, 0.0, 0.0]},
        "n": 1000,
        "reps": 200,
        "alpha": 0.05,
        "seed": 7,
        "estimators": ["gmm"],
        "tests": ["j"],
    }
    doc.update(overrides)
    return doc


def inline_config(kind):
    """G1 (``kind`` "gmm") or IV1 ("iv") written inline, in a config that
    predicts on it."""
    if kind == "gmm":
        instance = {
            "kind": "gmm",
            "distribution": {"support": [-2, -1, 0, 1, 2], "probs": [0.1, 0.2, 0.4, 0.2, 0.1]},
            "model": {"name": "overidentified_mean", "v": 1.2},
            "theta0": [0.0],
        }
        return minimal_config(instance=instance)
    iv1 = iv1_instance()
    doc = json.loads((CONFIG_DIR / "iv1_power.json").read_text())
    doc["instance"] = {
        "kind": "iv",
        "distribution": {"support": iv1.dist.support.tolist(), "probs": iv1.dist.probs.tolist()},
        "model": {"beta0": [1.0, 0.0], "sigma0_sq": 1.0, "dims": [1, 1, 1]},
    }
    return doc


class TestConfigValidation:
    def test_unknown_top_level_field(self, tmp_path):
        path = write_config(tmp_path, minimal_config(bogus=1))
        with pytest.raises(ConfigInvalid, match="bogus"):
            validate_raw(load_raw(path))

    def test_unknown_nested_field(self, tmp_path):
        doc = minimal_config()
        doc["score"]["typo"] = 3
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigInvalid, match="typo"):
            build_instance_and_score(validate_raw(load_raw(path)))

    def test_schema_version_enforced(self, tmp_path):
        path = write_config(tmp_path, minimal_config(schema=2))
        with pytest.raises(ConfigInvalid, match="schema"):
            validate_raw(load_raw(path))

    def test_missing_run_fields(self, tmp_path):
        doc = minimal_config()
        del doc["reps"]
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigInvalid, match="reps"):
            build_experiment(validate_raw(load_raw(path)))

    def test_named_and_inline_instances_agree(self, tmp_path):
        inline = {
            "kind": "gmm",
            "distribution": {
                "support": [[-2.0], [-1.0], [0.0], [1.0], [2.0]],
                "probs": [0.1, 0.2, 0.4, 0.2, 0.1],
            },
            "model": {"name": "overidentified_mean", "v": 1.2},
            "theta0": [0.0],
        }
        doc = minimal_config(instance=inline)
        inst, score = build_instance_and_score(validate_raw(load_raw(write_config(tmp_path, doc))))
        from asymlab.dist import same_distribution
        from asymlab.instances import g1_instance

        assert same_distribution(inst.dist, g1_instance().dist)

    def test_basis_score_resolution(self, tmp_path):
        doc = minimal_config(score={"kind": "basis", "space": "T_perp", "coefficients": [2.0]})
        inst, score = build_instance_and_score(validate_raw(load_raw(write_config(tmp_path, doc))))
        x = inst.dist.column(0)
        expected = 2.0 * (x**2 - 1.2) / math.sqrt(2.16)
        gap = min(np.max(np.abs(score.values - expected)), np.max(np.abs(score.values + expected)))
        assert gap < 1e-10

    def test_bad_score_coefficients(self, tmp_path):
        doc = minimal_config(score={"kind": "basis", "space": "T_perp", "coefficients": [1.0, 2.0]})
        with pytest.raises(ConfigInvalid, match="dimension"):
            build_instance_and_score(validate_raw(load_raw(write_config(tmp_path, doc))))

    @pytest.mark.parametrize("command", ["predict", "run"])
    def test_non_finite_basis_score_is_refused_by_name(self, capsys, command):
        # a coefficient of 1e308 overflows the score's values, which once
        # ended in a ValueError traceback and exit 1
        path = str(CONFIG_DIR / "g1_perp.json")
        assert execute([command, "--config", path, "--set", "score.coefficients=[1e308]"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: bad score values: ") and "finite" in err

    def test_overrides_parse_json_then_string(self):
        raw = minimal_config()
        apply_overrides(raw, ["reps=5000", "score.kind=values"])
        assert raw["reps"] == 5000 and raw["score"]["kind"] == "values"
        with pytest.raises(ConfigInvalid):
            apply_overrides(raw, ["no-equals-sign"])

    @pytest.mark.parametrize(
        "override",
        [
            'score={"kind": "basis", "space": "T_perp"}',
            'score={"kind": "basis", "space": "T_perp", "coefficients": ["two"]}',
            'score={"kind": "values", "values": [0, 0, "x", 0, 0]}',
            "n=999.9",
            'reps="200"',
            'alpha="0.05"',
            "seed=true",
            "seed=-1",
            f"seed={2**64}",
        ],
    )
    def test_malformed_field_is_a_config_error(self, override, capsys):
        raw = apply_overrides(validate_raw(load_raw(CONFIG_DIR / "g1_perp.json")), [override])
        with pytest.raises(ConfigInvalid):
            build_experiment(raw)
        code = execute(["run", "--config", str(CONFIG_DIR / "g1_perp.json"), "--set", override])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["predict", "run"])
    @pytest.mark.parametrize(
        "config, override",
        [
            ("iv1_power", 'tests=["dwh","dwh"]'),
            ("iv1_power", 'estimators=["ols","ols"]'),
            ("g1_perp", 'estimators="gmm"'),
            ("g1_perp", 'tests="j"'),
            ("g1_perp", "tests=[1]"),
            ("g1_perp", "alpha=0"),
            ("g1_perp", "alpha=1.5"),
        ],
    )
    def test_names_and_alpha_share_one_check(self, command, config, override, capsys):
        # names must be arrays of distinct strings and 0 < alpha < 1, for
        # predict as for run
        path = str(CONFIG_DIR / f"{config}.json")
        raw = apply_overrides(validate_raw(load_raw(path)), [override])
        with pytest.raises(ConfigInvalid):
            prediction_fields(raw)
        with pytest.raises(ConfigInvalid):
            build_experiment(raw)
        assert execute([command, "--config", path, "--set", override, "--out", os.devnull]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["predict", "run"])
    def test_alpha_whose_complement_rounds_to_one_is_named(self, command, capsys):
        path = str(CONFIG_DIR / "g1_perp.json")
        code = execute([command, "--config", path, "--set", "alpha=1e-300", "--out", os.devnull])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alpha = 1e-300" in err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("command", ["predict", "decompose"])
    def test_non_finite_numbers_are_refused_by_name(self, tmp_path, capsys, command, constant):
        # a G1 score of [NaN, 0, 0, 0, 0] once made decompose print NaN and
        # exit 0; an inline IV1 with beta0 [NaN, 0] passed the null-model
        # check and predict died in numpy's "SVD did not converge"
        score = minimal_config()["score"]
        score["values"][0] = constant
        doc = inline_config("iv")
        doc["instance"]["model"]["beta0"][0] = constant
        for config in (minimal_config(score=score), doc):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config).replace(f'"{constant}"', constant))
            assert execute([command, "--config", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {constant} ")
        override = f"score.values=[{constant}, 0, 0, 0, 0]"
        code = execute([command, "--config", str(CONFIG_DIR / "g1_perp.json"), "--set", override])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {constant} ")

    def test_override_injecting_unknown_key_is_caught(self):
        raw = minimal_config()
        apply_overrides(raw, ["instants=G1"])
        with pytest.raises(ConfigInvalid, match="instants"):
            validate_raw(raw)


class TestShippedConfigs:
    def test_all_shipped_configs_build(self):
        for name in ("g1_perp", "g1_tangent", "iv1_bias_equal", "iv1_power"):
            raw = validate_raw(load_raw(CONFIG_DIR / f"{name}.json"))
            build_experiment(raw)


# what the message of each refusal names as its cause
NO_DOF_CAUSES = {
    "j": "the moments just identify the parameters (l = p)",
    "dwh": "2SLS equals OLS along some combination of x1",
}


def no_dof_config(test):
    """A config whose one test has no degrees of freedom on its instance: the
    j test of a just-identified linear IV moment model (dims [1, 0, 1]), or
    the dwh test of an IV design whose x1 is its own instrument (2SLS is
    OLS, so the DWH basis is empty)."""
    if test == "j":
        rows = [[0.5 * z + e, z, z] for z in (-1.0, 1.0) for e in (-1.0, 1.0)]
        model = {"name": "linear_iv_moments", "dims": [1, 0, 1]}
        instance = {"kind": "gmm", "model": model, "theta0": [0.5]}
        probs, estimators = [0.25] * 4, ["gmm"]
    else:
        rows = [[0.7 * z + 0.3 + e, z, 1.0, z] for z in (-1.0, 0.5, 2.0) for e in (-1.0, 1.0)]
        model = {"beta0": [0.7, 0.3], "sigma0_sq": 1.0, "dims": [1, 1, 1]}
        instance = {"kind": "iv", "model": model}
        probs, estimators = [0.1, 0.1, 0.15, 0.15, 0.25, 0.25], ["ols", "tsls"]
    instance["distribution"] = {"support": rows, "probs": probs}
    score = {"kind": "values", "values": [0.0] * len(rows)}
    return minimal_config(instance=instance, score=score, estimators=estimators, tests=[test])


class TestTestsWithNoDegreesOfFreedom:
    # predict once died in chi2's "need k >= 1" on both, and run accepted the
    # dwh case; each is now refused by name
    @pytest.mark.parametrize("test", ["j", "dwh"])
    def test_library_refuses_by_name(self, test):
        raw = validate_raw(no_dof_config(test))
        message = f"the {test} test has no degrees of freedom on this instance"
        with pytest.raises(ConfigInvalid, match=message):
            build_experiment(raw)
        instance, score = build_instance_and_score(raw)
        with pytest.raises(ShapeMismatch, match=message):
            build_prediction(instance, score, raw["estimators"], [test], 0.05)
        assert build_prediction(instance, score, raw["estimators"], [], 0.05).tests == {}

    @pytest.mark.parametrize("command", ["predict", "run"])
    @pytest.mark.parametrize("test", ["j", "dwh"])
    def test_cli_refuses_by_name(self, tmp_path, capsys, command, test):
        path = write_config(tmp_path, no_dof_config(test))
        assert execute([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        message = f"the {test} test has no degrees of freedom on this instance"
        assert err == f"error: {message}: {NO_DOF_CAUSES[test]}\n"


class TestCliCommands:
    def test_predict_on_shipped_config(self, capsys):
        code = execute(["predict", "--config", str(CONFIG_DIR / "g1_perp.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tests"][0]["name"] == "j"
        assert doc["tests"][0]["dof"] == 1
        assert doc["tests"][0]["ncp"] == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(doc["bias"][0]["values"], [0.0], atol=1e-9)

    def test_predict_refuses_a_noncentrality_beyond_the_supported_range(self, tmp_path, capsys):
        # a generated moment instance whose score has T_perp coefficient c:
        # the J noncentrality is c^2, supported up to 1400
        rng = np.random.default_rng(1400)
        support = np.sort(rng.uniform(-3.0, 3.0, 7))
        probs = rng.dirichlet(np.ones(7))
        centered = support - probs @ support
        instance = {
            "kind": "gmm",
            "distribution": {"support": centered.tolist(), "probs": probs.tolist()},
            "model": {"name": "overidentified_mean", "v": float(probs @ centered**2)},
            "theta0": [0.0],
        }
        for coefficient, code in ((37.0, 0), (40.0, 2)):
            score = {"kind": "basis", "space": "T_perp", "coefficients": [coefficient]}
            path = write_config(tmp_path, minimal_config(instance=instance, score=score))
            assert execute(["predict", "--config", str(path)]) == code
            out, err = capsys.readouterr()
            if code == 0:
                assert json.loads(out)["tests"][0]["ncp"] == pytest.approx(37.0**2, rel=1e-12)
            else:
                assert out == "" and "noncentrality 1600" in err
                assert "exceeds the supported range" in err

    @pytest.mark.parametrize(
        "kind, override, field",
        [
            ("iv", 'instance.model.dims="abc"', "'dims'"),
            ("iv", "instance.model.dims=[1.5, 1, 1]", "'dims'"),
            ("gmm", 'instance.model={"name": "linear_iv_moments", "dims": [1, 1]}', "'dims'"),
            ("gmm", "instance.theta0=x", "'theta0'"),
            ("gmm", "instance.theta0=[0, 0, 0]", "'theta0'"),
            ("gmm", "instance.model.v=a", "'v'"),
            ("iv", "instance.model.sigma0_sq=x", "'sigma0_sq'"),
            ("iv", "instance.model.sigma0_sq=0", "sigma0_sq"),
            ("gmm", "instance.distribution.support=[[-2], [-1, 3], [0], [1], [2]]", "'support'"),
        ],
    )
    def test_malformed_inline_instance_field_is_a_config_error(
        self, tmp_path, capsys, kind, override, field
    ):
        # each once ended in a traceback and exit 1 (the exit of a failed
        # comparison), or, for a fractional dims entry or a theta0 of the
        # wrong length, was accepted
        path = write_config(tmp_path, inline_config(kind))
        assert execute(["predict", "--config", str(path), "--set", override]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and field in err

    def test_predict_refuses_a_two_atom_moment_design(self, tmp_path, capsys):
        # theta0 the mean and v the variance: E[m] = 0 and Sigma has rank one
        instance = {
            "kind": "gmm",
            "distribution": {"support": [-1.0, 3.0], "probs": [0.75, 0.25]},
            "model": {"name": "overidentified_mean", "v": 3.0},
            "theta0": [0.0],
        }
        score = {"kind": "values", "values": [1.0, -3.0]}
        path = write_config(tmp_path, minimal_config(instance=instance, score=score))
        assert execute(["predict", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "singular" in err

    def test_predict_refuses_collinear_instruments(self, tmp_path, capsys):
        # IV1 with a second instrument z2 = 2 z1: E[ZZ'] is singular, and
        # predict once died in numpy's LinAlgError instead of exiting 2
        doc = inline_config("iv")
        rows = doc["instance"]["distribution"]["support"]
        doc["instance"]["distribution"]["support"] = [row + [2.0 * row[3]] for row in rows]
        doc["instance"]["model"]["dims"] = [1, 1, 2]
        assert execute(["predict", "--config", str(write_config(tmp_path, doc))]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Z'Z is singular" in err

    def test_a_moment_design_with_nearly_coincident_atoms_predicts(self, tmp_path, capsys):
        # two atoms 1.8e-6 apart: the J basis's QR did not lead with the
        # constant, so predict and decompose died in "basis functions are
        # not mean-zero", and run exited 2 with "bad experiment fields"
        instance = {
            "kind": "gmm",
            "distribution": {
                "support": [-2.5475157452899326, -2.54751396008218, 0.18981840273196157],
                "probs": [0.9849203739249818, 0.3361027908389763, 0.20982661178909556],
            },
            "model": {"name": "overidentified_mean", "v": 0.8862603849088331},
            "theta0": [-2.1723214196124596],
        }
        score = {"kind": "values", "values": [0.0, 0.0, 0.0]}
        path = str(write_config(tmp_path, minimal_config(instance=instance, score=score, reps=100)))
        assert execute(["predict", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["tests"][0]["dof"] == 1
        assert execute(["decompose", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["variances"]["var_TperpM"] == 0.0
        assert execute(["run", "--config", path, "--out", os.devnull]) != 2
        assert "bad experiment fields" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "run"])
    def test_a_design_derivation_error_is_not_relabelled(self, tmp_path, monkeypatch, command):
        # run once reported any TypeError or ValueError of the design
        # derivation as "bad experiment fields"; both commands now surface it
        def broken(dist, model):
            raise ValueError("derivation failed")

        monkeypatch.setattr(asymlab.instances, "iv_design", broken)
        path = str(write_config(tmp_path, inline_config("iv")))
        with pytest.raises(ValueError, match="^derivation failed$"):
            execute([command, "--config", path])

    def test_predict_reads_negative_zero_as_zero(self, tmp_path, capsys):
        # IV1 written inline, once as is and once with x1 = -0.0 on two of
        # the four atoms of its x1 = 0 cells: the same distribution and cells
        iv1 = iv1_instance()
        support = iv1.dist.support.tolist()
        signed = [list(row) for row in support]
        for s in np.flatnonzero(iv1.dist.column(1) == 0.0)[::2]:
            signed[s][1] = -0.0
        outputs = []
        for rows in (support, signed):
            instance = {
                "kind": "iv",
                "distribution": {"support": rows, "probs": iv1.dist.probs.tolist()},
                "model": {"beta0": [1.0, 0.0], "sigma0_sq": 1.0, "dims": [1, 1, 1]},
            }
            doc = json.loads((CONFIG_DIR / "iv1_power.json").read_text())
            doc["instance"] = instance
            path = write_config(tmp_path, doc)
            assert ("-0.0" in path.read_text()) == (rows is signed)
            code = execute(["predict", "--config", str(path)])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_run_roundtrip_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = execute(
            [
                "run",
                "--config",
                str(CONFIG_DIR / "g1_tangent.json"),
                "--reps",
                "200",
                "--seed",
                "99",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # the emitted document holds exactly the library's prediction,
        # summary and comparison for the same config
        raw = validate_raw(load_raw(CONFIG_DIR / "g1_tangent.json"))
        experiment = build_experiment(apply_overrides(raw, ["reps=200", "seed=99"]))
        pred = build_prediction(
            experiment.instance, experiment.score, ["gmm"], ["j"], experiment.alpha
        )
        summary = run_experiment(experiment)
        expected = {
            "prediction": pred.to_dict(),
            "summary": summary.to_dict(),
            "comparison": compare_to_theory(summary, pred).to_dict(),
        }
        assert doc == json.loads(json.dumps(expected))
        assert doc["summary"]["reps"] == 200

    def test_run_comparison_failure_gives_exit_one(self, monkeypatch, capsys):
        failing = ComparisonReport(
            entries=(
                ComparisonEntry(
                    name="gmm_bias_1", predicted=0.0, empirical=9.9, se=0.1, z=99.0, passed=False
                ),
            )
        )
        monkeypatch.setattr(asymlab.cli, "compare_to_theory", lambda s, p: failing)
        code = execute(
            ["run", "--config", str(CONFIG_DIR / "g1_tangent.json"), "--reps", "100"]
        )
        assert code == 1

    def test_run_with_too_many_failures_prints_the_partial_summary(self, monkeypatch, capsys):
        real = asymlab.mc._replication
        calls = {"k": 0}

        def flaky(config, sample):
            calls["k"] += 1
            if calls["k"] % 10 == 0:
                raise AsymlabError("synthetic failure")
            return real(config, sample)

        monkeypatch.setattr(asymlab.mc, "_replication", flaky)
        code = execute(["run", "--config", str(CONFIG_DIR / "g1_tangent.json"), "--reps", "100"])
        assert code == 1
        out, err = capsys.readouterr()
        summary = json.loads(out)["summary"]
        assert summary["reps_failed"] == 10
        assert summary["estimators"]["gmm"]["reps_used"] == 90
        assert "error: 10 of 100 replications failed: 10 AsymlabError" in err

    def test_module_entry_point_prints_the_prediction(self, capsys):
        config = str(CONFIG_DIR / "g1_perp.json")
        done = subprocess.run(
            [sys.executable, "-m", "asymlab.cli", "predict", "--config", config],
            env=dict(os.environ, PYTHONPATH=str(Path(asymlab.cli.__file__).parents[1])),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert execute(["predict", "--config", config]) == 0
        assert json.loads(done.stdout) == json.loads(capsys.readouterr().out)

    def test_missing_config_is_usage_error(self, capsys):
        code = execute(["run", "--config", "missing.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_override_is_usage_error(self, capsys):
        code = execute(
            ["predict", "--config", str(CONFIG_DIR / "g1_perp.json"), "--set", "repz=1"]
        )
        assert code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert execute(["frobnicate"]) == 2

    def test_decompose_matches_library(self, capsys, iv1):
        code = execute(["decompose", "--config", str(CONFIG_DIR / "iv1_power.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        v = doc["variances"]
        assert v["var_T"] == pytest.approx(0.0, abs=1e-10)
        assert v["var_TperpM"] == pytest.approx(2.0, abs=1e-10)
        assert v["var_Mperp"] == pytest.approx(0.0, abs=1e-12)
        total = (
            np.array(doc["pi_T"]) + np.array(doc["pi_TperpM"]) + np.array(doc["pi_Mperp"])
        )
        assert np.allclose(total, doc["score"], atol=1e-10)

    def test_check_path_emits_decreasing_residuals(self, capsys):
        code = execute(
            [
                "check-path",
                "--config",
                str(CONFIG_DIR / "g1_perp.json"),
                "--t0",
                "0.1",
                "--count",
                "4",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,residual"
        residuals = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(residuals) == 4
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("t0", ["nan", "inf"])
    def test_check_path_refuses_a_non_finite_t0(self, capsys, t0):
        # nan passed the t0 > 0 check and died in hellinger_residual, inf
        # in make_distribution, both with a traceback and exit 1
        config = str(CONFIG_DIR / "g1_perp.json")
        assert execute(["check-path", "--config", config, "--t0", t0]) == 2
        assert "need finite t0 > 0" in capsys.readouterr().err

    def test_check_path_refuses_an_overflowing_tilt(self, capsys):
        # exp(800 * max|g|) overflows; the error names t and max|g|
        config = str(CONFIG_DIR / "g1_perp.json")
        assert execute(["check-path", "--config", config, "--t0", "800"]) == 2
        err = capsys.readouterr().err
        assert "weights are not finite at t = 800.0, max|g| = 3.81" in err

    def test_run_refuses_an_overflowing_tilt(self, capsys):
        # at t = 1/sqrt(1000) the exponential tilt of this score overflows
        config = str(CONFIG_DIR / "g1_tangent.json")
        values = "score.values=[200000,-100000,0,0,0]"
        code = execute(["run", "--config", config, "--set", values, "--set", "tests=[]"])
        assert code == 2
        err = capsys.readouterr().err
        assert "weights are not finite at t = 0.0316" in err and "max|g| = 200000.0" in err

    def test_selftest_passes(self, capsys):
        assert execute(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "11/11 checks passed" in out

    def test_selftest_derives_each_design_once(self, run_python):
        script = (
            "import collections, json\n"
            "from asymlab.scores import PopulationDesign\n"
            "from asymlab.selftest import run_selftest\n"
            "built = collections.Counter()\n"
            "real = PopulationDesign.__post_init__\n"
            "def counted(design):\n"
            "    built[type(design).__name__] += 1\n"
            "    real(design)\n"
            "PopulationDesign.__post_init__ = counted\n"
            "failures, _ = run_selftest()\n"
            "print(json.dumps([failures, built]))\n"
        )
        failures, built = json.loads(run_python(script))
        assert failures == 0
        assert built.get("MomentDesign", 0) <= 1 and built.get("IvDesign", 0) <= 1, built

    @staticmethod
    def _selftest_under_optimized_mode(run_python, sabotage: str):
        script = (
            "import json, sys\n"
            "import asymlab.selftest as st\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(3)\n" + sabotage + "print(json.dumps(st.run_selftest()))\n"
        )
        return json.loads(run_python(script, PYTHONOPTIMIZE="1"))

    def test_selftest_still_checks_under_optimized_mode(self, run_python):
        # python -O strips assert statements; a sabotaged expectation must
        # still be caught.
        failures, lines = self._selftest_under_optimized_mode(
            run_python,
            "st.expectation = lambda dist, values: 0.5\n"
        )
        assert failures >= 1
        assert any(line.startswith("FAIL expectation-exactness") for line in lines)

    def test_moment_drift_check_catches_a_nonzero_covariance(self, run_python):
        # an efficient estimator correlated with its pretest breaks Hausman's lemma
        failures, lines = self._selftest_under_optimized_mode(
            run_python,
            "import numpy as np\n"
            "from asymlab.scores import IvDesign\n"
            "IvDesign.covariance = lambda self, est, test: np.ones((1, 2))\n",
        )
        assert failures == 1
        assert any(line.startswith("FAIL moment-drift-split: C(ols, dwh)") for line in lines)

    def test_moment_contract_check_catches_a_wrong_jacobian_shape(self, run_python):
        # the IV catalogue model is swapped for one whose Jacobian drops its
        # parameter axis; only the moment-contract check may notice
        failures, lines = self._selftest_under_optimized_mode(
            run_python,
            "from asymlab.models import MomentModel\n"
            "real = st.linear_iv_moment_model\n"
            "def squeezed(dims):\n"
            "    model = real(dims)\n"
            "    jac = lambda beta, rows: model.jac(beta, rows)[..., 0]\n"
            "    return MomentModel(m=model.m, jac=jac, p=model.p, l=model.l)\n"
            "st.linear_iv_moment_model = squeezed\n"
        )
        assert failures == 1
        assert lines[-2].startswith("FAIL moment-contract: linear_iv_moments Jacobians")

    def test_run_dump_sample_and_raw_csv(self, tmp_path, capsys, iv1):
        sample = tmp_path / "sample.csv"
        raw = tmp_path / "raw.csv"
        code = execute(
            [
                "run",
                "--config",
                str(CONFIG_DIR / "iv1_power.json"),
                "--reps",
                "100",
                "--set",
                "n=200",
                "--dump-sample",
                str(sample),
                "--raw-csv",
                str(raw),
                "--out",
                str(tmp_path / "out.json"),
            ]
        )
        assert code in (0, 1)  # small-reps comparison may legitimately flag
        data, _ = read_csv(sample)
        assert data.n == 200
        lines = raw.read_text().strip().splitlines()
        assert lines[0].startswith("rep,seed,ols_1,ols_2,tsls_1,tsls_2,dwh_stat")
        assert len(lines) == 101
        # the dumped sample is the one replication 1 estimated from
        cells = lines[1].split(",")
        assert cells[0] == "1"
        beta = estimate_ols(data, iv1.model).beta
        assert beta == pytest.approx([float(cells[2]), float(cells[3])], rel=1e-12, abs=1e-12)


BENCH = Path(__file__).resolve().parent.parent / "bench"
# A fresh interpreter runs `asymlab run` on one config with every basis
# construction counted, and reports whether the instance's design holds
# bases after.
_RUN_AND_COUNT_BASES = """
import json, sys
from functools import cached_property
import asymlab.config as cfg
import asymlab.scores as scores
from asymlab.cli import execute

built = []
def counted(design, real=scores.PopulationDesign.bases.func):
    built.append(type(design).__name__)
    return real(design)
scores.PopulationDesign.bases = cached_property(counted)
scores.PopulationDesign.bases.__set_name__(scores.PopulationDesign, "bases")
seen = []
real_build = cfg.build_experiment
def capture(raw):
    experiment = real_build(raw)
    seen.append(experiment.instance)
    return experiment
cfg.build_experiment = capture
code = execute(["run", "--config", sys.argv[1], "--reps", "100", "--out", sys.argv[2]])
print(json.dumps({
    "code": code,
    "reps_failed": json.load(open(sys.argv[2]))["summary"]["reps_failed"],
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "built": built,
    "held": ["bases" in vars(instance.design) for instance in seen],
    "numpy_ma": "numpy.ma" in sys.modules,
}))
"""


class TestBasesStayOffTheRunPath:
    @pytest.mark.parametrize(
        "name, built",
        [
            ("iv1_power", []),
            ("g1_tangent", []),
            ("iv_wide", []),
            ("g1_perp", ["MomentDesign"]),  # a "basis" score needs T_perp's basis
        ],
    )
    def test_only_a_basis_score_builds_bases(self, tmp_path, name, built):
        if name == "iv_wide":
            sys.path.insert(0, str(BENCH))
            try:
                from workloads import make_config
            finally:
                sys.path.remove(str(BENCH))
            config = write_config(tmp_path, make_config(str(CONFIG_DIR.parent), name, 7))
        else:
            config = CONFIG_DIR / f"{name}.json"
        script = tmp_path / "count_bases.py"
        script.write_text(_RUN_AND_COUNT_BASES)
        proc = subprocess.run(
            [sys.executable, str(script), str(config), str(tmp_path / "run.json")],
            env=dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src")),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["code"] == 0, proc.stderr
        assert report["reps_failed"] == 0
        assert report["scipy"] == []
        assert report["built"] == built
        assert report["held"] == [bool(built)]
        assert not report["numpy_ma"]
