"""Tests of the benchmark's own parts: inputs, reproducibility, tracing, exit codes.

    PYTHONPATH=src python -m pytest -q bench/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from asymlab import config as cfg  # noqa: E402
from asymlab import mc  # noqa: E402
from asymlab.dist import replication_seed  # noqa: E402
from asymlab.scores import check_iv_null_model  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_totals, replication_latencies_us  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


def _experiment(workload: str, seed: int, reps: int = 100):
    raw = cfg.validate_raw(make_config(ROOT, workload, seed))
    return replace(cfg.build_experiment(raw), reps=reps)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_iv_wide_design_loads_and_meets_the_null(seed):
    experiment = _experiment("iv_wide", seed)
    inst = experiment.instance
    assert inst.kind == "iv" and inst.dist.n_atoms == 256
    assert experiment.n == 200 and experiment.master_seed == seed
    check_iv_null_model(inst.dist, inst.model)


def test_iv_wide_design_is_a_function_of_the_seed():
    assert make_config(ROOT, "iv_wide", 3) == make_config(ROOT, "iv_wide", 3)
    assert make_config(ROOT, "iv_wide", 3) != make_config(ROOT, "iv_wide", 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_workload_seed_and_reps_give_the_same_summary(workload, tmp_path):
    first = mc.run_experiment(_experiment(workload, 5)).to_dict()
    csv_path = tmp_path / "raw.csv"
    with open(csv_path, "w") as sink:
        second = mc.run_experiment(_experiment(workload, 5), raw_sink=sink).to_dict()
    assert first == second
    with open(csv_path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert [int(row[1]) for row in rows] == [replication_seed(5, r) for r in range(1, 101)]


@pytest.mark.parametrize("workload", ["g1_perp", "iv1_power"])
def test_traced_spans_account_for_the_run_and_are_removed(workload):
    names = ("replication_seed", "estimate_gmm", "dwh_statistic")
    originals = {name: getattr(mc, name) for name in names}
    experiment = _experiment(workload, 2)
    tracer = Tracer()
    tracer.install()
    try:
        idx = tracer.open("mc.run")
        summary = mc.run_experiment(experiment)
        tracer.close(idx)
    finally:
        tracer.uninstall()
    assert {name: getattr(mc, name) for name in names} == originals
    totals = layer_totals(tracer.spans)
    assert totals["dist.seed"]["calls"] == totals["dist.draw"]["calls"] == experiment.reps
    self_sum = sum(entry["self_s"] for entry in totals.values())
    assert self_sum == pytest.approx(totals["mc.run"]["total_s"], rel=1e-9)
    assert len(replication_latencies_us(tracer.spans)) == experiment.reps
    if workload == "g1_perp":
        assert len(tracer.gn_iterations) == experiment.reps - summary.reps_failed
        assert min(tracer.gn_iterations) >= 2


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    args = ["--workload", "g1_perp", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *command[1:], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace", [False, True])
def test_a_short_run_reports_every_metric_of_benchmark_json(trace, tmp_path):
    raw = make_config(ROOT, "iv1_power", 3) | {"reps": 100}
    reports = run.run_workers(ROOT, str(tmp_path), raw, 0.1, trace, True, str(tmp_path))
    detail, result = run.summarize(reports, trace)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and not detail["problems"]
    assert result["attempted"] == 100 * run.PROCESSES * (2 if trace else 1)
    if trace:
        assert 0.5 < result["metrics"]["trace.accounted_frac"]["value"] <= 1.0
        assert result["metrics"]["mc.rep_samples"]["value"] == 100 * run.PROCESSES
