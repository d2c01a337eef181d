"""asymlab benchmark: Monte Carlo throughput, cold set-up time and memory.

    python3 bench/run.py --workload g1_perp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each run starts PROCESSES fresh worker
processes one after another (a closed loop: one client, replications in
sequence, BLAS pinned to one thread).  Each worker sets up cold and then runs
Monte Carlo samples for its share of ``--seconds``; every sample must pass
``compare_to_theory(...).all_pass`` and the summary bookkeeping checks.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` the workers alternate traced and untraced samples and the
last line reports the per-layer metrics.  The line before it holds the
details: quartiles and sample counts, failures by exception class, and the
per-layer self times.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from tracing import layer_totals, replication_latencies_us
from workloads import WORKLOADS, WRITES_RAW_CSV, make_config

PROCESSES = 3  # cold set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # a run never takes longer than 180 s
RUN_DIR = ".bench_run"
MAX_SAMPLES = 1024  # per process; more than a time share holds even for a far faster program

END_TO_END_UNITS = {"reps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER_UNITS = {
    "dist.seed_us": "us",
    "dist.draw_us": "us",
    "paths.local_dist_ms": "ms",
    "gmm.estimate_us": "us",
    "gmm.j_us": "us",
    "gmm.gn_iterations_mean": "count",
    "gmm.gn_iterations_max": "count",
    "gmm.not_converged": "count",
    "iv.reduce_us": "us",
    "iv.ols_us": "us",
    "iv.tsls_us": "us",
    "iv.dwh_us": "us",
    "iv.negative_spectrum_warnings": "count",
    "chi2.reject_us": "us",
    "mc.self_us": "us",
    "mc.sink_us": "us",
    "mc.summarize_ms": "ms",
    "mc.rep_us_p50": "us",
    "mc.rep_us_p99": "us",
    "mc.rep_samples": "count",
    "mc.estimator_exceptions": "count",
    "setup.import_s": "s",
    "instances.tangent_bases_s": "s",
    "predict.build_prediction_s": "s",
    "config.build_experiment_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}
# spans outside the Monte Carlo phase
SETUP_SPANS = frozenset(
    {
        "setup.import",
        "config.build_experiment",
        "predict.build_prediction",
        "instances.tangent_bases",
        "mc.compare",
    }
)
# per-replication layers: span name -> metric (self time in microseconds per replication)
REP_LAYERS = {
    "dist.seed": "dist.seed_us",
    "dist.draw": "dist.draw_us",
    "gmm.estimate": "gmm.estimate_us",
    "gmm.j": "gmm.j_us",
    "iv.reduce": "iv.reduce_us",
    "iv.ols": "iv.ols_us",
    "iv.tsls": "iv.tsls_us",
    "iv.dwh": "iv.dwh_us",
    "chi2.reject": "chi2.reject_us",
    "mc.run": "mc.self_us",
    "mc.sink": "mc.sink_us",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "asymlab", "__init__.py")):
        print("error: run from the root of an asymlab checkout (no src/asymlab)", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)

    run_dir = os.path.join(root, RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        reports = run_workers(
            root,
            run_dir,
            make_config(root, args.workload, args.seed),
            args.seconds,
            bool(args.trace),
            args.workload in WRITES_RAW_CSV,
            os.path.join(root, RUN_DIR, "trace", args.workload),
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if reports is None:
        return 1
    detail, result = summarize(reports, bool(args.trace))
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed, **detail}}))
    print(json.dumps(result))
    return 0


def run_workers(root, run_dir, raw, seconds, trace, raw_csv, trace_dir):
    """Run PROCESSES workers one after another; their reports, or None on a crash.

    Spans of traced workers go to ``trace_dir`` and stay there.
    """
    deadline = time.monotonic() + DEADLINE_S
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(raw, fh)
    if trace:
        os.makedirs(trace_dir, exist_ok=True)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    reports = []
    for k in range(PROCESSES):
        job = {
            "root": root,
            "config": config_path,
            "share_s": seconds / PROCESSES,
            "seeds": _sample_seeds(raw["seed"], k),
            "trace": trace,
            "trace_offset": k,
            "min_samples": 2 if trace else 1,
            "csv_dir": run_dir if raw_csv else None,
            "spans_path": os.path.join(trace_dir, f"spans-{k}.tsv"),
        }
        job_path = os.path.join(run_dir, f"job-{k}.json")
        with open(job_path, "w") as fh:
            json.dump(job | {"spawn_ns": time.perf_counter_ns()}, fh)
        try:
            done = subprocess.run(
                [sys.executable, worker, job_path],
                stdout=subprocess.PIPE,
                env=env,
                cwd=root,
                timeout=max(deadline - time.monotonic(), 1.0),
                text=True,
            )
        except subprocess.TimeoutExpired:
            print(f"error: worker {k} did not finish before the deadline", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"error: worker {k} exited with {done.returncode}", file=sys.stderr)
            return None
        report = json.loads(done.stdout.strip().splitlines()[-1])
        report["spans_path"] = job["spans_path"]
        reports.append(report)
    return reports


def summarize(reports: list[dict], trace: bool) -> tuple[dict, dict]:
    """(detail, result): the detail line and the result line of a run."""
    samples = [s for r in reports for s in r["samples"]]
    detail = {"processes": len(reports)}
    detail["samples"] = [
        [k, s["reps"], s["seconds"]] for k, r in enumerate(reports) for s in r["samples"]
    ]
    layers = _per_layer if trace else _end_to_end
    metrics = layers(reports, samples, detail)
    detail["failed_samples_by_class"] = dict(
        Counter(s["error"] or "ComparisonFailed" for s in samples if not s["passed"])
    )
    problems = [p for s in samples for p in s["problems"]]
    detail["problems"] = problems
    # A correct program fails the comparison by chance in roughly one sample in
    # 2000 (|z| > 4 on one of a few entries, see NOTES.md); that sample's
    # replications count as failed.  A wrong program fails nearly every sample.
    gate_failures = sum(not s["passed"] for s in samples)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not problems and 2 * gate_failures < len(samples),
        "attempted": sum(s["reps"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return detail, result


def _sample_seeds(seed: int, process: int) -> list[int]:
    """Master seeds of one process's samples, distinct for every (seed, process, sample)."""
    seq = np.random.SeedSequence([seed, process])
    return [int(s) for s in seq.generate_state(MAX_SAMPLES, np.uint32)]


def _quartiles(values: list[float]) -> dict:
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return {"p25": p25, "p50": p50, "p75": p75, "n": len(values)}


def _end_to_end(reports: list[dict], samples: list[dict], detail: dict) -> dict:
    rates = [s["reps"] / s["seconds"] for s in samples]
    setups = [r["setup_s"] for r in reports]
    rss = [r["peak_rss_mb"] for r in reports]
    attempted = sum(s["reps"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    detail["reps_per_s"] = _quartiles(rates)
    detail["setup_s"] = _quartiles(setups)
    detail["peak_rss_mb"] = _quartiles(rss)
    detail["fail_frac"] = failed / attempted
    return {
        "reps_per_s": attempted / sum(s["seconds"] for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": 1.0 - failed / attempted,
    }


def _per_layer(reports: list[dict], samples: list[dict], detail: dict) -> dict:
    spans = [_read_spans(r["spans_path"]) for r in reports]
    totals = [layer_totals(s) for s in spans]
    merged: dict[str, dict[str, float]] = {}
    for per_process in totals:
        for name, entry in per_process.items():
            acc = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    traced_reps = sum(s["reps"] for s in traced)
    traces = [r["trace"] for r in reports]
    iterations = [i for t in traces for i in t["gn_iterations"]]
    exceptions = sum((Counter(t["exceptions"]) for t in traces), Counter())
    latencies = sorted(lat for s in spans for lat in replication_latencies_us(s))

    # a layer the program no longer calls reads 0 (see Tracer.install)
    def per_call_ms(name):
        entry = merged.get(name)
        return 1e3 * entry["total_s"] / entry["calls"] if entry else 0.0

    def setup_s(name, key="total_s"):  # median over the workers
        return statistics.median(t.get(name, {key: 0.0})[key] for t in totals)

    metrics = {
        metric: 1e6 * merged.get(name, {"self_s": 0.0})["self_s"] / traced_reps
        for name, metric in REP_LAYERS.items()
    }
    rate = lambda group: sum(s["reps"] for s in group) / sum(s["seconds"] for s in group)
    top_level = sum(
        (end - start) / 1e9 for s in spans for _, parent, _, start, end in s if parent < 0
    )
    metrics.update(
        {
            "paths.local_dist_ms": per_call_ms("paths.local_dist"),
            "gmm.gn_iterations_mean": statistics.fmean(iterations) if iterations else 0.0,
            "gmm.gn_iterations_max": max(iterations, default=0),
            "gmm.not_converged": sum(t["not_converged"] for t in traces),
            "iv.negative_spectrum_warnings": sum(t["negative_spectrum_warnings"] for t in traces),
            "mc.summarize_ms": per_call_ms("mc.summarize"),
            "mc.rep_us_p50": _percentile(latencies, 0.50),
            "mc.rep_us_p99": _percentile(latencies, 0.99),
            "mc.rep_samples": len(latencies),
            "mc.estimator_exceptions": sum(exceptions.values()),
            "setup.import_s": setup_s("setup.import"),
            "instances.tangent_bases_s": setup_s("instances.tangent_bases"),
            "predict.build_prediction_s": setup_s("predict.build_prediction", "self_s"),
            "config.build_experiment_s": setup_s("config.build_experiment", "self_s"),
            "trace.overhead_frac": rate(untraced) / rate(traced) - 1.0,
            "trace.accounted_frac": top_level / sum(t["wall_s"] for t in traces),
        }
    )
    detail["traced_reps"] = traced_reps
    detail["untraced_reps"] = sum(s["reps"] for s in untraced)
    detail["estimator_exceptions_by_class"] = dict(exceptions)
    detail["layers"] = merged
    detail["mc_shares"] = _mc_shares(merged)
    return metrics


def _read_spans(path: str) -> list[list]:
    with open(path) as fh:
        next(fh)
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return [
        [name, int(parent), int(rep), int(start), int(end)]
        for _, parent, rep, name, start, end in rows
    ]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(int(q * len(sorted_values)), len(sorted_values) - 1)]


def _mc_shares(merged: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced Monte Carlo wall time."""
    run = merged["mc.run"]["total_s"]
    return {name: e["self_s"] / run for name, e in merged.items() if name not in SETUP_SPANS}


if __name__ == "__main__":
    sys.exit(main())
