"""One workload process: cold set-up, then Monte Carlo samples in a closed loop.

Run as ``python3 bench/worker.py JOB.json`` by ``bench/run.py``.  The process
takes the path ``asymlab run`` takes, in-process: load and validate the
config, ``build_experiment``, ``build_prediction``, then per sample
``run_experiment`` and ``compare_to_theory``.  Samples run one after another
until the job's time share is used up.  The last line of stdout is a JSON
report.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from dataclasses import replace

from tracing import Tracer, now_ns


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    tracer = Tracer() if job["trace"] else None

    t0 = now_ns()
    from asymlab import config as cfg
    from asymlab.predict import build_prediction

    t1 = now_ns()
    if not cfg.__file__.startswith(src + os.sep):
        raise SystemExit(f"asymlab was imported from {cfg.__file__}, not from {src}")
    if tracer:
        tracer.add("setup.import", t0, t1)
        tracer.install()

    def span(name, fn, *args):
        if not tracer:
            return fn(*args)
        idx = tracer.open(name)
        result = fn(*args)
        tracer.close(idx)
        return result

    raw = cfg.validate_raw(cfg.load_raw(job["config"]))
    experiment = span("config.build_experiment", cfg.build_experiment, raw)
    pred = span(
        "predict.build_prediction",
        build_prediction,
        experiment.instance,
        experiment.score,
        list(experiment.estimators),
        list(experiment.tests),
        experiment.alpha,
    )
    setup_end = now_ns()

    samples = []
    mc_s = untraced_wall_s = 0.0
    for j, seed in enumerate(job["seeds"]):
        # stop where the share is used up to within half a sample
        if j >= job["min_samples"] and mc_s + samples[-1]["seconds"] / 2 > job["share_s"]:
            break
        start = now_ns()
        traced = tracer is not None and (j + job["trace_offset"]) % 2 == 0
        if tracer and not traced:
            tracer.uninstall()
        experiment_j = replace(experiment, master_seed=seed)
        sample = _sample(experiment_j, pred, job, j, tracer if traced else None)
        if tracer and not traced:
            tracer.install()
            untraced_wall_s += (now_ns() - start) / 1e9
        mc_s += sample["seconds"]
        samples.append(sample)

    report = {
        "setup_s": (setup_end - job["spawn_ns"]) / 1e9,
        "samples": samples,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer:
        tracer.uninstall()
        tracer.write(job["spans_path"])
        report["trace"] = {
            "wall_s": (now_ns() - job["spawn_ns"]) / 1e9 - untraced_wall_s,
            "gn_iterations": tracer.gn_iterations,
            "not_converged": tracer.not_converged,
            "exceptions": dict(tracer.exceptions),
            "negative_spectrum_warnings": tracer.negative_spectrum_warnings,
        }
    print(json.dumps(report))
    return 0


def _sample(experiment, pred, job, j, tracer):
    """Run one sample; failures of the program are recorded, never raised."""
    from asymlab.errors import AsymlabError
    from asymlab.mc import compare_to_theory, run_experiment

    record = {
        "seed": experiment.master_seed,
        "reps": experiment.reps,
        "traced": tracer is not None,
        "failed": 0,
        "error": None,
        "passed": False,
        "problems": [],
    }
    csv_path = os.path.join(job["csv_dir"], f"sample-{j}.csv") if job["csv_dir"] else None
    fh = open(csv_path, "w") if csv_path else None
    sink = tracer.sink(fh) if tracer and fh else fh
    start = now_ns()
    idx = tracer.open("mc.run") if tracer else None
    try:
        summary = run_experiment(experiment, raw_sink=sink)
    except AsymlabError as exc:
        summary = None
        record["error"] = type(exc).__name__
    finally:
        if tracer:
            tracer.close(idx)
        record["seconds"] = (now_ns() - start) / 1e9
        if fh:
            fh.close()
    if summary is None:
        record["failed"] = experiment.reps
    else:
        record["failed"] = summary.reps_failed
        record["problems"] = _check_summary(summary, experiment.reps, csv_path)
        idx = tracer.open("mc.compare") if tracer else None
        try:
            record["passed"] = compare_to_theory(summary, pred).all_pass
        except AsymlabError as exc:
            record["error"] = type(exc).__name__
        if tracer:
            tracer.close(idx)
        if not record["passed"]:
            record["failed"] = experiment.reps
    if csv_path:
        os.remove(csv_path)
    return record


def _peak_rss_mb() -> float:
    """This process's peak resident memory.

    VmHWM belongs to the memory map the interpreter got at exec, so unlike
    ``ru_maxrss`` it never includes the parent that forked it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_summary(summary, reps: int, csv_path) -> list[str]:
    """Bookkeeping every summary must satisfy, and agreement with the raw CSV."""
    problems = []
    used = [s.reps_used for s in summary.estimators.values()]
    used += [t.reps_used for t in summary.tests.values()]
    if summary.reps != reps or any(u + summary.reps_failed != reps for u in used):
        problems.append(f"replication counts {used} + {summary.reps_failed} failed != {reps}")
    if csv_path:
        with open(csv_path) as fh:
            header, *rows = fh.read().splitlines()
        rows = [row.split(",") for row in rows]
        if len(rows) != reps - summary.reps_failed:
            problems.append(f"raw CSV has {len(rows)} rows for {reps - summary.reps_failed}")
        names = header.split(",")
        for name, test in summary.tests.items():
            col = names.index(f"{name}_reject")
            rejected = sum(int(row[col]) for row in rows)
            if rejected != round(test.rate * test.reps_used):
                problems.append(f"raw CSV rejects {rejected} times, summary rate {test.rate}")
    return problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
