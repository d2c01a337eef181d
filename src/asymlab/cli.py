"""Command-line front end.

Commands: ``predict`` (analytic bias/power document), ``run`` (Monte Carlo
plus comparison against the predictions), ``decompose`` (three-way score
split), ``check-path`` (quadratic-mean differentiability residuals), and
``selftest`` (fast invariant battery).  Results go to stdout or ``--out``;
diagnostics go to stderr.  Exit codes: 0 success, 1 a comparison or selftest
check failed or too many replications failed (``run`` then still prints the
document of the replications that succeeded, when at least two did), 2
configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import config as cfg
from .dist import Dataset, draw_indices, replication_seed
from .errors import AsymlabError, ConfigInvalid, TooManyFailures
from .instances import decompose_score
from .iv import write_csv
from .mc import compare_to_theory, local_distribution, run_experiment
from .paths import LocalPath, hellinger_residual
from .predict import build_prediction


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asymlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="write the result here instead of stdout")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field by dotted path (repeatable)",
        )

    p = sub.add_parser("predict", help="analytic bias, noncentrality and power")
    add_common(p)

    p = sub.add_parser("run", help="Monte Carlo experiment plus comparison")
    add_common(p)
    p.add_argument("--reps", type=int, help="shorthand for --set reps=N")
    p.add_argument("--seed", type=int, help="shorthand for --set seed=N")
    p.add_argument("--raw-csv", help="stream per-replication rows to this CSV file")
    p.add_argument("--dump-sample", help="write the first replication's dataset to this CSV")

    p = sub.add_parser("decompose", help="three-way decomposition of the score")
    add_common(p)

    p = sub.add_parser("check-path", help="Hellinger residuals on a geometric t grid")
    add_common(p)
    p.add_argument("--t0", type=float, default=0.1, help="largest t (default 0.1)")
    p.add_argument("--ratio", type=float, default=0.5, help="grid ratio (default 0.5)")
    p.add_argument("--count", type=int, default=6, help="grid size (default 6)")

    p = sub.add_parser("selftest", help="run the fast invariant battery")
    p.add_argument("--out", help="write the result here instead of stdout")
    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> dict:
    raw = cfg.load_raw(args.config)
    raw = cfg.apply_overrides(raw, args.overrides)
    return cfg.validate_raw(raw)


def _cmd_predict(args) -> int:
    raw = _load(args)
    instance, score = cfg.build_instance_and_score(raw)
    estimators, tests, alpha = cfg.prediction_fields(raw)
    pred = build_prediction(instance, score, estimators, tests, alpha)
    _emit(json.dumps(pred.to_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_run(args) -> int:
    raw = _load(args)
    if args.reps is not None:
        raw = cfg.apply_overrides(raw, [f"reps={args.reps}"])
    if args.seed is not None:
        raw = cfg.apply_overrides(raw, [f"seed={args.seed}"])
    experiment = cfg.build_experiment(raw)
    pred = build_prediction(
        experiment.instance,
        experiment.score,
        list(experiment.estimators),
        list(experiment.tests),
        experiment.alpha,
    )
    if args.dump_sample:
        _dump_first_sample(experiment, args.dump_sample)
    try:
        if args.raw_csv:
            with open(args.raw_csv, "w") as sink:
                summary = run_experiment(experiment, raw_sink=sink)
        else:
            summary = run_experiment(experiment)
    except TooManyFailures as exc:
        if exc.summary is not None:
            _emit_run(pred, exc.summary, args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if _emit_run(pred, summary, args.out) else 1


def _emit_run(pred, summary, out_path) -> bool:
    """Write the run document; returns whether every comparison passed."""
    report = compare_to_theory(summary, pred)
    doc = {
        "prediction": pred.to_dict(),
        "summary": summary.to_dict(),
        "comparison": report.to_dict(),
    }
    _emit(json.dumps(doc, indent=2) + "\n", out_path)
    return report.all_pass


def _dump_first_sample(experiment, path) -> None:
    local = local_distribution(experiment)
    idx = draw_indices(local, experiment.n, replication_seed(experiment.master_seed, 1))
    rows = local.support[idx]
    if experiment.instance.kind == "iv":
        write_csv(Dataset(rows), experiment.instance.model, path)
    else:
        header = ",".join(f"x_{j + 1}" for j in range(rows.shape[1]))
        np.savetxt(path, rows, delimiter=",", header=header, comments="")


def _cmd_decompose(args) -> int:
    raw = _load(args)
    instance, score = cfg.build_instance_and_score(raw)
    report = decompose_score(instance, score)
    doc = {
        "support": instance.dist.support.tolist(),
        "score": score.values.tolist(),
        "pi_T": report.pi_T.values.tolist(),
        "pi_TperpM": report.pi_TperpM.values.tolist(),
        "pi_Mperp": report.pi_Mperp.values.tolist(),
        "variances": {
            "var_T": report.var_T,
            "var_TperpM": report.var_TperpM,
            "var_Mperp": report.var_Mperp,
        },
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_check_path(args) -> int:
    raw = _load(args)
    instance, score = cfg.build_instance_and_score(raw)
    if not (0 < args.ratio < 1 and 0 < args.t0 < math.inf) or args.count < 1:
        raise ConfigInvalid("need finite t0 > 0, 0 < ratio < 1, count >= 1")
    path = LocalPath(instance.dist, score)
    lines = ["t,residual"]
    t = args.t0
    for _ in range(args.count):
        lines.append(f"{t!r},{hellinger_residual(path, t)!r}")
        t *= args.ratio
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    failures, lines = run_selftest()
    _emit("\n".join(lines) + "\n", getattr(args, "out", None))
    return 0 if failures == 0 else 1


_COMMANDS = {
    "predict": _cmd_predict,
    "run": _cmd_run,
    "decompose": _cmd_decompose,
    "check-path": _cmd_check_path,
    "selftest": _cmd_selftest,
}


def execute(argv: list[str]) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except AsymlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
