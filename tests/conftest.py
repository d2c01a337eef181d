import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asymlab.instances import g1_instance, iv1_instance

SRC = Path(__file__).resolve().parent.parent / "src"

# the condition number up to which an absolute 1e-12 bounds the rounding
# error of a projector computed from, or moved with, ill-conditioned inputs
FLOAT_COND = 1e3


def float_bound(*conds: float) -> float:
    """1e-12, scaled up by the largest of ``conds`` over FLOAT_COND: a
    projector's first-order rounding error is about eps times the condition
    number of the columns it is read from, so one absolute bound holds only
    for well-conditioned inputs (about 4.5 eps per unit of condition)."""
    return 1e-12 * max([1.0, *(cond / FLOAT_COND for cond in conds)])


@pytest.fixture(scope="session")
def g1():
    return g1_instance()


@pytest.fixture(scope="session")
def iv1():
    return iv1_instance()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def run_python():
    """Run Python source in a fresh interpreter that imports asymlab from this
    checkout, with the given extra environment variables; returns its stdout."""

    def run(code: str, **env: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SRC), **env),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
