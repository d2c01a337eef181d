import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asymlab.instances import g1_instance, iv1_instance

SRC = Path(__file__).resolve().parent.parent / "src"


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
