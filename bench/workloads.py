"""Workload definitions: the config each workload hands to asymlab.

A workload is a JSON config in the schema ``asymlab run`` reads, plus the
number of replications per sample.  ``g1_perp`` and ``iv1_power`` are the
shipped configs; ``iv_wide`` is an IV design generated from the seed.  This
module imports numpy only, never asymlab, so generating inputs costs the
program nothing.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Replications per sample, sized so that one sample takes about three seconds
# on a 2-core box at the parent of the benchmark (numpy 2.4, scipy 1.17).
SAMPLE_REPS = {"g1_perp": 1000, "iv1_power": 5000, "iv_wide": 6000}
WORKLOADS = tuple(SAMPLE_REPS)
WRITES_RAW_CSV = ("iv_wide",)  # these stream one CSV row per replication, as --raw-csv does

IV_WIDE_N = 200
IV_WIDE_Z_VALUES = 16  # instrument values
IV_WIDE_W_VALUES = 8  # first-stage noise values; 2 * 16 * 8 = 256 atoms
IV_WIDE_NCP = 2.0  # DWH noncentrality along the drift, so power is about 0.29


def shipped_config(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", f"{name}.json")) as fh:
        return json.load(fh)


def iv_wide_design(seed: int) -> dict:
    """A 256-atom linear IV design on which the conditional null holds exactly.

    Atoms are the grid z1 x w x e with x1 = z1 + w, an intercept x2 = 1 and
    y = beta1 * x1 + beta2 + e.  Within each (x1, z) group the two atoms
    e = -1 and e = +1 carry equal mass, so E[e | x1, z] = 0 and
    E[e^2 | x1, z] = 1 = sigma0^2.  The seed draws the cell masses and beta;
    the grid is fixed, with Var(z1) about four times Var(w), because at
    n = 200 a weaker first stage leaves the Monte Carlo visibly off the
    asymptotic predictions.  Returns the inline instance and the per-atom
    values of the drift direction g, proportional to e * w and scaled so
    that the DWH noncentrality is ``IV_WIDE_NCP``.
    """
    rng = np.random.default_rng([seed, 0x1F])
    z_vals = np.linspace(-2.25, 2.25, IV_WIDE_Z_VALUES)
    w_vals = np.linspace(-1.05, 1.05, IV_WIDE_W_VALUES)
    cell_mass = np.round(rng.uniform(0.5, 1.5, size=(IV_WIDE_Z_VALUES, IV_WIDE_W_VALUES)), 3)
    beta = np.round(rng.uniform(-1.0, 1.0, size=2), 2)
    support, probs, errors, ew = [], [], [], []
    for i, z1 in enumerate(z_vals):
        for j, w in enumerate(w_vals):
            x1 = z1 + w
            for e in (-1.0, 1.0):
                support.append([beta[0] * x1 + beta[1] + e, x1, 1.0, z1])
                probs.append(float(cell_mass[i, j]))
                errors.append(e)
                ew.append(e * w)
    scale = IV_WIDE_NCP**0.5 / _dwh_ncp_root(
        np.array(support), np.array(probs), np.array(errors), np.array(ew)
    )
    instance = {
        "kind": "iv",
        "distribution": {"support": support, "probs": probs},
        "model": {"beta0": beta.tolist(), "sigma0_sq": 1.0, "dims": [1, 1, 1]},
    }
    return {"instance": instance, "g": (scale * np.array(ew)).tolist()}


def _dwh_ncp_root(support: np.ndarray, probs: np.ndarray, e: np.ndarray, g: np.ndarray) -> float:
    """sqrt of the DWH noncentrality along g, from the closed forms at sigma0^2 = 1.

    The drift of OLS minus 2SLS is delta; its variance is V_2sls - V_ols; the
    noncentrality is delta' (V_2sls - V_ols)^+ delta.
    """
    p = probs / probs.sum()
    X, Z = support[:, 1:3], support[:, [3, 2]]
    exx, exz, ezz = (np.einsum("s,si,sj->ij", p, a, b) for a, b in ((X, X), (X, Z), (Z, Z)))
    bread = exz @ np.linalg.solve(ezz, exz.T)
    ols = np.linalg.solve(exx, X.T @ (p * e * g))
    tsls = np.linalg.solve(bread, exz @ np.linalg.solve(ezz, Z.T @ (p * e * g)))
    delta = ols - tsls
    return float(np.sqrt(delta @ np.linalg.pinv(np.linalg.inv(bread) - np.linalg.inv(exx)) @ delta))



def make_config(root: str, workload: str, seed: int) -> dict:
    """The config the program sees for one sample of ``workload``."""
    if workload == "iv_wide":
        design = iv_wide_design(seed)
        raw = {
            "schema": 1,
            "instance": design["instance"],
            "score": {"kind": "values", "values": design["g"]},
            "n": IV_WIDE_N,
            "alpha": 0.05,
            "estimators": ["ols", "tsls"],
            "tests": ["dwh"],
        }
    elif workload in SAMPLE_REPS:
        raw = shipped_config(root, workload)
    else:
        raise KeyError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
    raw["seed"] = int(seed)
    raw["reps"] = SAMPLE_REPS[workload]
    return raw
