"""Inputs, sizes and output checks shared by run.py and the in-process
worker (worker.py).  See README.md for why each workload exists."""
from __future__ import annotations

import hashlib
import math
import os
import statistics

# ------------------------------------------------------------------ desk

# The README quick start, on the co2 demo box.
DESK_BOX = "PORO,0.15,0.35\nKSAND,10,300\nKRSAND,0.5,1.0\n"
DESK_HELDOUT = 20
DESK_J = 55
HELDOUT_Q2_MIN = 0.9  # acceptance criterion c07
DESK_FINGERPRINTS = ("design.csv", "surrogate.json", "predicted.csv")
DESK_ARTIFACTS = ("design.csv", "curves.csv", "surrogate.json", "params.csv", "pattern.csv",
                  "diagnostics.txt", "test_design.csv", "predicted.csv", "test_curves.csv",
                  "report.csv")


def desk_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The seven quick-start commands as (command name, argv) pairs."""
    return [
        ("design", ["design", "--n", "30", "--box", "box.csv", "--seed", str(seed),
                    "--maximin-restarts", "20", "--out", "design.csv"]),
        ("synth", ["synth", "co2", "--design", "design.csv", "--j", str(DESK_J),
                   "--curves-out", "curves.csv"]),
        ("fit", ["fit", "--design", "design.csv", "--curves", "curves.csv",
                 "--surrogate-out", "surrogate.json", "--params-out", "params.csv",
                 "--pattern-out", "pattern.csv", "--diagnostics-out", "diagnostics.txt"]),
        ("design", ["design", "--n", str(DESK_HELDOUT), "--box", "box.csv",
                    "--seed", str(seed + 100_000), "--out", "test_design.csv"]),
        ("predict", ["predict", "--surrogate", "surrogate.json", "--points", "test_design.csv",
                     "--out", "predicted.csv"]),
        ("synth", ["synth", "co2", "--design", "test_design.csv", "--j", str(DESK_J),
                   "--curves-out", "test_curves.csv"]),
        ("validate", ["validate", "--surrogate", "surrogate.json", "--test-design",
                      "test_design.csv", "--test-curves", "test_curves.csv",
                      "--report-out", "report.csv"]),
    ]


def desk_folder(parent: str, name: str) -> str:
    """A fresh folder holding the quick start's box.csv, to run the commands in."""
    folder = os.path.join(parent, name)
    os.makedirs(folder, exist_ok=True)
    with open(os.path.join(folder, "box.csv"), "w") as handle:
        handle.write(DESK_BOX)
    return folder


def check_predicted(path: str) -> str | None:
    """None when predicted.csv holds DESK_HELDOUT x DESK_J finite values."""
    with open(path) as handle:
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    if len(rows) != DESK_HELDOUT + 1 or len(rows[0]) != DESK_J + 1:
        return f"predicted.csv is {len(rows) - 1} x {len(rows[0]) - 1}, not {DESK_HELDOUT} x {DESK_J}"
    if not all(math.isfinite(float(x)) for row in rows[1:] for x in row[:DESK_J]):
        return "predicted.csv holds non-finite values"
    return None


def heldout_q2(report_path: str) -> float:
    """Mean per-step Q2 over the unflagged steps of a validate report."""
    with open(report_path) as handle:
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()][1:]
    q2 = [float(r[3]) for r in rows if r[4] == "0"]
    return statistics.fmean(q2) if q2 else float("nan")


# ------------------------------------------------------------------ register

REGISTER_N = 401
REGISTER_J = 801
REGISTER_NOISE_VAR = 0.01
REGISTER_ALPHA_RANGE = (0.3, 1.0)
REGISTER_BLOCK = 10  # TrainConfig's default block size
# Largest absolute error of alpha, wrapped theta or v the benchmark accepts.
RECOVERY_BOUND = 0.1

# ------------------------------------------------------------------ serve

SERVE_TRAIN = 30
SERVE_J = 401
SERVE_SINGLE = 2000  # single-point calls per pass, one caller, closed loop
SERVE_POINTS = 20_000  # held-out points per pass
SERVE_BATCH = 1000
# Single-point versus batch prediction of the same point, relative to the
# curve's largest value.  The two paths differ in BLAS summation order
# (matrix-vector against matrix-matrix); the theta kriging weights are large
# and cancel, so on co2 surrogates the gap reaches a few 1e-10.
AGREE_RTOL = 1e-8


# ------------------------------------------------------------------ helpers


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def fingerprints(directory: str, names) -> dict:
    return {name: sha256(os.path.join(directory, name)) for name in names}


def keep_going(elapsed: float, samples: list, seconds: float) -> bool:
    """Start another pass while it is expected to end inside the time budget."""
    return not samples or elapsed + statistics.median(samples) <= seconds
