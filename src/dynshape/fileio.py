"""CSV and JSON artifact formats plus atomic file writing.

All numeric CSV output uses 17 significant digits so that export followed by
import reproduces the in-memory doubles exactly.  Output files are written to
a temporary sibling and renamed into place, so a failure never leaves a
partially written artifact behind.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .doe import InputBox
from .emulator import FAMILIES, FunctionalSurrogate, SegmentModel, ValidationReport
from .errors import InputConsistencyError
from .gp import GpModel, gp_model_from_dict, gp_model_to_dict
from .registration import CurveSet, Pattern, TransformParams

__all__ = [
    "fmt",
    "atomic_write_text",
    "write_design_csv",
    "read_design_csv",
    "write_curves_csv",
    "read_curves_csv",
    "read_times_csv",
    "write_params_csv",
    "read_params_csv",
    "write_pattern_csv",
    "write_report_csv",
    "write_crossplot_csv",
    "read_box_csv",
    "read_config",
    "save_surrogate",
    "load_surrogate",
    "curves_from_arrays",
]


def fmt(x: float) -> str:
    """Decimal text with 17 significant digits (round-trip exact for float64)."""
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r") as handle:
            return [line.rstrip("\n") for line in handle]
    except OSError as err:
        raise InputConsistencyError(f"cannot read {path}: {err}") from err


def _parse_float(token: str, path: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise InputConsistencyError(
            f"{path}, line {line_no}: expected a number, got {token!r}"
        ) from None


# ---------------------------------------------------------------- designs


def write_design_csv(path: str, points: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    header = ",".join(f"x{i + 1}" for i in range(points.shape[1]))
    rows = [",".join(fmt(x) for x in row) for row in points]
    atomic_write_text(path, "\n".join([header] + rows) + "\n")


def read_design_csv(path: str) -> np.ndarray:
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines:
        raise InputConsistencyError(f"{path}: empty design file")
    header = lines[0].split(",")
    d = len(header)
    if header != [f"x{i + 1}" for i in range(d)]:
        raise InputConsistencyError(f"{path}, line 1: expected header x1,...,x{d}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != d:
            raise InputConsistencyError(f"{path}, line {i}: expected {d} columns, got {len(cells)}")
        rows.append([_parse_float(c, path, i) for c in cells])
    return np.asarray(rows, dtype=float).reshape(-1, d)


# ---------------------------------------------------------------- curves


def write_curves_csv(path: str, curves: CurveSet) -> None:
    header = ",".join(f"t={fmt(t)}" for t in curves.t_grid)
    rows = [",".join(fmt(x) for x in row) for row in curves.values]
    atomic_write_text(path, "\n".join([header] + rows) + "\n")


def read_curves_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Returns (n x J value matrix, header time grid)."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if len(lines) < 2:
        raise InputConsistencyError(f"{path}: need a header row and at least one curve row")
    cells = lines[0].split(",")
    times = []
    for i, cell in enumerate(cells):
        if not cell.startswith("t="):
            raise InputConsistencyError(f"{path}, line 1: column {i + 1} header must look like t=<value>")
        times.append(_parse_float(cell[2:], path, 1))
    j = len(times)
    values = []
    for no, line in enumerate(lines[1:], start=2):
        row = line.split(",")
        if len(row) != j:
            raise InputConsistencyError(f"{path}, line {no}: expected {j} columns, got {len(row)}")
        values.append([_parse_float(c, path, no) for c in row])
    return np.asarray(values, dtype=float), np.asarray(times, dtype=float)


def read_times_csv(path: str) -> np.ndarray:
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    return np.asarray([_parse_float(ln.strip(), path, i + 1) for i, ln in enumerate(lines)])


def curves_from_arrays(
    values: np.ndarray, times: np.ndarray | None = None, period: float | None = None
) -> tuple[CurveSet, bool]:
    """Build a CurveSet from raw arrays, dropping the last sample if J is even.

    The grid must be equispaced and start at zero; the period is taken as
    J * step when only times are given.  Returns the curve set and a flag
    saying whether a sample was dropped to make J odd.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if times is None and period is None:
        raise InputConsistencyError("either a time grid or a period is required")
    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.shape != (values.shape[1],):
            raise InputConsistencyError(
                f"time grid has {times.size} entries but curves have {values.shape[1]} columns"
            )
        if times[0] != 0.0:
            raise InputConsistencyError("the time grid must start at 0")
        steps = np.diff(times)
        if times.size < 2 or steps.min() <= 0 or np.ptp(steps) > 1e-9 * steps[0]:
            raise InputConsistencyError("the time grid must be strictly increasing and equispaced")
        step = times[1] - times[0]
    else:
        if not period > 0:
            raise InputConsistencyError("period must be positive")
        step = period / values.shape[1]
    dropped = values.shape[1] % 2 == 0
    if dropped:
        values = values[:, :-1]
    j = values.shape[1]
    return CurveSet(values=values, t_grid=step * np.arange(j), period=step * j), dropped


# ---------------------------------------------------------------- parameters and pattern


def write_params_csv(path: str, params: TransformParams) -> None:
    lines = ["curve,alpha,theta,v"]
    for k in range(params.n):
        lines.append(f"{k + 1},{fmt(params.alpha[k])},{fmt(params.theta[k])},{fmt(params.v[k])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_params_csv(path: str) -> TransformParams:
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines or lines[0] != "curve,alpha,theta,v":
        raise InputConsistencyError(f"{path}, line 1: expected header curve,alpha,theta,v")
    alpha, theta, v = [], [], []
    for no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 4:
            raise InputConsistencyError(f"{path}, line {no}: expected 4 columns")
        if int(cells[0]) != no - 1:
            raise InputConsistencyError(f"{path}, line {no}: curve indices must be 1-based and ordered")
        alpha.append(_parse_float(cells[1], path, no))
        theta.append(_parse_float(cells[2], path, no))
        v.append(_parse_float(cells[3], path, no))
    return TransformParams(alpha=np.array(alpha), theta=np.array(theta), v=np.array(v))


def write_pattern_csv(path: str, t_grid: np.ndarray, values: np.ndarray) -> None:
    lines = ["t,f"] + [f"{fmt(t)},{fmt(v)}" for t, v in zip(t_grid, values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- reports


def write_report_csv(path: str, report: ValidationReport, t_grid: np.ndarray) -> None:
    lines = ["step,t,rmse,q2,flag"]
    for j in range(t_grid.shape[0]):
        q2 = report.per_step_q2[j]
        lines.append(
            f"{j + 1},{fmt(t_grid[j])},{fmt(report.per_step_rmse[j])},"
            f"{'nan' if np.isnan(q2) else fmt(q2)},{int(report.flags[j])}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_crossplot_csv(path: str, blocks: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    """Blocks of (method name, true n x J, predicted n x J) flattened long-form."""
    lines = ["true,predicted,method,step"]
    for method, truth, predicted in blocks:
        truth = np.asarray(truth, dtype=float)
        predicted = np.asarray(predicted, dtype=float)
        for i in range(truth.shape[0]):
            for j in range(truth.shape[1]):
                lines.append(f"{fmt(truth[i, j])},{fmt(predicted[i, j])},{method},{j + 1}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- box and config


def read_box_csv(path: str) -> InputBox:
    """Input box from rows of name,min,max (a literal header row is allowed)."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    names, lower, upper = [], [], []
    for no, line in enumerate(lines, start=1):
        cells = [c.strip() for c in line.split(",")]
        if no == 1 and [c.lower() for c in cells] == ["name", "min", "max"]:
            continue
        if len(cells) != 3:
            raise InputConsistencyError(f"{path}, line {no}: expected name,min,max")
        names.append(cells[0])
        lower.append(_parse_float(cells[1], path, no))
        upper.append(_parse_float(cells[2], path, no))
    if not names:
        raise InputConsistencyError(f"{path}: no parameter rows found")
    try:
        return InputBox(lower=np.array(lower), upper=np.array(upper), names=tuple(names))
    except ValueError as err:
        raise InputConsistencyError(f"{path}: {err}") from err


def read_config(path: str, known_keys: set[str]) -> dict:
    """Flat key = value settings; '#' starts a comment, unknown keys fail fast."""
    out = {}
    for no, line in enumerate(_read_lines(path), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputConsistencyError(f"{path}, line {no}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in known_keys:
            raise InputConsistencyError(f"{path}, line {no}: unknown setting {key!r}")
        out[key] = value
    return out


# ---------------------------------------------------------------- JSON models


def _family_to_dict(entry) -> dict:
    if isinstance(entry, GpModel):
        return {"kind": "gp", **gp_model_to_dict(entry)}
    return {"kind": "fixed", "value": float(entry)}


def _family_from_dict(data: dict):
    if data["kind"] == "gp":
        return gp_model_from_dict(data)
    return float(data["value"])


def save_surrogate(path: str, surrogate: FunctionalSurrogate) -> None:
    data = {
        "format": "dynshape-surrogate",
        "version": 1,
        "box": {
            "lower": surrogate.box.lower.tolist(),
            "upper": surrogate.box.upper.tolist(),
            "names": list(surrogate.box.names) if surrogate.box.names else None,
        },
        "t_grid": surrogate.t_grid.tolist(),
        "period": surrogate.period,
        "segments": [
            {
                "start": seg.start,
                "stop": seg.stop,
                "grid_start": seg.grid_start,
                "grid_stop": seg.grid_stop,
                "pattern_values": seg.pattern.values.tolist(),
                "families": {name: _family_to_dict(seg.models[name]) for name in FAMILIES},
            }
            for seg in surrogate.segments
        ],
    }
    atomic_write_text(path, json.dumps(data, indent=1) + "\n")


def load_surrogate(path: str) -> FunctionalSurrogate:
    with open(path, "r") as handle:
        data = json.load(handle)
    if data.get("format") != "dynshape-surrogate":
        raise InputConsistencyError(f"{path}: not a surrogate file")
    box_data = data["box"]
    box = InputBox(
        lower=np.asarray(box_data["lower"], dtype=float),
        upper=np.asarray(box_data["upper"], dtype=float),
        names=tuple(box_data["names"]) if box_data.get("names") else None,
    )
    segments = []
    for seg in data["segments"]:
        segments.append(
            SegmentModel(
                start=int(seg["start"]),
                stop=int(seg["stop"]),
                grid_start=int(seg["grid_start"]),
                grid_stop=int(seg["grid_stop"]),
                pattern=Pattern(values=seg["pattern_values"]),
                models={name: _family_from_dict(seg["families"][name]) for name in FAMILIES},
            )
        )
    return FunctionalSurrogate(
        box=box,
        t_grid=np.asarray(data["t_grid"], dtype=float),
        period=float(data["period"]),
        segments=tuple(segments),
    )
