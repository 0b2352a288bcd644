"""CSV and JSON artifact formats plus atomic file writing.

All numeric CSV output uses 17 significant digits so that export followed by
import reproduces the in-memory doubles exactly.  Numeric readers accept only
finite numbers and name the file, line and column of the first bad cell.
Output files are written to a temporary sibling and renamed into place, so a
failure never leaves a partially written artifact behind.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .doe import InputBox
from .emulator import FAMILIES, FunctionalSurrogate, ValidationReport
from .errors import InputConsistencyError
from .gp import GpModel, gp_model_from_dict, gp_model_to_dict
from .registration import CurveSet, Pattern, TransformParams

__all__ = [
    "fmt",
    "atomic_write_text",
    "write_table",
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


def write_table(path: str, header: str, rows) -> None:
    """A header line plus one line of comma-joined :func:`fmt` cells per row."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[-1])
    lines = [header] + [line % tuple(row.tolist()) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(1-based line number, text) for every non-blank line of the file."""
    try:
        with open(path, "r") as handle:
            return [(no, line.rstrip("\n")) for no, line in enumerate(handle, start=1) if line.strip()]
    except OSError as err:
        raise InputConsistencyError(f"cannot read {path}: {err}") from err


def _read_numbers(path: str, lines: list[tuple[int, str]], width: int, skip: int = 0) -> np.ndarray:
    """Rows of ``width`` cells, all but the first ``skip`` finite numbers.

    Errors name the file, the line and the column.
    """
    values = np.empty((len(lines), width - skip))
    for row, (no, line) in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            raise InputConsistencyError(f"{path}, line {no}: expected {width} columns, got {len(cells)}")
        try:
            values[row] = [float(c) for c in cells[skip:]]
        except ValueError:
            for col, cell in enumerate(cells[skip:], start=skip + 1):
                try:
                    float(cell)
                except ValueError:
                    raise InputConsistencyError(
                        f"{path}, line {no}, column {col}: expected a number, got {cell!r}"
                    ) from None
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise InputConsistencyError(
            f"{path}, line {lines[row][0]}, column {col + skip + 1}: non-finite value {values[row, col]}"
        )
    return values


# ---------------------------------------------------------------- designs


def write_design_csv(path: str, points: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    write_table(path, ",".join(f"x{i + 1}" for i in range(points.shape[1])), points)


def read_design_csv(path: str) -> np.ndarray:
    lines = _read_lines(path)
    if not lines:
        raise InputConsistencyError(f"{path}: empty design file")
    no, header = lines[0]
    names = header.split(",")
    if names != [f"x{i + 1}" for i in range(len(names))]:
        raise InputConsistencyError(f"{path}, line {no}: expected header x1,...,x{len(names)}")
    return _read_numbers(path, lines[1:], len(names))


# ---------------------------------------------------------------- curves


def write_curves_csv(path: str, curves: CurveSet) -> None:
    write_table(path, ",".join(f"t={fmt(t)}" for t in curves.t_grid), curves.values)


def read_curves_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Returns (n x J value matrix, header time grid)."""
    lines = _read_lines(path)
    if len(lines) < 2:
        raise InputConsistencyError(f"{path}: need a header row and at least one curve row")
    no, header = lines[0]
    cells = header.split(",")
    for i, cell in enumerate(cells):
        if not cell.startswith("t="):
            raise InputConsistencyError(f"{path}, line {no}: column {i + 1} header must look like t=<value>")
    times = _read_numbers(path, [(no, ",".join(c[2:] for c in cells))], len(cells))[0]
    return _read_numbers(path, lines[1:], len(cells)), times


def read_times_csv(path: str) -> np.ndarray:
    return _read_numbers(path, _read_lines(path), 1)[:, 0]


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
    index = np.arange(1, params.n + 1)
    write_table(path, "curve,alpha,theta,v", np.column_stack([index, params.alpha, params.theta, params.v]))


def read_params_csv(path: str) -> TransformParams:
    lines = _read_lines(path)
    if not lines or lines[0][1] != "curve,alpha,theta,v":
        raise InputConsistencyError(f"{path}: expected the header curve,alpha,theta,v")
    table = _read_numbers(path, lines[1:], 4)
    misplaced = np.nonzero(table[:, 0] != np.arange(1, table.shape[0] + 1))[0]
    if misplaced.size:
        raise InputConsistencyError(
            f"{path}, line {lines[1 + misplaced[0]][0]}: curve indices must be 1-based and ordered"
        )
    alpha, theta, v = table[:, 1:].T.copy()
    return TransformParams(alpha=alpha, theta=theta, v=v)


def write_pattern_csv(path: str, t_grid: np.ndarray, values: np.ndarray) -> None:
    write_table(path, "t,f", np.column_stack([t_grid, values]))


# ---------------------------------------------------------------- reports


def write_report_csv(path: str, report: ValidationReport, t_grid: np.ndarray) -> None:
    steps = np.arange(1, t_grid.shape[0] + 1)
    write_table(path, "step,t,rmse,q2,flag", np.column_stack(
        [steps, t_grid, report.per_step_rmse, report.per_step_q2, report.flags]
    ))


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
    lines = _read_lines(path)
    if lines and [c.strip().lower() for c in lines[0][1].split(",")] == ["name", "min", "max"]:
        lines = lines[1:]
    if not lines:
        raise InputConsistencyError(f"{path}: no parameter rows found")
    lower, upper = _read_numbers(path, lines, 3, skip=1).T.copy()
    names = tuple(line.split(",", 1)[0].strip() for _, line in lines)
    try:
        return InputBox(lower=lower, upper=upper, names=names)
    except ValueError as err:
        raise InputConsistencyError(f"{path}: {err}") from err


def read_config(path: str, known_keys: set[str]) -> dict:
    """Flat key = value settings; '#' starts a comment, unknown keys fail fast."""
    out = {}
    for no, line in _read_lines(path):
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
        "version": 2,
        "box": {
            "lower": surrogate.box.lower.tolist(),
            "upper": surrogate.box.upper.tolist(),
            "names": list(surrogate.box.names) if surrogate.box.names else None,
        },
        "t_grid": surrogate.t_grid.tolist(),
        "period": surrogate.period,
        # a list of fitted time ranges; this version writes and reads one, the whole grid
        "segments": [
            {
                "start": 0,
                "stop": surrogate.j,
                "grid_start": 0,
                "grid_stop": surrogate.j,
                "pattern_values": surrogate.pattern.values.tolist(),
                "families": {name: _family_to_dict(surrogate.models[name]) for name in FAMILIES},
            }
        ],
    }
    atomic_write_text(path, json.dumps(data, indent=1) + "\n")


def load_surrogate(path: str) -> FunctionalSurrogate:
    """Surrogate saved by :func:`save_surrogate`; its GPs need no factorization.

    A missing, unreadable or malformed file, one of another format or
    version (1 is from an older dynshape), one that holds more than one
    fitted time range, one whose pattern does not span its ``t_grid``, or
    one whose GP families hold different designs raises
    :class:`InputConsistencyError` naming the path.
    """
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
        if (data.get("format"), data.get("version")) == ("dynshape-surrogate", 1):
            raise ValueError("written by an older dynshape; refit it")
        if (data.get("format"), data.get("version")) != ("dynshape-surrogate", 2):
            raise ValueError("not a dynshape-surrogate version 2 file")
        box_data = data["box"]
        box = InputBox(
            lower=np.asarray(box_data["lower"], dtype=float),
            upper=np.asarray(box_data["upper"], dtype=float),
            names=tuple(box_data["names"]) if box_data.get("names") else None,
        )
        t_grid = np.asarray(data["t_grid"], dtype=float)
        j = len(t_grid)
        fits = data["segments"]
        if len(fits) != 1:
            raise ValueError(f"holds {len(fits)} fitted time ranges, not one; refit it")
        fit = fits[0]
        span = [fit[key] for key in ("start", "stop", "grid_start", "grid_stop")]
        pattern = Pattern(values=fit["pattern_values"])
        if span != [0, j, 0, j] or pattern.values.shape != (j,):
            raise ValueError("the pattern does not span its time grid")
        return FunctionalSurrogate(
            box=box,
            t_grid=t_grid,
            period=float(data["period"]),
            pattern=pattern,
            models={name: _family_from_dict(fit["families"][name]) for name in FAMILIES},
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        raise InputConsistencyError(f"{path}: cannot load surrogate: {type(err).__name__}: {err}") from err
