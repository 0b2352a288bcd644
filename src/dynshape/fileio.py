"""CSV and JSON artifact formats plus atomic file writing.

All numeric CSV output uses 17 significant digits so that export followed by
import reproduces the in-memory doubles exactly: tables through one vectorised
formatter identical to ``"%.17g"`` (which it falls back to cell by cell), scalars
through :func:`fmt`.  Numeric readers accept only finite numbers and name the
file, line and column of the first bad cell.
Output files are written to a temporary sibling and renamed into place, so a
failure never leaves a partially written artifact behind.
"""
from __future__ import annotations

import functools
import json
import math
import os
import tempfile

import numpy as np

from .doe import InputBox
from .emulator import FAMILIES, FunctionalSurrogate
from .errors import InputConsistencyError
from .gp import GpModel, assemble_gp_model
from .registration import CurveSet, Pattern, TransformParams

__all__ = [
    "fmt",
    "atomic_write_text",
    "write_table",
    "write_design_csv",
    "read_design_csv",
    "write_curves_csv",
    "read_curves_csv",
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
    """Write via a temporary file in the same directory plus rename; an OSError (a
    missing directory, a path that is a directory) raises InputConsistencyError."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w") as handle:
                for start in range(0, len(text), 1 << 20):  # encodes 1 MB at a time, not a copy of all
                    handle.write(text[start : start + (1 << 20)])
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise InputConsistencyError(f"cannot write {path}: {err.strerror or err}") from err


def write_table(path: str, header: str, rows) -> None:
    """A header line plus one line of comma-joined :func:`fmt` cells per row."""
    rows = np.asarray(rows, dtype=float)
    cells, width = rows.ravel(), rows.shape[-1]
    cell_text = _cell_formatter()
    pieces = [header + "\n"]
    for start in range(0, cells.size, _CHUNK):
        x = cells[start : start + _CHUNK]
        pieces.append(cell_text(x, np.arange(start + 1, start + 1 + x.size) % width == 0).decode("ascii"))
    body = "".join(pieces)
    del pieces  # so that one copy of the text is alive while it is written
    atomic_write_text(path, body)


_CHUNK = 4096  # cells per vectorised pass: bounds its temporaries at about 1 MB


def _pow10(e: int) -> tuple[float, float, float, float]:
    """10**e as hi + lo, built exactly from Python ints, plus hi's two 26-bit halves (Dekker's split)."""
    num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
    hi = num / den  # int / int rounds correctly
    a, b = hi.as_integer_ratio()
    top = 134217729.0 * hi
    top -= top - hi
    return hi, (num * b - a * den) / (den * b), top, hi - top


@functools.cache
def _cell_formatter() -> "_CellFormatter":
    return _CellFormatter()


class _CellFormatter:
    """``"%.17g" % x`` for whole arrays of cells, byte for byte.

    A finite |x| in [1e-280, 1e280] with decimal exponent k (10**k <= |x| <
    10**(k+1), decided exactly against 10**k as hi + lo) is scaled by
    10**(16-k) as a double-double product (Dekker) and rounded to its 17-digit
    integer.  Each cell then gets a 48-byte slot, written as six 64-bit
    words: the sign (byte 0), the "0.000" prefix (1-5), the 17 digits (6, 8,
    ..., 38) with a gap after each of the first 16 that may take the point,
    "e" (39), the exponent's sign and 3 digits (40-43) and the separator
    (44).  Bytes a cell does not use stay zero and are deleted at the end.
    Zeros take the same path; non-finite cells, cells outside that range and
    cells within 1e-6 of a rounding tie are formatted one by one.  One
    formatter serves a process (:func:`_cell_formatter`): the digit tables are
    built for the first table written, and each power of ten the first time a
    table holds its exponent.
    """

    def __init__(self):
        v = np.arange(10000, dtype=np.int64)
        spaced = np.zeros((10000, 8), np.uint8)  # the 4 digits of v, every other byte
        for place, power in enumerate((1000, 100, 10, 1)):
            spaced[:, 2 * place] = v // power % 10 + 48
        self.spaced = spaced.view("<i8").ravel()
        self.upto = np.array([0, 0xFF, 0xFF00FF, 0xFF00FF00FF, 0xFF00FF00FF00FF], np.int64)
        # the mask of v's digits up to its last nonzero one
        self.trim = self.upto[(4 - (v % 10 == 0) - (v % 100 == 0) - (v % 1000 == 0)) * (v != 0)]
        # [g, w]: the mask of group g's digits that lie before the point when w digits do
        self.integer = self.upto[np.clip(np.arange(18) - 1 - 4 * np.arange(4)[:, None], 0, 4)]
        self.powers = {}

    def __call__(self, x: np.ndarray, line_end: np.ndarray) -> bytes:
        """The cells' text, each followed by a newline where ``line_end`` and a comma elsewhere."""
        n, ax = x.size, np.abs(x)
        zero = ax == 0.0
        fast = (ax >= 1e-280) & (ax <= 1e280)
        y = np.where(fast, ax, 1.0)
        k = np.floor(np.log10(y)).astype(np.int64)  # within one of the exact exponent
        low, high = min(int(k.min()), 15 - int(k.max())), max(int(k.max()) + 1, 17 - int(k.min()))
        for e in range(low, high + 1):
            if e not in self.powers:
                self.powers[e] = _pow10(e)
        hi, lo, hi1, hi2 = np.array([self.powers[e] for e in range(low, high + 1)]).T.copy()

        def at_least(e):  # y >= 10**e
            i = e - low
            return (y > hi[i]) | ((y == hi[i]) & (lo[i] <= 0.0))

        k += at_least(k) & at_least(k + 1)
        k -= ~at_least(k)
        i = 16 - k - low
        p = y * hi[i]  # an integer >= 2**53: the rounding error goes to rest
        y1 = 134217729.0 * y
        y1 -= y1 - y
        y2 = y - y1
        rest = ((y1 * hi1[i] - p) + y1 * hi2[i] + y2 * hi1[i]) + y2 * hi2[i] + y * lo[i]
        slow = ~(fast | zero) | (np.abs(rest - np.floor(rest) - 0.5) < 1e-6)
        d = np.where(zero, 0, p.astype(np.int64) + np.rint(rest).astype(np.int64))
        up = d == 10**17
        d[up], k[up] = 10**16, k[up] + 1
        k[zero] = 0

        fixed = (k >= -4) & (k <= 16)
        whole = np.where(fixed, np.maximum(k + 1, 0), 1)  # digits before the point
        slot = np.zeros((n, 48), np.uint8)
        words = slot.view("<i8")  # ASCII bytes only: every word is positive
        lead = (fixed & (k < 0)) * (1 - k)  # "0." and the zeros after it
        prefix = np.array([0, 0, 0x2E3000, 0x302E3000, 0x30302E3000, 0x3030302E3000], np.int64)
        first = d // 10**16
        words[:, 0] = np.signbit(x) * ord("-") | prefix[lead] | (first + 48) << 48
        upper, lower = (d - first * 10**16) // 10**8, d % 10**8
        groups = [upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4]
        tail = np.ones(n, bool)  # every later digit is zero, so trailing zeros past the point go
        for g in (3, 2, 1, 0):
            keep = np.where(tail, self.trim[groups[g]] | self.integer[g][whole], -1)
            words[:, g + 1] = self.spaced[groups[g]] & keep
            tail &= groups[g] == 0
        e_form = ~fixed
        words[:, 4] |= e_form * (ord("e") << 56)
        size = np.abs(k)  # at most 281: three digits, the first dropped below 100
        exponent = (size // 100 + 48) * (size >= 100) | (size // 10 % 10 + 48) << 8 | (size % 10 + 48) << 16
        sign = np.where(k < 0, ord("-"), ord("+"))
        words[:, 5] = e_form * (sign | exponent << 8) | np.where(line_end, ord("\n"), ord(",")) << 32
        point = np.flatnonzero((whole > 0) & (d % 10 ** (17 - whole) != 0))  # digits after the point
        slot[point, 5 + 2 * whole[point]] = ord(".")
        for i in np.flatnonzero(slow).tolist():
            text = fmt(x[i]).encode()
            slot[i, :44] = 0
            slot[i, : len(text)] = np.frombuffer(text, np.uint8)
        return slot.tobytes().translate(None, b"\0")


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(1-based line number, text) for every non-blank line of the file; text that
    is not UTF-8 raises :class:`InputConsistencyError` naming the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [(no, line.rstrip("\n")) for no, line in enumerate(handle, start=1) if line.strip()]
    except OSError as err:
        raise InputConsistencyError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError:
        with open(path, "rb") as handle:  # bytes.splitlines splits lines where text mode does
            for no, line in enumerate(handle.read().splitlines(), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as err:
                    raise InputConsistencyError(f"{path}, line {no}: not UTF-8 at byte {err.start + 1}") from None
        raise


def _read_numbers(path: str, lines: list[tuple[int, str]], width: int, skip: int = 0) -> np.ndarray:
    """Rows of ``width`` cells, all but the first ``skip`` finite numbers.

    Errors name the file, the line and the column.  Without label columns the
    rows go through ``np.loadtxt`` first; a parse error, a wrong shape or a
    non-finite value falls through to the per-cell reader, which names them.
    """
    if skip == 0 and lines:
        try:
            values = np.loadtxt([line for _, line in lines], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(lines), width) and np.isfinite(values).all():
                return values
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


def curves_from_arrays(values: np.ndarray, times: np.ndarray) -> tuple[CurveSet, bool]:
    """CurveSet on the grid ``times`` (a curves file's ``t=`` header), and whether
    the last sample was dropped to make J odd.

    The grid must be equispaced from 0; the period is J * step.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
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
    if not table.size:
        raise InputConsistencyError(f"{path}: no parameter rows found")
    alpha, theta, v = table[:, 1:].T.copy()
    bad = np.flatnonzero(alpha <= 0.0)
    if bad.size:
        raise InputConsistencyError(f"{path}, line {lines[1 + bad[0]][0]}: alpha must be positive")
    try:
        return TransformParams(alpha=alpha, theta=theta, v=v)
    except ValueError as err:  # the reference row is not (1, 0, 0)
        raise InputConsistencyError(f"{path}, line {lines[1][0]}: {err}") from None


def write_pattern_csv(path: str, t_grid: np.ndarray, values: np.ndarray) -> None:
    write_table(path, "t,f", np.column_stack([t_grid, values]))


# ---------------------------------------------------------------- reports


def write_report_csv(path: str, t_grid: np.ndarray, reports: dict) -> None:
    """Columns step, t, then rmse, q2 and flag of each ``ValidationReport``, their
    names ending in its key: ``{"": report}`` gives ``step,t,rmse,q2,flag``."""
    names = [f"{column}{suffix}" for suffix in reports for column in ("rmse", "q2", "flag")]
    columns = [c for r in reports.values() for c in (r.per_step_rmse, r.per_step_q2, r.flags)]
    write_table(path, ",".join(["step", "t", *names]),
                np.column_stack([np.arange(1, t_grid.shape[0] + 1), t_grid, *columns]))


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
    """Flat key = value settings; '#' starts a comment, unknown or repeated keys fail fast."""
    out, first_line = {}, {}
    for no, line in _read_lines(path):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputConsistencyError(f"{path}, line {no}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in known_keys:
            raise InputConsistencyError(f"{path}, line {no}: unknown setting {key!r}")
        if key in first_line:
            raise InputConsistencyError(f"{path}, line {no}: {key} is already set on line "
                                        f"{first_line[key]}")
        out[key], first_line[key] = value, no
    return out


# ---------------------------------------------------------------- JSON models


# a GP family's keys: GpModel's init fields, which rebuild the family on load; the
# nugget saved is the model's used_nugget, so K factors at the nugget it did before
_GP_KEYS = ("design", "responses", "lengths", "nugget")


def _family_to_dict(entry) -> dict:
    if isinstance(entry, GpModel):
        return {"kind": "gp", "design": entry.design.tolist(), "responses": entry.responses.tolist(),
                "lengths": entry.lengths.tolist(), "nugget": entry.used_nugget}
    return {"kind": "fixed", "value": float(entry)}


def _family_from_dict(data: dict):
    if data["kind"] == "gp":
        return assemble_gp_model(**{key: data[key] for key in _GP_KEYS})
    if data["kind"] == "fixed":
        return float(data["value"])
    raise ValueError(f"unknown family kind {data['kind']!r}")


def save_surrogate(path: str, surrogate: FunctionalSurrogate) -> None:
    data = {
        "format": "dynshape-surrogate",
        "version": 3,
        "box": {
            "lower": surrogate.box.lower.tolist(),
            "upper": surrogate.box.upper.tolist(),
            "names": list(surrogate.box.names) if surrogate.box.names else None,
        },
        "t_grid": surrogate.t_grid.tolist(),
        "period": surrogate.period,
        "pattern_values": surrogate.pattern.values.tolist(),
        "families": {name: _family_to_dict(surrogate.models[name]) for name in FAMILIES},
    }
    atomic_write_text(path, json.dumps(data, indent=1) + "\n")


def _finite_number(text: str) -> float:
    """A JSON number or constant (NaN, Infinity) as a float; ValueError unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _reject_bools(value, where: str = "") -> None:
    """Raise ValueError naming the first JSON true or false (to json, the ints 1 and 0)
    in a parsed document, as "families.theta.lengths[1]"."""
    if isinstance(value, bool):
        raise ValueError(f"{where[1:]} is true or false, not a number")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _reject_bools(item, f"{where}.{key}" if isinstance(value, dict) else f"{where}[{key}]")


def load_surrogate(path: str) -> FunctionalSurrogate:
    """Surrogate saved by :func:`save_surrogate`, version 3 or 2; each GP family is
    rebuilt as a :class:`GpModel` from its four saved fields, which factors its K once.

    A version 2 file holds its pattern and families in a one-entry ``segments``
    list, and its saved beta, sigma2 and kriging weights are recomputed, not read.
    A missing, unreadable or malformed file, one of another format or
    version (1 is from an older dynshape), one holding NaN, Infinity, 1e999 or a
    true or false, a version 2 file with more than one fitted time range, one with a
    pattern off its ``t_grid``, a negative nugget or a family kind not "gp" or
    "fixed", or one whose GP families hold different designs raises
    :class:`InputConsistencyError` naming the path.
    """
    try:
        with open(path, "r") as handle:
            data = json.load(handle, parse_float=_finite_number, parse_constant=_finite_number)
        kind = (data.get("format"), data.get("version"))
        if kind == ("dynshape-surrogate", 1) and kind[1] is not True:  # json's true == 1
            raise ValueError("written by an older dynshape; refit it")
        if kind not in (("dynshape-surrogate", 3), ("dynshape-surrogate", 2)):
            raise ValueError("not a dynshape-surrogate version 3 or 2 file")
        fit = data
        if kind[1] == 2:  # the one fitted time range of a version 2 file
            fits = data["segments"]
            if len(fits) != 1:
                raise ValueError(f"holds {len(fits)} fitted time ranges, not one; refit it")
            fit = fits[0]
        if np.shape(fit["pattern_values"]) != (len(data["t_grid"]),):
            raise ValueError("the pattern does not span its time grid")
        _reject_bools(data)
        box_data = data["box"]
        box = InputBox(
            lower=np.asarray(box_data["lower"], dtype=float),
            upper=np.asarray(box_data["upper"], dtype=float),
            names=tuple(box_data["names"]) if box_data.get("names") else None,
        )
        return FunctionalSurrogate(
            box=box,
            t_grid=np.asarray(data["t_grid"], dtype=float),
            period=float(data["period"]),
            pattern=Pattern(values=fit["pattern_values"]),
            models={name: _family_from_dict(fit["families"][name]) for name in FAMILIES},
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError) as err:
        raise InputConsistencyError(f"{path}: cannot load surrogate: {type(err).__name__}: {err}") from err
