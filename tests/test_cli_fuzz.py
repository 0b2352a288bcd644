"""Malformed-input fuzz of the CLI, on the README quick start at 12 x 21.

For each command and each file it reads, one drawn mutation of that file:
truncate it, delete or insert a byte, swap the delimiter, put a non-finite or
non-UTF-8 token in, duplicate a row, or (in a surrogate file) give a JSON
value another type.  The command runs in process through ``cli.main`` and
must exit 0, 3 or 4 with no exception escaping, and an exit 3 names the
mutated file.  An exit 4 is a numerical failure of input that parsed: it has
no file or line to name.
"""
import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dynshape.cli import main

BOX_TEXT = "PORO,0.15,0.35\nKSAND,10,300\nKRSAND,0.5,1.0\n"
CONFIG_TEXT = "block_size = 4\ngp_multistarts = 1\n"

# each command's argv; an argument naming an input file is that file's name,
# and one starting OUT names an output in the example's own directory
COMMANDS = {
    "design": ["design", "--n", "6", "--box", "box.csv", "--maximin-restarts", "2",
               "--out", "OUT"],
    "synth": ["synth", "co2", "--design", "design.csv", "--box", "box.csv", "--j", "21",
              "--curves-out", "OUT"],
    "fit": ["fit", "--design", "design.csv", "--curves", "curves.csv", "--config", "run.cfg",
            "--surrogate-out", "OUT"],
    "align": ["align", "--curves", "curves.csv", "--params", "params.csv", "--out", "OUT"],
    "predict": ["predict", "--surrogate", "surrogate.json", "--points", "test_design.csv",
                "--out", "OUT"],
    "validate": ["validate", "--surrogate", "surrogate.json", "--test-design", "test_design.csv",
                 "--test-curves", "test_curves.csv", "--report-out", "OUT"],
    "bench": ["bench", "--design", "design.csv", "--curves", "curves.csv",
              "--test-design", "test_design.csv", "--test-curves", "test_curves.csv",
              "--config", "run.cfg", "--report-out", "OUT", "--timings-out", "OUT2"],
}
INPUTS = ("box.csv", "design.csv", "curves.csv", "run.cfg", "params.csv", "surrogate.json",
          "test_design.csv", "test_curves.csv")
CASES = [(command, arg) for command, argv in COMMANDS.items() for arg in argv if arg in INPUTS]

NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?")
NON_FINITE = [b"nan", b"inf", b"-inf", b"NaN", b"Infinity", b"1e400"]
NON_UTF8 = [b"\xff", b"\xe9", b"\xc3(", b"\x80"]
JSON_VALUES = [0, -1.5, True, None, "text", [], {}, [1.0]]


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The directory holding every input file of COMMANDS, made by the CLI itself."""
    root = tmp_path_factory.mktemp("quick_start")
    (root / "box.csv").write_text(BOX_TEXT)
    (root / "run.cfg").write_text(CONFIG_TEXT)
    path = {name: str(root / name) for name in INPUTS}
    for argv in [
        ["design", "--n", "12", "--box", path["box.csv"], "--seed", "0",
         "--maximin-restarts", "5", "--out", path["design.csv"]],
        ["synth", "co2", "--design", path["design.csv"], "--j", "21",
         "--curves-out", path["curves.csv"]],
        ["fit", "--design", path["design.csv"], "--curves", path["curves.csv"],
         "--config", path["run.cfg"], "--surrogate-out", path["surrogate.json"],
         "--params-out", path["params.csv"]],
        ["design", "--n", "6", "--box", path["box.csv"], "--seed", "9",
         "--maximin-restarts", "0", "--out", path["test_design.csv"]],
        ["synth", "co2", "--design", path["test_design.csv"], "--j", "21",
         "--curves-out", path["test_curves.csv"]],
    ]:
        assert main(argv) == 0, argv
    return root


def json_paths(value, path=()):
    """The key or index path of every value nested in a parsed JSON document."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_paths(item, path + (key,))


def mutate(raw: bytes, name: str, data) -> bytes:
    kinds = ["truncate", "delete", "insert", "delimiter", "non-finite", "non-utf8", "duplicate-row"]
    if name.endswith(".json"):
        kinds.append("json-type")
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "json-type":
        doc = json.loads(raw)
        *keys, last = data.draw(st.sampled_from(list(json_paths(doc))[1:]), label="path")
        holder = doc
        for key in keys:
            holder = holder[key]
        holder[last] = data.draw(st.sampled_from(JSON_VALUES), label="value")
        return json.dumps(doc, indent=1).encode()
    if kind == "delimiter":
        return raw.replace(b",", data.draw(st.sampled_from([b";", b"\t", b" "]), label="delimiter"))
    if kind == "non-finite":
        cell = data.draw(st.sampled_from(list(NUMBER.finditer(raw))), label="cell")
        token = data.draw(st.sampled_from(NON_FINITE), label="token")
        return raw[:cell.start()] + token + raw[cell.end():]
    if kind == "duplicate-row":
        lines = raw.splitlines(keepends=True)
        at = data.draw(st.integers(0, len(lines) - 1), label="row")
        return b"".join(lines[:at + 1] + lines[at:])
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    if kind == "truncate":
        return raw[:at]
    if kind == "delete":
        return raw[:at] + raw[at + 1:]
    token = (bytes([data.draw(st.integers(0, 255), label="byte")]) if kind == "insert"
             else data.draw(st.sampled_from(NON_UTF8), label="token"))
    return raw[:at] + token + raw[at:]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), data=st.data())
def test_mutated_input_exits_cleanly(quick_start, case, data):
    command, name = case
    with tempfile.TemporaryDirectory() as work:
        mutated = os.path.join(work, name)
        with open(mutated, "wb") as handle:
            handle.write(mutate((quick_start / name).read_bytes(), name, data))
        argv = [mutated if arg == name else str(quick_start / arg) if arg in INPUTS
                else os.path.join(work, arg) if arg.startswith("OUT") else arg
                for arg in COMMANDS[command]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 3, 4), err.getvalue()
    if code == 3:
        assert mutated in err.getvalue()
