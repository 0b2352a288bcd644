"""The traced run must be harmless: at a small size, CLI artifacts written
under tracing are byte-identical to those of the plain ``dynshape`` command,
and every wrapped function is back in place afterwards.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = [
    ("design", ["design", "--n", "8", "--box", "box.csv", "--seed", "3",
                "--maximin-restarts", "2", "--out", "design.csv"]),
    ("synth", ["synth", "co2", "--design", "design.csv", "--j", "15",
               "--curves-out", "curves.csv"]),
    ("fit", ["fit", "--design", "design.csv", "--curves", "curves.csv", "--gp-multistarts", "2",
             "--surrogate-out", "surrogate.json", "--params-out", "params.csv",
             "--pattern-out", "pattern.csv", "--diagnostics-out", "diagnostics.txt"]),
    ("design", ["design", "--n", "5", "--box", "box.csv", "--seed", "4",
                "--maximin-restarts", "0", "--out", "test_design.csv"]),
    ("predict", ["predict", "--surrogate", "surrogate.json", "--points", "test_design.csv",
                 "--out", "predicted.csv"]),
    ("synth", ["synth", "co2", "--design", "test_design.csv", "--j", "15",
               "--curves-out", "test_curves.csv"]),
    ("validate", ["validate", "--surrogate", "surrogate.json", "--test-design",
                  "test_design.csv", "--test-curves", "test_curves.csv",
                  "--report-out", "report.csv"]),
]


def _originals():
    return {(m, f): getattr(sys.modules[f"dynshape.{m}"], f)
            for m, names in tracing.TARGETS.items() for f in names}


def test_traced_cli_artifacts_match_plain_cli_and_wrappers_are_restored(tmp_path):
    plain = wl.desk_folder(str(tmp_path), "plain")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for _, argv in SMALL:
        subprocess.run([sys.executable, "-m", "dynshape.cli", *argv], cwd=plain, env=env,
                       check=True, capture_output=True)

    before = _originals()
    traced = wl.desk_folder(str(tmp_path), "traced")
    tracer = tracing.Tracer()
    with tracer:
        assert worker.cli.train is not before[("emulator", "train")]
        _, failed = worker.desk_pass(traced, SMALL, tracer)
    assert failed == []

    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(traced))
    for name in names:
        with open(os.path.join(plain, name), "rb") as a, open(os.path.join(traced, name), "rb") as b:
            assert a.read() == b.read(), name

    assert tracing.leftover_wrappers() == []
    assert _originals() == before
    assert worker.cli.maximin_lhd is before[("doe", "maximin_lhd")]
    assert worker.cli.train is before[("emulator", "train")]
    assert worker.emulator.fit_gp is before[("gp", "fit_gp")]

    layer = tracer.metrics()
    for name in ("doe.maximin_lhd.calls", "gp.fit_gp.calls", "gp.build_correlation.calls",
                 "registration.contrast_with_gradient.calls", "gp.predict_many.calls"):
        assert layer[name] > 0, name
    assert layer["gp.evals_per_fit"] > 1
    assert layer["fileio.bytes_written"] == sum(
        os.path.getsize(os.path.join(traced, n)) for n in names if n != "box.csv")
    assert {name for name, _, _ in tracing.PER_LAYER} >= set(layer)


def test_benchmark_json_lists_what_the_benchmark_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
