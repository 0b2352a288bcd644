import importlib
import importlib.util
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import types
from collections import Counter

import numpy as np
import pytest

import dynshape

MODULES = sorted(info.name for info in pkgutil.iter_modules(dynshape.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"dynshape.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"dynshape.{name}.__all__ names missing attributes: {missing}"


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_perfbench(name):
    """The benchmark's ``perfbench/<name>.py``, loaded from this checkout."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer looks up each (module, function) it wraps by name
    # when it installs, so renaming or deleting one breaks every traced run
    tracer = load_perfbench("tracer")
    missing = [f"dynshape.{module}.{name}" for module, names in tracer.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"dynshape.{module}"), name, None))]
    assert not missing, f"traced names missing: {missing}"


def test_benchmark_counters_read_real_results(tmp_path):
    # each counter the tracer takes from a call's arguments or result, fed the
    # real call, so a change to a field or argument it reads fails here
    from dynshape import fileio, gp, registration
    from dynshape.synth import generate_analytical

    tracer = load_perfbench("tracer")
    curves, _ = generate_analytical(4, 21, 0.0, seed=3)
    duplicated = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.5]])
    # two models, so that an m x k result and its transpose differ in length
    stack = gp.stack_models([gp.assemble_gp_model(duplicated[1:], np.array([1.0, y]), np.ones(2))
                             for y in (2.0, 3.0)])
    text = "x\n0.5\n"
    calls = {  # name: (function, positional arguments)
        "registration.estimate_params": (registration.estimate_params, (curves,)),
        "gp.build_correlation": (gp.build_correlation, (duplicated, np.ones(2), 0.0)),
        "fileio.atomic_write_text": (fileio.atomic_write_text, (str(tmp_path / "t.csv"), text)),
        "gp.predict_many": (gp.predict_many, (stack, np.zeros((5, 2)))),
    }
    assert set(calls) == set(tracer._AFTER)
    counts = Counter()
    results = {}
    for name, (fn, args) in calls.items():
        results[name] = fn(*args)
        tracer._AFTER[name](counts, args, {}, results[name])
    diag = results["registration.estimate_params"][1]
    assert counts["registration.nfev"] == diag.nfev > 0
    assert counts["registration.nit"] == diag.iterations > 0
    assert counts["registration.starts"] == counts["registration.starts_usable"] == 1
    assert counts["gp.nugget_escalations"] == 1  # the repeated row needs a nugget above 0
    assert counts["fileio.bytes_written"] == (tmp_path / "t.csv").stat().st_size == len(text)
    assert counts["gp.predict_many.points"] == 5


SCIPY_LOADED = "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"


def run_fresh(code, *args):
    """stdout of ``code`` run in a fresh interpreter that imports this dynshape."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dynshape.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_cli_import_leaves_optimizer_and_spatial_unloaded(tmp_path):
    # design, synth, predict, validate and align never fit, so importing the
    # CLI must not pay for any part of scipy (optimize, spatial, linalg, ...)
    assert run_fresh("import sys, dynshape.cli; " + SCIPY_LOADED) == "[]"
    # nor for exact arithmetic: the CSV writer builds its powers of ten from ints
    code = ("import sys, dynshape.cli\n"
            "dynshape.cli.fileio.write_table(sys.argv[1], 'x', [[0.1, 1e-300]])\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'fractions', 'decimal', '_decimal'}))")
    assert run_fresh(code, str(tmp_path / "t.csv")) == "[]"


def test_load_and_predict_leave_scipy_unloaded(tmp_path):
    from dynshape import fileio
    from dynshape.doe import lhd_sample, scale_to_box
    from dynshape.emulator import TrainConfig, train
    from dynshape.gp import FitConfig
    from dynshape.synth import co2_default_box, co2_style_spec, generate_functional_sim

    box = co2_default_box()
    design = scale_to_box(lhd_sample(8, 3, seed=1), box)
    curves = generate_functional_sim(co2_style_spec(j=21), design)
    path = str(tmp_path / "surrogate.json")
    fileio.save_surrogate(path, train(design, curves, TrainConfig(gp=FitConfig(multistarts=2)),
                                      box=box))
    code = ("import sys, numpy as np\n"
            "from dynshape import emulator, fileio\n"
            "s = fileio.load_surrogate(sys.argv[1])\n"
            "values, _ = emulator.predict_curves(s, s.box.lower + 0.5 * s.box.span * np.ones((3, 1)))\n"
            "emulator.predict_curve(s, s.box.lower)\n"
            "assert np.isfinite(values).all()\n" + SCIPY_LOADED)
    assert run_fresh(code, path) == "[]"


def test_train_and_fit_leave_scipy_unloaded(tmp_path):
    (tmp_path / "box.csv").write_text("PORO,0.15,0.35\nKSAND,10,300\nKRSAND,0.5,1.0\n")
    code = ("import os, sys\n"
            "from dynshape import cli\n"
            "from dynshape.doe import lhd_sample, scale_to_box\n"
            "from dynshape.emulator import TrainConfig, train\n"
            "from dynshape.gp import FitConfig\n"
            "from dynshape.synth import co2_default_box, co2_style_spec, generate_functional_sim\n"
            "box = co2_default_box()\n"
            "design = scale_to_box(lhd_sample(8, 3, seed=1), box)\n"
            "curves = generate_functional_sim(co2_style_spec(j=21), design)\n"
            "train(design, curves, TrainConfig(gp=FitConfig(multistarts=2)), box=box)\n"
            "os.chdir(sys.argv[1])\n"
            "for argv in (['design', '--n', '8', '--box', 'box.csv', '--seed', '1',\n"
            "              '--maximin-restarts', '2', '--out', 'design.csv'],\n"
            "             ['synth', 'co2', '--design', 'design.csv', '--j', '21',\n"
            "              '--curves-out', 'curves.csv'],\n"
            "             ['fit', '--design', 'design.csv', '--curves', 'curves.csv',\n"
            "              '--gp-multistarts', '2', '--surrogate-out', 'surrogate.json']):\n"
            "    assert cli.main(argv) == 0, argv\n" + SCIPY_LOADED)
    assert run_fresh(code, str(tmp_path)).splitlines()[-1] == "[]"
    assert (tmp_path / "surrogate.json").exists()


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_quick_start_runs():
    # the README's library example, run as written, so its imports follow the modules
    section = open(README, encoding="utf-8").read().split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert run_fresh(code).startswith("(55,) {'alpha': ")


def test_readme_command_lines_parse():
    # every dynshape command line of the README's bash blocks, continuation lines
    # joined, is parsed (not run), so a retired flag cannot linger in the docs;
    # so is every argv of the benchmark's desk pass, so that retiring a flag it runs fails here
    from dynshape.cli import build_parser

    blocks = re.findall(r"```bash\n(.*?)```", open(README, encoding="utf-8").read(), re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("dynshape ")]
    desk = [argv for _, argv in load_perfbench("workloads").desk_commands(0)]
    parser = build_parser()
    for source, argvs in (("README", commands), ("perfbench desk", desk)):
        for argv in argvs:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{source} command does not parse: dynshape {shlex.join(argv)}")
    assert {argv[0] for argv in commands} == {"design", "synth", "fit", "predict", "validate",
                                              "bench", "align"}


def test_readme_lists_the_training_settings():
    # the README's list of training settings is cli.SETTINGS' keys, in order
    from dynshape.cli import SETTINGS

    text = " ".join(open(README, encoding="utf-8").read().split())
    listed = text.split("The training settings, in order: ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(SETTINGS)


def test_benchmark_register_and_serve_passes_run(tmp_path, monkeypatch):
    # the benchmark worker's own passes, shrunk: an API they call that changes
    # shape fails here rather than as a failed benchmark run
    monkeypatch.syspath_prepend(PERFBENCH)  # the worker imports its neighbours by name
    worker = importlib.import_module("worker")
    for name, value in {"REGISTER_N": 21, "REGISTER_J": 201, "SERVE_TRAIN": 10, "SERVE_J": 31,
                        "SERVE_SINGLE": 20, "SERVE_POINTS": 200, "SERVE_BATCH": 50}.items():
        monkeypatch.setattr(worker.wl, name, value)
    args = types.SimpleNamespace(workdir=str(tmp_path), seed=0)  # the worker's task arguments

    worker.prepare_register(args)
    _, outputs = worker.register_pass(args.workdir)
    assert worker.check_register(args.workdir, outputs)[1] == []

    worker.prepare_serve(args)
    result = worker.serve_pass(worker.ServeState(args.workdir), quality=True)
    assert result["failed"] == 0
    assert len(result["latencies"]) == 20 and np.isfinite(result["q2"])
