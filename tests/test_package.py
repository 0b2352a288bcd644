import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import dynshape

MODULES = sorted(info.name for info in pkgutil.iter_modules(dynshape.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"dynshape.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"dynshape.{name}.__all__ names missing attributes: {missing}"


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer looks up each (module, function) it wraps by name
    # when it installs, so renaming or deleting one breaks every traced run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"dynshape.{module}.{name}" for module, names in tracer.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"dynshape.{module}"), name, None))]
    assert not missing, f"traced names missing: {missing}"


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
