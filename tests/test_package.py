import importlib
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


def test_cli_import_leaves_optimizer_and_spatial_unloaded():
    # predict, validate and synth never fit, so importing the CLI must not
    # pay for scipy.optimize, nor for scipy.spatial (and with it scipy.sparse)
    code = ("import sys, dynshape.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dynshape.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
