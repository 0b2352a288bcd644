import importlib.util
import os

import numpy as np

from dynshape import fileio
from dynshape.registration import EstimationConfig, estimate_params, wrap_angle
from dynshape.synth import generate_analytical, parabola_pattern

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_analytical_benchmark_writes_its_csvs(tmp_path, capsys):
    script = load_script("run_analytical_benchmark")
    assert script.main(["--n", "11", "--j", "41", "--noise-var", "0.01",
                        "--outdir", str(tmp_path)]) == 0
    assert "registered 11 curves x 41 steps" in capsys.readouterr().out
    curves, truth = generate_analytical(11, 41, 0.01, 0, alpha_range=(0.3, 1.0))
    est, _ = estimate_params(curves, EstimationConfig())

    values, times = fileio.read_curves_csv(str(tmp_path / "curves.csv"))
    assert np.array_equal(values, curves.values) and np.array_equal(times, curves.t_grid)
    for name, expected in (("params_true.csv", truth), ("params_estimated.csv", est)):
        got = fileio.read_params_csv(str(tmp_path / name))
        for family in ("alpha", "theta", "v"):
            assert np.array_equal(getattr(got, family), getattr(expected, family)), (name, family)

    lines = (tmp_path / "crossplot.csv").read_text().splitlines()
    assert lines[0] == "family,true,estimated" and len(lines) == 1 + 3 * 11
    rows = [line.split(",") for line in lines[1:]]
    for k, family in enumerate(("alpha", "theta", "v")):
        block = rows[11 * k: 11 * (k + 1)]
        assert {row[0] for row in block} == {family}
        t, e = (np.array([float(row[i]) for row in block]) for i in (1, 2))
        assert np.array_equal(t, getattr(truth, family))
        gap = wrap_angle(e - t) if family == "theta" else e - t
        assert np.abs(gap).max() < 0.1, family

    lines = (tmp_path / "pattern_comparison.csv").read_text().splitlines()
    assert lines[0] == "t,f_true,pattern,raw_mean" and len(lines) == 1 + 41
    table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert np.array_equal(table[:, 0], curves.t_grid)
    assert np.array_equal(table[:, 1], parabola_pattern(curves.angular_grid))
    # the registered pattern is far closer to the true shape than the raw mean
    rmse = np.sqrt(((table[:, 2:] - table[:, 1:2]) ** 2).mean(axis=0))
    assert rmse[0] < 0.1 * rmse[1]
