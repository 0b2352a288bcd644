import os

import numpy as np
import pytest

from conftest import deformed_curves
from dynshape import fileio
from dynshape.doe import lhd_sample, scale_to_box
from dynshape.emulator import TrainConfig, predict_curves, train
from dynshape.errors import InputConsistencyError
from dynshape.gp import FitConfig
from dynshape.registration import EstimationConfig, TransformParams
from dynshape.synth import co2_default_box, co2_style_spec, generate_functional_sim


class TestDesignCsv:
    def test_round_trip_exact(self, tmp_path):
        pts = np.random.default_rng(0).uniform(size=(7, 3)) * [1.0, 290.0, 0.5]
        path = str(tmp_path / "design.csv")
        fileio.write_design_csv(path, pts)
        back = fileio.read_design_csv(path)
        assert np.array_equal(back, pts)

    def test_header_checked(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        path2 = str(tmp_path / "bad2.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n")
        with pytest.raises(InputConsistencyError, match="line 1"):
            fileio.read_design_csv(path)
        with open(path2, "w") as fh:
            fh.write("x1,x2\n1,2\n3\n")
        with pytest.raises(InputConsistencyError, match="line 3"):
            fileio.read_design_csv(path2)


class TestCurvesCsv:
    def test_round_trip_exact(self, tmp_path):
        curves, _ = deformed_curves([1.0, 0.4], [0.0, 1.1], [0.0, -2.0], j=9)
        path = str(tmp_path / "curves.csv")
        fileio.write_curves_csv(path, curves)
        values, times = fileio.read_curves_csv(path)
        assert np.array_equal(values, curves.values)
        assert np.array_equal(times, curves.t_grid)

    def test_malformed_header(self, tmp_path):
        path = str(tmp_path / "c.csv")
        with open(path, "w") as fh:
            fh.write("t=0,step1,t=2\n1,2,3\n")
        with pytest.raises(InputConsistencyError, match="t=<value>"):
            fileio.read_curves_csv(path)


class TestCurvesFromArrays:
    def test_even_j_drops_last(self):
        values = np.arange(20, dtype=float).reshape(2, 10)
        curves, dropped = fileio.curves_from_arrays(values, period=10.0)
        assert dropped
        assert curves.j == 9
        assert curves.period == pytest.approx(9.0)

    def test_times_must_start_at_zero(self):
        values = np.zeros((2, 5))
        with pytest.raises(InputConsistencyError, match="start at 0"):
            fileio.curves_from_arrays(values, times=1.0 + np.arange(5.0))

    def test_times_must_be_equispaced(self):
        values = np.zeros((2, 5))
        times = np.array([0.0, 1.0, 2.0, 3.5, 4.0])
        with pytest.raises(InputConsistencyError, match="equispaced"):
            fileio.curves_from_arrays(values, times=times)

    def test_needs_grid_or_period(self):
        with pytest.raises(InputConsistencyError):
            fileio.curves_from_arrays(np.zeros((2, 5)))


class TestParamsCsv:
    def test_round_trip_with_reference_row(self, tmp_path):
        params = TransformParams(
            alpha=np.array([1.0, 0.77, 1.31]),
            theta=np.array([0.0, -0.4, 2.2]),
            v=np.array([0.0, 5.5, -0.25]),
        )
        path = str(tmp_path / "params.csv")
        fileio.write_params_csv(path, params)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "curve,alpha,theta,v"
        assert lines[1] == "1,1,0,0"
        back = fileio.read_params_csv(path)
        assert np.array_equal(back.alpha, params.alpha)
        assert np.array_equal(back.theta, params.theta)
        assert np.array_equal(back.v, params.v)


class TestBoxCsv:
    def test_parse_with_and_without_header(self, tmp_path):
        for header in ("", "name,min,max\n"):
            path = str(tmp_path / "box.csv")
            with open(path, "w") as fh:
                fh.write(header + "PORO,0.15,0.35\nKSAND,10,300\n")
            box = fileio.read_box_csv(path)
            assert box.names == ("PORO", "KSAND")
            np.testing.assert_allclose(box.lower, [0.15, 10.0])

    def test_error_carries_line_number(self, tmp_path):
        path = str(tmp_path / "box.csv")
        with open(path, "w") as fh:
            fh.write("PORO,0.15,0.35\nKSAND,10\n")
        with pytest.raises(InputConsistencyError, match="line 2"):
            fileio.read_box_csv(path)

    def test_non_numeric_bound(self, tmp_path):
        path = str(tmp_path / "box.csv")
        with open(path, "w") as fh:
            fh.write("PORO,low,0.35\n")
        with pytest.raises(InputConsistencyError, match="line 1"):
            fileio.read_box_csv(path)


class TestConfig:
    def test_parse_and_unknown_key(self, tmp_path):
        path = str(tmp_path / "run.cfg")
        with open(path, "w") as fh:
            fh.write("# comment\nseed = 3\nblock_size = 7\n")
        settings = fileio.read_config(path, {"seed", "block_size"})
        assert settings == {"seed": "3", "block_size": "7"}
        with open(path, "a") as fh:
            fh.write("mystery = 1\n")
        with pytest.raises(InputConsistencyError, match="unknown setting"):
            fileio.read_config(path, {"seed", "block_size"})


class TestAtomicWrite:
    def test_no_temp_residue(self, tmp_path):
        path = str(tmp_path / "out.txt")
        fileio.atomic_write_text(path, "payload\n")
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]
        with open(path) as fh:
            assert fh.read() == "payload\n"

    def test_missing_directory_leaves_nothing(self, tmp_path):
        missing = tmp_path / "nowhere" / "out.txt"
        with pytest.raises(OSError):
            fileio.atomic_write_text(str(missing), "data")
        assert not (tmp_path / "nowhere").exists()


class TestModelSerialization:
    def test_surrogate_round_trip(self, tmp_path):
        box = co2_default_box()
        design = scale_to_box(lhd_sample(10, 3, seed=1), box)
        curves = generate_functional_sim(co2_style_spec(j=21), design)
        config = TrainConfig(estimation=EstimationConfig(multistarts=2, seed=0),
                             gp=FitConfig(multistarts=3, seed=0))
        surrogate = train(design, curves, config, box=box)
        path = str(tmp_path / "surrogate.json")
        fileio.save_surrogate(path, surrogate)
        clone = fileio.load_surrogate(path)
        pts = scale_to_box(lhd_sample(5, 3, seed=9), box).points
        base, flags_a = predict_curves(surrogate, pts)
        back, flags_b = predict_curves(clone, pts)
        np.testing.assert_allclose(back, base, rtol=1e-12, atol=1e-12)
        assert np.array_equal(flags_a, flags_b)

    @pytest.mark.parametrize("windows", [1, 2])
    def test_loaded_surrogate_predicts_bitwise(self, tmp_path, windows):
        box = co2_default_box()
        design = scale_to_box(lhd_sample(12, 3, seed=4), box)
        curves = generate_functional_sim(co2_style_spec(j=41, noise_var=0.01, seed=2), design)
        config = TrainConfig(time_windows=windows, estimation=EstimationConfig(multistarts=2, seed=0),
                             gp=FitConfig(multistarts=3, seed=0))
        surrogate = train(design, curves, config, box=box)
        path = str(tmp_path / "surrogate.json")
        fileio.save_surrogate(path, surrogate)
        clone = fileio.load_surrogate(path)
        pts = scale_to_box(lhd_sample(7, 3, seed=11), box).points
        assert np.array_equal(predict_curves(clone, pts)[0], predict_curves(surrogate, pts)[0])

    def test_surrogate_rejects_other_files(self, tmp_path):
        path = str(tmp_path / "not.json")
        with open(path, "w") as fh:
            fh.write('{"format": "something-else"}')
        with pytest.raises(InputConsistencyError):
            fileio.load_surrogate(path)

