import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import as_version_2, deformed_curves
from dynshape import fileio
from dynshape.doe import lhd_sample, scale_to_box
from dynshape.emulator import TrainConfig, predict_curves, train
from dynshape.errors import InputConsistencyError
from dynshape.gp import FitConfig
from dynshape.registration import CurveSet, EstimationConfig, TransformParams
from dynshape.synth import co2_default_box, co2_style_spec, generate_analytical, generate_functional_sim


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
        curves, dropped = fileio.curves_from_arrays(values, times=np.arange(10.0))
        assert dropped
        assert curves.j == 9
        assert curves.period == pytest.approx(9.0)

    def test_times_must_match_the_columns(self):
        with pytest.raises(InputConsistencyError, match="10 entries but curves have 11 columns"):
            fileio.curves_from_arrays(np.zeros((2, 11)), times=np.arange(10.0))

    def test_times_must_start_at_zero(self):
        values = np.zeros((2, 5))
        with pytest.raises(InputConsistencyError, match="start at 0"):
            fileio.curves_from_arrays(values, times=1.0 + np.arange(5.0))

    def test_times_must_be_equispaced(self):
        values = np.zeros((2, 5))
        times = np.array([0.0, 1.0, 2.0, 3.5, 4.0])
        with pytest.raises(InputConsistencyError, match="equispaced"):
            fileio.curves_from_arrays(values, times=times)


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
        with pytest.raises(InputConsistencyError, match=f"cannot write {missing}: "):
            fileio.atomic_write_text(str(missing), "data")
        assert not (tmp_path / "nowhere").exists()


class TestModelSerialization:
    def test_surrogate_round_trip(self, tmp_path):
        box = co2_default_box()
        design = scale_to_box(lhd_sample(10, 3, seed=1), box)
        curves = generate_functional_sim(co2_style_spec(j=21), design)
        config = TrainConfig(estimation=EstimationConfig(),
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

    @staticmethod
    def saved(tmp_path):
        """A small co2 surrogate and the path it is saved to."""
        box = co2_default_box()
        design = scale_to_box(lhd_sample(12, 3, seed=4), box)
        curves = generate_functional_sim(co2_style_spec(j=41, noise_var=0.01, seed=2), design)
        config = TrainConfig(estimation=EstimationConfig(),
                             gp=FitConfig(multistarts=3, seed=0))
        surrogate = train(design, curves, config, box=box)
        path = str(tmp_path / "surrogate.json")
        fileio.save_surrogate(path, surrogate)
        return surrogate, path

    def test_loaded_surrogate_predicts_bitwise(self, tmp_path):
        surrogate, path = self.saved(tmp_path)
        clone = fileio.load_surrogate(path)
        pts = scale_to_box(lhd_sample(7, 3, seed=11), surrogate.box).points
        assert np.array_equal(predict_curves(clone, pts)[0], predict_curves(surrogate, pts)[0])

    def test_version_3_keys(self, tmp_path):
        # the pattern and families at the top level; a GP family is GpModel's init fields
        _, path = self.saved(tmp_path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["version"] == 3
        assert set(data) == {"format", "version", "box", "t_grid", "period", "pattern_values",
                             "families"}
        kinds = [family["kind"] for family in data["families"].values()]
        assert "gp" in kinds
        for family in data["families"].values():
            assert set(family) == ({"kind", "design", "responses", "lengths", "nugget"}
                                   if family["kind"] == "gp" else {"kind", "value"})

    def test_version_2_file_predicts_bitwise(self, tmp_path):
        # a version 2 file's beta, sigma2 and kriging weights are recomputed, not read,
        # so zeroing them moves no predicted bit
        surrogate, path = self.saved(tmp_path)
        with open(path) as handle:
            data = as_version_2(json.load(handle), surrogate.models)
        pts = scale_to_box(lhd_sample(7, 3, seed=11), surrogate.box).points
        expected = predict_curves(surrogate, pts)[0]
        for zeroed in (False, True):
            if zeroed:
                for family in data["segments"][0]["families"].values():
                    if family["kind"] == "gp":
                        family["beta"], family["resid_solve"] = 0.0, [0.0] * len(family["resid_solve"])
            fileio.atomic_write_text(path, json.dumps(data))
            assert np.array_equal(predict_curves(fileio.load_surrogate(path), pts)[0], expected)

    def test_surrogate_rejects_other_files(self, tmp_path):
        path = str(tmp_path / "not.json")
        with open(path, "w") as fh:
            fh.write('{"format": "something-else"}')
        with pytest.raises(InputConsistencyError):
            fileio.load_surrogate(path)


class TestPinnedBits:
    # sha256 of the saved surrogate text and of its predictions for one small
    # co2 fit; any change to a bit of a saved model or a prediction shows here
    def test_saved_surrogate_and_predictions(self, tmp_path):
        box = co2_default_box()
        design = scale_to_box(lhd_sample(12, 3, seed=4), box)
        curves = generate_functional_sim(co2_style_spec(j=41, noise_var=0.01, seed=2), design)
        config = TrainConfig(gp=FitConfig(multistarts=3, seed=0))
        surrogate = train(design, curves, config, box=box)
        path = tmp_path / "surrogate.json"
        fileio.save_surrogate(str(path), surrogate)
        values, _ = predict_curves(surrogate, scale_to_box(lhd_sample(50, 3, seed=11), box).points)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "51618dfd95c97a3155e3931e4f481c47a0aed5c97e0b82220013f23fdd21b2a4")
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "e83f4e1a699b12e049841196a8c2ade4bbbd677bde7b6b4ee3e556872ab4b4b4")


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRoundTripProperties:
    """Write -> read reproduces every finite double exactly."""

    @settings(max_examples=40, deadline=None)
    @given(points=arrays(float, st.tuples(st.integers(0, 6), st.integers(1, 4)), elements=finite))
    def test_design(self, tmp_path_factory, points):
        path = str(tmp_path_factory.mktemp("design") / "design.csv")
        fileio.write_design_csv(path, points)
        assert np.array_equal(fileio.read_design_csv(path), points)

    @settings(max_examples=40, deadline=None)
    @given(
        values=arrays(float, st.tuples(st.integers(1, 5), st.sampled_from([3, 5, 9])), elements=finite),
        period=st.floats(1e-3, 1e6),
    )
    def test_curves(self, tmp_path_factory, values, period):
        j = values.shape[1]
        curves = CurveSet(values=values, t_grid=period / j * np.arange(j), period=period)
        path = str(tmp_path_factory.mktemp("curves") / "curves.csv")
        fileio.write_curves_csv(path, curves)
        back, times = fileio.read_curves_csv(path)
        assert np.array_equal(back, curves.values)
        assert np.array_equal(times, curves.t_grid)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_params(self, tmp_path_factory, data, n):
        def column(elements):
            return data.draw(arrays(float, n - 1, elements=elements))

        params = TransformParams(
            alpha=np.concatenate(([1.0], column(st.floats(1e-300, 1e300)))),
            theta=np.concatenate(([0.0], column(finite))),
            v=np.concatenate(([0.0], column(finite))),
        )
        path = str(tmp_path_factory.mktemp("params") / "params.csv")
        fileio.write_params_csv(path, params)
        back = fileio.read_params_csv(path)
        for name in ("alpha", "theta", "v"):
            assert np.array_equal(getattr(back, name), getattr(params, name))


class TestWriteTable:
    def test_cells_and_flags(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_table(str(path), "a,b,c", np.array([[1.0, np.nan, True], [0.1, -0.0, False]]))
        assert path.read_text() == "a,b,c\n1,nan,1\n0.10000000000000001,-0,0\n"

    def test_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_table(str(path), "x1", [])
        assert path.read_text() == "x1\n"

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(allow_subnormal=True))
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=-2.2250738585072e-308)
    @example(x=1e308)
    @example(x=-1e308)
    def test_fmt_is_the_row_format(self, x):
        assert fileio.fmt(x) == "%.17g" % x

    @settings(max_examples=40, deadline=None)
    @given(rows=arrays(float, st.tuples(st.integers(0, 4), st.sampled_from([2, 5])),
                       elements=st.floats(allow_subnormal=True)
                       | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])))
    def test_rows_equal_the_per_cell_join(self, tmp_path_factory, rows):
        # the 2-column t,f and 5-column step,t,rmse,q2,flag shapes
        path = tmp_path_factory.mktemp("table") / "t.csv"
        fileio.write_table(str(path), "h", rows)
        cells = ["h"] + [",".join(map(fileio.fmt, row)) for row in rows]
        assert path.read_text() == "\n".join(cells) + "\n"


    @staticmethod
    def assert_per_cell(tmp_path, rows):
        """write_table's text equals "%.17g" % x cell by cell, comma-joined, one line per row."""
        path = tmp_path / "t.csv"
        fileio.write_table(str(path), "h", rows)
        lines = ["h"] + [",".join("%.17g" % x for x in row) for row in np.asarray(rows, dtype=float)]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_random_bit_patterns(self, tmp_path):
        # every sign, exponent and mantissa, subnormals, nan and inf among them
        bits = np.random.default_rng(18).integers(0, 2**64, size=100_000, dtype=np.uint64)
        self.assert_per_cell(tmp_path, bits.view(np.float64).reshape(-1, 100))

    def test_powers_of_two_and_ten_and_their_neighbours(self, tmp_path):
        exact = np.array([2.0**e for e in range(-1074, 1024)] + [float(f"1e{q}") for q in range(-323, 309)])
        cells = np.concatenate([exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)])
        self.assert_per_cell(tmp_path, np.concatenate([cells, -cells]).reshape(-1, 6))

    def test_exact_ties_at_17_digits(self, tmp_path):
        # m / 2**k is exact and its decimal digits m * 5**k end in the 18th digit, a 5:
        # "%.17g" rounds them half to even, like 2**-25 = 2.98023223876953125e-08
        ties = [2.0**-25]
        for k in range(3, 26):
            low = -(-(10**17) // 5**k) | 1
            ties += [m / 2**k for m in range(low, low + 40, 2) if m < 2**53 and m * 5**k < 10**18]
        ties = np.array(ties)
        assert len(ties) > 400
        cells = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
        self.assert_per_cell(tmp_path, np.concatenate([cells, -cells]).reshape(-1, 3))

    def test_zeros_non_finite_cells_and_a_bool_column(self, tmp_path):
        values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e300, 2.0**-25])
        flags = np.arange(values.size) % 2 == 0
        self.assert_per_cell(tmp_path, np.column_stack([values, flags]))

    @pytest.mark.parametrize("shape", [(2 * fileio._CHUNK + 3, 1), (1001, 7), (1, 1), (0, 3), (0, 1)])
    def test_tables_cut_anywhere_by_the_chunks(self, tmp_path, shape):
        # row counts off the chunk size, rows across chunk ends, 1-column and 0-row tables
        rng = np.random.default_rng(shape[0])
        self.assert_per_cell(tmp_path, rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape))

    def test_peak_memory_stays_within_two_and_a_half_texts(self, tmp_path):
        # the formatter works through the table in chunks: no whole-text copies beyond the
        # joined text and what atomic_write_text writes from it
        curves, _ = generate_analytical(401, 801, 0.01, seed=3)
        path = str(tmp_path / "c.csv")
        fileio.write_curves_csv(path, curves)
        tracemalloc.start()
        try:
            fileio.write_curves_csv(path, curves)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * os.path.getsize(path)


class TestLoadtxtPath:
    """Without label columns the reader tries np.loadtxt before the per-cell reader."""

    def test_nan_names_its_line_and_column(self, tmp_path):
        # loadtxt accepts nan; the finite check hands the table to the per-cell reader
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1,2\n3,nan\n")
        with pytest.raises(InputConsistencyError, match=r"line 3, column 2: non-finite value nan"):
            fileio.read_design_csv(str(path))

    def test_trailing_spaces_are_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1.5 ,2\n3, 4.25  \n")
        assert fileio.read_design_csv(str(path)).tolist() == [[1.5, 2.0], [3.0, 4.25]]

    def test_underscores_are_read_like_float(self, tmp_path):
        # loadtxt rejects 1_0, which float reads as 10: the per-cell reader keeps it
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1_0,2\n")
        assert fileio.read_design_csv(str(path)).tolist() == [[10.0, 2.0]]

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1,2\n3,4,5\n")
        with pytest.raises(InputConsistencyError, match=r"line 3: expected 2 columns, got 3"):
            fileio.read_design_csv(str(path))

    @settings(max_examples=40, deadline=None)
    @given(rows=arrays(float, st.tuples(st.integers(1, 4), st.sampled_from([1, 2, 5])),
                       elements=st.floats(allow_nan=False, allow_infinity=False,
                                          allow_subnormal=True)
                       | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])))
    def test_bits_equal_the_per_cell_reader(self, tmp_path_factory, rows):
        path = str(tmp_path_factory.mktemp("table") / "t.csv")
        fileio.write_table(path, "h", rows)
        lines = fileio._read_lines(path)[1:]
        per_cell = np.array([[float(c) for c in line.split(",")] for _, line in lines])
        got = fileio._read_numbers(path, lines, rows.shape[1])
        assert got.tobytes() == per_cell.tobytes() == rows.tobytes()


class TestReaderLineNumbers:
    def test_blank_lines_are_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n\n1,2\n\n3,four\n")
        with pytest.raises(InputConsistencyError, match=r"line 5, column 2: expected a number"):
            fileio.read_design_csv(str(path))

    def test_params_index_must_be_a_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("curve,alpha,theta,v\n1,1,0,0\nx,1,0,0\n")
        with pytest.raises(InputConsistencyError, match=r"line 3, column 1"):
            fileio.read_params_csv(str(path))

    def test_params_index_is_the_data_row_position(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("curve,alpha,theta,v\n\n1,1,0,0\n\n2,1,0,0\n4,1,0,0\n")
        with pytest.raises(InputConsistencyError, match=r"line 6: curve indices"):
            fileio.read_params_csv(str(path))

    def test_config_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n\n# note\nbogus\n")
        with pytest.raises(InputConsistencyError, match="line 4"):
            fileio.read_config(str(path), {"seed"})


class TestSurrogateFileErrors:
    @pytest.mark.parametrize("text", [
        None,                                   # missing file
        "not json at all",
        "[1, 2, 3]",
        '{"format": "dynshape-surrogate", "version": 1}',
        '{"format": "dynshape-surrogate", "version": 99}',
    ])
    def test_raises_input_error_naming_path(self, tmp_path, text):
        path = tmp_path / "s.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(InputConsistencyError, match="s.json"):
            fileio.load_surrogate(str(path))

    def test_version_1_asks_for_a_refit(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"format": "dynshape-surrogate", "version": 1, "segments": []}')
        with pytest.raises(InputConsistencyError,
                           match="old.json: .*written by an older dynshape; refit it"):
            fileio.load_surrogate(str(path))
