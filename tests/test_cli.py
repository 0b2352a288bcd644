import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from conftest import as_version_2
from dynshape import cli, fileio, gp
from dynshape.cli import SETTINGS, _train_config, build_parser, int_or_none, main
from dynshape.emulator import TrainConfig
from dynshape.errors import IllConditionedDesignError, InputConsistencyError
from dynshape.gp import FitConfig
from dynshape.registration import EstimationConfig
from dynshape.synth import co2_style_spec, generate_analytical

BOX_TEXT = "PORO,0.15,0.35\nKSAND,10,300\nKRSAND,0.5,1.0\n"


@pytest.fixture
def box_file(tmp_path):
    path = tmp_path / "box.csv"
    path.write_text(BOX_TEXT)
    return str(path)


def run(*argv):
    return main(list(argv))


def make_dataset(tmp_path, box_file, n=14, j=21, seed=1):
    design = str(tmp_path / f"design{seed}.csv")
    curves = str(tmp_path / f"curves{seed}.csv")
    assert run("design", "--n", str(n), "--box", box_file, "--seed", str(seed),
               "--maximin-restarts", "5", "--out", design) == 0
    assert run("synth", "co2", "--design", design, "--j", str(j),
               "--curves-out", curves) == 0
    return design, curves


def with_doubled_times(path):
    """Copy of a curves CSV whose header times are doubled: same J, another grid."""
    lines = open(path).read().splitlines()
    header = ",".join(f"t={2 * float(cell[2:]):g}" for cell in lines[0].split(","))
    out = path.replace(".csv", "_doubled.csv")
    with open(out, "w") as handle:
        handle.write("\n".join([header] + lines[1:]) + "\n")
    return out


class TestDesignCommand:
    def test_writes_design_and_prints_distance(self, tmp_path, box_file, capsys):
        out = str(tmp_path / "design.csv")
        assert run("design", "--n", "30", "--box", box_file, "--seed", "0",
                   "--maximin-restarts", "5", "--out", out) == 0
        assert "min pairwise distance" in capsys.readouterr().out
        pts = fileio.read_design_csv(out)
        assert pts.shape == (30, 3)
        assert np.all(pts >= [0.15, 10.0, 0.5]) and np.all(pts <= [0.35, 300.0, 1.0])

    def test_rerun_is_byte_identical(self, tmp_path, box_file):
        out = str(tmp_path / "design.csv")
        run("design", "--n", "12", "--box", box_file, "--seed", "7", "--out", out)
        first = open(out, "rb").read()
        run("design", "--n", "12", "--box", box_file, "--seed", "7", "--out", out)
        assert open(out, "rb").read() == first

    def test_seeds_give_different_designs(self, tmp_path, box_file):
        written = []
        for seed in ("0", "1"):
            out = str(tmp_path / f"design{seed}.csv")
            run("design", "--n", "12", "--box", box_file, "--seed", seed,
                "--maximin-restarts", "5", "--out", out)
            written.append(open(out, "rb").read())
        assert written[0] != written[1]

    def rejected(self, tmp_path, box_file, capsys, *flags) -> str:
        """stderr of a design run that must exit 2 and write nothing."""
        out = tmp_path / "d.csv"
        capsys.readouterr()
        assert run("design", *flags, "--box", box_file, "--out", str(out)) == 2
        assert not out.exists()
        return capsys.readouterr().err

    # a rejected value goes through main's one ValueError branch: one error line, no usage
    def test_n_one_is_usage_error(self, tmp_path, box_file, capsys):
        err = self.rejected(tmp_path, box_file, capsys, "--n", "1")
        assert err == "error: a design needs at least 2 points, got n=1\n"

    def test_negative_restarts_is_usage_error(self, tmp_path, box_file, capsys):
        err = self.rejected(tmp_path, box_file, capsys, "--n", "5", "--maximin-restarts", "-3")
        assert err == "error: --maximin-restarts must be at least 0\n"

    @pytest.mark.parametrize("restarts", ["0", "2"])
    def test_negative_seed_is_usage_error(self, tmp_path, box_file, capsys, restarts):
        err = self.rejected(tmp_path, box_file, capsys, "--n", "5", "--seed", "-1",
                            "--maximin-restarts", restarts)
        assert err == "error: seed must be nonnegative\n"

    def test_malformed_box_is_input_error(self, tmp_path):
        bad = tmp_path / "box.csv"
        bad.write_text("PORO,0.15\n")
        assert run("design", "--n", "5", "--box", str(bad),
                   "--out", str(tmp_path / "d.csv")) == 3


class TestSynthCommand:
    def test_analytical_paper_shape(self, tmp_path):
        curves_path = str(tmp_path / "a.csv")
        assert run("synth", "analytical", "--n", "101", "--j", "5", "--noise-var", "0.5",
                   "--seed", "0", "--curves-out", curves_path) == 0
        values, times = fileio.read_curves_csv(curves_path)
        assert values.shape == (101, 5)
        assert times[0] == 0.0

    def test_analytical_params_out_is_the_truth(self, tmp_path):
        curves, params = str(tmp_path / "a.csv"), str(tmp_path / "p.csv")
        assert run("synth", "analytical", "--n", "7", "--j", "11", "--noise-var", "0.01",
                   "--seed", "4", "--curves-out", curves, "--params-out", params) == 0
        truth = generate_analytical(7, 11, 0.01, 4)[1]
        loaded = fileio.read_params_csv(params)
        for name in ("alpha", "theta", "v"):
            assert np.array_equal(getattr(loaded, name), getattr(truth, name))
        assert run("align", "--curves", curves, "--params", params,
                   "--out", str(tmp_path / "aligned.csv")) == 0

    def test_co2_truth_out_is_the_maps(self, tmp_path, box_file):
        design, truth = str(tmp_path / "d.csv"), tmp_path / "truth.csv"
        assert run("design", "--n", "6", "--box", box_file, "--seed", "2", "--out", design) == 0
        assert run("synth", "co2", "--design", design, "--box", box_file, "--j", "11",
                   "--curves-out", str(tmp_path / "c.csv"), "--truth-out", str(truth)) == 0
        header, *rows = truth.read_text().splitlines()
        assert header == "alpha,theta,v"
        points = fileio.read_design_csv(design)
        spec = co2_style_spec(j=11, box=fileio.read_box_csv(box_file))
        maps = np.column_stack([spec.alpha_fn(points), spec.theta_fn(points), spec.v_fn(points)])
        assert np.array_equal([[float(x) for x in row.split(",")] for row in rows], maps)

    def test_missing_required_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "analytical", "--n", "10", "--j", "5")
        assert exc.value.code == 2

    @pytest.mark.parametrize("rows, message", [
        ("x1,x2,x3\n0.2,100,0.7\n0.9,100,0.7\n",
         "design points must lie inside the simulator's input box"),
        ("x1,x2\n0.2,100\n0.3,120\n", "design has 2 columns but the box has 3"),
    ])
    def test_unusable_design_names_the_file(self, tmp_path, capsys, rows, message):
        design = tmp_path / "d.csv"
        design.write_text(rows)
        capsys.readouterr()
        assert run("synth", "co2", "--design", str(design),
                   "--curves-out", str(tmp_path / "c.csv")) == 3
        assert f"error: {design}: {message}" in capsys.readouterr().err


class TestFitCommand:
    def test_full_fit_outputs(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file)
        surrogate = str(tmp_path / "sur.json")
        params = str(tmp_path / "params.csv")
        pattern = str(tmp_path / "pattern.csv")
        diag = str(tmp_path / "diag.txt")
        assert run("fit", "--design", design, "--curves", curves,
                   "--gp-multistarts", "3",
                   "--surrogate-out", surrogate, "--params-out", params,
                   "--pattern-out", pattern, "--diagnostics-out", diag) == 0
        text = open(diag).read()
        # noiseless band-limited harness: registration residual at roundoff
        contrast_value = float(text.splitlines()[0].split("=")[1])
        assert contrast_value <= 1e-12
        assert "alpha_loo_q2" in text
        loaded = fileio.read_params_csv(params)
        assert loaded.n == 14
        first = open(pattern).read().splitlines()
        assert first[0] == "t,f"

    def test_fixed_families_diagnostics(self, tmp_path, box_file):
        # curves that are amplitude scalings of one curve: theta and v are fixed
        design, curves = make_dataset(tmp_path, box_file, n=12, j=21)
        values, times = fileio.read_curves_csv(curves)
        scales = 1.0 + fileio.read_design_csv(design)[:, 1] / 300.0
        scaled, _ = fileio.curves_from_arrays(scales[:, None] * values[0], times=times)
        fileio.write_curves_csv(curves, scaled)
        diag = tmp_path / "diag.txt"
        assert run("fit", "--design", design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json"), "--diagnostics-out", str(diag)) == 0
        assert diag.read_text() == (
            "contrast = 3.5345894830715548e-29\n"
            "curves = 12\n"
            "time_steps = 21\n"
            "dropped_last_step = 0\n"
            "block_size = 10\n"
            "alpha_model = gp\n"
            "alpha_loo_q2 = 0.99999972314376906\n"
            "theta_model = fixed\n"
            "theta_fixed_value = 0\n"
            "v_model = fixed\n"
            "v_fixed_value = 9.7107507220547021e-14\n"
        )

    def test_row_mismatch_exits_3(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file)
        other_design = str(tmp_path / "d2.csv")
        run("design", "--n", "9", "--box", box_file, "--seed", "2", "--out", other_design)
        assert run("fit", "--design", other_design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json")) == 3

    def test_config_file_and_flag_override(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gp_multistarts = 3\nblock_size = 4\n")
        surrogate = str(tmp_path / "s.json")
        assert run("fit", "--design", design, "--curves", curves, "--config", str(cfg),
                   "--surrogate-out", surrogate) == 0
        cfg.write_text("gp_multistarts = 3\nnot_a_key = 1\n")
        assert run("fit", "--design", design, "--curves", curves, "--config", str(cfg),
                   "--surrogate-out", surrogate) == 3

    def test_registration_multistarts_flag_is_gone(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        with pytest.raises(SystemExit) as exc:
            run("fit", "--design", design, "--curves", curves, "--multistarts", "2",
                "--surrogate-out", str(tmp_path / "s.json"))
        assert exc.value.code == 2

    def test_registration_multistarts_key_is_unknown(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("block_size = 4\nmultistarts = 2\n")
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves, "--config", str(cfg),
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert f"{cfg}, line 2: unknown setting 'multistarts'" in capsys.readouterr().err

    def test_two_column_curves_name_the_file(self, tmp_path, box_file, capsys):
        design, _ = make_dataset(tmp_path, box_file, n=3, j=11)
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("t=0,t=1\n1,2\n3,4\n5,6\n")
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", str(narrow),
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        err = capsys.readouterr().err
        assert f"error: {narrow}: " in err and "J=1" in err

    def test_too_few_curves_name_the_file(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=3, j=11)
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        err = capsys.readouterr().err
        assert f"error: {curves} has 3 curves; training needs at least 4" in err

    @pytest.mark.parametrize("header, message", [
        (range(1, 12), "the time grid must start at 0"),
        ([0, 1, 2, 3.5, *range(4, 11)], "the time grid must be strictly increasing and equispaced"),
        ([0, 1, 2, "nan", *range(4, 11)], "line 1, column 4: non-finite value nan"),
    ], ids=["starts-at-1", "unequal-steps", "nan"])
    def test_bad_header_grid_names_the_file(self, tmp_path, box_file, capsys, header, message):
        # the t= header is a curve's only grid: a bad one is fixed in the file
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        lines = open(curves).read().splitlines()
        with open(curves, "w") as handle:
            handle.write("\n".join([",".join(f"t={k}" for k in header)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        err = capsys.readouterr().err
        assert f"error: {curves}" in err and message in err

    def test_even_j_warns_and_drops(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, j=21)
        values, times = fileio.read_curves_csv(curves)
        padded = np.column_stack([values, values[:, :1]])
        step = times[1] - times[0]
        header = ",".join(f"t={fileio.fmt(step * k)}" for k in range(22))
        rows = [",".join(fileio.fmt(x) for x in row) for row in padded]
        even = tmp_path / "even.csv"
        even.write_text("\n".join([header] + rows) + "\n")
        assert run("fit", "--design", design, "--curves", str(even),
                   "--gp-multistarts", "3",
                   "--surrogate-out", str(tmp_path / "s.json"),
                   "--diagnostics-out", str(tmp_path / "d.txt")) == 0
        assert "dropped the last sample" in capsys.readouterr().err
        assert "dropped_last_step = 1" in open(tmp_path / "d.txt").read()


class TestPredictCommand:
    def test_training_points_reproduce_curves(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file)
        surrogate = str(tmp_path / "sur.json")
        run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "3",
            "--gp-nugget-floor", "0",
            "--surrogate-out", surrogate)
        pred = str(tmp_path / "pred.csv")
        assert run("predict", "--surrogate", surrogate, "--points", design,
                   "--out", pred) == 0
        rows = open(pred).read().splitlines()
        header = rows[0].split(",")
        assert header[-1] == "extrapolated"
        got = np.array([[float(x) for x in row.split(",")[:-1]] for row in rows[1:]])
        truth, _ = fileio.read_curves_csv(curves)
        np.testing.assert_allclose(got, truth, rtol=1e-5, atol=1e-3)
        assert all(row.split(",")[-1] == "0" for row in rows[1:])

    def test_empty_points_gives_header_only(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file)
        surrogate = str(tmp_path / "sur.json")
        run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "3",
            "--surrogate-out", surrogate)
        empty = tmp_path / "pts.csv"
        empty.write_text("x1,x2,x3\n")
        out = str(tmp_path / "pred.csv")
        assert run("predict", "--surrogate", surrogate, "--points", str(empty),
                   "--out", out) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 1 and lines[0].endswith("extrapolated")

    def test_dimension_mismatch_exits_3(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file)
        surrogate = str(tmp_path / "sur.json")
        run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "3",
            "--surrogate-out", surrogate)
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.2,100\n")
        assert run("predict", "--surrogate", surrogate, "--points", str(pts),
                   "--out", str(tmp_path / "p.csv")) == 3


class TestValidateCommand:
    def test_self_generated_q2_is_one(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file)
        surrogate = str(tmp_path / "sur.json")
        run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "3",
            "--surrogate-out", surrogate)
        test_design = str(tmp_path / "td.csv")
        run("design", "--n", "6", "--box", box_file, "--seed", "3", "--out", test_design)
        pred = str(tmp_path / "pred.csv")
        run("predict", "--surrogate", surrogate, "--points", test_design, "--out", pred)
        rows = open(pred).read().splitlines()
        values, times = fileio.read_curves_csv(str(tmp_path / f"curves1.csv"))
        header = ",".join(f"t={fileio.fmt(t)}" for t in times)
        body = [",".join(row.split(",")[:-1]) for row in rows[1:]]
        test_curves = tmp_path / "tc.csv"
        test_curves.write_text("\n".join([header] + body) + "\n")
        report = str(tmp_path / "rep.csv")
        assert run("validate", "--surrogate", surrogate, "--test-design", test_design,
                   "--test-curves", str(test_curves), "--report-out", report) == 0
        lines = open(report).read().splitlines()
        assert lines[0] == "step,t,rmse,q2,flag"
        for line in lines[1:]:
            _, _, rmse, q2, flag = line.split(",")
            if flag == "0":
                assert float(q2) == pytest.approx(1.0, abs=1e-9)
            assert float(rmse) == pytest.approx(0.0, abs=1e-9)

    def test_other_time_grid_is_input_error(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=55)
        surrogate = str(tmp_path / "sur.json")
        assert run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "1",
                   "--surrogate-out", surrogate) == 0
        test_design, test_curves = make_dataset(tmp_path, box_file, n=4, j=11, seed=5)
        capsys.readouterr()
        assert run("validate", "--surrogate", surrogate, "--test-design", test_design,
                   "--test-curves", test_curves, "--report-out", str(tmp_path / "r.csv")) == 3
        err = capsys.readouterr().err
        assert f"--test-curves {test_curves}" in err
        assert "J = 11" in err and "J = 55" in err
        # the same J on a grid of twice the period
        test_design, test_curves = make_dataset(tmp_path, box_file, n=4, j=55, seed=5)
        doubled = with_doubled_times(test_curves)
        capsys.readouterr()
        assert run("validate", "--surrogate", surrogate, "--test-design", test_design,
                   "--test-curves", doubled, "--report-out", str(tmp_path / "r.csv")) == 3
        assert f"--test-curves {doubled}" in capsys.readouterr().err
        assert run("validate", "--surrogate", surrogate, "--test-design", test_design,
                   "--test-curves", test_curves, "--report-out", str(tmp_path / "r.csv")) == 0

    @pytest.mark.parametrize("command", ["validate", "bench"])
    def test_test_design_columns_name_the_files(self, tmp_path, box_file, capsys, command):
        # once exit 2 with "points must be m x 3", after bench had trained
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        surrogate = str(tmp_path / "sur.json")
        assert run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "1",
                   "--surrogate-out", surrogate) == 0
        test_design = tmp_path / "td.csv"
        lines = open(design).read().splitlines()
        test_design.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        inputs = (["--surrogate", surrogate] if command == "validate"
                  else ["--design", design, "--curves", curves, "--timings-out",
                        str(tmp_path / "t.csv")])
        capsys.readouterr()
        assert run(command, *inputs, "--test-design", str(test_design), "--test-curves", curves,
                   "--report-out", str(tmp_path / "r.csv")) == 3
        err = capsys.readouterr().err
        assert f"--test-design {test_design} has 2 columns but " in err
        assert (surrogate if command == "validate" else f"{design} with {curves}") in err


class TestAlignCommand:
    def test_identity_params_roundtrip(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file)
        params = tmp_path / "id.csv"
        lines = ["curve,alpha,theta,v"] + [f"{k + 1},1.0,0.0,0.0" for k in range(14)]
        params.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "aligned.csv")
        assert run("align", "--curves", curves, "--params", str(params), "--out", out) == 0
        aligned, _ = fileio.read_curves_csv(out)
        original, _ = fileio.read_curves_csv(curves)
        np.testing.assert_allclose(aligned, original, atol=1e-9)


class TestBenchCommand:
    def test_bench_outputs(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file, n=10, j=11)
        test_design, test_curves = make_dataset(tmp_path, box_file, n=6, j=11, seed=5)
        report = str(tmp_path / "cmp.csv")
        timings = str(tmp_path / "timings.csv")
        crossplot = str(tmp_path / "cross.csv")
        assert run("bench", "--design", design, "--curves", curves,
                   "--test-design", test_design, "--test-curves", test_curves,
                   "--gp-multistarts", "2",
                   "--report-out", report, "--timings-out", timings,
                   "--crossplot-out", crossplot) == 0
        assert open(report).read().splitlines()[0] == (
            "step,t,rmse_sim,q2_sim,flag_sim,rmse_step,q2_step,flag_step"
        )
        timing_lines = open(timings).read().splitlines()
        assert timing_lines[0] == "stage,seconds"
        rows = [line.split(",") for line in timing_lines[1:]]
        assert [name for name, _ in rows] == ["sim_registration", "sim_parameter_models",
                                              "sim_total", "per_step_gp_total"]
        assert all(float(seconds) > 0 for _, seconds in rows)
        cross = open(crossplot).read().splitlines()
        assert cross[0] == "true,predicted,method,step"
        assert len(cross) == 1 + 2 * 6 * 11

    def test_other_time_grid_fails_before_training(self, tmp_path, box_file, capsys,
                                                     monkeypatch):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=55)
        test_design, test_curves = make_dataset(tmp_path, box_file, n=4, j=11, seed=5)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the test grid")

        monkeypatch.setattr(cli, "train", no_training)
        report = tmp_path / "cmp.csv"
        capsys.readouterr()
        assert run("bench", "--design", design, "--curves", curves,
                   "--test-design", test_design, "--test-curves", test_curves,
                   "--report-out", str(report), "--timings-out", str(tmp_path / "t.csv")) == 3
        err = capsys.readouterr().err
        assert f"--test-curves {test_curves}" in err
        assert "J = 11" in err and "J = 55" in err
        assert not report.exists()
        # the same J on a grid of twice the period
        test_design, test_curves = make_dataset(tmp_path, box_file, n=4, j=55, seed=5)
        doubled = with_doubled_times(test_curves)
        capsys.readouterr()
        assert run("bench", "--design", design, "--curves", curves,
                   "--test-design", test_design, "--test-curves", doubled,
                   "--report-out", str(report), "--timings-out", str(tmp_path / "t.csv")) == 3
        assert f"--test-curves {doubled}" in capsys.readouterr().err
        assert not report.exists()

    def test_too_few_curves_name_the_file(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=3, j=11)
        test_design, test_curves = make_dataset(tmp_path, box_file, n=4, j=11, seed=5)
        capsys.readouterr()
        assert run("bench", "--design", design, "--curves", curves,
                   "--test-design", test_design, "--test-curves", test_curves,
                   "--report-out", str(tmp_path / "cmp.csv"),
                   "--timings-out", str(tmp_path / "t.csv")) == 3
        err = capsys.readouterr().err
        assert f"error: {curves} has 3 curves; training needs at least 4" in err

    def test_metric_report_deterministic(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file, n=8, j=11)
        test_design, test_curves = make_dataset(tmp_path, box_file, n=5, j=11, seed=6)
        report = str(tmp_path / "cmp.csv")
        timings = str(tmp_path / "timings.csv")
        args = ("bench", "--design", design, "--curves", curves,
                "--test-design", test_design, "--test-curves", test_curves,
                "--gp-multistarts", "2",
                "--report-out", report, "--timings-out", timings)
        assert run(*args) == 0
        first = open(report, "rb").read()
        assert run(*args) == 0
        assert open(report, "rb").read() == first


class TestOutputPaths:
    def test_outdir_variable_is_ignored(self, tmp_path, box_file, monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("DYNSHAPE_OUTDIR", str(outdir))
        monkeypatch.chdir(tmp_path)
        assert run("design", "--n", "6", "--box", box_file, "--out", "design.csv") == 0
        assert (tmp_path / "design.csv").exists()
        assert not outdir.exists()


FIT_ARGV = ["fit", "--design", "d.csv", "--curves", "c.csv", "--surrogate-out", "s.json"]
SAMPLE_TEXT = {int: "2", float: "0.5", int_or_none: "7"}


def config_from(argv):
    return _train_config(build_parser().parse_args(argv))


class TestSettingsTable:
    def test_no_flags_gives_defaults(self):
        assert config_from(FIT_ARGV) == TrainConfig()

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_flag_equals_config_key(self, tmp_path, key):
        text = SAMPLE_TEXT[SETTINGS[key][0]]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        from_flag = config_from(FIT_ARGV + ["--" + key.replace("_", "-"), text])
        assert from_flag == config_from(FIT_ARGV + ["--config", str(cfg)])
        assert from_flag != TrainConfig()
        kind, cls = SETTINGS[key]
        part = {TrainConfig: from_flag, EstimationConfig: from_flag.estimation, FitConfig: from_flag.gp}
        assert getattr(part[cls], key.removeprefix("gp_")) == kind(text)

    def test_every_setting_reaches_its_field(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha_min = 0.1\ngp_length_hi = 100\nseed = 9\nl_max = none\n")
        argv = FIT_ARGV + [
            "--config", str(cfg), "--seed", "3", "--block-size", "4", "--beta-exponent", "1.25",
            "--alpha-max", "9", "--l-max", "7",
            "--gp-multistarts", "5", "--gp-max-iters", "60", "--gp-length-lo", "0.01",
            "--gp-nugget-floor", "1e-8", "--var-fix-tol", "1e-6",
        ]
        assert config_from(argv) == TrainConfig(
            block_size=4, var_fix_tol=1e-6,
            estimation=EstimationConfig(alpha_min=0.1, alpha_max=9.0, beta_exponent=1.25, l_max=7),
            gp=FitConfig(length_lo=0.01, length_hi=100.0, multistarts=5, max_iters=60,
                         nugget_floor=1e-8, seed=3),
        )

    def test_l_max_none_flag(self):
        assert config_from(FIT_ARGV + ["--l-max", "none"]).estimation.l_max is None

    def test_bad_config_value_is_input_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gp_multistarts = many\n")
        with pytest.raises(InputConsistencyError, match="run.cfg.*multistarts"):
            config_from(FIT_ARGV + ["--config", str(cfg)])

    @pytest.mark.parametrize("key,text", [
        ("alpha_min", "30"), ("l_max", "0"), ("gp_nugget_floor", "nan"), ("gp_length_hi", "inf"),
        ("beta_exponent", "nan"), ("var_fix_tol", "-1"), ("var_fix_tol", "nan"),
        ("gp_max_iters", "0"), ("gp_max_iters", "-3"), ("seed", "-1"),
    ])
    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_rejected_value_exit_code(self, tmp_path, box_file, capsys, key, text, source):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"block_size = 10\n{key} = {text}\n" if source == "file"
                       else "block_size = 10\n")
        flag = ["--" + key.replace("_", "-"), text] if source == "flag" else []
        capsys.readouterr()
        code = run("fit", "--design", design, "--curves", curves, "--config", str(cfg), *flag,
                   "--surrogate-out", str(tmp_path / "s.json"))
        err = capsys.readouterr().err
        if source == "file":
            assert code == 3
            assert f"{cfg}: {key}:" in err
        else:
            assert code == 2
            assert str(cfg) not in err
        assert not (tmp_path / "s.json").exists()

    def test_repeated_config_key_is_input_error(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nblock_size = 4\nseed = -5\nseed = 2\n")
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves, "--config", str(cfg),
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert capsys.readouterr().err == f"error: {cfg}, line 3: seed is already set on line 1\n"
        assert not (tmp_path / "s.json").exists()

    def test_flag_can_complete_a_file_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha_min = 30\n")
        config = config_from(FIT_ARGV + ["--config", str(cfg), "--alpha-max", "40"])
        assert (config.estimation.alpha_min, config.estimation.alpha_max) == (30.0, 40.0)


# Every numeric flag of every command that takes one, with its type
NUMERIC_FLAGS = {
    **{command: {key: kind for key, (kind, _) in SETTINGS.items()} for command in ("fit", "bench")},
    "design": {"n": int, "seed": int, "maximin_restarts": int},
    "synth analytical": {"n": int, "j": int, "noise_var": float, "seed": int},
    "synth co2": {"j": int, "noise_var": float, "seed": int},
}


class TestNumericFlags:
    @pytest.mark.parametrize("command,key,text", [
        (command, key, text) for command, flags in NUMERIC_FLAGS.items()
        for key, kind in flags.items() for text in (["-1", "nan"] if kind is float else ["-1"])
    ])
    def test_negative_or_nan_is_usage_error(self, tmp_path, capsys, quick_start, command,
                                            key, text):
        inputs = [str(quick_start / name) for name in ("box.csv", "design.csv", "curves.csv")]
        box, design, curves = inputs
        out = str(tmp_path / "out.csv")
        argv = {
            "fit": ["--design", design, "--curves", curves, "--surrogate-out", out],
            "bench": ["--design", design, "--curves", curves, "--test-design", design,
                      "--test-curves", curves, "--report-out", out, "--timings-out", out],
            "design": ["--n", "6", "--box", box, "--out", out],
            "synth analytical": ["--n", "6", "--j", "11", "--curves-out", out],
            "synth co2": ["--design", design, "--j", "11", "--curves-out", out],
        }[command]
        capsys.readouterr()
        try:
            code = run(*command.split(), *argv, "--" + key.replace("_", "-"), text)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "usage:" not in err  # argparse's usage line is for its own errors alone
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not any(path in err for path in inputs)
        assert list(tmp_path.iterdir()) == []


def with_blank_and_bad_cell(path, bad_row, bad_col, token="nan"):
    """Rewrite a CSV with a blank line after the first and one cell replaced."""
    lines = open(path).read().splitlines()
    cells = lines[bad_row].split(",")
    cells[bad_col] = token
    lines[bad_row] = ",".join(cells)
    lines.insert(1, "")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return f"line {bad_row + 2}, column {bad_col + 1}: non-finite"


class TestNonFiniteCells:
    def test_design(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        where = with_blank_and_bad_cell(design, 3, 1, "inf")
        assert run("fit", "--design", design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert where in capsys.readouterr().err

    def test_curves(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        where = with_blank_and_bad_cell(curves, 2, 4)
        assert run("fit", "--design", design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert where in capsys.readouterr().err

    def test_params(self, tmp_path, box_file, capsys):
        _, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        params = tmp_path / "p.csv"
        params.write_text("curve,alpha,theta,v\n" + "".join(f"{k},1,0,0\n" for k in range(1, 7)))
        where = with_blank_and_bad_cell(str(params), 4, 2, "-inf")
        assert run("align", "--curves", curves, "--params", str(params),
                   "--out", str(tmp_path / "a.csv")) == 3
        assert where in capsys.readouterr().err

    def test_box(self, tmp_path, box_file, capsys):
        where = with_blank_and_bad_cell(box_file, 2, 2)
        assert run("design", "--n", "5", "--box", box_file, "--out", str(tmp_path / "d.csv")) == 3
        assert where in capsys.readouterr().err

    def test_prediction_points(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file)
        surrogate = str(tmp_path / "sur.json")
        run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "3",
            "--surrogate-out", surrogate)
        points = tmp_path / "pts.csv"
        points.write_text("x1,x2,x3\n0.2,100,inf\n")
        assert run("predict", "--surrogate", surrogate, "--points", str(points),
                   "--out", str(tmp_path / "p.csv")) == 3
        assert "line 2, column 3: non-finite" in capsys.readouterr().err


class TestSurrogateErrors:
    @pytest.mark.parametrize("text", [
        None,
        "not json",
        '{"format": "dynshape-surrogate", "version": 1, "t_grid": [0]}',
        "VERSION",
    ])
    def test_unloadable_surrogate_exits_3(self, tmp_path, box_file, capsys, text):
        path = tmp_path / "sur.json"
        if text == "VERSION":
            design, curves = make_dataset(tmp_path, box_file)
            run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "3",
                "--surrogate-out", str(path))
            data = json.loads(path.read_text())
            data["version"] = 99
            text = json.dumps(data)
        if text is not None:
            path.write_text(text)
        points = tmp_path / "pts.csv"
        points.write_text("x1,x2,x3\n0.2,100,0.7\n")
        capsys.readouterr()
        assert run("predict", "--surrogate", str(path), "--points", str(points),
                   "--out", str(tmp_path / "p.csv")) == 3
        assert str(path) in capsys.readouterr().err

    def test_version_1_surrogate_asks_for_a_refit(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file)
        path = tmp_path / "sur.json"
        assert run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "3",
                   "--surrogate-out", str(path)) == 0
        data = json.loads(path.read_text())
        data["version"] = 1  # as written before the kriging weights were stored
        path.write_text(json.dumps(data))
        points = tmp_path / "pts.csv"
        points.write_text("x1,x2,x3\n0.2,100,0.7\n")
        capsys.readouterr()
        assert run("predict", "--surrogate", str(path), "--points", str(points),
                   "--out", str(tmp_path / "p.csv")) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "written by an older dynshape; refit it" in err

    def test_families_on_different_designs_exit_3(self, tmp_path, box_file, capsys):
        def edit(data):
            theta = data["families"]["theta"]
            assert theta["kind"] == "gp"
            theta["design"][0][0] += 0.01

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert path in err and "different designs" in err

    @pytest.mark.parametrize("version, field, token", [
        (2, ("families", "theta", "resid_solve", 0), "NaN"),
        (3, ("pattern_values", 3), "Infinity"),
        (3, ("pattern_values", 0), "-Infinity"),
        (2, ("families", "theta", "beta"), "NaN"),
        (2, ("families", "theta", "sigma2"), "1e999"),
        (3, ("families", "theta", "design", 0, 0), "1" + "0" * 400),
        (3, ("families", "theta", "responses", 0), "NaN"),
        (3, ("families", "theta", "nugget"), "NaN"),
        (3, ("families", "theta", "nugget"), "1e999"),
    ], ids=["nan-weight", "inf-pattern", "neg-inf-pattern", "nan-beta", "1e999-sigma2",
            "huge-int-design", "nan-response", "nan-nugget", "1e999-nugget"])
    def test_non_finite_number_exits_3(self, tmp_path, box_file, capsys, version, field, token):
        # the reader rejects a non-finite number anywhere, even in a key of a
        # version 2 file (weights, beta, sigma2) that loading recomputes, not reads
        def edit(data):
            *keys, last = field
            holder = data["segments"][0] if version == 2 else data
            for key in keys:
                holder = holder[key]
            holder[last] = "BAD"

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit,
                                                        ('"BAD"', token), version)
        assert code == 3
        assert path in err and "cannot load surrogate" in err

    @pytest.mark.parametrize("token", ['"text"', "[1.0]", "null"])
    def test_nugget_not_a_number_exits_3(self, tmp_path, box_file, capsys, token):
        # GpModel compares the nugget with 0, so the loader needs no check of its own
        def edit(data):
            data["families"]["theta"]["nugget"] = "BAD"

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit,
                                                        ('"BAD"', token))
        assert code == 3
        assert f"{path}: cannot load surrogate" in err

    @pytest.mark.parametrize("field, where", [
        (("families", "theta", "nugget"), "families.theta.nugget"),
        (("families", "theta", "lengths", 1), "families.theta.lengths[1]"),
        (("families", "theta", "responses", 2), "families.theta.responses[2]"),
        (("box", "lower", 0), "box.lower[0]"),
        (("pattern_values", 4), "pattern_values[4]"),
        (("families", "alpha"), "families.alpha.value"),
        (("version",), None),
    ], ids=["nugget", "length", "response", "box", "pattern", "fixed-value", "version"])
    @pytest.mark.parametrize("token", ["true", "false"])
    def test_boolean_exits_3(self, tmp_path, box_file, capsys, field, where, token):
        # json reads true and false as the ints 1 and 0, so such a file once
        # loaded (version true as version 1), most with other curves
        def edit(data):
            *keys, last = field
            holder = data
            for key in keys:
                holder = holder[key]
            holder[last] = {"kind": "fixed", "value": "BAD"} if last == "alpha" else "BAD"

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit,
                                                        ('"BAD"', token))
        assert code == 3
        message = (f"ValueError: {where} is true or false, not a number" if where
                   else "ValueError: not a dynshape-surrogate version 3 or 2 file")
        assert f"{path}: cannot load surrogate: {message}" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("kind", ["GP", "Fixed", ""])
    def test_unknown_family_kind_exits_3(self, tmp_path, box_file, capsys, kind):
        # once a KeyError on 'value', as every kind but "gp" was read as fixed
        def edit(data):
            data["families"]["theta"]["kind"] = kind

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert f"{path}: cannot load surrogate: ValueError: unknown family kind {kind!r}" in err

    @pytest.mark.parametrize("length", [0.0, -0.5])
    def test_nonpositive_length_exits_3(self, tmp_path, box_file, capsys, length):
        def edit(data):
            theta = data["families"]["theta"]
            assert theta["kind"] == "gp"
            theta["lengths"][1] = length

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert path in err and "correlation lengths must be positive and finite" in err

    def test_negative_nugget_exits_3(self, tmp_path, box_file, capsys):
        # once exit 0: the stored kriging weights predicted whatever the nugget said
        def edit(data):
            data["families"]["theta"]["nugget"] = -1.0

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert f"{path}: cannot load surrogate: ValueError: nugget must be nonnegative" in err
        assert not (tmp_path / "p.csv").exists()

    @staticmethod
    def predict_with_edited_file(tmp_path, box_file, capsys, edit, replace=("", ""), version=3):
        """Exit code, path and stderr of predict from a J = 11 surrogate file, in the
        layout of ``version``, after edit(data), with the text ``replace[0]`` then
        written as ``replace[1]``."""
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        path = tmp_path / "sur.json"
        assert run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "1",
                   "--surrogate-out", str(path)) == 0
        data = json.loads(path.read_text())
        if version == 2:
            data = as_version_2(data, fileio.load_surrogate(str(path)).models)
        edit(data)
        path.write_text(json.dumps(data).replace(*replace))
        points = tmp_path / "pts.csv"
        points.write_text("x1,x2,x3\n0.2,100,0.7\n")
        capsys.readouterr()
        code = run("predict", "--surrogate", str(path), "--points", str(points),
                   "--out", str(tmp_path / "p.csv"))
        return code, str(path), capsys.readouterr().err

    @pytest.mark.parametrize("change", [-2, 1, 2])
    def test_pattern_off_its_grid_exits_3(self, tmp_path, box_file, capsys, change):
        def edit(data):
            values = data["pattern_values"]
            data["pattern_values"] = values[:change] if change < 0 else values + [0.0] * change

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert path in err and "pattern does not span its time grid" in err

    @pytest.mark.parametrize("change", [-2, 2])
    def test_grid_off_its_pattern_exits_3(self, tmp_path, box_file, capsys, change):
        # a longer grid once left the extra prediction columns uninitialised
        def edit(data):
            t = data["t_grid"]
            step = t[1] - t[0]
            data["t_grid"] = t[:change] if change < 0 else t + [t[-1] + step, t[-1] + 2 * step]

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert path in err and "pattern does not span its time grid" in err

    @pytest.mark.parametrize("entry, period, where", [
        (99.0, -1.0, "period must be positive"),
        (99.0, None, "t_grid must equal j/J * period"),
        (None, -1.0, "period must be positive"),
    ], ids=["entry-and-period", "entry", "period"])
    def test_grid_off_its_period_exits_3(self, tmp_path, box_file, capsys, entry, period, where):
        # once exit 0, with t=99 in the header of the predicted curves
        def edit(data):
            if entry is not None:
                data["t_grid"][3] = entry
            if period is not None:
                data["period"] = period

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert f"{path}: cannot load surrogate: ValueError: {where}" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("token", ["5", "true", "null"])
    def test_pattern_not_a_list_exits_3(self, tmp_path, box_file, capsys, token):
        # once an IndexError traceback from the pattern's transform
        def edit(data):
            data["pattern_values"] = "BAD"

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit,
                                                        ('"BAD"', token))
        assert code == 3
        assert path in err and "pattern does not span its time grid" in err

    def test_even_grid_and_pattern_exit_3(self, tmp_path, box_file, capsys):
        # once exit 0, with rows of J + 2 cells under a header of J + 1
        def edit(data):
            data["t_grid"] = data["t_grid"][:-1]
            data["pattern_values"] = data["pattern_values"][:-1]

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert path in err and "pattern values must be 1-D of odd length >= 3" in err
        assert not (tmp_path / "p.csv").exists()

    def test_box_of_fewer_dimensions_exits_3(self, tmp_path, box_file, capsys):
        # once loaded: predict then exited 2 on 2-column points, naming no file
        def edit(data):
            data["box"]["lower"] = data["box"]["lower"][:2]
            data["box"]["upper"] = data["box"]["upper"][:2]

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert (f"{path}: cannot load surrogate: ValueError: GP family designs must have the "
                "box's 2 columns") in err

    def test_two_fitted_time_ranges_ask_for_a_refit(self, tmp_path, box_file, capsys):
        # a version 2 file held a list of fitted time ranges; one is read, two are not
        def edit(data):
            data["segments"].append(dict(data["segments"][0]))

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit, version=2)
        assert code == 3
        assert path in err and "holds 2 fitted time ranges, not one; refit it" in err

    def test_linalg_error_exits_4(self, tmp_path, box_file, monkeypatch):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli, "train", singular)
        assert run("fit", "--design", design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json")) == 4

    def test_failed_likelihood_search_exits_4(self, tmp_path, box_file, capsys, monkeypatch):
        # every factorization of K fails, so every start of the first family's search does
        design, curves = make_dataset(tmp_path, box_file, n=8, j=11)

        def failing(*args, **kwargs):
            raise IllConditionedDesignError("not positive definite")

        monkeypatch.setattr(gp, "build_correlation", failing)
        out = tmp_path / "s.json"
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves, "--surrogate-out", str(out)) == 4
        assert capsys.readouterr().err == (
            "error: parameter-model stage (alpha): all likelihood-search starts failed\n")
        assert not out.exists()

    def test_non_finite_registration_exits_4(self, tmp_path, box_file, capsys):
        # curves near the float limit overflow the contrast: a numerical failure, not bad input
        design, curves = make_dataset(tmp_path, box_file, n=8, j=11)
        values, times = fileio.read_curves_csv(curves)
        fileio.write_curves_csv(curves, fileio.curves_from_arrays(1e200 * values, times)[0])
        out = tmp_path / "s.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("fit", "--design", design, "--curves", curves, "--surrogate-out", str(out)) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err == ("error: registration stage: block 0: the contrast minimization "
                       "ended at a non-finite value\n")
        assert "Traceback" not in err
        assert not out.exists()


class TestBadFilesExit3:
    """Each case exits 3 with no traceback, and the message names the file."""

    @pytest.mark.parametrize("rows, where", [
        ("1,1,0,0\n2,-0.5,0.1,0\n", "line 3: alpha must be positive"),
        ("1,1,0,0\n2,1e-7,0.1,0\n", "below the floor"),
        ("1,1,0.2,0\n2,1,0.1,0\n", "line 2: reference curve"),
        ("", "no parameter rows"),
    ], ids=["negative-alpha", "alpha-below-floor", "reference-row", "header-only"])
    def test_params_values(self, tmp_path, box_file, capsys, rows, where):
        _, curves = make_dataset(tmp_path, box_file, n=2, j=11)
        params = tmp_path / "p.csv"
        params.write_text("curve,alpha,theta,v\n" + rows)
        capsys.readouterr()
        assert run("align", "--curves", curves, "--params", str(params),
                   "--out", str(tmp_path / "a.csv")) == 3
        err = capsys.readouterr().err
        assert str(params) in err and where in err

    def test_curves_not_utf8(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        with open(curves, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[3] = lines[3].replace(b",", b",\xff", 1)
        with open(curves, "wb") as handle:
            handle.write(b"".join(lines))
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert f"{curves}, line 4: not UTF-8 at byte " in capsys.readouterr().err

    def test_config_comment_not_utf8(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"block_size = 4\r\n# caf\xe9\r\nseed = 2\r\n")
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves, "--config", str(cfg),
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert f"{cfg}, line 2: not UTF-8 at byte 6" in capsys.readouterr().err

    def test_crlf_files_are_read(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        for path in (design, curves):
            with open(path, "rb") as handle:
                data = handle.read()
            with open(path, "wb") as handle:
                handle.write(data.replace(b"\n", b"\r\n"))
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"block_size = 4\r\n# comment\r\n")
        assert run("fit", "--design", design, "--curves", curves, "--config", str(cfg),
                   "--gp-multistarts", "1", "--surrogate-out", str(tmp_path / "s.json")) == 0

    @pytest.mark.parametrize("out", ["nodir/x.csv", "taken"])
    def test_output_path(self, tmp_path, box_file, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        capsys.readouterr()
        assert run("design", "--n", "4", "--box", box_file, "--out", out) == 3
        assert f"cannot write {out}: " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["box.csv", "taken"]
        assert os.listdir(tmp_path / "taken") == []

    def test_deeply_nested_surrogate(self, tmp_path, capsys):
        path = tmp_path / "sur.json"
        path.write_text("[" * 100_000)
        points = tmp_path / "pts.csv"
        points.write_text("x1,x2,x3\n0.2,100,0.7\n")
        capsys.readouterr()
        assert run("predict", "--surrogate", str(path), "--points", str(points),
                   "--out", str(tmp_path / "p.csv")) == 3
        assert f"{path}: cannot load surrogate: RecursionError" in capsys.readouterr().err


class TestTimeWindowsAreGone:
    def test_flag_is_gone(self, tmp_path, box_file):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        with pytest.raises(SystemExit) as exc:
            run("fit", "--design", design, "--curves", curves, "--time-windows", "2",
                "--surrogate-out", str(tmp_path / "s.json"))
        assert exc.value.code == 2

    def test_config_key_is_unknown(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("block_size = 4\ntime_windows = 2\n")
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves, "--config", str(cfg),
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert f"{cfg}, line 2: unknown setting 'time_windows'" in capsys.readouterr().err


class TestMaxItersIsGone:
    # registration's iteration cap is a constant: measured searches never reach it
    def test_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            run(*FIT_ARGV, "--max-iters", "50")
        assert exc.value.code == 2

    def test_config_key_is_unknown(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("block_size = 4\nmax_iters = 50\n")
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves, "--config", str(cfg),
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert f"{cfg}, line 2: unknown setting 'max_iters'" in capsys.readouterr().err


class TestTimesAndPeriodAreGone:
    # a curve's grid is its file's t= header, which every curves file carries
    ARGV = {
        "fit": FIT_ARGV,
        "align": ["align", "--curves", "c.csv", "--params", "p.csv", "--out", "a.csv"],
        "bench": ["bench", "--design", "d.csv", "--curves", "c.csv", "--test-design", "td.csv",
                  "--test-curves", "tc.csv", "--report-out", "r.csv", "--timings-out", "t.csv"],
        "validate": ["validate", "--surrogate", "s.json", "--test-design", "td.csv",
                     "--test-curves", "tc.csv", "--report-out", "r.csv"],
    }

    @pytest.mark.parametrize("flag, value", [("--times", "times.csv"), ("--period", "55")])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_flag_is_gone(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(*self.ARGV[command], flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# sha256 of each deterministic artifact of a small README quick start, run in
# process; any changed bit of a written CSV, fit diagnostic, saved surrogate or
# prediction shows here
QUICK_START_SHA256 = {
    "params.csv": "a68fd0a284f4e30838cfc9f626f486aad072632fc648be2a4cc46f1ef2b2b337",
    "pattern.csv": "7d44564f571bc58ac68be818d4524a8d5158faea38f020055e0453a94a7b68f7",
    "diagnostics.txt": "08d65b94a6c952f35002953945ddc97accc9cbd531ec90601848b97434d92190",
    "predicted.csv": "c2c2070cd913af986e8dc7121c0df4b8f8037ec773b3e1a89850565526e5105b",
    "report.csv": "4a1142f4c84f081f3d8f89b7d812dcb1469bb57a72622382d297515f01e174f2",
    "comparison.csv": "35ef7a21a49040023100e4967925a766f4027fa5907916542e43765ff678a0bf",
    "crossplot.csv": "18aa22cd443d88c51edfec2abdb9608ddcc1282674ffa6fe49ce74024d067dfb",
    "aligned.csv": "49dd65ea70731f4cfe4cda840801c1d570d57170af03ecc7ef9fa0dd2645aa33",
    "surrogate.json": "7f808120781bba306554f15d04ab435f970de3c618215378a51c9db5bdd2c014",
}


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The folder of a small README quick start plus bench and align, run in process."""
    folder = tmp_path_factory.mktemp("quick_start")
    (folder / "box.csv").write_text(BOX_TEXT)
    fit = ("--design", "design.csv", "--curves", "curves.csv", "--gp-multistarts", "2")
    test_set = ("--test-design", "test_design.csv", "--test-curves", "test_curves.csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(folder)
        for argv in [
            ("design", "--n", "12", "--box", "box.csv", "--seed", "0", "--maximin-restarts", "5",
             "--out", "design.csv"),
            ("synth", "co2", "--design", "design.csv", "--j", "21", "--curves-out", "curves.csv"),
            ("fit", *fit, "--surrogate-out", "surrogate.json", "--params-out", "params.csv",
             "--pattern-out", "pattern.csv", "--diagnostics-out", "diagnostics.txt"),
            ("design", "--n", "6", "--box", "box.csv", "--seed", "9", "--maximin-restarts", "0",
             "--out", "test_design.csv"),
            ("predict", "--surrogate", "surrogate.json", "--points", "test_design.csv",
             "--out", "predicted.csv"),
            ("synth", "co2", "--design", "test_design.csv", "--j", "21",
             "--curves-out", "test_curves.csv"),
            ("validate", "--surrogate", "surrogate.json", *test_set, "--report-out", "report.csv"),
            ("bench", *fit, *test_set, "--report-out", "comparison.csv",
             "--timings-out", "timings.csv", "--crossplot-out", "crossplot.csv"),
            ("align", "--curves", "curves.csv", "--params", "params.csv", "--out", "aligned.csv"),
        ]:
            assert run(*argv) == 0, argv
    return folder


class TestPinnedArtifacts:
    def test_quick_start_artifacts(self, quick_start):
        got = {name: hashlib.sha256((quick_start / name).read_bytes()).hexdigest()
               for name in QUICK_START_SHA256}
        assert got == QUICK_START_SHA256

    def test_report_is_the_comparisons_sim_columns(self, quick_start):
        # validate and bench write one per-step layout: bench's first five columns are
        # validate's file, its header suffixed with _sim
        report = (quick_start / "report.csv").read_text().splitlines()
        comparison = (quick_start / "comparison.csv").read_text().splitlines()
        assert report[0] == "step,t,rmse,q2,flag"
        assert comparison[0].startswith("step,t,rmse_sim,q2_sim,flag_sim,")
        assert len(report) == len(comparison) == 22
        assert report[1:] == [",".join(row.split(",")[:5]) for row in comparison[1:]]
