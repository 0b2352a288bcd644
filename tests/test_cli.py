import json
import os

import numpy as np
import pytest

from dynshape import cli, fileio
from dynshape.cli import SETTINGS, _train_config, build_parser, int_or_none, main
from dynshape.emulator import TrainConfig
from dynshape.errors import InputConsistencyError
from dynshape.gp import FitConfig
from dynshape.registration import EstimationConfig

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

    def test_n_one_is_usage_error(self, tmp_path, box_file):
        with pytest.raises(SystemExit) as exc:
            run("design", "--n", "1", "--box", box_file, "--out", str(tmp_path / "d.csv"))
        assert exc.value.code == 2

    def test_negative_restarts_is_usage_error(self, tmp_path, box_file):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            run("design", "--n", "5", "--box", box_file, "--maximin-restarts", "-3",
                "--out", str(out))
        assert exc.value.code == 2
        assert not out.exists()

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

    def test_nonpositive_period_names_the_flag(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves, "--period", "-1",
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        assert "--period must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("times, message", [
        (range(10), "time grid has 10 entries but curves have 11 columns"),
        (range(1, 12), "the time grid must start at 0"),
    ])
    def test_bad_times_grid_names_the_file(self, tmp_path, box_file, capsys, times, message):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        path = tmp_path / "times.csv"
        path.write_text("".join(f"{k}\n" for k in times))
        capsys.readouterr()
        assert run("fit", "--design", design, "--curves", curves, "--times", str(path),
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
        err = capsys.readouterr().err
        assert f"error: --times {path}" in err and message in err

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
        assert len(timing_lines) == 5
        cross = open(crossplot).read().splitlines()
        assert cross[0] == "true,predicted,method,step"
        assert len(cross) == 1 + 2 * 6 * 11

    def test_other_time_grid_fails_before_training(self, tmp_path, box_file, capsys,
                                                     monkeypatch):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=55)
        test_design, test_curves = make_dataset(tmp_path, box_file, n=4, j=11, seed=5)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the test grid")

        monkeypatch.setattr(cli, "benchmark_against_per_step", no_training)
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


class TestEnvironmentOverrides:
    def test_outdir_prefixes_relative_outputs(self, tmp_path, box_file, monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("DYNSHAPE_OUTDIR", str(outdir))
        monkeypatch.chdir(tmp_path)
        assert run("design", "--n", "6", "--box", box_file, "--out", "design.csv") == 0
        assert (outdir / "design.csv").exists()
        assert not (tmp_path / "design.csv").exists()


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

    def test_every_setting_reaches_its_field(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha_min = 0.1\ngp_length_hi = 100\nseed = 9\nl_max = none\n")
        argv = FIT_ARGV + [
            "--config", str(cfg), "--seed", "3", "--block-size", "4", "--beta-exponent", "1.25",
            "--alpha-max", "9", "--l-max", "7", "--max-iters", "50",
            "--gp-multistarts", "5", "--gp-max-iters", "60", "--gp-length-lo", "0.01",
            "--gp-nugget-floor", "1e-8", "--var-fix-tol", "1e-6",
        ]
        assert config_from(argv) == TrainConfig(
            block_size=4, var_fix_tol=1e-6,
            estimation=EstimationConfig(alpha_bounds=(0.1, 9.0), beta_exponent=1.25, l_max=7,
                                        max_iters=50),
            gp=FitConfig(length_bounds=(0.01, 100.0), multistarts=5, max_iters=60,
                         nugget_floor=1e-8, seed=3),
        )

    def test_l_max_none_flag(self):
        assert config_from(FIT_ARGV + ["--l-max", "none"]).estimation.l_max is None

    def test_bad_config_value_is_input_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gp_multistarts = many\n")
        with pytest.raises(InputConsistencyError, match="run.cfg.*multistarts"):
            config_from(FIT_ARGV + ["--config", str(cfg)])

    @pytest.mark.parametrize("key,text", [("alpha_min", "30"), ("l_max", "0")])
    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_rejected_value_exit_code(self, tmp_path, box_file, capsys, key, text, source):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 2\n{key} = {text}\n" if source == "file" else "seed = 2\n")
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

    def test_flag_can_complete_a_file_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha_min = 30\n")
        config = config_from(FIT_ARGV + ["--config", str(cfg), "--alpha-max", "40"])
        assert config.estimation.alpha_bounds == (30.0, 40.0)


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

    def test_times(self, tmp_path, box_file, capsys):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        times = tmp_path / "times.csv"
        times.write_text("".join(f"{k}\n" for k in range(11)))
        where = with_blank_and_bad_cell(str(times), 5, 0)
        assert run("fit", "--design", design, "--curves", curves, "--times", str(times),
                   "--surrogate-out", str(tmp_path / "s.json")) == 3
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
        for family in data["segments"][0]["families"].values():
            family.pop("resid_solve", None)
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
            theta = data["segments"][0]["families"]["theta"]
            assert theta["kind"] == "gp"
            theta["design"][0][0] += 0.01

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert path in err and "different designs" in err

    @staticmethod
    def predict_with_edited_file(tmp_path, box_file, capsys, edit):
        """Exit code, path and stderr of predict from a J = 11 surrogate file after edit(data)."""
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)
        path = tmp_path / "sur.json"
        assert run("fit", "--design", design, "--curves", curves, "--gp-multistarts", "1",
                   "--surrogate-out", str(path)) == 0
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        points = tmp_path / "pts.csv"
        points.write_text("x1,x2,x3\n0.2,100,0.7\n")
        capsys.readouterr()
        code = run("predict", "--surrogate", str(path), "--points", str(points),
                   "--out", str(tmp_path / "p.csv"))
        return code, str(path), capsys.readouterr().err

    @pytest.mark.parametrize("change", [-2, 1, 2])
    def test_pattern_off_its_grid_exits_3(self, tmp_path, box_file, capsys, change):
        def edit(data):
            values = data["segments"][0]["pattern_values"]
            data["segments"][0]["pattern_values"] = (values[:change] if change < 0
                                                     else values + [0.0] * change)

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

    def test_two_fitted_time_ranges_ask_for_a_refit(self, tmp_path, box_file, capsys):
        def edit(data):
            data["segments"].append(dict(data["segments"][0]))

        code, path, err = self.predict_with_edited_file(tmp_path, box_file, capsys, edit)
        assert code == 3
        assert path in err and "holds 2 fitted time ranges, not one; refit it" in err

    def test_linalg_error_exits_4(self, tmp_path, box_file, monkeypatch):
        design, curves = make_dataset(tmp_path, box_file, n=6, j=11)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli, "train", singular)
        assert run("fit", "--design", design, "--curves", curves,
                   "--surrogate-out", str(tmp_path / "s.json")) == 4


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
