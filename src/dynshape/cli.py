"""Command-line front end.

Subcommands: design, synth, fit, align, predict, validate, bench.  All file
formats are plain CSV (plus JSON for serialized models); every command is
deterministic given its flags, config file and seed.  Exit codes: 0 success,
2 usage error, 3 inconsistent or malformed inputs, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import fileio
from .doe import DesignMatrix, lhd_sample, maximin_lhd, min_pairwise_distance, scale_to_box
from .emulator import (
    MIN_TRAINING_CURVES,
    TrainConfig,
    per_step_gp_predictions,
    per_step_report,
    predict_curves,
    train,
    validate,
)
from .errors import DynshapeError, InputConsistencyError
from .gp import FitConfig
from .registration import EstimationConfig, align_curves
from .synth import co2_default_box, co2_style_spec, generate_analytical, generate_functional_sim

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


def int_or_none(text: str) -> int | None:
    return None if text in ("none", "") else int(text)


# Every training setting, once: key -> (type, the config class it sets).
# The flag is --key with "-" for "_"; the config-file key is the key itself.
# A key names the field it sets, less any "gp_" prefix.
SETTINGS = {
    "seed": (int, FitConfig),
    "block_size": (int, TrainConfig),
    "beta_exponent": (float, EstimationConfig),
    "alpha_min": (float, EstimationConfig),
    "alpha_max": (float, EstimationConfig),
    "l_max": (int_or_none, EstimationConfig),
    "gp_multistarts": (int, FitConfig),
    "gp_max_iters": (int, FitConfig),
    "gp_length_lo": (float, FitConfig),
    "gp_length_hi": (float, FitConfig),
    "gp_nugget_floor": (float, FitConfig),
    "var_fix_tol": (float, TrainConfig),
}


def _read_curves(path: str) -> tuple:
    """Curves on the grid of the file's ``t=`` header; a grid error names the file."""
    values, times = fileio.read_curves_csv(path)
    try:
        curves, dropped = fileio.curves_from_arrays(values, times=times)
    except (ValueError, InputConsistencyError) as err:  # a bad grid, or too few columns left
        raise InputConsistencyError(f"{path}: {err}") from None
    if dropped:
        print(f"warning: {path} has an even number of time steps; dropped the last sample "
              "to make J odd", file=sys.stderr)
    return curves, dropped


def _design_and_curves(design_path: str, curves_path: str, min_curves: int = 1) -> tuple:
    """Design rows and at least ``min_curves`` curves that must pair up one to one."""
    points = fileio.read_design_csv(design_path)
    curves, dropped = _read_curves(curves_path)
    if curves.n < min_curves:
        raise InputConsistencyError(f"{curves_path} has {curves.n} curves; training needs at "
                                    f"least {min_curves}")
    if points.shape[0] != curves.n:
        raise InputConsistencyError(
            f"{design_path} has {points.shape[0]} rows but {curves_path} has {curves.n} curves"
        )
    return DesignMatrix(points=points, normalized=False), curves, dropped


def _train_config(args) -> TrainConfig:
    """The dataclass defaults, overridden by the config file, overridden by flags.

    A rejected value is a usage error if the flags alone hold it, else an
    input error naming the file and the keys without which it would pass.
    """
    from_file = {}
    if args.config:
        for key, text in fileio.read_config(args.config, set(SETTINGS)).items():
            try:
                from_file[key] = SETTINGS[key][0](text)
            except ValueError:
                raise InputConsistencyError(f"{args.config}: bad value {text!r} for {key}") from None
    flags = {key: getattr(args, key) for key in SETTINGS if getattr(args, key) is not None}
    given = {**from_file, **flags}
    try:
        return _config_from(given)
    except ValueError as err:
        if not _accepted(flags):
            raise
        keys = [key for key in from_file if key not in flags]
        blamed = [key for key in keys if _accepted({k: v for k, v in given.items() if k != key})]
        raise InputConsistencyError(f"{args.config}: {', '.join(blamed or keys)}: {err}") from None


def _config_from(given: dict) -> TrainConfig:
    """``TrainConfig`` from setting values, each default where ``given`` has none."""
    fields = {TrainConfig: {}, EstimationConfig: {}, FitConfig: {}}
    for key, value in given.items():
        fields[SETTINGS[key][1]][key.removeprefix("gp_")] = value
    return TrainConfig(
        **fields[TrainConfig],
        estimation=EstimationConfig(**fields[EstimationConfig]),
        gp=FitConfig(**fields[FitConfig]),
    )


def _accepted(given: dict) -> bool:
    try:
        _config_from(given)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------- commands


def cmd_design(args) -> None:
    if args.maximin_restarts < 0:  # 0 is the plain Latin hypercube, not a maximin setting
        raise ValueError("--maximin-restarts must be at least 0")
    box = fileio.read_box_csv(args.box)
    if args.maximin_restarts > 0:
        design = maximin_lhd(args.n, box.dims, seed=args.seed, restarts=args.maximin_restarts)
    else:
        design = lhd_sample(args.n, box.dims, seed=args.seed)
    dist = min_pairwise_distance(design.points)
    scaled = scale_to_box(design, box)
    fileio.write_design_csv(args.out, scaled.points)
    print(f"wrote {args.n} x {box.dims} design to {args.out}; "
          f"min pairwise distance (normalized) = {fileio.fmt(dist)}")


def cmd_synth_analytical(args) -> None:
    curves, truth = generate_analytical(args.n, args.j, args.noise_var, args.seed)
    fileio.write_curves_csv(args.curves_out, curves)
    if args.params_out:
        fileio.write_params_csv(args.params_out, truth)
    print(f"wrote {curves.n} x {curves.j} analytical curves to {args.curves_out}")


def cmd_synth_co2(args) -> None:
    box = fileio.read_box_csv(args.box) if args.box else co2_default_box()
    spec = co2_style_spec(j=args.j, noise_var=args.noise_var, seed=args.seed, box=box)
    points = fileio.read_design_csv(args.design)
    try:  # raises only on the design's points: wrong column count or outside the box
        curves = generate_functional_sim(spec, DesignMatrix(points=points, normalized=False))
    except ValueError as err:
        source = f"{args.design} in the box of {args.box}" if args.box else args.design
        raise InputConsistencyError(f"{source}: {err}") from None
    fileio.write_curves_csv(args.curves_out, curves)
    if args.truth_out:
        truth = np.column_stack([spec.alpha_fn(points), spec.theta_fn(points), spec.v_fn(points)])
        fileio.write_table(args.truth_out, "alpha,theta,v", truth)
    print(f"wrote {curves.n} x {curves.j} simulated curves to {args.curves_out}")


def cmd_fit(args) -> None:
    design, curves, dropped = _design_and_curves(args.design, args.curves, MIN_TRAINING_CURVES)
    config = _train_config(args)
    surrogate = train(design, curves, config)

    fileio.save_surrogate(args.surrogate_out, surrogate)
    if args.params_out:
        fileio.write_params_csv(args.params_out, surrogate.params)
    if args.pattern_out:
        fileio.write_pattern_csv(args.pattern_out, curves.t_grid, surrogate.pattern.values)
    if args.diagnostics_out:
        lines = [
            f"contrast = {fileio.fmt(surrogate.record['contrast'])}",
            f"curves = {curves.n}",
            f"time_steps = {curves.j}",
            f"dropped_last_step = {int(dropped)}",
            f"block_size = {config.block_size}",
        ]
        lines += [f"{name}_{key} = {value if isinstance(value, str) else fileio.fmt(value)}"
                  for name, facts in surrogate.record["families"].items()
                  for key, value in facts.items()]
        fileio.atomic_write_text(args.diagnostics_out, "\n".join(lines) + "\n")
    print(f"trained surrogate on {curves.n} curves x {curves.j} steps -> {args.surrogate_out}")


def cmd_align(args) -> None:
    curves, _ = _read_curves(args.curves)
    params = fileio.read_params_csv(args.params)
    if params.n != curves.n:
        raise InputConsistencyError(f"{args.params} has {params.n} rows but {args.curves} has "
                                    f"{curves.n} curves")
    try:
        aligned = align_curves(curves, params)
    except ValueError as err:  # an amplitude scale below the floor
        raise InputConsistencyError(f"{args.params}: {err}") from None
    fileio.write_curves_csv(args.out, aligned)
    print(f"wrote {aligned.n} aligned curves to {args.out}")


def cmd_predict(args) -> None:
    surrogate = fileio.load_surrogate(args.surrogate)
    points = fileio.read_design_csv(args.points)
    header = ",".join(f"t={fileio.fmt(t)}" for t in surrogate.t_grid) + ",extrapolated"
    if points.shape[1] != surrogate.d:
        raise InputConsistencyError(f"{args.points} has {points.shape[1]} columns but "
                                    f"{args.surrogate} expects {surrogate.d}")
    values, flags = predict_curves(surrogate, points)
    fileio.write_table(args.out, header, np.column_stack([values, flags]))
    print(f"wrote {points.shape[0]} predicted curves to {args.out}")


def _test_set(args, t_grid: np.ndarray, d: int, reference: str) -> tuple:
    """The held-out design and curves, which must have the d inputs and the time grid of
    the training set, read from the file(s) named ``reference``."""
    test_design, test_curves, _ = _design_and_curves(args.test_design, args.test_curves)
    if test_design.points.shape[1] != d:
        raise InputConsistencyError(f"--test-design {args.test_design} has "
                                    f"{test_design.points.shape[1]} columns but {reference} has {d}")
    tol = 1e-9 * max(t_grid[1], 1.0)  # what CurveSet allows a grid
    if test_curves.j != t_grid.size or not np.allclose(test_curves.t_grid, t_grid, 0.0, tol):
        raise InputConsistencyError(
            f"--test-curves {args.test_curves} has J = {test_curves.j} time steps of "
            f"{fileio.fmt(test_curves.t_grid[1])} but {reference} has J = {t_grid.size} "
            f"of {fileio.fmt(t_grid[1])}")
    return test_design, test_curves


def cmd_validate(args) -> None:
    surrogate = fileio.load_surrogate(args.surrogate)
    test_design, test_curves = _test_set(args, surrogate.t_grid, surrogate.d, args.surrogate)
    report = validate(surrogate, test_design, test_curves)
    fileio.write_report_csv(args.report_out, surrogate.t_grid, {"": report})
    print(f"overall rmse = {fileio.fmt(report.overall_rmse)}; "
          f"mean q2 over unflagged steps = {fileio.fmt(report.mean_q2_unflagged)}")


def cmd_bench(args) -> None:
    design, curves, _ = _design_and_curves(args.design, args.curves, MIN_TRAINING_CURVES)
    test_design, test_curves = _test_set(args, curves.t_grid, design.points.shape[1],
                                         f"{args.design} with {args.curves}")
    config = _train_config(args)
    surrogate = train(design, curves, config)
    sim_predicted, _ = predict_curves(surrogate, test_design.points)
    t0 = time.perf_counter()
    step_predicted = per_step_gp_predictions(design, curves, test_design.points, config.gp)
    step_seconds = time.perf_counter() - t0
    sim = per_step_report(sim_predicted, test_curves.values)
    step = per_step_report(step_predicted, test_curves.values)
    fileio.write_report_csv(args.report_out, curves.t_grid, {"_sim": sim, "_step": step})

    seconds = surrogate.record["seconds"]
    timing_lines = ["stage,seconds", *(f"sim_{stage},{fileio.fmt(s)}" for stage, s in seconds.items()),
                    f"per_step_gp_total,{fileio.fmt(step_seconds)}"]
    fileio.atomic_write_text(args.timings_out, "\n".join(timing_lines) + "\n")

    if args.crossplot_out:
        fileio.write_crossplot_csv(
            args.crossplot_out,
            [("sim", test_curves.values, sim_predicted),
             ("per_step_gp", test_curves.values, step_predicted)],
        )
    print(f"sim train {seconds['total']:.2f}s vs per-step {step_seconds:.2f}s; "
          f"mean q2 sim = {fileio.fmt(sim.mean_q2_unflagged)}, "
          f"per-step = {fileio.fmt(step.mean_q2_unflagged)}")


# ---------------------------------------------------------------- parser


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value settings file")
    for key, (kind, *_) in SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynshape",
        description="Curve-registration surrogate models for dynamic simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="sample a space-filling design on a box")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--box", required=True, help="CSV of name,min,max rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--maximin-restarts", type=int, default=20,
                   help="0 = plain Latin hypercube without maximin improvement; must be >= 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    synth = sub.add_parser("synth", help="generate synthetic benchmark data")
    synth_sub = synth.add_subparsers(dest="kind", required=True)

    p = synth_sub.add_parser("analytical", help="parabola benchmark with iid uniform parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--noise-var", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curves-out", required=True)
    p.add_argument("--params-out")
    p.set_defaults(func=cmd_synth_analytical)

    p = synth_sub.add_parser("co2", help="pressure-style functional simulator stand-in")
    p.add_argument("--design", required=True, help="design CSV in box coordinates")
    p.add_argument("--box", help="box CSV; defaults to the built-in demo box")
    p.add_argument("--j", type=int, default=55)
    p.add_argument("--noise-var", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curves-out", required=True)
    p.add_argument("--truth-out", help="optional alpha,theta,v map values")
    p.set_defaults(func=cmd_synth_co2)

    p = sub.add_parser("fit", help="train a functional surrogate")
    p.add_argument("--design", required=True)
    p.add_argument("--curves", required=True, help="curves CSV (rows = curves, header t=<value>)")
    _add_fit_flags(p)
    p.add_argument("--surrogate-out", required=True)
    p.add_argument("--params-out")
    p.add_argument("--pattern-out")
    p.add_argument("--diagnostics-out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("align", help="apply the inverse deformation to curves")
    p.add_argument("--curves", required=True, help="curves CSV (rows = curves, header t=<value>)")
    p.add_argument("--params", required=True, help="curve,alpha,theta,v CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("predict", help="predict full curves at new points")
    p.add_argument("--surrogate", required=True)
    p.add_argument("--points", required=True, help="points CSV in design format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("validate", help="per-step metrics on held-out runs")
    p.add_argument("--surrogate", required=True)
    p.add_argument("--test-design", required=True)
    p.add_argument("--test-curves", required=True)
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="compare against one GP per time step")
    p.add_argument("--design", required=True)
    p.add_argument("--curves", required=True, help="curves CSV (rows = curves, header t=<value>)")
    p.add_argument("--test-design", required=True)
    p.add_argument("--test-curves", required=True)
    _add_fit_flags(p)
    p.add_argument("--report-out", required=True)
    p.add_argument("--timings-out", required=True)
    p.add_argument("--crossplot-out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except InputConsistencyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (DynshapeError, np.linalg.LinAlgError) as err:  # LinAlgError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
