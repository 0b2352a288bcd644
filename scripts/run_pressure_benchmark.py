#!/usr/bin/env python3
"""Desk-scale dynamic-simulator study: curve surrogate vs one GP per step.

Uses the built-in pressure-style stand-in simulator over the demo reservoir
box: trains on a maximin design, validates on held-out points, and compares
training cost and per-step predictivity against the single-step baseline.

Usage:
    python3 scripts/run_pressure_benchmark.py --j 55 --outdir results/pressure
"""
import argparse
import os
import sys

import numpy as np

from dynshape.doe import lhd_sample, maximin_lhd, scale_to_box
from dynshape.emulator import TrainConfig, benchmark_against_per_step
from dynshape.fileio import atomic_write_text, fmt, write_crossplot_csv, write_report_csv
from dynshape.gp import FitConfig
from dynshape.registration import EstimationConfig
from dynshape.synth import co2_default_box, co2_style_spec, generate_functional_sim


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-train", type=int, default=30)
    parser.add_argument("--n-test", type=int, default=20)
    parser.add_argument("--j", type=int, default=55, help="time steps (odd)")
    parser.add_argument("--noise-var", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--outdir", default="results/pressure")
    args = parser.parse_args(argv)

    os.makedirs(args.outdir, exist_ok=True)
    box = co2_default_box()
    spec = co2_style_spec(j=args.j, noise_var=args.noise_var, seed=args.seed)
    design = scale_to_box(maximin_lhd(args.n_train, 3, seed=args.seed, restarts=20), box)
    curves = generate_functional_sim(spec, design)
    test_design = scale_to_box(lhd_sample(args.n_test, 3, seed=args.seed + 606), box)
    test_curves = generate_functional_sim(spec, test_design)

    config = TrainConfig(
        block_size=10,
        estimation=EstimationConfig(),
        gp=FitConfig(multistarts=6, seed=args.seed),
    )
    bench = benchmark_against_per_step(design, curves, test_design, test_curves, config)

    write_report_csv(os.path.join(args.outdir, "report_sim.csv"), bench.sim_report,
                     curves.t_grid)
    write_report_csv(os.path.join(args.outdir, "report_per_step.csv"), bench.step_report,
                     curves.t_grid)
    write_crossplot_csv(
        os.path.join(args.outdir, "crossplot.csv"),
        [("sim", bench.test_values, bench.sim_predicted),
         ("per_step_gp", bench.test_values, bench.step_predicted)],
    )
    timing = [
        "stage,seconds",
        f"sim_registration,{fmt(bench.sim_registration_seconds)}",
        f"sim_parameter_models,{fmt(bench.sim_gp_seconds)}",
        f"sim_total,{fmt(bench.sim_train_seconds)}",
        f"per_step_gp_total,{fmt(bench.step_train_seconds)}",
    ]
    atomic_write_text(os.path.join(args.outdir, "timings.csv"), "\n".join(timing) + "\n")

    print(f"trained on {args.n_train} runs x {curves.j} steps, validated on {args.n_test}")
    print(f"  curve surrogate : {bench.sim_train_seconds:6.2f}s train, "
          f"mean per-step q2 = {bench.sim_report.mean_q2_unflagged:.4f}")
    print(f"  per-step GPs    : {bench.step_train_seconds:6.2f}s train, "
          f"mean per-step q2 = {bench.step_report.mean_q2_unflagged:.4f}")
    lowest = np.nanargmin(bench.sim_report.per_step_q2)
    print(f"  weakest surrogate step: {lowest + 1} "
          f"(q2 = {bench.sim_report.per_step_q2[lowest]:.4f})")
    print(f"artifacts in {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
