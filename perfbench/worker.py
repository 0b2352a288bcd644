"""In-process side of the benchmark: input generation, timed passes and the
traced run.  run.py starts one fresh interpreter per task:

    python3 perfbench/worker.py TASK WORKLOAD --workdir DIR --seed N \
        --seconds S --result OUT.json [--spans SPANS.json]

TASK is ``facts``, ``prepare``, ``measure`` or ``trace``.  The result is
written to OUT.json; stdout and stderr are left to the program under test.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

import dynshape.cli as cli
from dynshape import doe, emulator, fileio, registration, synth

import tracer as tracing
import workloads as wl
from reference import Referenced

perf = time.perf_counter


# ------------------------------------------------------------------ facts


def task_facts(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ------------------------------------------------------------------ register


def _register_paths(workdir: str) -> tuple[str, str, str]:
    return (os.path.join(workdir, "curves.csv"), os.path.join(workdir, "truth.npy"),
            os.path.join(workdir, "aligned.csv"))


def prepare_register(args) -> dict:
    curves_path, truth_path, _ = _register_paths(args.workdir)
    curves, truth = synth.generate_analytical(
        wl.REGISTER_N, wl.REGISTER_J, wl.REGISTER_NOISE_VAR, args.seed,
        alpha_range=wl.REGISTER_ALPHA_RANGE,
    )
    fileio.write_curves_csv(curves_path, curves)
    np.save(truth_path, np.stack([truth.alpha, truth.theta, truth.v]))
    return {}


def register_pass(workdir: str) -> tuple[dict, tuple]:
    """read -> register -> pattern -> align -> write; returns stage seconds and outputs."""
    curves_path, _, aligned_path = _register_paths(workdir)
    t0 = perf()
    values, times = fileio.read_curves_csv(curves_path)
    curves, _ = fileio.curves_from_arrays(values, times=times)
    t1 = perf()
    params, _ = registration.estimate_params_blocked(
        curves, wl.REGISTER_BLOCK, registration.EstimationConfig())
    t2 = perf()
    pattern = registration.extract_pattern(registration.to_fourier(curves), params)
    aligned = registration.align_curves(curves, params)
    t3 = perf()
    fileio.write_curves_csv(aligned_path, aligned)
    t4 = perf()
    stages = {"read_s": t1 - t0, "estimate_s": t2 - t1, "pattern_align_s": t3 - t2,
              "write_s": t4 - t3, "pass_s": t4 - t0}
    return stages, (params, pattern, aligned)


def check_register(workdir: str, outputs) -> tuple[float, list[str]]:
    """Recovery error against the generator's truth, plus any failed checks."""
    params, pattern, aligned = outputs
    truth = np.load(_register_paths(workdir)[1])
    err = max(
        float(np.abs(params.alpha - truth[0]).max()),
        float(np.abs(registration.wrap_angle(params.theta - truth[1])).max()),
        float(np.abs(params.v - truth[2]).max()),
    )
    problems = []
    if not np.isfinite(err) or err > wl.RECOVERY_BOUND:
        problems.append(f"recovery error {err:.3g} exceeds {wl.RECOVERY_BOUND}")
    if not (np.isfinite(pattern.values).all() and np.isfinite(aligned.values).all()):
        problems.append("pattern or aligned curves are not finite")
    return err, problems


def measure_register(args) -> dict:
    samples, stages, ratios, failed, attempted = [], [], [], 0, 0
    errs, problems, digests = [], [], set()
    ref = Referenced()
    ref.mark()
    start = perf()
    while wl.keep_going(perf() - start, samples, args.seconds):
        attempted += 1
        t0 = perf()
        try:
            st, outputs = register_pass(args.workdir)
            err, bad = check_register(args.workdir, outputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            problems.append(f"register pass raised {exc!r}")
            ref.mark()
            samples.append(perf() - t0)
            continue
        ref.mark()
        ratios.append(ref.ratio(st["pass_s"], len(ref.times) - 2))
        digests.add(wl.sha256(_register_paths(args.workdir)[2]))
        failed += bool(bad)
        problems += bad
        samples.append(perf() - t0)
        stages.append(st)
        errs.append(err)
    if len(digests) > 1:
        failed += 1
        problems.append("aligned.csv differs between passes")
    med = {k: statistics.median(s[k] for s in stages) for k in stages[0]} if stages else {}
    return {"passes": len(stages), "pass_s": med.get("pass_s"), "stages": med,
            "pass_ref": statistics.median(ratios) if ratios else None,
            "reference_s": statistics.median(ref.times),
            "recovery_err": errs[0] if errs else None, "attempted": attempted,
            "failed": failed, "problems": problems,
            "fingerprints": {"aligned.csv": sorted(digests)[0] if digests else None}}


# ------------------------------------------------------------------ serve


def _serve_paths(workdir: str) -> tuple[str, str]:
    return os.path.join(workdir, "surrogate.json"), os.path.join(workdir, "points.npy")


def prepare_serve(args) -> dict:
    surrogate_path, points_path = _serve_paths(args.workdir)
    box = synth.co2_default_box()
    design = doe.scale_to_box(doe.maximin_lhd(wl.SERVE_TRAIN, box.dims, seed=args.seed,
                                              restarts=5), box)
    curves = synth.generate_functional_sim(synth.co2_style_spec(j=wl.SERVE_J), design)
    fileio.save_surrogate(surrogate_path, emulator.train(design, curves, box=box))
    rng = np.random.default_rng([args.seed, 1])
    np.save(points_path, box.lower + rng.random((wl.SERVE_POINTS, box.dims)) * box.span)
    return {"fingerprints": {"surrogate.json": wl.sha256(surrogate_path)}}


class ServeState:
    """Loaded surrogate plus what the output checks compare against."""

    def __init__(self, workdir: str):
        self.path, points_path = _serve_paths(workdir)
        self.load()
        self.points = np.load(points_path)
        self.spec = synth.co2_style_spec(j=wl.SERVE_J)
        self.batch_digest = None
        self.max_gap = 0.0  # largest relative single-versus-batch gap seen

    def load(self) -> None:
        self.surrogate = fileio.load_surrogate(self.path)


def serve_pass(state: ServeState, quality: bool) -> dict:
    """2,000 single-point calls, then every held-out point in batches.

    Returns per-call latencies, batch seconds, serving seconds (the sum of
    timed calls), the failed-check count and, when ``quality`` is set, the
    mean per-step Q2 against the simulator.
    """
    s = state.surrogate
    pts = state.points
    latencies, singles = [], []
    for x in pts[: wl.SERVE_SINGLE]:
        t0 = perf()
        pred = emulator.predict_curve(s, x)
        latencies.append(perf() - t0)
        singles.append(pred.values)
    batches, digest, failed = [], hashlib.sha256(), 0
    sse = s1 = s2 = 0.0
    for start in range(0, wl.SERVE_POINTS, wl.SERVE_BATCH):
        chunk = pts[start : start + wl.SERVE_BATCH]
        t0 = perf()
        values, _ = emulator.predict_curves(s, chunk)
        batches.append(perf() - t0)
        digest.update(values.tobytes())
        if not np.isfinite(values).all():
            failed += 1
        if start < wl.SERVE_SINGLE:
            mine = np.asarray(singles[start : start + wl.SERVE_BATCH])
            head = values[: len(mine)]
            gap = np.abs(mine - head).max(axis=1) / np.abs(head).max(axis=1)
            failed += int((~(gap <= wl.AGREE_RTOL)).sum())
            state.max_gap = max(state.max_gap, float(gap.max()))
        if quality:
            truth = synth.generate_functional_sim(
                state.spec, doe.DesignMatrix(points=chunk, normalized=False)).values
            sse = sse + ((values - truth) ** 2).sum(axis=0)
            s1 = s1 + truth.sum(axis=0)
            s2 = s2 + (truth ** 2).sum(axis=0)
    # batch outputs must not change from one pass to the next
    if state.batch_digest is None:
        state.batch_digest = digest.hexdigest()
    elif digest.hexdigest() != state.batch_digest:
        failed += 1
    out = {"latencies": latencies, "batches": batches,
           "pass_s": sum(latencies) + sum(batches), "failed": failed,
           "attempted": len(latencies) + len(batches)}
    if quality:
        sst = s2 - s1 ** 2 / wl.SERVE_POINTS
        ok = sst > 1e-9 * sst.max()
        out["q2"] = float(np.mean(1.0 - sse[ok] / sst[ok]))
    return out


def measure_serve(args) -> dict:
    """Serve passes until time is up.

    ``serve_s`` sums, over the operations of a pass (each single call, each
    batch), that operation's median time across passes: single calls have a
    heavy tail on a shared machine, and a median per operation keeps one
    slow moment from moving the whole pass.  ``pass_ref`` is the median over
    passes of the pass's serving seconds over the reference job's time
    around it.
    """
    state = ServeState(args.workdir)
    walls, latencies, batches, ratios, problems = [], [], [], [], []
    failed = attempted = 0
    q2 = None
    ref = Referenced()
    ref.mark()
    start = perf()
    while wl.keep_going(perf() - start, walls, args.seconds):
        t0 = perf()
        try:
            res = serve_pass(state, quality=q2 is None)
        except Exception as exc:  # a failed operation is counted, not fatal
            attempted += 1
            failed += 1
            problems.append(f"serve pass raised {exc!r}")
            ref.mark()
            walls.append(perf() - t0)
            continue
        ref.mark()
        ratios.append(ref.ratio(res["pass_s"], len(ref.times) - 2))
        q2 = res.get("q2", q2)
        walls.append(perf() - t0)
        latencies.append(res["latencies"])
        batches.append(res["batches"])
        failed += res["failed"]
        attempted += res["attempted"]
    lat, bat = np.asarray(latencies), np.asarray(batches)
    lat_us = lat.ravel() * 1e6
    return {"passes": len(walls),
            "serve_s": float(np.median(lat, axis=0).sum() + np.median(bat, axis=0).sum()),
            "pass_ref": statistics.median(ratios) if ratios else None,
            "reference_s": statistics.median(ref.times),
            "predict_p50_us": float(np.percentile(lat_us, 50)),
            "predict_p99_us": float(np.percentile(lat_us, 99)),
            "single_calls": lat.size,
            "predict_curves_per_s": wl.SERVE_POINTS / float(np.median(bat.sum(axis=1))),
            "heldout_q2": q2, "single_batch_gap": state.max_gap,
            "attempted": attempted, "failed": failed,
            "problems": problems + ([f"{failed} serve checks failed"] if failed else []),
            "fingerprints": {"batch_predictions": state.batch_digest}}


# ------------------------------------------------------------------ desk


def desk_pass(workdir: str, commands, tracer=None) -> tuple[dict, list[str]]:
    """(command name, argv) pairs through ``cli.main`` in this process.

    Returns seconds per command name (summed over repeats) and the commands
    that did not exit 0.
    """
    seconds: dict = {}
    failed = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in commands:
            span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
            sink = io.StringIO()
            t0 = perf()
            with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors exit
                    code = exc.code or 0
            seconds[name] = seconds.get(name, 0.0) + perf() - t0
            if code != 0:
                failed.append(f"{' '.join(argv[:2])} exited {code}: {sink.getvalue()[-200:]}")
    finally:
        os.chdir(here)
    return seconds, failed


def trace_desk(args, tracer) -> dict:
    dirs = {kind: wl.desk_folder(args.workdir, f"inprocess-{kind}")
            for kind in ("untraced", "traced")}
    commands = wl.desk_commands(args.seed)
    inprocess, failed = desk_pass(dirs["untraced"], commands)
    with tracer:
        traced, failed_traced = desk_pass(dirs["traced"], commands, tracer)
    return {"untraced_s": [sum(inprocess.values())], "traced_s": [sum(traced.values())],
            "passes": 1, "inprocess": inprocess, "attempted": 2 * len(commands),
            "failed": len(failed) + len(failed_traced), "problems": failed + failed_traced,
            "fingerprints": {k: wl.fingerprints(d, wl.DESK_ARTIFACTS) for k, d in dirs.items()}}


# ------------------------------------------------------------------ traced runs


def trace_alternating(args, tracer, run_pass) -> dict:
    """Alternate untraced and traced passes of the same work until time is up."""
    untraced, traced, problems = [], [], []
    failed = attempted = 0
    start = perf()
    while wl.keep_going(perf() - start, [a + b for a, b in zip(untraced, traced)], args.seconds):
        for kind, sink in (("untraced", untraced), ("traced", traced)):
            attempted += 1
            t0 = perf()
            try:
                with tracer if kind == "traced" else contextlib.nullcontext():
                    bad = run_pass()
            except Exception as exc:  # a failed operation is counted, not fatal
                bad = [f"{kind} pass raised {exc!r}"]
            sink.append(perf() - t0)
            failed += bool(bad)
            problems += bad
    return {"untraced_s": untraced, "traced_s": traced, "passes": len(traced),
            "attempted": attempted, "failed": failed, "problems": problems}


def trace_register(args, tracer) -> dict:
    digests = set()

    def run_pass():
        _, outputs = register_pass(args.workdir)
        digests.add(wl.sha256(_register_paths(args.workdir)[2]))
        bad = check_register(args.workdir, outputs)[1]
        return bad + (["aligned.csv differs between passes"] if len(digests) > 1 else [])

    return trace_alternating(args, tracer, run_pass)


def trace_serve(args, tracer) -> dict:
    state = ServeState(args.workdir)

    def run_pass():
        state.load()  # so the traced pass covers load_surrogate too
        res = serve_pass(state, quality=False)
        return [f"{res['failed']} serve checks failed"] if res["failed"] else []

    return trace_alternating(args, tracer, run_pass)


def task_trace(args) -> dict:
    tracer = tracing.Tracer()
    res = {"desk": trace_desk, "register": trace_register, "serve": trace_serve}[args.workload](
        args, tracer)
    res["per_layer"] = tracer.metrics(passes=res["passes"])
    res["leftover_wrappers"] = tracing.leftover_wrappers()
    if res["leftover_wrappers"]:
        res["failed"] += 1
        res["problems"].append(f"wrappers left installed: {res['leftover_wrappers']}")
    if args.spans:
        tracer.dump(args.spans)
    return res


def task_prepare(args) -> dict:
    return {"register": prepare_register, "serve": prepare_serve}[args.workload](args)


def task_measure(args) -> dict:
    return {"register": measure_register, "serve": measure_serve}[args.workload](args)


TASKS = {"facts": task_facts, "prepare": task_prepare, "measure": task_measure,
         "trace": task_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("workload", choices=("desk", "register", "serve"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = TASKS[args.task](args)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
