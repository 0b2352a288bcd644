"""dynshape benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {desk,register,serve} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout (the directory holding ``src/``).
The program is measured from outside: ``desk`` drives the ``dynshape`` CLI
as subprocesses, ``register`` and ``serve`` call the package's public
functions in a fresh worker interpreter (worker.py).  Every workload input is
generated from ``--seed``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` reruns the same inputs with spans around the package's public
functions and prints the per-layer metrics plus the tracing overhead.

Human-readable lines come first, then one ``facts`` line, and the last line
of stdout is the JSON result: correct, attempted, failed, metrics.
See README.md for what each workload is for and what it leaves idle.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads as wl
from reference import Referenced
from tracer import CLI_COMMANDS, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median
DEADLINE_S = 170.0  # every run must end within 180 s

# End-to-end metrics, reported on every workload: (name, unit, what it is).
END_TO_END = [
    ("setup_s", "s", "fresh interpreter to ready: import dynshape.cli "
                     "(serve: plus load_surrogate); median of 5, taken before "
                     "and after the measured work"),
    ("pass_ref", "ref", "wall time of one pass of the workload's job over the wall time of "
                        "the reference job run around it; median over passes, see README.md"),
    ("peak_rss_mb", "MB", "peak resident memory of the largest process the workload runs"),
]


@dataclass
class Child:
    """Outcome of one child process: exit code, wall seconds, peak RSS, output."""

    code: int
    wall: float
    rss_mb: float
    output: str


class Bench:
    """Paths, child environment and the run's deadline."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = os.path.join(root, ".bench_work", f"{workload}-s{seed}-{os.getpid()}")
        self.env = dict(os.environ)
        for key in ("DYNSHAPE_OUTDIR", "DYNSHAPE_THREADS"):
            self.env.pop(key, None)  # measure the documented defaults
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, argv: list[str], cwd: str | None = None) -> Child:
        """Run a child to completion; kill it if the run's deadline passes."""
        log = os.path.join(self.work, f"child-{time.monotonic_ns()}.log")
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise TimeoutError("the run's deadline passed")
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd or self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=out)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log, errors="replace") as handle:
            output = handle.read()
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, output)

    def op(self, child: Child, what: str) -> bool:
        """Count one operation; a non-zero exit is a failure."""
        self.attempted += 1
        if child.code != 0:
            self.fail(f"{what} exited {child.code}: {child.output.strip()[-300:]}")
        return child.code == 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def worker(self, task: str, spans: str | None = None) -> tuple[Child, dict]:
        """Run a worker task; a worker that fails stops the run."""
        result = os.path.join(self.work, f"{task}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), task, self.workload,
                "--workdir", self.work, "--seed", str(self.seed),
                "--seconds", str(self.seconds), "--result", result]
        if spans:
            argv += ["--spans", spans]
        child = self.run(argv)
        if child.code != 0:
            raise RuntimeError(f"worker {task} exited {child.code}:\n{child.output[-2000:]}")
        with open(result) as handle:
            return child, json.load(handle)

    def setup_probes(self, count: int) -> list[float]:
        """Wall times from a fresh interpreter to ready, one per probe."""
        code = "import dynshape.cli"
        argv = [sys.executable, "-c", code]
        if self.workload == "serve":
            argv = [sys.executable, "-c", code + "; import sys; "
                    "dynshape.cli.fileio.load_surrogate(sys.argv[1])", "surrogate.json"]
        walls = []
        for _ in range(count):
            child = self.run(argv)
            if self.op(child, "set-up probe"):
                walls.append(child.wall)
        return walls

    def setup_around(self, measure):
        """Run ``measure()`` between two halves of the set-up probes.

        The machine drifts in phases that can outlast a run; probes taken
        before and after the measured work sample more than one of them.
        Returns the median probe and what ``measure`` returned.
        """
        walls = self.setup_probes(SETUP_REPEATS // 2)
        result = measure()
        walls += self.setup_probes(SETUP_REPEATS - SETUP_REPEATS // 2)
        if not walls:
            raise RuntimeError("every set-up probe failed")
        return statistics.median(walls), result

    def src_lines(self) -> int:
        total = 0
        for folder, _, files in os.walk(os.path.join(self.root, "src")):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as handle:
                        total += sum(1 for _ in handle)
        return total


# ------------------------------------------------------------------ desk


def desk_pass(bench: Bench, folder: str,
              ref: Referenced | None = None) -> tuple[dict, float, bool, float]:
    """The quick start as seven subprocesses.

    Returns seconds per command name, peak RSS, whether every command
    exited 0 and, with ``ref``, the pass in reference units: the reference
    job runs before, between and after the commands, and each command's
    wall is read against the two reference times next to it.
    """
    walls: dict = {}
    rss = 0.0
    ok = True
    in_ref = 0.0
    if ref:
        ref.mark()
    for name, argv in wl.desk_commands(bench.seed):
        child = bench.run([sys.executable, "-m", "dynshape.cli", *argv], cwd=folder)
        walls[name] = walls.get(name, 0.0) + child.wall
        rss = max(rss, child.rss_mb)
        ok &= bench.op(child, f"dynshape {' '.join(argv[:2])}")
        if ref:
            ref.mark()
            in_ref += ref.ratio(child.wall, len(ref.times) - 2)
    return walls, rss, ok, in_ref


def desk_checks(bench: Bench, folder: str) -> float:
    """Output checks on one pass; returns the held-out Q2."""
    bad = wl.check_predicted(os.path.join(folder, "predicted.csv"))
    if bad:
        bench.fail(bad)
    q2 = wl.heldout_q2(os.path.join(folder, "report.csv"))
    if not q2 >= wl.HELDOUT_Q2_MIN:
        bench.fail(f"held-out Q2 {q2:.4f} is below {wl.HELDOUT_Q2_MIN}")
    return q2


def run_desk(bench: Bench):
    folder = wl.desk_folder(bench.work, "desk")
    passes, ratios, refs, rss, q2s, prints = [], [], [], 0.0, [], set()

    def measure():
        nonlocal rss
        start = time.perf_counter()
        while wl.keep_going(time.perf_counter() - start, [sum(p.values()) for p in passes],
                            bench.seconds):
            ref = Referenced()
            walls, peak, ok, in_ref = desk_pass(bench, folder, ref)
            passes.append(walls)
            ratios.append(in_ref)
            refs.extend(ref.times)
            rss = max(rss, peak)
            if ok:
                q2s.append(desk_checks(bench, folder))
                prints.add(json.dumps(wl.fingerprints(folder, wl.DESK_FINGERPRINTS)))

    setup, _ = bench.setup_around(measure)
    if len(prints) > 1:
        bench.fail("CLI artifacts differ between passes of the same seed")

    def med(*names):
        return statistics.median(sum(p[n] for n in names) for p in passes)

    q2 = statistics.median(q2s) if q2s else float("nan")
    details = {
        "pipeline_s": (med(*{n for n, _ in wl.desk_commands(0)}), "s"),
        "design_s": (med("design"), "s"),
        "fit_s": (med("fit"), "s"),
        "predict_cli_s": (med("predict"), "s"),
        "heldout_q2": (q2, "1"),
        "reference_s": (statistics.median(refs), "s"),
        "passes": (len(passes), "count"),
    }
    metrics = {"setup_s": setup, "pass_ref": statistics.median(ratios), "peak_rss_mb": rss}
    fingerprints = json.loads(sorted(prints)[0]) if prints else {}
    return metrics, details, fingerprints


def trace_desk(bench: Bench, spans: str):
    folder = wl.desk_folder(bench.work, "desk")
    import_s, (walls, _, ok, _) = bench.setup_around(lambda: desk_pass(bench, folder))
    _, res = bench.worker("trace", spans=spans)
    prints = wl.fingerprints(folder, wl.DESK_ARTIFACTS) if ok else {}
    for kind, theirs in res["fingerprints"].items():
        differ = sorted(k for k in wl.DESK_ARTIFACTS if theirs.get(k) != prints.get(k))
        if differ:
            bench.fail(f"{kind} in-process artifacts differ from the CLI's: {differ}")
    layer = res["per_layer"]
    layer["cli.import_s"] = import_s
    for cmd in CLI_COMMANDS:
        layer[f"cli.{cmd}.inprocess_s"] = res["inprocess"][cmd]
        layer[f"cli.{cmd}.overhead_s"] = walls[cmd] - res["inprocess"][cmd]
    return res, {name: prints.get(name) for name in wl.DESK_FINGERPRINTS}


# ------------------------------------------------------------------ register, serve


def run_register(bench: Bench):
    bench.worker("prepare")
    setup, (child, res) = bench.setup_around(lambda: bench.worker("measure"))
    details = {"register_s": (res["pass_s"], "s"),
               **{f"register.{k}": (v, "s") for k, v in res["stages"].items() if k != "pass_s"},
               "recovery_err": (res["recovery_err"], "1"),
               "reference_s": (res["reference_s"], "s"),
               "passes": (res["passes"], "count")}
    metrics = {"setup_s": setup, "pass_ref": res["pass_ref"], "peak_rss_mb": child.rss_mb}
    return metrics, details, res


def run_serve(bench: Bench):
    _, prep = bench.worker("prepare")
    setup, (child, res) = bench.setup_around(lambda: bench.worker("measure"))
    details = {k: (res[k], u) for k, u in (
        ("serve_s", "s"), ("predict_p50_us", "us"), ("predict_p99_us", "us"),
        ("single_calls", "count"), ("predict_curves_per_s", "1/s"), ("heldout_q2", "1"),
        ("single_batch_gap", "1"), ("reference_s", "s"), ("passes", "count"))}
    metrics = {"setup_s": setup, "pass_ref": res["pass_ref"], "peak_rss_mb": child.rss_mb}
    res["fingerprints"].update(prep["fingerprints"])
    return metrics, details, res


def trace_inprocess(bench: Bench, spans: str):
    bench.worker("prepare")
    import_s, (_, res) = bench.setup_around(lambda: bench.worker("trace", spans=spans))
    layer = res["per_layer"]
    layer["cli.import_s"] = import_s
    for cmd in CLI_COMMANDS:
        layer[f"cli.{cmd}.inprocess_s"] = layer[f"cli.{cmd}.overhead_s"] = 0.0
    return res, {}


# ------------------------------------------------------------------ main


def measure(bench: Bench) -> tuple[dict, dict, dict]:
    if bench.workload == "desk":
        return run_desk(bench)
    metrics, details, res = {"register": run_register, "serve": run_serve}[bench.workload](bench)
    bench.attempted += res["attempted"]
    bench.failed += res["failed"]
    bench.problems += res["problems"]
    return metrics, details, res["fingerprints"]


def trace(bench: Bench) -> tuple[dict, dict, dict]:
    spans = os.path.join(bench.root, ".bench_work", f"spans-{bench.workload}-s{bench.seed}.json")
    res, fingerprints = (trace_desk if bench.workload == "desk" else trace_inprocess)(bench, spans)
    bench.attempted += res["attempted"]
    bench.failed += res["failed"]
    bench.problems += res["problems"]
    layer = res["per_layer"]
    layer["trace.overhead_frac"] = (statistics.median(res["traced_s"])
                                    / statistics.median(res["untraced_s"]) - 1.0)
    details = {"untraced_pass_s": (statistics.median(res["untraced_s"]), "s"),
               "traced_pass_s": (statistics.median(res["traced_s"]), "s"),
               "traced_passes": (res["passes"], "count"),
               "spans_file": (os.path.relpath(spans, bench.root), "path")}
    return {name: layer[name] for name, _, _ in PER_LAYER}, details, fingerprints


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "register", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dynshape", "cli.py")):
        print(f"error: {root} is not a dynshape checkout (no src/dynshape/cli.py)",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    os.makedirs(bench.work)
    try:
        metrics, details, fingerprints = (trace if args.trace else measure)(bench)
        _, facts = bench.worker("facts")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    facts.update({"src_lines": bench.src_lines(), "fingerprints": fingerprints,
                  "seed": args.seed, "seconds": args.seconds})

    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in details.items():
        print(f"  {name:<48} {value} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
