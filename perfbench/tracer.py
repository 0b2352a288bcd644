"""Spans and counters around dynshape's public functions.

A wrapper must sit where each caller looks the name up: ``emulator`` imports
``fit_gp``, ``predict_many`` and ``estimate_params_blocked`` by name, ``cli``
imports ``maximin_lhd`` and ``train`` by name, and so on.  ``Tracer.install``
therefore replaces every attribute of every loaded ``dynshape`` module that
*is* the original function, and ``Tracer.restore`` puts each one back.

Spans (name, start, end, parent) are kept in memory; per-layer metrics are
derived from them when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import Counter

# (module, function) pairs that get a span; the module is the one defining it.
TARGETS = {
    "doe": ("maximin_lhd",),
    "gp": ("fit_gp", "build_correlation", "gls_beta", "mle_sigma2", "loo_metrics",
           "predict_many", "assemble_gp_model"),
    "registration": ("estimate_params_blocked", "estimate_params", "contrast_with_gradient",
                     "to_fourier", "extract_pattern", "align_curves"),
    "emulator": ("train", "predict_curves", "predict_curve", "validate"),
    "fileio": ("read_curves_csv", "write_curves_csv", "read_design_csv", "write_design_csv",
               "save_surrogate", "load_surrogate", "atomic_write_text"),
    "synth": ("generate_functional_sim",),
}

CLI_COMMANDS = ("design", "synth", "fit", "predict", "validate")

# Every per-layer metric, in report order: (name, unit, better).  All of them
# are reported on every workload, so a layer a workload leaves idle reads 0.
PER_LAYER = [
    ("doe.maximin_lhd.s", "s", "lower"),
    ("doe.maximin_lhd.calls", "count", "lower"),
    ("gp.fit_gp.s", "s", "lower"),
    ("gp.fit_gp.calls", "count", "lower"),
    ("gp.fit_gp.self_s", "s", "lower"),
    ("gp.build_correlation.calls", "count", "lower"),
    ("gp.build_correlation.s", "s", "lower"),
    ("gp.evals_per_fit", "count", "lower"),
    ("gp.gls_beta.s", "s", "lower"),
    ("gp.mle_sigma2.s", "s", "lower"),
    ("gp.nugget_escalations", "count", "lower"),
    ("gp.loo_metrics.s", "s", "lower"),
    ("gp.predict_many.s", "s", "lower"),
    ("gp.predict_many.calls", "count", "lower"),
    ("gp.predict_many.us_per_point", "us", "lower"),
    ("gp.assemble_gp_model.s", "s", "lower"),
    ("registration.estimate_params_blocked.s", "s", "lower"),
    ("registration.estimate_params.calls", "count", "lower"),
    ("registration.estimate_params.s", "s", "lower"),
    ("registration.contrast_with_gradient.calls", "count", "lower"),
    ("registration.contrast_with_gradient.us_per_call", "us", "lower"),
    ("registration.nfev", "count", "lower"),
    ("registration.nit", "count", "lower"),
    ("registration.starts_usable_frac", "1", "higher"),
    ("registration.to_fourier.s", "s", "lower"),
    ("registration.extract_pattern.s", "s", "lower"),
    ("registration.align_curves.s", "s", "lower"),
    ("emulator.train.s", "s", "lower"),
    ("emulator.train.registration_s", "s", "lower"),
    ("emulator.train.gp_s", "s", "lower"),
    ("emulator.predict_curves.s", "s", "lower"),
    ("emulator.predict_curves.self_s", "s", "lower"),
    ("emulator.predict_curve.us", "us", "lower"),
    ("emulator.validate.s", "s", "lower"),
    ("fileio.read_curves_csv.s", "s", "lower"),
    ("fileio.write_curves_csv.s", "s", "lower"),
    ("fileio.read_design_csv.s", "s", "lower"),
    ("fileio.write_design_csv.s", "s", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("fileio.save_surrogate.s", "s", "lower"),
    ("fileio.load_surrogate.s", "s", "lower"),
    ("synth.generate_functional_sim.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    *[(f"cli.{cmd}.{part}", "s", "lower") for cmd in CLI_COMMANDS
      for part in ("inprocess_s", "overhead_s")],
    ("trace.overhead_frac", "1", "lower"),
]

_WRAPPED = "__perfbench_wrapped__"


def _count_escalation(counts, args, kwargs, result):
    requested = args[2] if len(args) > 2 else kwargs.get("nugget", 0.0)
    if result[1] > requested:
        counts["gp.nugget_escalations"] += 1


def _count_points(counts, args, kwargs, result):
    counts["gp.predict_many.points"] += len(result)


def _count_estimation(counts, args, kwargs, result):
    diag = result[1]
    counts["registration.nfev"] += diag.nfev
    counts["registration.nit"] += diag.iterations
    counts["registration.starts"] += len(diag.starts)
    counts["registration.starts_usable"] += sum(math.isfinite(s["fun"]) for s in diag.starts)


def _count_bytes(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["fileio.bytes_written"] += len(text.encode())


# Counters read from a call's arguments or result, after its span closes.
_AFTER = {
    "gp.build_correlation": _count_escalation,
    "gp.predict_many": _count_points,
    "registration.estimate_params": _count_estimation,
    "fileio.atomic_write_text": _count_bytes,
}


class Tracer:
    """Span recorder plus the patches that feed it.

    ``spans`` holds [name, start, end, parent index] lists; parent -1 marks
    a root span.  Use as a context manager to install and restore.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. around one CLI command."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    # ------------------------------------------------------------ patching

    @staticmethod
    def _namespaces() -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "dynshape" or name.startswith("dynshape."))]

    def install(self) -> None:
        import dynshape.cli  # noqa: F401  (loads every module that holds a target)

        spaces = self._namespaces()
        for module, names in TARGETS.items():
            home = sys.modules[f"dynshape.{module}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for space in spaces:
                    holder = vars(space)
                    for attr in [a for a, v in holder.items() if v is original]:
                        setattr(space, attr, wrapper)
                        self._patches.append((space, attr, original))

    def restore(self) -> None:
        for space, attr, original in reversed(self._patches):
            setattr(space, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # ------------------------------------------------------------ metrics

    def metrics(self, passes: int = 1) -> dict:
        """Per-layer metrics per pass, from spans of ``passes`` identical passes.

        Only the layers this tracer sees are filled in; ``cli.*`` and
        ``trace.*`` entries come from the caller.
        """
        spans = self.spans
        total, calls, self_s = Counter(), Counter(), Counter()
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _) in enumerate(spans):
            self_s[name] += t1 - t0 - child[i]

        def under(name: str, ancestor: str) -> tuple[int, float]:
            """Calls of and seconds in ``name`` with ``ancestor`` among its callers."""
            n, s = 0, 0.0
            for span in spans:
                if span[0] != name:
                    continue
                p = span[3]
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][3]
                if p >= 0:
                    n += 1
                    s += span[2] - span[1]
            return n, s

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c = self.counts
        summed = {}
        for name, _, _ in PER_LAYER:
            stem, _, kind = name.rpartition(".")
            if kind == "s":
                summed[name] = total[stem]
            elif kind == "calls":
                summed[name] = calls[stem]
        summed.update({
            "gp.fit_gp.self_s": self_s["gp.fit_gp"],
            "gp.nugget_escalations": c["gp.nugget_escalations"],
            "registration.nfev": c["registration.nfev"],
            "registration.nit": c["registration.nit"],
            "emulator.train.registration_s":
                under("registration.estimate_params_blocked", "emulator.train")[1],
            "emulator.train.gp_s": under("gp.fit_gp", "emulator.train")[1],
            "emulator.predict_curves.self_s":
                total["emulator.predict_curves"]
                - under("gp.predict_many", "emulator.predict_curves")[1],
            "fileio.bytes_written": c["fileio.bytes_written"],
        })
        out = {k: v / passes for k, v in summed.items()}
        out.update({
            "gp.evals_per_fit": ratio(under("gp.build_correlation", "gp.fit_gp")[0],
                                      calls["gp.fit_gp"]),
            "gp.predict_many.us_per_point": 1e6 * ratio(total["gp.predict_many"],
                                                        c["gp.predict_many.points"]),
            "registration.contrast_with_gradient.us_per_call":
                1e6 * ratio(total["registration.contrast_with_gradient"],
                            calls["registration.contrast_with_gradient"]),
            "registration.starts_usable_frac": ratio(c["registration.starts_usable"],
                                                     c["registration.starts"]),
            "emulator.predict_curve.us": 1e6 * ratio(total["emulator.predict_curve"],
                                                     calls["emulator.predict_curve"]),
        })
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: a name table plus [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(t0, 7), round(t1, 7), p] for n, t0, t1, p in self.spans]
        with open(path, "w") as handle:
            json.dump({"names": names, "spans": rows, "counts": dict(self.counts)}, handle)


def leftover_wrappers() -> list[str]:
    """Names of dynshape module attributes that still hold a tracing wrapper."""
    found = []
    for space in Tracer._namespaces():
        for attr, value in vars(space).items():
            if getattr(value, _WRAPPED, False):
                found.append(f"{getattr(space, '__name__', space)}.{attr}")
    return found
