"""Span recorder that wraps distcorr's public functions from outside it.

``install`` replaces every public function of the traced modules, in
every distcorr module namespace that refers to it, with a wrapper that
records a span (name, start, end, parent).  ``core``'s reference to
scipy's ``cdist`` is wrapped too, as span ``core.distance``.  Spans stay
in memory until ``layer_metrics`` folds them into per-layer figures.

With ``memory=True`` the recorder also runs ``tracemalloc`` and keeps, for
the outermost call of each tracked group, the peak traced memory above
the level at the call's entry.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "screening", "inference", "core", "samples")

# Span names that differ from "<layer>.<function>".
ALIASES = {
    "core.cdist": "core.distance",
    "core.double_center": "core.center",
    "core.dcov_sq_materialized": "core.materialized",
    "core.dcov_sq_streaming": "core.streaming",
}


def _bytes_of(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# Counters taken at the span's boundary: span name -> f(arguments, result).
COUNTERS = {
    "core.distance": lambda a, r: {"core.distance.entries": len(a["XA"]) * len(a["XB"])},
    "inference.permutation_test": lambda a, r: {"inference.replicates": a["replicates"]},
    "screening.load_dataset": lambda a, r: {"screening.input_bytes": _bytes_of(a["path"])},
    "screening.pairwise_screen": lambda a, r: {
        "screening.pairs": len(r.records),
        "screening.skipped_pairs": sum(w.startswith("pair ") for w in r.warnings),
    },
    "screening.emit_plot_data": lambda a, r: {"screening.output_bytes": _bytes_of(a["path"])},
}


def _peak_group(name: str) -> str | None:
    if name == "screening.load_dataset":
        return name
    layer = name.split(".", 1)[0]
    return layer if layer in ("core", "inference") else None


class Recorder:
    def __init__(self, memory: bool = False):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.memory = memory
        self.peaks: dict[str, float] = defaultdict(float)  # group -> MiB
        self._open: list[list] = []  # [group, baseline bytes, peak bytes above it]

    def _fold_peak(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for entry in self._open:
            entry[2] = max(entry[2], peak - entry[1])
        tracemalloc.reset_peak()

    def _enter_memory(self, name: str) -> bool:
        group = _peak_group(name)
        if group is None or any(e[0] == group for e in self._open):
            return False
        self._fold_peak()
        self._open.append([group, tracemalloc.get_traced_memory()[0], 0])
        return True

    def _exit_memory(self) -> None:
        self._fold_peak()
        group, _, peak = self._open.pop()
        self.peaks[group] = max(self.peaks[group], peak / 2**20)

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            span = [name, 0, 0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            opened = self.memory and self._enter_memory(name)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                if opened:
                    self._exit_memory()
                self.stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS in every loaded distcorr module."""
        modules = {m: sys.modules[f"distcorr.{m}"] for m in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    replace[id(obj)] = self.wrap(obj, ALIASES.get(name, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "distcorr" or mod_name.startswith("distcorr."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replace:
                        setattr(mod, attr, replace[id(obj)])
        core = modules["core"]
        core.cdist = self.wrap(core.cdist, "core.distance")
        if self.memory:
            tracemalloc.start()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of every span recorded so far.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap, as calls nest.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]

        def s(name):
            return self_ns[name] / 1e9

        replicates = self.counts["inference.replicates"]
        loop_s = s("inference.permutation_test")
        m = {
            "core.distance.calls": calls["core.distance"],
            "core.distance.entries": self.counts["core.distance.entries"],
            "core.distance.self_s": s("core.distance"),
            "core.center.calls": calls["core.center"],
            "core.center.self_s": s("core.center"),
            "core.dcov_sq.calls": calls["core.dcov_sq"],
            "core.materialized.calls": calls["core.materialized"],
            "core.materialized.self_s": s("core.materialized"),
            "core.streaming.calls": calls["core.streaming"],
            "core.streaming.self_s": s("core.streaming"),
            "core.dcor.calls": calls["core.dcor"],
            "core.pearson.self_s": s("core.pearson"),
            "inference.permutation_test.calls": calls["inference.permutation_test"],
            "inference.replicates": replicates,
            "inference.permutation_loop.self_s": loop_s,
            "inference.replicates_per_s": replicates / loop_s if loop_s > 0 else 0.0,
            "screening.load_dataset.self_s": s("screening.load_dataset"),
            "screening.input_bytes": self.counts["screening.input_bytes"],
            "screening.pairwise_screen.self_s": s("screening.pairwise_screen"),
            "screening.pairs": self.counts["screening.pairs"],
            "screening.skipped_pairs": self.counts["screening.skipped_pairs"],
            "screening.flag_outliers.self_s": s("screening.flag_outliers"),
            "screening.emit_plot_data.self_s": s("screening.emit_plot_data"),
            "screening.output_bytes": self.counts["screening.output_bytes"],
            "samples.as_sample.calls": calls["samples.as_sample"],
            "samples.as_sample.self_s": s("samples.as_sample"),
            # the cli layer's own glue: main plus the command handlers it runs
            "cli.main.self_s": sum(v for k, v in self_ns.items() if k.startswith("cli.")) / 1e9,
        }
        if self.memory:
            m["core.peak_traced_mib"] = self.peaks["core"]
            m["inference.peak_traced_mib"] = self.peaks["inference"]
            m["screening.load_dataset.peak_traced_mib"] = self.peaks["screening.load_dataset"]
        return m
