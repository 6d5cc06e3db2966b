"""Span tracer that wraps hardylab's public functions from outside the package.

`Tracer.install()` replaces every public function of the traced modules with a
wrapper that records one span per call: name, parent span id, start and end
(`time.perf_counter_ns`).  The wrapper is put in place of the original in every
`hardylab` module namespace that refers to it, and in `harness.COMMANDS`, so
calls made through module globals are traced too.  No source file is edited.

Spans stay in memory and are written out by `dump()` when the run ends.  A
span's self time is its duration minus the durations of its child spans; the
program is single-threaded at the Python level, so spans nest exactly.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import tracemalloc

LAYERS = ("torus", "ensembles", "martingale", "inequalities", "harness")
# Top-level calls into these layers get a tracemalloc peak when enabled.
ALLOC_LAYERS = ("ensembles", "martingale", "inequalities")
GATE = "martingale.is_hardy_martingale"
REPORT_WRITERS = ("harness.write_json_report", "harness.write_csv_report")
MIB = 2.0**20


def _nbytes(obj) -> int:
    """Bytes held by the arrays of a hardylab result, computed from their sizes."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    for attr in ("terminal", "terms", "values"):  # MartingaleField, AdaptedPhases, GridFunction
        if hasattr(obj, attr):
            return _nbytes(getattr(obj, attr))
    return 0


class Tracer:
    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.names: list = []
        self.layers: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.nbytes: dict = {}  # span id -> computed bytes (gate input, ensembles output)
        self.alloc_peak: dict = {}  # span id -> tracemalloc peak above the call's start
        self._stack: list = []

    def wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        is_gate = span_name == GATE
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.names)
            parent = stack[-1] if stack else -1
            parent_layer = self.layers[parent] if parent >= 0 else None
            self.names.append(span_name)
            self.layers.append(layer)
            self.parents.append(parent)
            self.starts.append(0)
            self.ends.append(0)
            measure_alloc = (self.track_alloc and layer in ALLOC_LAYERS
                             and parent_layer not in ALLOC_LAYERS)
            if measure_alloc:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            if is_gate:
                self.nbytes[sid] = _nbytes(args[0])
            stack.append(sid)
            self.starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = clock()
                stack.pop()
            if measure_alloc:
                self.alloc_peak[sid] = tracemalloc.get_traced_memory()[1] - base
            if layer == "ensembles" and parent_layer != "ensembles":
                self.nbytes[sid] = _nbytes(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS wherever hardylab refers to them."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"hardylab.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self.wrap(layer, name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "hardylab" or mod_name.startswith("hardylab."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, name, wrapped[obj])
        commands = sys.modules["hardylab.harness"].COMMANDS
        for key, fn in commands.items():
            commands[key] = wrapped.get(fn, fn)
        if self.track_alloc:
            tracemalloc.start()

    def self_ns(self) -> list:
        covered = [0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[sid] - self.starts[sid]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, covered)]

    def layer_metrics(self, samples: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}; unexercised layers read 0."""
        self_ns = self.self_ns()
        calls: dict = {}
        self_by: dict = {}
        incl_by: dict = {}
        for sid, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            self_by[name] = self_by.get(name, 0) + self_ns[sid]
            incl_by.setdefault(name, []).append(self.ends[sid] - self.starts[sid])

        def n(name):
            return (calls.get(name, 0), "count")

        def self_s(*names):
            return (sum(self_by.get(name, 0) for name in names) / 1e9, "s")

        def incl_s(*names):
            return sum(sum(incl_by.get(name, ())) for name in names) / 1e9

        def pct_ms(name, q):
            values = sorted(incl_by.get(name, ()))
            if not values:
                return (0.0, "ms")
            return (values[max(0, math.ceil(q * len(values)) - 1)] / 1e6, "ms")

        entries = [sid for sid, layer in enumerate(self.layers)
                   if layer == "ensembles"
                   and (self.parents[sid] < 0 or self.layers[self.parents[sid]] != "ensembles")]
        gate_ids = [sid for sid, name in enumerate(self.names) if name == GATE]
        gate_bytes = sum(self.nbytes[sid] for sid in gate_ids)
        gate_s = incl_s(GATE)
        harness_ids = [sid for sid, layer in enumerate(self.layers)
                       if layer == "harness" and self.names[sid] not in REPORT_WRITERS]
        harness_self_s = sum(self_ns[sid] for sid in harness_ids) / 1e9

        def alloc_mib(layer):
            peaks = [peak for sid, peak in self.alloc_peak.items() if self.layers[sid] == layer]
            return (max(peaks, default=0) / MIB, "MiB")

        return {
            "torus.grid_builds": n("torus.make_grid"),
            "torus.analyze.calls": n("torus.analyze"),
            "torus.is_hardy.calls": n("torus.is_hardy"),
            "torus.is_hardy.self_s": self_s("torus.is_hardy"),
            "ensembles.calls": (len(entries), "count"),
            "ensembles.self_s": (sum(self_ns[sid] for sid, layer in enumerate(self.layers)
                                     if layer == "ensembles") / 1e9, "s"),
            "ensembles.assemble.self_s": self_s("ensembles.martingale_from_coefficients"),
            "ensembles.bytes_out": (sum(self.nbytes.get(sid, 0) for sid in entries),
                                    "bytes_computed"),
            "ensembles.alloc_peak_mb": alloc_mib("ensembles"),
            "martingale.gate.calls": (len(gate_ids), "count"),
            "martingale.gate.self_s": self_s(GATE),
            "martingale.gate.bytes_in": (gate_bytes, "bytes_computed"),
            "martingale.gate.gbytes_per_s": (gate_bytes / gate_s / 1e9 if gate_s else 0.0,
                                             "GB/s_computed"),
            "martingale.differences.self_s": self_s("martingale.differences"),
            "martingale.field_from_differences.self_s":
                self_s("martingale.field_from_differences"),
            "martingale.cosine_part.self_s": self_s("martingale.cosine_part"),
            "martingale.transform.self_s": self_s("martingale.transform"),
            "martingale.previsible_norm.self_s": self_s("martingale.previsible_norm"),
            "martingale.project_dyadic_cells.calls": n("martingale.project_dyadic_cells"),
            "martingale.project_dyadic_cells.self_s": self_s("martingale.project_dyadic_cells"),
            "martingale.alloc_peak_mb": alloc_mib("martingale"),
            "inequalities.stability_report.calls": n("inequalities.stability_report"),
            "inequalities.stability_report.self_s": self_s("inequalities.stability_report"),
            "inequalities.stability_report.p50_ms": pct_ms("inequalities.stability_report", 0.50),
            "inequalities.stability_report.p99_ms": pct_ms("inequalities.stability_report", 0.99),
            "inequalities.verify_chain.self_s": self_s("inequalities.verify_chain"),
            "inequalities.perturbation_bounds.self_s": self_s("inequalities.perturbation_bounds"),
            "inequalities.decomposition_sides.self_s": self_s("inequalities.decomposition_sides"),
            "inequalities.sincos_identity_sides.self_s":
                self_s("inequalities.sincos_identity_sides"),
            # The gap and excess batch, with the arith_envelope calls inside it.
            "inequalities.envelope.self_s": (
                incl_s("inequalities.envelope_gap_sides", "inequalities.envelope_excess_sides"),
                "s"),
            "inequalities.alloc_peak_mb": alloc_mib("inequalities"),
            "harness.self_s": (harness_self_s, "s"),
            "harness.self_us_per_sample": (harness_self_s / samples * 1e6, "us"),
            "harness.report_write_s": (incl_s("harness.write_json_report"), "s"),
        }

    def dump(self, path, run_id: str) -> None:
        """Write every span as [id, parent, name, start_ns, end_ns]; one run id per file."""
        spans = [[sid, parent, name, start, end] for sid, (parent, name, start, end)
                 in enumerate(zip(self.parents, self.names, self.starts, self.ends))]
        extras = {"nbytes": self.nbytes, "alloc_peak_bytes": self.alloc_peak}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "spans": spans, **extras}, fh, separators=(",", ":"))
