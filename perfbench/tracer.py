"""Span tracer that wraps the public functions of each linksig layer.

The tracer lives in the benchmark, not in the package: ``install`` replaces
every binding of a traced function, in every loaded ``linksig`` module and in
the layer's home module, by a wrapper that records one span per call.  A
module that did ``from .ccomplex import assemble_h`` holds its own binding,
so patching only ``ccomplex.assemble_h`` would miss the calls made through
it.  ``uninstall`` puts the original objects back.

Spans (layer, start, end, parent span, command id, value) are kept in flat
arrays while the commands run and written out once at the end.
``summarize`` turns a span file into per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


def _n3(args, result):
    return float(len(args[0]) ** 3)


def _useful(args, result):
    # H is assembled at the all-1/2 point too, but the exact route discards it.
    return 0.0 if args[1].is_minus_ones() else 1.0


def _nbytes(args, result):
    return float(len(result.encode()))


# (layer name, module, attribute, value recorded per call, workloads that
# drive it).  The names are the per-layer metric prefixes of BENCHMARK.json;
# the comment names the end-to-end metric a change to the layer should move.
LAYERS = (
    # cli.main.self_ms and cli.build_parser: cmd_p50_ms on query_mix
    ("cli.main", "linksig.cli", "main", None, ("scan_grid", "exact_forms", "query_mix")),
    ("cli.build_parser", "linksig.cli", "build_parser", None, ("query_mix",)),
    # cmd_p50_ms on query_mix, and setup_s everywhere
    ("catalog.self_check", "linksig.catalog", "self_check", None, ("query_mix",)),
    ("catalog.resolve_system", "linksig.catalog", "resolve_system", None, ("query_mix",)),
    # cmd_p50_ms on query_mix
    ("ccomplex.load_system", "linksig.ccomplex", "load_system", None, ("query_mix",)),
    ("ccomplex.validate", "linksig.ccomplex", "validate", None, ("query_mix",)),
    # samples_per_s on scan_grid; useful_ratio shows the H discarded on exact_forms
    ("ccomplex.assemble_h", "linksig.ccomplex", "assemble_h", _useful,
     ("scan_grid", "exact_forms")),
    ("ccomplex.TorusPoint.values", "linksig.ccomplex", "TorusPoint.values", None,
     ("scan_grid",)),
    # wall_s on exact_forms
    ("ccomplex.h_at_minus_ones", "linksig.ccomplex", "h_at_minus_ones", None, ("exact_forms",)),
    # samples_per_s on scan_grid, cmd_p50_ms on query_mix
    ("hermitian.hermitian_signature", "linksig.hermitian", "hermitian_signature", _n3,
     ("scan_grid", "query_mix")),
    # wall_s on exact_forms
    ("hermitian.integer_symmetric_signature", "linksig.hermitian",
     "integer_symmetric_signature", _n3, ("exact_forms",)),
    # self_ms is the per-sample overhead: samples_per_s on scan_grid
    ("invariants.torus_scan", "linksig.invariants", "torus_scan", None, ("scan_grid",)),
    # query_mix and exact_forms
    ("invariants.signature_nullity", "linksig.invariants", "signature_nullity", None,
     ("query_mix", "exact_forms")),
    # wall_s on scan_grid
    ("invariants.scan_to_csv", "linksig.invariants", "scan_to_csv", _nbytes, ("scan_grid",)),
    # query_mix and exact_forms
    ("bounds.evaluate_fixture", "linksig.bounds", "evaluate_fixture", None,
     ("query_mix", "exact_forms")),
    ("twobridge.build_gss", "linksig.twobridge", "build_gss", None, ("query_mix", "exact_forms")),
    # samples_per_s on scan_grid
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh", None, ("scan_grid",)),
    ("numpy.linalg.det", "numpy.linalg", "det", None, ("scan_grid",)),
)

# Layers that also report self time, and the metric and unit each span value
# is summed under (values are computed from the call, not timed).
SELF_TIME = ("cli.main", "invariants.torus_scan")
VALUE_METRIC = {
    "hermitian.hermitian_signature": ("n3_sum", "n3-computed"),
    "hermitian.integer_symmetric_signature": ("n3_sum", "n3-computed"),
    "invariants.scan_to_csv": ("bytes", "B"),
}


class Tracer:
    """Records spans of the LAYERS calls while installed."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.command_id = -1
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, index: int, function, value):
        def traced(*args, **kwargs):
            span = len(self.start)
            self.layer.append(index)
            self.parent.append(self._stack[-1])
            self.command.append(self.command_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.value.append(0.0)
            self._stack.append(span)
            begin = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self._stack.pop()
            self.start[span] = begin
            if value is not None:
                self.value[span] = value(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "linksig"]
        for index, (_, home, attribute, value, _) in enumerate(LAYERS):
            owner = importlib.import_module(home)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(index, original, value)
            holders = [owner] if path else [owner, *modules]
            for holder in holders:
                for name, bound in list(vars(holder).items()):
                    if bound is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            value=np.frombuffer(self.value),
        )


def summarize(path, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) from a span file, per traced pass of the workload."""
    with np.load(path) as spans:
        layer, parent = spans["layer"], spans["parent"]
        duration = spans["end"] - spans["start"]
        value = spans["value"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(layer))
    self_time = duration - children
    out = {}
    calls = {}
    for index, (name, *_) in enumerate(LAYERS):
        mine = layer == index
        calls[name] = int(mine.sum())
        out[f"{name}.calls"] = (calls[name] / passes, "count")
        out[f"{name}.ms"] = (1000.0 * float(duration[mine].sum()) / passes, "ms")
        if name in SELF_TIME:
            out[f"{name}.self_ms"] = (1000.0 * float(self_time[mine].sum()) / passes, "ms")
        if name in VALUE_METRIC:
            metric, unit = VALUE_METRIC[name]
            out[f"{name}.{metric}"] = (float(value[mine].sum()) / passes, unit)
        if name == "ccomplex.assemble_h":
            useful = float(value[mine].sum())
            out[f"{name}.useful_ratio"] = (useful / calls[name] if calls[name] else 0.0, "ratio")
    samples = calls["ccomplex.assemble_h"]
    factorizations = sum(
        calls[name]
        for name in ("numpy.linalg.eigvalsh", "numpy.linalg.det",
                     "hermitian.integer_symmetric_signature")
    )
    out["invariants.factorizations_per_sample"] = (
        factorizations / samples if samples else 0.0, "1/sample")
    return out
