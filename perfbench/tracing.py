"""Span recording from outside the program, and per-layer accounting.

``Tracer.install`` wraps every function listed in ``__all__`` of the layer
modules and rebinds it in every ``sqbattery`` module namespace that holds
it, so calls between modules go through the wrappers. Classes in
``__all__`` are left alone: rebinding a class would break ``isinstance``
and dataclass replacement. Spans (name, start, end, parent) stay in memory
until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "sqbattery"
LAYERS = ("linalg", "model", "dynamics", "metrics", "sweep", "output", "verify")
EIGENSOLVER = "linalg.hermitian_eigendecomposition"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent span]
        self.eig_inputs: list[np.ndarray] = []  # eigensolver inputs, in call order
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        layer_modules = [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for layer, module in zip(LAYERS, layer_modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def restore(self) -> None:
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        inputs = self.eig_inputs if name == EIGENSOLVER else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inputs is not None:
                inputs.append(np.array(args[0] if args else kwargs["m"], dtype=complex))
            span = [name_index, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def dump(self, path) -> None:
        shapes = [list(a.shape) for a in self.eig_inputs]
        flat = [a.ravel() for a in self.eig_inputs]
        np.savez(
            path,
            meta=np.array(json.dumps({"names": self.names, "eig_shapes": shapes})),
            spans=np.array(self.spans, dtype=np.int64).reshape(-1, 4),
            eig_data=np.concatenate(flat) if flat else np.zeros(0, dtype=complex),
        )


def load(path) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """Read a dump back: span names, the (n, 4) span table, eigensolver inputs."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        spans = data["spans"]
        eig_data = data["eig_data"]
    inputs, offset = [], 0
    for shape in meta["eig_shapes"]:
        size = int(np.prod(shape))
        inputs.append(eig_data[offset:offset + size].reshape(shape))
        offset += size
    return meta["names"], spans, inputs


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children (ns)."""
    duration = (spans[:, 2] - spans[:, 1]).astype(np.int64)
    child = np.zeros(len(spans), dtype=np.int64)
    has_parent = spans[:, 3] >= 0
    np.add.at(child, spans[has_parent, 3], duration[has_parent])
    return duration - child


def summarize(path, curve_cells: int) -> dict:
    """Per-layer sums of one traced run's dump, plus the list of curve durations.

    Curves are found as runs of ``curve_cells`` consecutive ``compute_sample``
    spans under one ``run_sweep`` span; a curve lasts from its first cell's
    start to the next curve's first cell (the last one to its parent's end),
    so the per-curve summary is included.
    """
    names, spans, inputs = load(path)
    layer = np.array([n.split(".")[0] for n in names])[spans[:, 0]]
    fn = np.array(names)[spans[:, 0]]
    own = self_times(spans)
    duration = spans[:, 2] - spans[:, 1]
    out = {}
    for l in LAYERS:
        out[f"{l}.calls"] = int(np.sum(layer == l))
        out[f"{l}.self_ns"] = int(own[layer == l].sum())
    for key in ("model.thermal_terms", "metrics.compute_sample", EIGENSOLVER):
        out[f"{key}.calls"] = int(np.sum(fn == key))
        out[f"{key}.incl_ns"] = int(duration[fn == key].sum())
    parent_layer = np.where(spans[:, 3] >= 0, layer[spans[:, 3]], "")
    top_output = (layer == "output") & (parent_layer != "output")
    out["output.incl_ns"] = int(duration[top_output].sum())

    seen, repeats, matrices = set(), 0, 0
    for a in inputs:
        key = (a.shape, a.tobytes())
        repeats += key in seen
        seen.add(key)
        matrices += int(np.prod(a.shape[:-2]))
    out["eig.matrices"] = matrices
    out["eig.repeats"] = repeats
    out["eig.ref_ns"] = _reference_eigh_ns(inputs)

    curve_ns = []
    is_cell = fn == "metrics.compute_sample"
    for sweep_index in np.flatnonzero(fn == "sweep.run_sweep"):
        starts = spans[is_cell & (spans[:, 3] == sweep_index), 1][::curve_cells]
        ends = np.append(starts[1:], spans[sweep_index, 2])
        curve_ns.extend(int(e - s) for s, e in zip(starts, ends))
    out["curve_ns"] = curve_ns
    return out


def _reference_eigh_ns(inputs: list[np.ndarray], repeats: int = 3) -> int:
    """numpy eigh on the recorded inputs, one call per recorded call; median of repeats."""
    totals = []
    for _ in range(repeats if inputs else 0):
        start = time.perf_counter_ns()
        for a in inputs:
            np.linalg.eigh(a)
        totals.append(time.perf_counter_ns() - start)
    return int(np.median(totals)) if totals else 0
