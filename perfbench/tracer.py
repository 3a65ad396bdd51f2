"""Span tracer for the fsnlab library layers, installed by introspection.

``Tracer.install`` finds every public module-level function defined in a
library module of the ``fsnlab`` package and rebinds it, at every name that
refers to it anywhere in the package (``cli`` and ``tempo`` import by name),
to a wrapper that records one span per call.  New or renamed functions are
therefore traced without editing this file, and a library module that
disappears shows up as a layer with zero calls.

Spans live in flat arrays (name, start, end, parent, operation) and are
written to a compressed ``.npz`` file by ``Tracer.dump``.  The operation
itself is the root span and belongs to the ``cli`` layer, so its self time is
the operation's wall time minus the time spent in wrapped library calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
from array import array
from time import perf_counter

import numpy as np

LIBRARY_LAYERS = ("graphs", "spectral", "blocks", "selection", "dynamics",
                  "tempo", "netfile")
ROOT_LAYER = "cli"
LAYERS = LIBRARY_LAYERS + (ROOT_LAYER,)
# Matrix sizes whose outermost eigen-solve time is reported; these are the
# sizes the workloads generate (fixtures have n = 6, 8, 12).
SOLVE_SIZES = (6, 8, 12, 16, 20, 24, 32, 64, 128)


def _first_array(args) -> np.ndarray | None:
    for a in args:
        if isinstance(a, np.ndarray):
            return a
    return None


def _note(layer: str, name: str, args, result):
    """Work count attached to a span, read from the call's own data.

    Counts come from arguments and results rather than from inner helper
    calls, so they stay valid when a layer's internals are rewritten.
    """
    if layer == "spectral":
        a = _first_array(args)
        return None if a is None or a.ndim == 0 else ("n", a.shape[0])
    if layer == "dynamics":
        states = getattr(result, "states", None)
        if isinstance(states, np.ndarray) and states.ndim == 3:
            return ("steps", (states.shape[0] - 1) * states.shape[2])
        return None
    if layer == "tempo":
        report = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        entries = getattr(report, "entries", None)
        if not entries:
            return None
        settle = {}
        for e in entries:
            settle[e.follower] = e.rounds
        final = max(settle.values())
        x0 = _first_array(args)
        d = 1 if x0 is None or x0.ndim < 2 else x0.shape[1]
        return ("rounds", final, sum(settle.values()), len(settle), d)
    if layer == "netfile":
        if name.startswith("parse") and args and isinstance(args[0], (str, bytes)):
            return ("read", len(args[0]))
        if name.startswith(("serialize", "emit")) and isinstance(result, str):
            return ("write", len(result))
        return None
    if layer == "selection" and name == "fsn_fan" and args:
        return ("edges", len(getattr(args[0], "edges", ())))
    return None


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.notes: dict[int, tuple] = {}
        self._stack = [-1]
        self._op_id = -1
        # (module, attribute, original, wrapper) for every rebound name.
        self._bindings: list[tuple[object, str, object, object]] = []
        self.layer_functions: dict[str, int] = {}

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def run_op(self, op_id: int, kind: str, call):
        """Run one operation as a root span; returns (result, latency_s)."""
        nid = self._name_id(f"{ROOT_LAYER}.{kind}", ROOT_LAYER)
        self._op_id = op_id
        idx = self._open(nid)
        t0 = perf_counter()
        try:
            result = call()
        finally:
            t1 = perf_counter()
            self._close(idx, t0, t1)
            self._op_id = -1
        return result, t1 - t0

    def _wrap(self, fn, layer: str):
        nid = self._name_id(f"{layer}.{fn.__name__}", layer)
        name = fn.__name__
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, perf_counter())
            note = _note(layer, name, args, result)
            if note is not None:
                tracer.notes[idx] = note
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Rebind the wrappers; the bindings are found on the first call."""
        if not self._bindings:
            self._find_bindings()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in reversed(self._bindings):
            setattr(mod, attr, original)

    def _find_bindings(self) -> None:
        import fsnlab
        modules = [fsnlab] + [importlib.import_module(f"fsnlab.{m.name}")
                              for m in pkgutil.iter_modules(fsnlab.__path__)]
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                package, _, layer = value.__module__.rpartition(".")
                if (package != "fsnlab" or layer == ROOT_LAYER
                        or value.__name__.startswith("_")):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, layer)
                    self.layer_functions[layer] = self.layer_functions.get(layer, 0) + 1
                self._bindings.append((mod, attr, value, wrappers[value]))

    # -- output --------------------------------------------------------

    def dump(self, path) -> None:
        notes = sorted(self.notes.items())
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.name_layer),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.array(self.name, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
            note_span=np.array([k for k, _ in notes], dtype=np.int64),
            note=np.array([repr(v) for _, v in notes]))

    def summarize(self, lo: int, hi: int, passes: int) -> tuple[dict, dict]:
        """Per-layer metrics over spans [lo, hi), normalised per pass.

        Returns (metrics, counts): metrics maps metric name to (value, unit);
        counts holds the exact integers that must repeat between passes.
        """
        start = np.frombuffer(self.start, dtype=float)[lo:hi]
        end = np.frombuffer(self.end, dtype=float)[lo:hi]
        name = np.array(self.name[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64)
        op = np.array(self.op[lo:hi], dtype=np.int64)
        inside = op >= 0
        dur = end - start
        child = np.zeros(hi - lo)
        has_parent = parent >= lo
        np.add.at(child, parent[has_parent] - lo, dur[has_parent])
        self_time = dur - child
        layer_of = np.array([LAYERS.index(l) if l in LAYERS else -1
                             for l in self.name_layer], dtype=np.int64)
        span_layer = layer_of[name] if len(name) else name

        metrics: dict[str, tuple[float, str]] = {}
        counts: dict[str, int] = {}
        for k, layer in enumerate(LAYERS):
            mask = inside & (span_layer == k)
            metrics[f"{layer}.self_s"] = (float(self_time[mask].sum()) / passes, "s")
            counts[f"{layer}.calls"] = int(mask.sum())

        spectral = LAYERS.index("spectral")
        parent_layer = np.where(has_parent, span_layer[np.clip(parent - lo, 0, None)], -1)
        solves: dict[int, list[float]] = {}
        steps = rounds = settle_sum = settle_den = 0
        round_time = read_b = write_b = fan_edges = 0
        read_t = write_t = fan_t = 0.0
        for idx, note in self.notes.items():
            if not lo <= idx < hi or not inside[idx - lo]:
                continue
            i = idx - lo
            kind = note[0]
            if kind == "n" and span_layer[i] == spectral and parent_layer[i] != spectral:
                solves.setdefault(note[1], []).append(dur[i])
            elif kind == "steps":
                steps += note[1]
            elif kind == "rounds":
                _, final, settled, agents, d = note
                rounds += final
                steps += final * d
                settle_sum += settled
                settle_den += agents * final
                round_time += dur[i]
            elif kind == "read":
                read_b += note[1]
                read_t += dur[i]
            elif kind == "write":
                write_b += note[1]
                write_t += dur[i]
            elif kind == "edges":
                fan_edges += note[1]
                fan_t += dur[i]
        for size in SOLVE_SIZES:
            times = solves.get(size)
            metrics[f"spectral.solve_ms.n{size}"] = (
                1e3 * statistics.median(times) if times else 0.0, "ms")
        dyn_self = metrics["dynamics.self_s"][0] * passes
        metrics["dynamics.state_steps"] = (steps / passes, "count")
        metrics["dynamics.steps_per_s"] = (steps / dyn_self if dyn_self > 0 else 0.0, "1/s")
        metrics["tempo.rounds"] = (rounds / passes, "count")
        metrics["tempo.rounds_per_s"] = (rounds / round_time if round_time > 0 else 0.0, "1/s")
        metrics["tempo.useful_round_frac"] = (
            settle_sum / settle_den if settle_den else 0.0, "ratio")
        metrics["selection.fsn_fan_us_per_edge"] = (
            1e6 * fan_t / fan_edges if fan_edges else 0.0, "us")
        metrics["netfile.read_MBps"] = (read_b / read_t / 1e6 if read_t > 0 else 0.0, "MB/s")
        metrics["netfile.write_MBps"] = (write_b / write_t / 1e6 if write_t > 0 else 0.0, "MB/s")
        metrics["netfile.bytes_written"] = (write_b / passes, "bytes")
        counts["dynamics.state_steps"] = steps
        counts["tempo.rounds"] = rounds
        counts["netfile.bytes_written"] = write_b
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"] / passes, "count")
        return metrics, counts
