"""Per-layer tracing from outside the program.

Every public function of each layer module is wrapped, and the wrapper
is bound under every name that any twoqubit module holds for the
original (``canonical`` binds ``invariants_from_unitary_array``, ``cli``
binds ``sweep`` and ``edge_svg``, and so on), so calls between layers are
caught where they happen. A span records its function, start, end,
parent span and operation id; spans stay in flat arrays in memory and are
written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# The modules of src/twoqubit that do work (errors only defines exceptions).
LAYERS = ("sampling", "gates", "linops", "invariants", "canonical", "schmidt",
          "edges", "svgplot", "audit", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.func = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        start, end, func, parent, op = self.start, self.end, self.func, self.parent, self.op
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever twoqubit binds them."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"twoqubit.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "twoqubit" and not modname.startswith("twoqubit."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in self._restore:
            setattr(mod, name, obj)
        self._restore.clear()

    def clear(self) -> None:
        for a in (self.start, self.end, self.func, self.parent, self.op):
            del a[:]

    @staticmethod
    def span_cost_us(calls: int = 20000, repeats: int = 5) -> float:
        """Measured cost of one span: a wrapped no-op against a bare one."""
        def noop():
            return None

        def best_ns(fn) -> int:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter_ns() - t0)
            return min(times)

        traced = Tracer().wrap("noop", noop)
        return max(best_ns(traced) - best_ns(noop), 0) / calls / 1e3

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            func=np.frombuffer(self.func, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )

    def summary(self, selected: list[int], items: int, commands: int, wall_ns: int) -> dict:
        """Per-layer self time, per-function time and call counts over the
        spans of the ``selected`` operations, which together did ``items``
        items in ``commands`` commands and ``wall_ns`` of wall time."""
        names = self.names
        keep = np.isin(np.frombuffer(self.op, dtype=np.int32), selected)
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - start).astype(float)
        func = np.frombuffer(self.func, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_ns = dur - covered
        dur, func, self_ns, child = dur[keep], func[keep], self_ns[keep], child[keep]
        fn_self = np.bincount(func, weights=self_ns, minlength=len(names))
        fn_total = np.bincount(func, weights=dur, minlength=len(names))
        fn_calls = np.bincount(func, minlength=len(names))
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(names):
            layer_self[name.split(".")[0]] += fn_self[i]
        fid = {name: i for i, name in enumerate(names)}

        def us_per_item(ns: float) -> float:
            return ns / 1e3 / items

        out = {f"{layer}.self_us_per_item": us_per_item(ns)
               for layer, ns in layer_self.items()}
        for name in ("canonical.canonical_points_array", "schmidt.schmidt_coefficients_array",
                     "schmidt.z_from_point_array", "cli.build_parser"):
            out[f"{name}.us_per_item"] = us_per_item(fn_total[fid[name]])
        for name in ("invariants.invariants_from_unitary_array",
                     "schmidt.schmidt_number_from_coefficients"):
            out[f"{name}.calls_per_item"] = fn_calls[fid[name]] / items
        out["edges.sweep.calls_per_command"] = fn_calls[fid["edges.sweep"]] / commands
        out["unattributed.us_per_item"] = us_per_item(wall_ns - dur[~child].sum())
        out["trace.spans_per_item"] = len(dur) / items
        return out
