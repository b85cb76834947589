"""Spans and counters recorded from outside the library.

The tracer replaces the public functions and methods of each dyadica module
with wrappers, including the names other modules bound with ``from ...
import``.  A wrapper records a span (name, start, end, parent span, job id)
in compact in-memory arrays; self time is a span's duration minus the time
covered by its children.  A few leaf functions called tens of thousands of
times per job get a counting wrapper instead, so their time stays in the
caller's self time.  Deterministic work counters are derived at the
boundaries of a handful of functions from their arguments and results.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "dyadic", "params", "weights", "seq", "wavelets", "ad",
          "molecules", "trace", "czo")

# Leaf functions that only count calls: each runs for a few microseconds and
# is called up to hundreds of thousands of times per job.
COUNT_ONLY = {
    "dyadic.DyadicCube.__post_init__",
    "dyadic.distance_term",
    "dyadic.format_cube",
    "dyadic.parse_cube",
    "dyadic.LatticeWindow.contains",
    "dyadic.LatticeWindow.index_bounds",
    "ad.bdef_entry",
    "seq.CoeffField.get",
    "seq.CoeffField.items",
    "seq.CoeffField.cubes",
}

# Names in the reported metrics that differ from "<layer>.<qualname>".
ALIASES = {
    "dyadic.DyadicCube.__post_init__.calls": "dyadic.DyadicCube.built",
    "wavelets.WaveletSystem.__init__.total_s": "wavelets.WaveletSystem.init_s",
}


def _npz_size(path) -> int:
    path = os.fspath(path)
    return os.path.getsize(path if path.endswith(".npz") else path + ".npz")


def _grid_cells(stack) -> int:
    return int(np.prod(stack.grid_shape)) * len(stack.levels)


def _analysis_cubes(a) -> int:
    window, sys_ = a["window"], a["sys"]
    scaling = window.count(window.j_min) if a["include_scaling"] else 0
    return len(sys_.channels) * window.count() + scaling


def _characteristic_pairs(a) -> int:
    nodes = a["quad"].cells_per_axis ** a["window"].n
    return a["window"].count() * nodes * nodes


# Work counters: function -> [(counter, f(bound arguments, result))].
COUNTERS = {
    "wavelets.analyze": [
        ("wavelets.analysis_cubes", lambda a, r: _analysis_cubes(a)),
        ("wavelets.nonzero_coeffs", lambda a, r: sum(len(tf) for tf in r.values())),
        ("dyadic.window_cubes", lambda a, r: _analysis_cubes(a)),
    ],
    "seq.la_norm": [
        ("dyadic.window_cubes", lambda a, r: (a["window"] or a["stack"].window).count()),
    ],
    "weights.ap_characteristic": [
        ("dyadic.window_cubes", lambda a, r: a["window"].count()),
        ("weights.pair_evals", lambda a, r: _characteristic_pairs(a)),
    ],
    "weights.ReducingFamily.build": [
        ("dyadic.window_cubes", lambda a, r: a["window"].count()),
    ],
    "weights.ap_dimension_estimate": [
        ("dyadic.window_cubes", lambda a, r: a["window"].count()),
    ],
    "trace.weight_compat_check": [
        ("dyadic.window_cubes", lambda a, r: a["window"].count()),
    ],
    "ad.apply": [
        ("dyadic.window_cubes", lambda a, r: a["t"].window.count()),
        ("ad.entry_evals", lambda a, r: a["t"].window.count() * len(a["t"])),
    ],
    "weights.QuadratureSpec.nodes": [
        ("weights.quad_nodes", lambda a, r: len(r[0])),
    ],
    "seq.weighted_stack": [("seq.stack_cells", lambda a, r: _grid_cells(r))],
    "seq.averaged_stack": [("seq.stack_cells", lambda a, r: _grid_cells(r))],
    "seq.CoeffField.to_csv": [("seq.csv_bytes", lambda a, r: len(r))],
    "seq.CoeffField.from_csv": [("seq.csv_bytes", lambda a, r: len(a["text"]))],
    "wavelets.FunctionSample.save": [("wavelets.npz_bytes", lambda a, r: _npz_size(a["path"]))],
    "wavelets.FunctionSample.load": [("wavelets.npz_bytes", lambda a, r: _npz_size(a["path"]))],
}

COUNTER_NAMES = sorted({name for hooks in COUNTERS.values() for name, _ in hooks})


class Tracer:
    """Span and counter recorder; ``install`` wraps the dyadica modules."""

    def __init__(self):
        self.names: list[str] = []
        self.calls = array("q")
        # one entry per span
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.spanned: set[int] = set()       # name ids that record spans
        self._open: list[list] = []          # [span index, time covered by children]
        self.job = -1
        self.job_walls: dict[int, float] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _counting(self, name: str, fn):
        nid = self._name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name: str, fn):
        nid = self._name_id(name)
        self.spanned.add(nid)
        calls, open_ = self.calls, self._open
        s_name, s_job, s_parent = self.span_name, self.span_job, self.span_parent
        s_start, s_end, s_self = self.span_start, self.span_end, self.span_self
        hooks = COUNTERS.get(name)
        signature = inspect.signature(fn) if hooks else None
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = len(s_name)
            s_name.append(nid)
            s_job.append(self.job)
            s_parent.append(open_[-1][0] if open_ else -1)
            s_end.append(0.0)
            s_self.append(0.0)
            frame = [idx, 0.0]
            open_.append(frame)
            t0 = perf_counter()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_.pop()
                dur = t1 - t0
                s_end[idx] = t1
                s_self[idx] = dur - frame[1]
                if open_:
                    open_[-1][1] += dur
            if hooks:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter, fn_count in hooks:
                    counters[counter] += fn_count(bound.arguments, result)
            return result
        return wrapper

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self._counting(name, fn)
        return self._spanning(name, fn)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and methods, in place."""
        modules = [importlib.import_module(f"dyadica.{layer}") for layer in LAYERS]
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # rebind the module globals that hold a wrapped function, including
        # names bound by ``from ... import`` in other modules
        package = [m for n, m in sys.modules.items()
                   if n == "dyadica" or n.startswith("dyadica.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _install_class(self, layer: str, cls) -> None:
        generated_init = dataclasses.is_dataclass(cls)
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            if not (public or attr == "__post_init__"
                    or (attr == "__init__" and not generated_init)):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue  # properties and class constants stay as they are
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def run_job(self, job: int, fn):
        """Run ``fn()`` as job ``job``; returns its result and wall time."""
        self.job = job
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - t0
            self.job = -1
        self.job_walls[job] = wall
        return result, wall

    def _per_name(self, weights: np.ndarray) -> np.ndarray:
        names = np.frombuffer(self.span_name, dtype=np.int32)
        return np.bincount(names, weights=weights, minlength=len(self.names))

    def unaccounted(self) -> list[float]:
        """Per job: wall time minus the summed self time of its spans."""
        jobs = np.frombuffer(self.span_job, dtype=np.int32)
        selfs = np.frombuffer(self.span_self, dtype=np.float64)
        covered = np.bincount(jobs[jobs >= 0], weights=selfs[jobs >= 0],
                              minlength=max(self.job_walls, default=-1) + 1)
        return [wall - float(covered[job]) for job, wall in self.job_walls.items()]

    def per_job_metrics(self) -> dict[str, float]:
        """Per traced job: calls of every wrapped name, self and inclusive
        time of every spanned name, self time per layer, and the counters."""
        jobs = max(len(self.job_walls), 1)
        selfs = self._per_name(np.frombuffer(self.span_self, dtype=np.float64)) / jobs
        totals = self._per_name(np.frombuffer(self.span_end, dtype=np.float64)
                                - np.frombuffer(self.span_start, dtype=np.float64)) / jobs
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.names):
            values = {"calls": self.calls[nid] / jobs}
            if nid in self.spanned:
                values |= {"self_s": float(selfs[nid]), "total_s": float(totals[nid])}
                layer_self[name.split(".", 1)[0]] += float(selfs[nid])
            for kind, value in values.items():
                key = f"{name}.{kind}"
                out[ALIASES.get(key, key)] = value
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        for name in COUNTER_NAMES:
            out[name] = self.counters.get(name, 0.0) / jobs
        cubes = out["wavelets.analysis_cubes"]
        out["wavelets.nonzero_ratio"] = out["wavelets.nonzero_coeffs"] / cubes if cubes else 0.0
        return out

    def save(self, path: str) -> None:
        """Write the spans and the name table to an npz file."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
                 job=np.frombuffer(self.span_job, np.int32),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 start=np.frombuffer(self.span_start, np.float64),
                 end=np.frombuffer(self.span_end, np.float64),
                 self_s=np.frombuffer(self.span_self, np.float64))
