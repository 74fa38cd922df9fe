"""Outside-in span tracing of the logchoquard layers.

``Tracer.install`` wraps every public function defined in the layer modules
(and ``PeriodicCoefficient.on_grid``) and rebinds each name that refers to
one of them anywhere in the package, so calls through ``from x import f``
aliases are traced too.  Spans live in flat in-memory arrays with a parent
link each; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "logchoquard"
LAYERS = ("grids", "spaces", "nonlinearity", "kernel", "energy", "solver",
          "config", "reports")
METHODS = (("spaces", "PeriodicCoefficient", "on_grid"),)


def _fft_pad(args, kwargs, result):
    """Zero-pad size m of a convolve_kernel call."""
    import scipy.fft
    grid = args[0] if args else kwargs["grid"]
    return scipy.fft.next_fast_len(2 * grid.resolution - 1)


def _radial_nodes(args, kwargs, result):
    """N of a b0_form call on a radial grid (dense N x N ring_c0 matvec)."""
    grid = (args[0] if args else kwargs["u"]).grid
    return grid.resolution if grid.kind == "radial" else 0


def _node_pairs(args, kwargs, result):
    grid = (args[0] if args else kwargs["u"]).grid
    return grid.num_nodes ** 2


def _report_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return len(result.encode()) if path is not None else 0


def _field_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Per-call numbers recorded next to the span, read back by the aggregation.
PROBES = {
    "kernel.convolve_kernel": _fft_pad,
    "kernel.b0_form": _radial_nodes,
    "kernel.bilinear_direct": _node_pairs,
    "reports.write_report": _report_bytes,
    "reports.save_field": _field_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self._stack = [-1]
        self._patches = []      # (owner, attribute, original)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.aux.append(0.0)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (a pass or a command)."""
        i = self._open(self._name_id(name))
        self.start[i] = time.perf_counter()
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        probe = PROBES.get(name)
        open_span, stack, starts, ends, aux = (
            self._open, self._stack, self.start, self.end, self.aux)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                starts[i] = t0
                ends[i] = clock()
                stack.pop()
            if probe is not None:
                aux[i] = probe(args, kwargs, result)
            return result
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}            # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method,
                    self._wrap(f"{layer}.{cls_name}.{method}", original))
            self._patches.append((cls, method, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """All spans as tab-separated rows: id, parent, name, start, end, aux."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart_s\tend_s\taux\n")
            for i in range(len(self.name)):
                handle.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                             f"\t{self.start[i]!r}\t{self.end[i]!r}"
                             f"\t{self.aux[i]!r}\n")

    def aggregate(self, pass_span):
        """Per-function calls, self time, first-call time and probe data for
        the spans under ``pass_span`` (which must be the last closed pass)."""
        lo, hi = pass_span, len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo + 1, hi):
            child[self.parent[i] - lo] += dur[i - lo]
        solve_id = self._name_ids.get("solver.solve_mountain_pass")
        under_solve = [False] * (hi - lo)
        stats = {}
        covered = 0.0
        for i in range(lo + 1, hi):
            name = self.names[self.name[i]]
            p = self.parent[i]
            under_solve[i - lo] = under_solve[p - lo] or self.name[p] == solve_id
            if name.startswith("cmd."):
                continue
            if self.names[self.name[p]].startswith("cmd."):
                covered += dur[i - lo]
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = {"calls": 0, "self_s": 0.0,
                                       "first_s": dur[i - lo], "aux": [],
                                       "calls_in_solve": 0}
            entry["calls"] += 1
            entry["self_s"] += dur[i - lo] - child[i - lo]
            entry["calls_in_solve"] += under_solve[i - lo]
            if name in PROBES:
                entry["aux"].append(self.aux[i])
        commands = {}
        for i in range(lo + 1, hi):
            name = self.names[self.name[i]]
            if name.startswith("cmd."):
                commands[name] = commands.get(name, 0.0) + dur[i - lo]
        return {"functions": stats, "commands": commands,
                "uncovered_s": dur[0] - covered, "wall_s": dur[0]}


def fft_pair_flops(m):
    """Real-to-complex plus complex-to-real 2-D FFT of an m x m array, at
    2.5 N log2 N each (half the 5 N log2 N of a complex FFT), plus the
    pointwise spectrum product (6 flops per complex entry)."""
    n = m * m
    return 2 * 2.5 * n * math.log2(n) + 6 * m * (m // 2 + 1)


def fft_pair_bytes(m):
    """Bytes one B0 convolve_kernel call moves: the real pad written and
    read and the real output written, and eight passes over m x (m/2+1)
    complex spectra (data spectrum out and in, both kernel spectra in, their
    difference out and in, the product out and in)."""
    return 3 * 8 * m * m + 8 * 16 * m * (m // 2 + 1)
