"""Spans around lpmult's public functions, installed from outside the program.

Each wrapped call records a span [name, start, end, parent, op, extra]:
parent is the index of the enclosing span (-1 at the top), op the
benchmark's op id, and extra a dict of counts measured at the boundary
(enumerated points, FFT bytes, store writes).  Spans stay in memory until
dump().  Nothing here runs at import; install() patches the import sites.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn, before=None, after=None):
        """fn recording a span; before(args, kwargs) -> (args, kwargs, ctx)
        may swap arguments, after(ctx, args, out) -> dict adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                rec[5] = after(ctx, args, out)
            return out

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[1]
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, reach), min(b, s[2])
            if b > a:
                covered += b - a
                reach = b
        out.append((s[2] - s[1]) - covered)
    return out


def _outermost(spans, i):
    """True when no ancestor of span i has the same name."""
    name, j = spans[i][0], spans[i][3]
    while j >= 0:
        if spans[j][0] == name:
            return False
        j = spans[j][3]
    return True


def summarize(spans):
    """{name: {calls, busy_s, self_s, <extra counts summed>}} over spans."""
    selfs = self_times(spans)
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if _outermost(spans, i):
            row["busy_s"] += s[2] - s[1]
        for key, val in (s[5] or {}).items():
            row[key] = row.get(key, 0) + val
    return out


# --- counts taken at the boundaries ---------------------------------------

def _enum_points(ctx, args, out):
    return {"points": 2 ** (args[0].N + 1)}


def _grid_points(ctx, args, out):
    phi = args[0]
    return {"points": phi.grid.G ** (phi.grid.d * phi.J)}


def _fft_bytes(ctx, args, out):
    return {"bytes": int(np.asarray(args[0]).nbytes + out.nbytes)}


class _CountingSymbol:
    """Stands in for a MultiplierSymbol and counts the points evaluated."""

    def __init__(self, sym):
        self._sym = sym
        self.points = 0

    def __getattr__(self, name):
        return getattr(self._sym, name)

    def evaluate(self, xi):
        xi = np.asarray(xi, dtype=float)
        self.points += xi.size // xi.shape[-1]
        return self._sym.evaluate(xi)


def _count_symbol(args, kwargs):
    counter = _CountingSymbol(args[1])
    return (args[0], counter) + tuple(args[2:]), kwargs, counter


def _gauss_nodes(ctx, args, out):
    return {"nodes": ctx.points}


def _store_bytes(ctx, args, out):
    if not out:
        return {"writes": 0, "bytes": 0}
    root = args[0]
    size = sum(os.path.getsize(os.path.join(root, f)) for f in os.listdir(root)
               if os.path.isfile(os.path.join(root, f)))
    return {"writes": 1, "bytes": size}


# (layer name, import sites "module:attr[.attr]", before, after).  The same
# function imported into several modules gets one wrapper at every site.
SITES = (
    ("martingale.search_extremal", ("lpmult.cli:search_extremal",), None, None),
    ("martingale.perturbed_ratio_exact",
     ("lpmult.martingale:perturbed_ratio_exact", "lpmult.report:perturbed_ratio_exact",
      "lpmult.witness:perturbed_ratio_exact"), None, _enum_points),
    ("witness.build", ("lpmult.cli:build_witness", "lpmult.cli:build_matrix_witness"),
     None, None),
    ("tensor.lift", ("lpmult.witness:tensor_lift_apply",), None, _grid_points),
    ("tensor.lp_norm", ("lpmult.tensor:TensorGridFunction.lp_norm",), None, None),
    ("grid.fft", ("lpmult.tensor:coefficients", "lpmult.tensor:from_coefficients"),
     None, _fft_bytes),
    ("tensor.shear", ("lpmult.tensor:shear_norm_check",), None, None),
    ("transference.gaussian", ("lpmult.transference:gaussian_damped_pairing",),
     _count_symbol, _gauss_nodes),
    ("transference.deviation", ("lpmult.transference:multiplier_deviation",), None, None),
    ("report.store", ("lpmult.cli:update_store", "lpmult.report:update_store"),
     None, _store_bytes),
    ("report.verify", ("lpmult.report:verify_record",), None, None),
    ("report.lookup", ("lpmult.cli:lookup_store", "lpmult.report:lookup_store",
                       "lpmult.cli:load_store"), None, None),
    ("report.record", ("lpmult.cli:sequence_to_record", "lpmult.cli:sequence_from_record"),
     None, None),
)


def _resolve(site):
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(tracer):
    """Patch every site in SITES with a span-recording wrapper."""
    wrapped = {}
    for name, sites, before, after in SITES:
        for site in sites:
            owner, attr = _resolve(site)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tracer.wrap(name, fn, before, after)
            setattr(owner, attr, wrapped[id(fn)])
