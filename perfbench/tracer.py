"""Spans and counters around the public functions of each quanthelly module.

The wrappers live here, in the benchmark, so the program is measured
unchanged.  Each wrapper is bound at every site that imported the function
by name (`from .geometry import intersect` in piercing, floating, combinat,
the package itself, ...), so calls between modules are seen too.

A wrapper never asks a body for anything the program has not worked out:
`ConvexBody.__hash__` and `.is_empty` resolve halfspace bodies through the
LP, so repeat keys and emptiness are read from the `_vertices` slot only,
and bodies known by halfspaces alone are left out of those counts.

`enable` swaps the wrappers in and out, so untraced calls run the program's
own functions.  Spans are recorded only while an operation is open
(`begin_op`); they are kept in memory as columns and written out once, by
`write`.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

# (module, function) pairs wrapped, in metric order.  ConvexBody.from_points
# is reported under geometry.convex_hull, which calls it.
TRACED = {
    "lp": ("solve",),
    "geometry": ("intersect", "clip", "convex_hull", "body_contains_body"),
    "measures": ("evaluate", "lattice_points"),
    "floating": ("floating_body", "minimal_v_halfspace"),
    "combinat": (
        "weak_net",
        "find_uncovered_subset",
        "selection",
        "tverberg_partition",
        "colorful_caratheodory",
    ),
    "piercing": (
        "pq_pierce",
        "check_pq",
        "build_pool",
        "fractional_transversal",
        "fractional_packing",
        "replicate_and_round",
        "fractional_helly_witness",
        "colorful_helly",
    ),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns]
        self._index = {n: i for i, n in enumerate(self.names)}
        self.op = -1
        self.ops = 0
        self._next_id = 1
        self._stack = []  # frames [span id, name index, child ns]
        self.calls = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = defaultdict(int)
        self._seen = set()  # repeat keys of the open operation
        # span columns: operation, span id, parent id, name, start, end
        self.cols = tuple(array("q") for _ in range(6))

    # -- operations ----------------------------------------------------------

    def begin_op(self):
        self.op = self.ops
        self.ops += 1
        self._seen.clear()

    def end_op(self):
        self.op = -1

    # -- wrapping ------------------------------------------------------------

    def install(self):
        """Find each traced function at every module that holds it."""
        import quanthelly.geometry as geometry

        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "quanthelly" or name.startswith("quanthelly.")
        }
        wrappers = {}
        for mod_name, fns in TRACED.items():
            mod = mods[f"quanthelly.{mod_name}"]
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                wrappers[id(orig)] = (orig, self._wrap(f"{mod_name}.{fn_name}", orig))
        self._bindings = []  # (holder, attribute, original, wrapper)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and callable(val):
                    self._bindings.append((mod, attr) + wrappers[id(val)])
        cls = geometry.ConvexBody
        orig = cls.__dict__["from_points"]
        wrapped = staticmethod(self._wrap("geometry.convex_hull", orig.__func__))
        self._bindings.append((cls, "from_points", orig, wrapped))

    def enable(self, on: bool):
        """Bind the wrappers (on) or the program's own functions (off)."""
        for holder, attr, orig, wrapper in self._bindings:
            setattr(holder, attr, wrapper if on else orig)

    def _wrap(self, name, fn):
        idx = self._index[name]
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # same-name nesting (convex_hull -> from_points) is one span
            if self.op < 0 or (stack and stack[-1][1] == idx):
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                self.calls[idx] += 1
                self.total_ns[idx] += dur
                self.self_ns[idx] += dur - frame[2]
                for col, v in zip(self.cols, (self.op, sid, parent, idx, t0, t1)):
                    col.append(v)
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    # -- counters --------------------------------------------------------------

    def _repeat(self, kind, key):
        if key in self._seen:
            self.counts[kind + ".repeats"] += 1
        else:
            self._seen.add(key)

    def _post_lp_solve(self, args, kwargs, result):
        c = _arg(args, kwargs, 0, "c")
        rows = _arg(args, kwargs, 1, "rows")
        self.counts["lp.tableau_cells"] += len(rows) * len(c)

    def _post_geometry_intersect(self, args, kwargs, result):
        verts = result._vertices
        in_pool = bool(self._stack) and self._stack[-1][1] == self._index["piercing.build_pool"]
        if verts is None:
            self.counts["intersect.unresolved"] += 1
            return
        nonempty = len(verts) > 0
        self.counts["intersect.resolved"] += 1
        self.counts["intersect.nonempty"] += nonempty
        if in_pool:
            self.counts["pool.intersections"] += 1
            self.counts["pool.nonempty"] += nonempty

    def _post_piercing_build_pool(self, args, kwargs, result):
        self.counts["pool.candidates"] += len(result.candidates)

    def _pre_measures_evaluate(self, args, kwargs):
        body = _arg(args, kwargs, 1, "body")
        if body._vertices is not None:
            self._repeat("evaluate", ("evaluate", _arg(args, kwargs, 0, "measure"), body._vertices))

    def _pre_floating_floating_body(self, args, kwargs):
        K = _arg(args, kwargs, 0, "K")
        if K._vertices is not None:
            key = (
                "floating_body",
                K._vertices,
                _arg(args, kwargs, 1, "m"),
                Fraction(_arg(args, kwargs, 2, "eps")),
                tuple(_arg(args, kwargs, 3, "D")),
                kwargs.get("tol"),
            )
            self._repeat("floating_body", key)

    def _post_floating_minimal_v_halfspace(self, args, kwargs, result):
        self.counts["cut.offsets"] += 1
        self.counts["cut.offset_bits"] += result.offset.denominator.bit_length()

    def _post_combinat_weak_net(self, args, kwargs, result):
        self.counts["weak_net.rounds"] += result.iterations

    # -- report ------------------------------------------------------------------

    def metrics(self):
        """Per-layer figures; times and counts are per operation."""
        ops = max(self.ops, 1)
        c = self.counts
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def ratio(num, den):
            return num / den if den else 0.0

        for i, name in enumerate(self.names):
            put(f"{name}.calls", self.calls[i] / ops, "calls/op")
            put(f"{name}.ms", self.total_ns[i] / ops / 1e6, "ms/op")
        for mod in TRACED:
            idx = [i for i, n in enumerate(self.names) if n.startswith(mod + ".")]
            put(f"{mod}.calls", sum(self.calls[i] for i in idx) / ops, "calls/op")
            put(f"{mod}.self_ms", sum(self.self_ns[i] for i in idx) / ops / 1e6, "ms/op")
        put("piercing.build_pool.candidates", c["pool.candidates"] / ops, "count/op")
        put("piercing.build_pool.intersections", c["pool.intersections"] / ops, "count/op")
        put("piercing.build_pool.nonempty", c["pool.nonempty"] / ops, "count/op")
        put("piercing.build_pool.useful_ratio",
            ratio(c["pool.nonempty"], c["pool.intersections"]), "ratio")
        put("lp.solve.tableau_cells", c["lp.tableau_cells"] / ops, "cells/op")
        put("geometry.intersect.useful_ratio",
            ratio(c["intersect.nonempty"], c["intersect.resolved"]), "ratio")
        put("geometry.intersect.unresolved", c["intersect.unresolved"] / ops, "count/op")
        put("measures.evaluate.repeat_ratio",
            ratio(c["evaluate.repeats"], self.calls[self._index["measures.evaluate"]]), "ratio")
        put("floating.floating_body.repeat_ratio",
            ratio(c["floating_body.repeats"],
                  self.calls[self._index["floating.floating_body"]]), "ratio")
        put("floating.cut_offset_bits", ratio(c["cut.offset_bits"], c["cut.offsets"]), "bits")
        put("combinat.weak_net.rounds", c["weak_net.rounds"] / ops, "rounds/op")
        return out

    def write(self, path):
        """All spans, one column per field, as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "fields": ["op", "span", "parent", "name", "start_ns", "end_ns"],
            "columns": [col.tolist() for col in self.cols],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
