"""Span tracing of relugeo's public functions, installed from outside the program.

``Tracer.install`` replaces each function in ``FUNCTIONS`` by a wrapper under
every name a relugeo module binds it to (``minimality.in_span`` and
``exact.in_span`` are the same function), so callers pick the wrapper up
wherever they look the name up.  A span is (name, start, end, parent, item);
spans stay in memory in flat arrays until ``write``.  A function's self time
is its span's duration minus the durations of its wrapped child spans, so
unwrapped helpers such as ``rat`` and ``dot`` count toward their nearest
wrapped caller.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter_ns

FUNCTIONS = {
    "cli": ["run"],
    "jsonio": ["load", "dumps", "report_to_dict", "form_to_dict", "tuple_to_dict", "verdict_to_dict"],
    "network": ["effective_tuple", "evaluate_net", "evaluate_tuple"],
    "canonical": ["canonicalize", "equivalence", "sigma_affine"],
    "minimality": ["classify", "enumerate_minimal", "compute_J", "compute_J_single", "compute_J_pair"],
    "exact": ["in_span", "solve_affine", "rank", "affine_fit", "primitive_direction"],
    "pwa": ["parse_pwa", "flat_breaklines", "eval_pwa"],
    "synthesis": ["synthesize_evaluator", "check_transversality", "point_on_breakline", "jump_vector"],
}
NAMES = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs]
# eval_pwa recurses through its own module name; only the outermost call is a span
TOP_LEVEL_ONLY = {"pwa.eval_pwa"}
COUNTS = [
    ("jsonio.in_bytes", "B/item"),
    ("jsonio.out_bytes", "B/item"),
    ("minimality.patterns", "1/item"),
    ("minimality.hits", "1/item"),
    ("minimality.hit_ratio", "ratio"),
    ("minimality.families", "1/item"),
    ("synthesis.fits_per_jump", "ratio"),
    ("trace.overhead_frac", "ratio"),
]
ITEM = "item"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "1/item"
        units[f"{name}.self_ms"] = "ms/item"
        units[f"{name}.errors"] = "1/item"
    units.update(COUNTS)
    return units


class Tracer:
    def __init__(self):
        self.names = [ITEM, *NAMES]
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors = [0] * len(self.names)
        self.stack = [-1]
        self.current_item = -1
        self.counts = dict.fromkeys(["in_bytes", "out_bytes", "patterns", "hits", "families", "jump_fits"], 0)
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, fid):
        idx = len(self.name_id)
        self.name_id.append(fid)
        self.parent.append(self.stack[-1])
        self.item.append(self.current_item)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def call_item(self, item_id, fn, *args):
        """Run fn(*args) as the root span of one item."""
        self.current_item = item_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _active(self, fid):
        return any(self.name_id[i] == fid for i in self.stack[1:])

    def _wrap(self, name, fn, after):
        fid = self.names.index(name)
        top_only = name in TOP_LEVEL_ONLY

        def wrapper(*args, **kwargs):
            if top_only and len(self.stack) > 1 and self.name_id[self.stack[-1]] == fid:
                return fn(*args, **kwargs)
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[fid] += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counters(self):
        c = self.counts
        jump = self.names.index("synthesis.jump_vector")

        def load(args, result):
            c["in_bytes"] += os.path.getsize(args[0])

        def dumps(args, result):
            c["out_bytes"] += len(result.encode("utf-8"))

        def scan(args, result):
            c["patterns"] += 2 ** args[0].n
            c["hits"] += len(result)

        def families(args, result):
            c["families"] += len(result)

        def fit(args, result):
            if self._active(jump):
                c["jump_fits"] += 1

        return {
            "jsonio.load": load,
            "jsonio.dumps": dumps,
            "minimality.compute_J": scan,
            "minimality.compute_J_single": scan,
            "minimality.compute_J_pair": scan,
            "minimality.enumerate_minimal": families,
            "exact.affine_fit": fit,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        """Bind every wrapper under each relugeo name of its function."""
        if not self._patches:
            modules = [m for n, m in sys.modules.items() if n == "relugeo" or n.startswith("relugeo.")]
            counters = self._counters()
            for name in NAMES:
                mod, fname = name.split(".")
                original = getattr(sys.modules[f"relugeo.{mod}"], fname)
                wrapper = self._wrap(name, original, counters.get(name))
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._patches.append((m, attr, original, wrapper))
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time of every span in ns."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def self_sum_ok(self):
        """Per item, the self times of its spans add up to the item span's duration."""
        own = self.self_times()
        total, root = {}, {}
        for i, (fid, item) in enumerate(zip(self.name_id, self.item)):
            total[item] = total.get(item, 0) + own[i]
            if fid == 0:
                root[item] = self.end[i] - self.start[i]
        return total == root

    def metrics(self, items, overhead_frac, item_scale):
        """Per-layer metrics; self times of item i are multiplied by item_scale[i]."""
        own = self.self_times()
        calls = [0] * len(self.names)
        self_ns = [0.0] * len(self.names)
        for fid, item, t in zip(self.name_id, self.item, own):
            calls[fid] += 1
            self_ns[fid] += t * item_scale[item]
        c = self.counts
        jumps = calls[self.names.index("synthesis.jump_vector")]
        values = {}
        for fid, name in enumerate(self.names[1:], start=1):
            values[f"{name}.calls"] = calls[fid] / items
            values[f"{name}.self_ms"] = self_ns[fid] / 1e6 / items
            values[f"{name}.errors"] = self.errors[fid] / items
        values.update(
            {
                "jsonio.in_bytes": c["in_bytes"] / items,
                "jsonio.out_bytes": c["out_bytes"] / items,
                "minimality.patterns": c["patterns"] / items,
                "minimality.hits": c["hits"] / items,
                "minimality.hit_ratio": c["hits"] / c["patterns"] if c["patterns"] else 0.0,
                "minimality.families": c["families"] / items,
                "synthesis.fits_per_jump": c["jump_fits"] / jumps if jumps else 0.0,
                "trace.overhead_frac": overhead_frac,
            }
        )
        return values

    def write(self, path):
        """Spans as a JSON header line followed by the raw column arrays."""
        header = {
            "names": self.names,
            "columns": [["name_id", "i"], ["parent", "i"], ["item", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "count": len(self.name_id),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.item, self.start, self.end):
                column.tofile(fh)
