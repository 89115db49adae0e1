"""Spans around segsim's public calls, recorded from outside the program.

A ``Tracer`` replaces module attributes with wrappers for the duration of a
``with tracer.installed():`` block and restores them afterwards.  Each call
records a span (id, name, start, end, parent id, counts) in memory; the
spans are written out once, when the run ends.  A layer's self time is its
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict


def _flips(args, report):
    return {"flips": report.flips_total}


def _cascade(args, result):
    return {"cascade_flips": result.flips_used}


def _sweep_runs(args, path):
    return {"runs": len(args[0].cells()) * args[0].replicates}


# (span name, bindings that callers look the function up through, counts
# taken from the call's arguments and result).  A function imported into
# several modules is patched in each of them.
LAYERS = [
    ("grid.new_random", ["segsim.grid", "segsim.experiments", "segsim"], None),
    ("dynamics.run_to_termination", ["segsim.dynamics", "segsim.experiments", "segsim"], _flips),
    ("regions.compute_region_summary", ["segsim.regions"], None),
    ("regions.center_radius_map", ["segsim.regions"], None),
    ("regions.mono_region_of", ["segsim.regions"], None),
    ("regions.almost_mono_radius_map", ["segsim.regions"], None),
    ("unionfind.label_grid_components",
     ["segsim.unionfind", "segsim.regions", "segsim.percolation", "segsim.structures"], None),
    ("experiments.run_sweep", ["segsim.experiments"], _sweep_runs),
    ("snapshot.snapshot_read", ["segsim.snapshot", "segsim"], None),
    ("structures.renormalize", ["segsim.structures"], None),
    ("structures.find_chemical_path", ["segsim.structures"], None),
    ("structures.bad_cluster_radii", ["segsim.structures"], None),
    ("structures.is_expandable", ["segsim.structures"], _cascade),
    ("percolation.chemical_distance", ["segsim.percolation"], None),
    ("percolation.cluster_radii", ["segsim.percolation"], None),
    ("percolation.fpp_time_to_distance", ["segsim.percolation"], None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if counts is not None:
                    rec["counts"].update(counts(args, out))
                return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, modules, counts in LAYERS:
                attr = name.split(".", 1)[1]
                wrapper = None
                for mod_name in modules:
                    mod = importlib.import_module(mod_name)
                    original = getattr(mod, attr)
                    if wrapper is None:
                        wrapper = self._wrap(original, name, counts)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def counts(self) -> dict:
        out = defaultdict(int)
        for s in self.spans:
            for k, v in s["counts"].items():
                out[f"{s['name'].split('.')[0]}.{k}"] += v
        return dict(out)

    def total(self, name) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
