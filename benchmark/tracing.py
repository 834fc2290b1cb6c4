"""Tracing gradedlie from outside, for the traced run only.

install() replaces every public function of the traced modules, and the
static constructors of GroupSpec, by a wrapper, in every gradedlie module
that holds a reference to it (so pbw.commute and groups.commute both
resolve to the wrapper).  Each wrapper counts its calls.  A call that enters
a module from outside it -- from the benchmark or from another module --
also records a span (function, start, end, parent span); calls inside one
module are part of the span that entered it, so a module's entry function
owns the module's time.  Spans live in flat arrays in memory and are
written to a file by dump().  self_times() turns a span file into self
time per function: span duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Dict

MODULES = ("groups", "liealg", "pbw", "freelie", "unigroup", "linalg", "algfile", "cli")

# parse_algebra is load_algebra followed by validate; leaving it unwrapped
# makes load_algebra and validate the spans a CLI command enters.
SKIP = {"algfile.parse_algebra"}


def _rows_times_cols(args, _out) -> int:
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


# shape counters recorded at the wrapper: function -> (counter, measure)
SHAPES = {
    "pbw.normalize": ("terms_out", lambda args, out: len(out.terms)),
    "pbw.pbw_basis": ("monomials", lambda args, out: len(out)),
    "linalg.rank": ("cells", _rows_times_cols),
    "linalg.smith_normal_form": ("cells", _rows_times_cols),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.counters: Dict[str, int] = {}
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self._layer = [None]

    def install(self) -> None:
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"gradedlie.{short}")
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and f"{short}.{name}" not in SKIP):
                    wrapped[obj] = self._wrap(obj, f"{short}.{name}", short)
        for name, attr in list(vars(sys.modules["gradedlie.groups"].GroupSpec).items()):
            if isinstance(attr, staticmethod) and not name.startswith("_"):
                fn = attr.__func__
                setattr(sys.modules["gradedlie.groups"].GroupSpec, name,
                        staticmethod(self._wrap(fn, f"groups.GroupSpec.{name}", "groups")))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gradedlie" or mod_name.startswith("gradedlie.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])

    def _wrap(self, fn, name: str, layer: str):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        counter, measure = SHAPES.get(name, (None, None))
        if counter:
            self.counters[f"{name}.{counter}"] = 0
        calls, counters, opened, layers = self.calls, self.counters, self._open, self._layer
        fns, parents, starts, ends = self.span_fn, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            if layers[-1] == layer:
                out = fn(*args, **kwargs)
            else:
                idx = len(starts)
                fns.append(fid)
                parents.append(opened[-1])
                ends.append(0.0)
                opened.append(idx)
                layers.append(layer)
                starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    opened.pop()
                    layers.pop()
            if counter:
                counters[f"{name}.{counter}"] += measure(args, out)
            return out

        return traced

    def dump(self, path: Path, extra: dict = None) -> None:
        """Write the spans as raw arrays plus a JSON header."""
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_fn, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {"names": self.names, "calls": self.calls, "counters": self.counters,
                  "spans": len(self.span_fn), **(extra or {})}
        path.with_suffix(".json").write_text(json.dumps(header))


def load(path: Path):
    header = json.loads(path.with_suffix(".json").read_text())
    n = header["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path.with_suffix(".bin"), "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return header, arrays


def self_times(path: Path) -> Dict[str, dict]:
    """Per function: calls, self_s, and the shape counters."""
    header, (fns, parents, starts, ends) = load(path)
    covered = [0.0] * len(fns)
    for i in range(len(fns)):
        if parents[i] >= 0:
            covered[parents[i]] += ends[i] - starts[i]
    stats = {name: {"calls": calls, "self_s": 0.0}
             for name, calls in zip(header["names"], header["calls"])}
    for i in range(len(fns)):
        stats[header["names"][fns[i]]]["self_s"] += ends[i] - starts[i] - covered[i]
    for key, value in header["counters"].items():
        name, counter = key.rsplit(".", 1)
        stats[name][counter] = value
    return stats


def merge(into: Dict[str, dict], more: Dict[str, dict]) -> Dict[str, dict]:
    for name, stat in more.items():
        slot = into.setdefault(name, {})
        for key, value in stat.items():
            slot[key] = slot.get(key, 0) + value
    return into
