"""Spans around the program's public functions, recorded from outside.

``Tracer`` rebinds each traced function at every module binding that
holds it (the defining module, each importer and the package namespace),
so internal calls such as ``bounds.nu`` are seen too.  Spans are kept in
memory as ``(name, start, end, parent)`` and summarised at the end; self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

PACKAGE = "matchbounds"
# Module -> public functions wrapped there (and wherever they are imported).
TRACED = {
    "enumeration": ("canonical_key", "canonical_form", "random_subcubic"),
    "graphs": ("parse_graph6", "emit_graph6", "degree_profile"),
    "matching": ("nu", "is_hypomatchable"),
    "structure": ("gallai_edmonds", "verify_ge_properties"),
    "bounds": ("evaluate_bound",),
    "families": ("generate",),
    "cli": ("cmd_verify", "cmd_ge"),
}


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.graph_inits = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps child indices stable
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1])

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start)

        return traced

    def _wrap_iter(self, gen_fn, name_of):
        """Time each ``next`` of the iterators ``gen_fn`` returns, as a span
        named after the item it yields."""

        def traced(*args, **kwargs):
            inner = iter(gen_fn(*args, **kwargs))
            while True:
                index = self._open()
                start = time.perf_counter()
                name = "level.end"
                try:
                    item = next(inner)
                    name = name_of(item)
                except StopIteration:
                    return
                finally:
                    self._close(index, name, start)
                yield item

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        for module, names in TRACED.items():
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for name in names:
                fn = getattr(mod, name)
                self._rebind(fn, self._wrap(name, fn))
        # The level metrics depend on this internal iterator, which yields one
        # list of graphs per order; without it the trace fails rather than
        # timing something else under the same names.
        levels = sys.modules[f"{PACKAGE}.enumeration"]._connected_levels
        self._rebind(levels, self._wrap_iter(levels, lambda lv: f"level.n{lv[0].n}"))
        graph_cls = sys.modules[f"{PACKAGE}.graphs"].Graph
        init = graph_cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.graph_inits += 1
            init(obj, *args, **kwargs)

        graph_cls.__init__ = counted_init
        self._undo.append((graph_cls, "__init__", init))
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and child span
        counts by name; plus the seconds covered by top-level spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}

        def entry(name: str) -> dict:
            return stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "children": Counter()})

        for i, (name, start, end, parent) in enumerate(self.spans):
            s = entry(name)
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            if parent >= 0:
                entry(self.spans[parent][0])["children"][name] += 1
        top_level = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {"spans": stats, "top_level_s": top_level, "graph_inits": self.graph_inits}

    def dump(self, path: str) -> None:
        """Write the raw spans as JSON: a name table and one row per span."""
        names = sorted({name for name, *_ in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], start, end, parent] for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "names": names,
                       "spans": rows}, fh)
