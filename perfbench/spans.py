"""Span tracing of cosinet's public functions, installed from outside the package.

``Tracer.install`` wraps every public module-level function and every
public method of a public class defined in each traced module, and rebinds
the wrapper in *every* ``cosinet`` namespace that holds the original:
``training`` imports ``score_pairs``, ``prepare_group``, ``prepare_pair`` and
``encode_pair`` by name, so patching only ``cosinet.model`` would miss the
training path. ``uninstall`` puts the originals back. Nothing under ``src/``
is edited.

Each call becomes a span (name, start, end, parent). Spans stay in memory
until ``write`` dumps them at the end of a run. The run is one thread with
one closed-loop client, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def _public_callables(module):
    """(owner, attribute, qualified name, function) for what ``install`` wraps."""
    mod_short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, f"{mod_short}.{name}", obj))
        elif inspect.isclass(obj):
            for attr, fn in sorted(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out.append((obj, attr, f"{mod_short}.{name}.{attr}", fn))
    return out


class Tracer:
    """Records spans for calls into the traced modules while installed."""

    def __init__(self, modules, observers=None):
        self.modules = list(modules)
        self.observers = observers or {}  # qualified name -> fn(args, kwargs)
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list = []    # [name_id, start, end, parent, nested]
        self._stack: list[int] = []
        self._active = defaultdict(int)
        self._undo: list = []

    def _wrap(self, qualname, fn):
        nid = self._name_id.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        observe = self.observers.get(qualname)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, active[nid] > 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            active[nid] += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[nid] -= 1
                stack.pop()

        return traced

    def install(self) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "cosinet" or name.startswith("cosinet."))]
        for module in self.modules:
            for owner, attr, qualname, fn in _public_callables(module):
                wrapper = self._wrap(qualname, fn)
                if inspect.isclass(owner):
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def stats(self) -> dict:
        """qualified name -> {calls, busy_s, self_s}; busy excludes re-entrant calls."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for (nid, start, end, _, nested), kids in zip(self.spans, child):
            s = out[self.names[nid]]
            s["calls"] += 1
            s["self_s"] += end - start - kids
            if not nested:
                s["busy_s"] += end - start
        return out

    def write(self, path) -> None:
        """Dump names and spans as one JSON object (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": self.names,
                       "spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                                 for n, s, e, p, _ in self.spans]}, fh)
