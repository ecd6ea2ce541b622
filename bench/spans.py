"""Span tracing of the wnc layers from outside the package.

``Tracer.install`` wraps every public function and public method of the
given modules.  It rebinds the module attribute and every binding of the
same object in the other loaded ``wnc`` modules (``from .x import f``
copies), so calls between modules are seen too.  Each call records a
span: name, start, end and the index of the enclosing span.  Spans stay in
memory; ``Tracer.summary`` turns them into call counts, inclusive time and
self time (inclusive time minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, modules, notes=None):
        """modules: {layer name: module}; notes: {span name: fn(args) -> info}."""
        self.modules = modules
        self.notes = notes or {}
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.info = {}
        self._stack = []
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        note = self.notes.get(name)
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if note is not None:
                self.info[idx] = note(*args, **kwargs)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def _rebind(self, name, old, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wnc" or mod_name.startswith("wnc.")):
                continue
            if vars(mod).get(name) is old:
                setattr(mod, name, new)
                self._undo.append((mod, name, old))

    def install(self):
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(name, obj,
                                 self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        return self

    def _wrap_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                new = self._wrap(name, member)
            elif isinstance(member, staticmethod):
                new = staticmethod(self._wrap(name, member.__func__))
            elif isinstance(member, functools.cached_property):
                new = functools.cached_property(self._wrap(name, member.func))
                new.__set_name__(cls, attr)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, member))

    def uninstall(self):
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return dict(out)

    def has_ancestor(self, idx, name):
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def spans_named(self, name):
        return [i for i, n in enumerate(self.names) if n == name]

    def duration(self, idx):
        return self.ends[idx] - self.starts[idx]
