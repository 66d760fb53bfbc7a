"""In-memory span tracing for the benchmark's traced run.

The tracer wraps public functions of the library from outside: every call
of a wrapped function becomes one span (name, start, end, parent), and
every span carries the index of its outermost span, so all spans of one
query or one build step share an id. A few very hot primitives are only
counted, not timed. Nothing is wrapped in an untraced run.
"""

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []                 # name id -> span name
        self._ids = {}
        self.name = array("H")          # per span: name id
        self.parent = array("q")        # per span: parent span, -1 at top
        self.root = array("q")          # per span: outermost span (the id)
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counted = []               # counted-only names
        self.tally = []                 # running call count per name
        self._undo = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- explicit spans ----------------------------------------------------

    def begin(self, name):
        i = len(self.start)
        stack = self._stack
        self.name.append(self._nid(name))
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(self.root[stack[-1]] if stack else i)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        stack.append(i)
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ----------------------------------------------------------

    def _spanned(self, fn, name):
        nid = self._nid(name)
        names, parents, roots = self.name, self.parent, self.root
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            if stack:
                p = stack[-1]
                r = roots[p]
            else:
                p, r = -1, i
            names.append(nid)
            parents.append(p)
            roots.append(r)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
        return wrapper

    def _counting(self, fn, name):
        k = len(self.counted)
        self.counted.append(name)
        self.tally.append(0)
        tally = self.tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally[k] += 1
            return fn(*args, **kwargs)
        return wrapper

    def replace(self, owner, attr, new):
        """Set owner.attr to new until unwrap() restores it."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls, attr, name, counted=False):
        fn = cls.__dict__[attr]
        make = self._counting if counted else self._spanned
        self.replace(cls, attr, make(fn, name))

    def wrap_function(self, module, attr, name):
        """Wrap a module-level function and every alias of it that another
        module of the same package imported by name."""
        fn = getattr(module, attr)
        wrapped = self._spanned(fn, name)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self.replace(mod, key, wrapped)

    def unwrap(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, with durations and self times (duration
        minus the time covered by the span's children)."""
        # copies, so the arrays can still grow afterwards
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        root = np.frombuffer(self.root, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {"name": name, "parent": parent, "root": root,
                "start": start, "end": end, "dur": dur,
                "self": dur - child}

    def by_name(self, arr):
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {}
        k = len(self.names)
        calls = np.bincount(arr["name"], minlength=k)
        total = np.bincount(arr["name"], weights=arr["dur"], minlength=k)
        own = np.bincount(arr["name"], weights=arr["self"], minlength=k)
        for i, nm in enumerate(self.names):
            out[nm] = {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
        return out

    def save(self, path, arr):
        np.savez_compressed(path, names=np.array(self.names), name=arr["name"],
                            parent=arr["parent"], root=arr["root"],
                            start=arr["start"], end=arr["end"])
