"""Outside-in tracer: spans around calls into a program's public functions.

The tracer replaces a function at every place it is bound: its home module,
the ``from .x import y`` copies in other modules of the package, and class
attributes that alias it (``__radd__ = __add__``).  Each call records a span
(name, start, end, parent).  Spans stay in memory; ``write`` stores them at
the end of the run.  While a call runs, the tracer also keeps

- per layer, the self time: span time minus the time of child spans;
- per group of names, the number of calls and the time covered by the
  group's outermost spans (a group's nested calls are not counted twice);
- named counters that hooks add to.

A traced name that no longer resolves raises ``TraceTargetMissing``, so a
rename in the program breaks the benchmark instead of zeroing a layer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict


class TraceTargetMissing(LookupError):
    """A traced ``module:qualname`` does not resolve to a function."""


def resolve(target: str):
    """``'pkg.mod:Class.method'`` -> (owner, attribute, function)."""
    modname, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError as err:
        raise TraceTargetMissing(f"{target}: {err}") from err
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = owner.__dict__.get(part)
        if owner is None:
            raise TraceTargetMissing(f"{target}: no attribute {part!r}")
    fn = owner.__dict__.get(parts[-1]) if parts[-1] else None
    if not inspect.isfunction(fn):
        raise TraceTargetMissing(f"{target}: not a plain function")
    return owner, parts[-1], fn


def bindings(fn, packages):
    """Every (namespace owner, attribute) in the loaded modules of
    `packages`, and in their classes, whose value is `fn`."""
    found = []
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and name.split(".")[0] in packages]
    seen_classes = set()
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            if val is fn:
                found.append((mod, attr))
            elif inspect.isclass(val) and id(val) not in seen_classes:
                seen_classes.add(id(val))
                for cattr, cval in list(vars(val).items()):
                    if cval is fn:
                        found.append((val, cattr))
    return found


class Tracer:
    """Span recorder; see the module docstring.

    `clock` returns seconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.layers: dict = {}     # layer -> [self time]
        self.groups: dict = {}     # group -> [calls, time, open calls]
        self.counters: dict = defaultdict(int)
        self.enabled = True
        self._stack: list = []     # [span id, child time] per open span
        self._installed: list = []

    def wrap(self, fn, name: str, layer: str, groups=(), hook=None):
        """A wrapper of `fn` recording a span `name` in `layer` and in each
        of `groups`.  `hook(counters, args, result)` runs inside the span."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        layer_cell = self.layers.setdefault(layer, [0.0])
        group_cells = tuple(self.groups.setdefault(g, [0, 0.0, 0])
                            for g in groups)
        tracer = self
        clock = self.clock
        stack = self._stack
        counters = self.counters

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.name.append(name_id)
            tracer.end.append(0.0)
            outer = [g for g in group_cells if g[2] == 0]
            for g in group_cells:
                g[0] += 1
                g[2] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, result)
            finally:
                t1 = clock()
                stack.pop()
                tracer.end[sid] = t1
                dur = t1 - t0
                layer_cell[0] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                for g in group_cells:
                    g[2] -= 1
                for g in outer:
                    g[1] += dur
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, target: str, name: str, layer: str, groups=(),
                hook=None, packages=None):
        """Wrap the function named by `target` at every binding in the
        modules of `packages` (default: the target's top-level package)."""
        owner, attr, fn = resolve(target)
        if packages is None:
            packages = (target.split(".")[0].split(":")[0],)
        found = bindings(fn, set(packages))
        if (owner, attr) not in found:
            found.append((owner, attr))
        wrapper = self.wrap(fn, name, layer, groups, hook)
        for ns, key in found:
            self._installed.append((ns, key, fn))
            setattr(ns, key, wrapper)
        return len(found)

    def uninstall(self):
        for ns, key, fn in reversed(self._installed):
            setattr(ns, key, fn)
        self._installed.clear()

    # -- results --------------------------------------------------------------

    def layer_self_s(self) -> dict:
        return {layer: cell[0] for layer, cell in self.layers.items()}

    def group_stats(self) -> dict:
        """group -> (calls, time covered by the group's outermost spans)."""
        return {g: (cell[0], cell[1]) for g, cell in self.groups.items()}

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path_prefix: str):
        """Spans as raw arrays (`.start`, `.end` float64; `.parent` int64;
        `.name` int32) plus `.json` with the name table and totals."""
        for field in ("start", "end", "parent", "name"):
            with open(f"{path_prefix}.{field}", "wb") as fh:
                getattr(self, field).tofile(fh)
        meta = {"spans": self.span_count(), "names": self.names,
                "layer_self_s": self.layer_self_s(),
                "groups": {g: {"calls": c, "time_s": t}
                           for g, (c, t) in self.group_stats().items()},
                "counters": dict(self.counters)}
        with open(f"{path_prefix}.json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)

