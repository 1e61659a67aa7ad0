"""Layer tracing by wrapping module attributes and class methods.

Only a traced run installs the wrappers; an untraced run calls the
program untouched.  Each wrapper opens a span named after its layer.
On exit the span adds its duration to the layer's total and, minus the
time covered by its child spans, to the layer's self time.  A span
entered inside a span of the same name (``at_depth`` building its base
walker, ``to_depth`` calling ``advance``) folds into the outer one, so
a call is counted once.  Spans are aggregated in memory by layer and by
(parent, layer) edge; nothing is written until the run ends.
"""

from __future__ import annotations

import builtins
import sys
import time


class Layer:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = {}


class Tracer:
    def __init__(self):
        self.layers = {}
        self.edges = {}
        self._stack = []       # [name, child seconds] per open span
        self._installed = []   # (owner, attribute, original value)

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        if self._stack and self._stack[-1][0] == name:
            return None
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, elapsed):
        self._stack.pop()
        layer = self.layer(frame[0])
        layer.calls += 1
        layer.total_s += elapsed
        layer.self_s += elapsed - frame[1]
        parent = self._stack[-1][0] if self._stack else None
        self.edges[(parent, frame[0])] = self.edges.get((parent, frame[0]), 0) + 1
        if self._stack:
            self._stack[-1][1] += elapsed

    def layer(self, name) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        return layer

    def count(self, name, key, amount):
        counts = self.layer(name).counts
        counts[key] = counts.get(key, 0) + amount

    def wrap(self, fn, name, before=None, after=None):
        """Span around fn; ``after(tracer, args, result, before(args))``."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            if frame is None:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, time.perf_counter() - t0)
            if after:
                after(tracer, args, result, state)
            return result

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def patch(self, owner, attribute, name, before=None, after=None):
        """Replace owner.attribute (function, method or classmethod)."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name,
                                                before, after))
        else:
            replacement = self.wrap(original, name, before, after)
        setattr(owner, attribute, replacement)
        self._installed.append((owner, attribute, original))

    def patch_first_import(self, module, name):
        """Span around the first import of ``module`` by anyone."""
        original = builtins.__import__
        tracer = self

        def hooked(mod, *args, **kwargs):
            if mod != module or module in sys.modules:
                return original(mod, *args, **kwargs)
            frame = tracer._enter(name)
            t0 = time.perf_counter()
            try:
                return original(mod, *args, **kwargs)
            finally:
                tracer._exit(frame, time.perf_counter() - t0)

        builtins.__import__ = hooked
        self._installed.append((builtins, "__import__", original))

    def uninstall(self):
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {name: (layer.calls, layer.total_s, layer.self_s,
                       dict(layer.counts))
                for name, layer in self.layers.items()}

    @staticmethod
    def difference(after: dict, before: dict) -> dict:
        """Per-layer activity between two snapshots."""
        out = {}
        for name, (calls, total, self_s, counts) in after.items():
            c0, t0, s0, k0 = before.get(name, (0, 0.0, 0.0, {}))
            out[name] = (calls - c0, total - t0, self_s - s0,
                         {k: v - k0.get(k, 0) for k, v in counts.items()})
        return out

    def edge_table(self) -> list:
        return sorted(([p or "(benchmark)", c, n] for (p, c), n in self.edges.items()),
                      key=lambda row: (row[0], row[1]))
