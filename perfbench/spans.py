"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` records spans (name, start, end, parent span, run id) and
counters.  Spans come from the benchmark's own ``with tracer.span(...)``
blocks and, while :meth:`Tracer.install` is in effect, from wrappers placed
on the public functions of the pinncert layer modules and on every module
attribute that is bound to the same function object (its import sites, e.g.
``pinncert.surrogate.bound`` besides ``pinncert.certify.bound``).  Nothing
under ``src/`` is edited, and per-operation ``Var``/``Dual`` arithmetic and
the dispatching elementary functions are never wrapped.

Wrappers are installed only where a name exists, so a refactor that deletes
a function makes the metrics built on it absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# the layer modules whose functions are timed, in report order
LAYERS = ("autodiff", "network", "train", "ode", "certify", "surrogate", "presets")

# elementary functions called once per Var/Dual operation: never wrapped
PER_OPERATION = frozenset({"exp", "sin", "cos", "sqrt", "tanh", "erf", "sigmoid"})

# private names some per-layer metrics rest on; wrapped only while they exist
PRIVATE = {
    "train": ("_loss_and_grad", "_run_adam", "_run_lbfgs"),
    "network": ("_forward_any",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name, start, end, parent, run_id):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent        # index of the parent span, or None
        self.run_id = run_id

    @property
    def duration(self):
        return self.end - self.start


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(i, ()) if c.end > span.start and c.start < span.end)
        out.append(span.duration - covered)
    return out


class Tracer:
    """Spans and counters of one benchmark process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.run_id = None
        self._stack = []
        self._hooks = {}

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextlib.contextmanager
    def stage(self, name):
        """A span with the layer wrappers installed for its duration."""
        undo = self.install()
        self.begin(name)
        try:
            yield
        finally:
            self.end()
            self.uninstall(undo)

    def inside(self, name):
        """True while a span called ``name`` is open."""
        return any(self.spans[i].name == name for i in self._stack)

    def snapshot(self):
        """(spans, counts, samples) recorded since the last reset."""
        return self.spans, dict(self.counts), {k: list(v) for k, v in self.samples.items()}

    def reset(self, run_id):
        self.spans, self.counts, self.samples = [], Counter(), defaultdict(list)
        self._stack = []
        self.run_id = run_id

    # -- wrappers ------------------------------------------------------------

    def on(self, qualname, hook):
        """Call ``hook(tracer, args, kwargs, result)`` after each traced call."""
        self._hooks[qualname] = hook

    def _wrap(self, qualname, fn):
        hook = self._hooks.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception:     # a changed signature drops the counter, not the run
                    self.counts[f"hook_failed:{qualname}"] += 1
            return result

        return wrapper

    def install(self):
        """Wrap every public function of the layer modules; returns an undo list.

        Each module is reached through ``importlib.import_module`` because
        attribute access on the package can yield a re-exported function of
        the same name (``pinncert.train`` is the ``train`` function).
        """
        modules = {layer: importlib.import_module(f"pinncert.{layer}") for layer in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                if layer == "autodiff" and name in PER_OPERATION:
                    continue
                targets[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        undo = []
        holders = [m for n, m in sys.modules.items()
                   if m is not None and (n == "pinncert" or n.startswith("pinncert."))]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(mod, name, targets[id(obj)][1])
                    undo.append((mod, name, obj))
        return undo

    @staticmethod
    def uninstall(undo):
        for mod, name, obj in reversed(undo):
            setattr(mod, name, obj)

