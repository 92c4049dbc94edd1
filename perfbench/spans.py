"""Span tracer that wraps antizeno's public functions from outside the package.

Every public function defined in an ``antizeno`` module is replaced, in every
module namespace that binds it (``antizeno.transfer.eig_system`` as well as
``antizeno.dynamics.eig_system``), by a wrapper that records a span: name,
start, end, parent span and whether it raised.  The parent travels in a
``contextvars.ContextVar``; a ``ThreadPoolExecutor`` bound in an antizeno
module is swapped for one that copies the submitting context, so spans of the
CLI's worker threads keep their parent.

A span's self time is its duration minus the union of its children's
intervals, so children running in parallel threads are never subtracted
twice and self time is never negative.
"""

from __future__ import annotations

import contextvars
import inspect
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "antizeno"
# The CSV writers are one I/O step of the CLI wherever they are defined.
WRITER = "cli.write_csv"
DENSITY_MATRIX = "dynamics.DensityMatrix.constructed"

_current = contextvars.ContextVar("perfbench_span", default=None)


class ContextThreadPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict:
    """Self time per span id: duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    # the union lies inside [t0, t1]; max() only absorbs floating-point rounding
    return {s[0]: max(0.0, (s[4] - s[3]) - union_length(children[s[0]], s[3], s[4])) for s in spans}


def _span_name(module: str, attr: str) -> str:
    if attr.endswith("_to_csv"):
        return WRITER
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _traced_names(mod) -> list:
    """Public functions defined in an antizeno module.

    Of the CLI only the entry point is wrapped: its internal steps stay in
    ``cli.main``'s self time, which is then the CLI layer's own cost.
    """
    out = []
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
            continue
        if mod.__name__ == f"{PACKAGE}.cli" and attr != "main":
            continue
        out.append((attr, obj))
    return out


class Tracer:
    """Records spans while ``active``; aggregates them per op with ``fold``."""

    def __init__(self):
        self.active = False
        self.names: set = set()
        self._spans: list = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._undo: list = []
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.traj = 0
        self.traj_s = 0.0

    # -- installation -----------------------------------------------------
    def _modules(self):
        return [m for n, m in list(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _replace(self, modules, old, new):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, old))

    def install(self):
        """Wrap every public function of every loaded antizeno module."""
        modules = self._modules()
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue
            for attr, fn in _traced_names(mod):
                name = _span_name(mod.__name__, attr)
                self.names.add(name)
                self._replace(modules, fn, self._wrap(name, fn))
        if WRITER in self.names:
            self.counts.setdefault(f"{WRITER}.bytes", 0)
        self._replace(modules, ThreadPoolExecutor, ContextThreadPool)
        dm = getattr(sys.modules.get(f"{PACKAGE}.dynamics"), "DensityMatrix", None)
        if dm is not None and hasattr(dm, "__post_init__"):
            self.counts.setdefault(DENSITY_MATRIX, 0)
            original = dm.__post_init__
            tracer = self

            def post_init(obj):
                if tracer.active:
                    tracer.counts[DENSITY_MATRIX] += 1
                original(obj)

            dm.__post_init__ = post_init
            self._undo.append((dm, "__post_init__", original))

    def uninstall(self):
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()

    # -- recording --------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        extra = _EXTRAS.get(name)
        sig = inspect.signature(fn) if extra else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            parent = _current.get()
            token = _current.set(sid)
            failed = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = time.perf_counter()
                _current.reset(token)
                info = extra(sig.bind(*args, **kwargs).arguments) if extra and not failed else None
                tracer._spans.append((sid, parent, name, t0, t1, failed, info))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def fold(self):
        """Move the recorded spans into the per-name totals."""
        spans, self._spans = self._spans, []
        own = self_times(spans)
        for sid, _parent, name, t0, t1, failed, info in spans:
            self.calls[name] += 1
            self.failed[name] += failed
            self.self_s[name] += own[sid]
            if info and name == WRITER:
                self.counts[f"{WRITER}.bytes"] += info
            elif info and name == "open_system.quantum_jump_ensemble":
                self.traj += info
                self.traj_s += t1 - t0

    def metrics(self, passes: int) -> dict:
        """Per-pass totals for every traced name, plus derived rates."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.failed"] = self.failed[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        if "open_system.quantum_jump_ensemble" in self.names:
            out["open_system.quantum_jump_ensemble.traj_per_s"] = self.traj / self.traj_s if self.traj_s else 0.0
        return out


def _writer_bytes(arguments):
    path = arguments.get("path")
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _poisson_trajectories(arguments):
    return int(arguments["n_traj"]) if arguments.get("mode", "poisson") == "poisson" else 0


_EXTRAS = {WRITER: _writer_bytes, "open_system.quantum_jump_ensemble": _poisson_trajectories}
