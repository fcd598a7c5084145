"""Span recording around the public functions of jlkit's modules.

Each layer is one jlkit module.  ``Tracer.install`` wraps every function
named in a layer module's ``__all__``, both in its home module and under
every other jlkit module attribute that holds the same function object
(``from .kmeans import cluster_stats`` style imports), so that calls
between modules are traced too.  ``uninstall`` puts the originals back,
which lets one process alternate traced and untraced trials.

A span is (name, start, end, parent, trial); spans stay in memory until
the run writes them out.  Self time is a span's duration minus the
durations of its direct children.  Work counts, where a layer has a
natural one, are computed from the call's arguments and stored with the
span.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time
from dataclasses import dataclass

PACKAGE = "jlkit"
LAYERS = ("projection", "geometry", "kmeans", "clusterability", "datagen", "dimension")


def _project_flop(op, data):
    return 2 * data.m * data.dim * op.n_prime


def _operator_bytes(n, n_prime, seed, orthonormalize=False):
    return 8 * n_prime * n


def _pairs(points, block=1024):
    m = len(points)
    return m * (m - 1) // 2


# Computed work per call, from the call's arguments: GEMM flops 2*m*n*n',
# operator bytes 8*n'*n, and pairs m(m-1)/2.
WORK = {
    "projection.project": _project_flop,
    "projection.build_operator": _operator_bytes,
    "geometry.pairwise_sq_dists": _pairs,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root span
    trial: int           # trial index, -1 during set-up
    work: int = 0        # computed work count (see WORK), 0 when none
    peak_rise_kb: int = 0  # rise of the process's peak RSS during the span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the wrapped jlkit functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            span = Span(name, time.perf_counter(), 0.0, parent, self.trial)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.peak_rise_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
                if work is not None:
                    span.work = work(*args, **kwargs)

        return traced

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
