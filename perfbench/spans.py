"""Span tracing from outside the package.

Wrappers are installed on module attributes for the duration of one traced
call.  Each target is looked up by module and function name; a name that no
longer exists is reported as absent instead of failing the run.  A function
imported by value into another module (``from .sampler import run_chain``)
is patched wherever the same function object is bound, so calls through
every importing namespace are seen.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    ``hook(args, kwargs, result)`` returns numbers to attach to the span,
    such as rows processed; ``count_only`` probes record a call count and
    no span, for functions called too often to time individually.
    """

    module: str
    attr: str
    hook: Optional[Callable] = None
    count_only: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Spans and call counts, kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.hook_errors: dict[str, str] = {}
        self._stack: list[Span] = []

    def call(self, name: str, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if hook is not None:
            try:
                span.info.update(hook(args, kwargs, result))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                self.hook_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
        return result

    def wrap(self, probe: Probe, fn):
        name = probe.name
        if probe.count_only:
            def counted(*args, **kwargs):
                self.counts[name] = self.counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, probe.hook)
        return traced


def resolve(module: str, attr: str):
    """The function named ``module.attr``, or None when either is gone."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    fn = getattr(mod, attr, None)
    return fn if callable(fn) else None


@contextmanager
def installed(tracer: Tracer, probes, package: str = "novelbayes"):
    """Patch every probe into every loaded module of ``package`` that binds
    the probed function; restore the originals on exit.

    Yields the names of the probes whose function could not be found.
    """
    absent, patched = [], []
    for probe in probes:
        fn = resolve(probe.module, probe.attr)
        if fn is None:
            absent.append(probe.name)
            continue
        wrapper = tracer.wrap(probe, fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, fn))
    try:
        yield absent
    finally:
        for mod, key, fn in reversed(patched):
            setattr(mod, key, fn)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------

def covered(interval: tuple, parts) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered((s.start, s.end), children.get(s.sid, []))
            for s in spans}


def ancestors(span: Span, by_id: dict):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


def ratio(num: float, base: float) -> tuple:
    """(num / base, base); a zero base gives 0.0 rather than an error."""
    return (num / base if base else 0.0), base
