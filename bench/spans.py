"""Span recording around hgspec's public functions, installed from outside.

Each public function of a traced module is wrapped once, and the
wrapper is bound under every name any ``hgspec`` module holds for the
original.  That matters because the modules import each other's
functions with ``from ... import``: ``hgspec.cli`` calls its own
binding of ``spectral_radius`` and ``hgspec.constructions`` its own
binding of ``distances_from``, so patching only the defining module
would miss those calls.  Callers look the names up at call time, so
the wrappers see every call made while they are installed.

A span is (name, start, end, parent); self time is a span's duration
minus the durations of its direct children.  Private helpers are never
wrapped, so their time stays with the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps public functions of ``package.<layer>`` modules and records spans.

    ``skip`` names functions left unwrapped (per-element helpers whose
    time belongs to their caller); ``methods`` maps a layer to
    ``(class name, method name)`` pairs to wrap as well; ``probes`` maps
    a span name to ``f(args, kwargs, result) -> dict`` whose result is
    kept on the span.
    """

    def __init__(self, package: str, layers: list[str], skip: set[str],
                 methods: dict[str, list[tuple[str, str]]],
                 probes: dict[str, Callable]):
        self.package = package
        self.layers = layers
        self.skip = skip
        self.methods = methods
        self.probes = probes
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        probe = self.probes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, Callable] = {}
        for layer in self.layers:
            module = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and attr not in self.skip):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, meth in self.methods.get(layer, []):
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth,
                        self._wrap(f"{layer}.{cls_name}.{meth}", original))
                self._undo.append((cls, meth, original))
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
