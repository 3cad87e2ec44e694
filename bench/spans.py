"""Spans around calls into prpd, installed by rebinding module attributes.

A traced function is replaced by a wrapper in every module namespace that
binds it, including from-import bindings such as ``prpd.recursion.matrix_form``
and ``prpd.cli.recursive_prpd``, so calls between prpd modules are seen as
well as calls from the benchmark. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, unit id]
        self.spans: list = []
        self.unit = "setup"
        self._stack: list = []
        self._bound: list = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Rebind each (span name, module, attribute) wherever it is bound."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "prpd" or key.startswith("prpd."))]
        for name, module, attr in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in set(modules) | {module}:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._bound.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._bound):
            setattr(mod, key, original)
        self._bound.clear()

    def self_times(self) -> list:
        """Span duration minus the time covered by its direct child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own
