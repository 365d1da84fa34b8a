"""In-memory spans around the calls the program makes into each layer.

Spans are recorded from the benchmark only: :func:`patched` replaces a
module attribute that the caller looks up at call time with a wrapper
that times the call, and restores the original afterwards.  Spans made
inside forked pool workers stay in the worker and are lost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """One span per wrapped call: name, start, end and the enclosing span."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        A span's self time is its duration minus that of its direct
        children; calls in one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return out


@contextmanager
def patched(replacements):
    """Set each ``(module, attribute, value)`` for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
