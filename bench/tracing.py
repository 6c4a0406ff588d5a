"""Outside-in tracer: spans around the public functions of each pbci layer.

The package imports its functions by name (``from .core import atoms``), so
a wrapper installed only in the defining module would miss the calls made
through ``report``, ``theorems`` and ``cli``.  ``Tracer.install`` therefore
puts the same wrapper into every loaded ``pbci`` module whose namespace holds
the original function, and ``uninstall`` puts the originals back.  Spans are
kept in memory as tuples and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# The traced functions of each layer, in layer order.
LAYERS: dict[str, tuple[str, ...]] = {
    "formats": ("parse_algebra", "serialize_spec"),
    "core": ("collect_violations", "validate", "classify", "atoms", "branches",
             "bck_part"),
    "derivations": ("enumerate_derivations", "regular_translation_maps",
                    "map_properties", "phi_map", "satisfies", "monoid_report"),
    "dsystems": ("enumerate_ds", "bck_part_system", "congruence_classes",
                 "quotient"),
    "theorems": ("theorem_suite",),
    "report": ("build_report", "render_json", "render_text"),
    "search": ("search", "is_lex_least_rep"),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _work(name: str, args: tuple, result):
    """Work counted at a span: maps or models returned; for enumerate_ds the
    systems found and the 2^(n-1) subsets its scan covers; else 0."""
    if name == "dsystems.enumerate_ds":
        return (len(result), 1 << (args[0].size - 1))
    if name in ("derivations.enumerate_derivations", "search.search"):
        return len(result)
    return 0


class Tracer:
    """Records (span id, parent id, op id, name, start, end, work) tuples.

    Spans are recorded only inside ``operation``; the wrapped functions run
    untouched in between.  The tracer is single-threaded, like the loop that
    drives it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            work = 0
            try:
                result = fn(*args, **kwargs)
                work = _work(name, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self._op, name, start, end, work)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every pbci namespace that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "pbci" or key.startswith("pbci."))]
        for layer, fns in LAYERS.items():
            defining = sys.modules[f"pbci.{layer}"]
            for fn in fns:
                original = getattr(defining, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    if getattr(module, fn, None) is original:
                        self._patches.append((module, fn, original))
                        setattr(module, fn, wrapper)

    def uninstall(self) -> None:
        for module, fn, original in reversed(self._patches):
            setattr(module, fn, original)
        self._patches.clear()

    @contextmanager
    def operation(self, op: int, name: str):
        """The root span of one CLI operation; traced calls nest under it."""
        sid = len(self.spans)
        self.spans.append(None)
        self._op = op
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self._op = None
            self.spans[sid] = (sid, None, op, name, start, end, 0)


def self_times(spans: list[tuple]) -> list[tuple[int, str, float, int, float]]:
    """(op, name, self seconds, work, duration) per span.

    Self time is a span's duration minus the durations of its direct traced
    children; children of one span never overlap because calls nest.
    """
    child = [0.0] * len(spans)
    for sid, parent, _op, _name, start, end, _count in spans:
        if parent is not None:
            child[parent] += end - start
    return [(op, name, (end - start) - child[sid], work, end - start)
            for sid, _parent, op, name, start, end, work in spans]
