"""Spans around calls into the program's modules, and self-time arithmetic.

A ``Tracer`` replaces chosen public functions of the ``singbraid`` modules by
wrappers that record one span per call: name, start, end, parent span and
request id.  Spans stay in memory until the run writes them out.  A layer is
a module; its self time is the time its spans cover minus the part that
their child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

# The public functions that get a span, by module.  Functions called once per
# letter or per syllable (express_schreier_gen, free_product_nf,
# cyclic_power_of_c) are left out: a span there would cost more than the
# work it measures.  Their time is self time of the caller's layer.
TRACED = {
    "words": ("parse_braid_word",),
    "permutations": ("pi",),
    "rewriting": ("rewrite_tau",),
    "sp3": ("parse_sp_word", "rewrite_to_sp3"),
    "normal_form": (
        "is_trivial_sg3",
        "is_trivial_sp3",
        "center_split",
        "eliminate_a12",
        "britton_reduce",
    ),
    "oracles": ("sg3_necessary_trivial",),
}


class Span(NamedTuple):
    name: str  # "<module>.<function>", or "bench.<step>" for the roots
    start: int  # thread_time_ns
    end: int
    parent: int  # index into the span list, -1 for a root
    request: int


def covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of half-open intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children.get(i, []))
        for i, span in enumerate(spans)
    ]


class Tracer:
    """Records spans for calls into the traced functions while installed.

    The package must be imported first.  ``counters`` maps a span name to a
    function of (args, result) that yields (count name, value) pairs, which
    are recorded after the span ends.
    """

    def __init__(self, counters: dict[str, Callable]) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, list] = defaultdict(list)
        self.request = 0
        self._stack: list[int] = []
        # Modules import each other's functions by name, so every binding of
        # a traced function is replaced, not only the defining one.
        modules = [m for n, m in sys.modules.items() if n == "singbraid" or n.startswith("singbraid.")]
        self._bindings: list[tuple[object, str, Callable, Callable]] = []
        for layer, names in TRACED.items():
            for fn_name in names:
                original = getattr(sys.modules[f"singbraid.{layer}"], fn_name)
                span_name = f"{layer}.{fn_name}"
                wrapper = self._wrap(span_name, original, counters.get(span_name))
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))

    def span(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.thread_time_ns()
        try:
            return fn(*args)
        finally:
            end = time.thread_time_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.request)

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        def traced(*args):
            result = self.span(name, fn, *args)
            if count is not None:
                for key, value in count(args, result):
                    self.counts[key].append(value)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")
