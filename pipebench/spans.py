"""Spans and counts recorded around calls into sopipeline's modules.

The tracer wraps public functions and methods from outside the program:
``Tracer.install`` swaps each target for a wrapper in every sopipeline
module that bound it, and ``uninstall`` puts the originals back. A wrapper
records one span per call (name, start, end, parent) and, for generators,
one span per item drawn, so the time a consumer spends inside a lazy
producer is charged to the producer. Counts are recorded at the same
boundaries, keyed by the stage that was running.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def stage(self) -> str:
        """Name of the outermost open span: the pipeline stage running."""
        return self.spans[self._stack[0]][0] if self._stack else ""

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self.stage(), key)] += n

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable] = None) -> Callable:
        """One span per call; ``counter(tracer, args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def wrap_gen(self, fn: Callable, name: str, counter: Optional[Callable] = None) -> Callable:
        """One span per item a generator yields; ``counter(tracer, item)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                if counter is not None:
                    counter(self, item)
                yield item

        return traced

    def install(self, targets) -> None:
        """Patch ``(owner, attr, name, kind, counter)`` targets; ``kind`` is
        "call" or "gen". A module-level function is patched in every loaded
        sopipeline module that holds the same object."""
        for owner, attr, name, kind, counter in targets:
            original = getattr(owner, attr)
            wrapper = (self.wrap_gen if kind == "gen" else self.wrap)(original, name, counter)
            holders = [owner]
            if isinstance(owner, type(sys)):
                holders += [
                    mod
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.startswith("sopipeline") and mod is not owner
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the part its direct children
        cover; spans of one thread nest, so children never overlap.
        """
        inclusive: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return dict(inclusive), dict(own)

    def counted(self, key: str, stage: Optional[str] = None) -> float:
        return sum(v for (s, k), v in self.counts.items() if k == key and (stage is None or s == stage))
