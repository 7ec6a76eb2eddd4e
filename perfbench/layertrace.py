"""Span tracer for the per-layer benchmark run.

The tracer replaces a library function by a wrapper at every name a
``hotnet`` module bound it to (``montecarlo`` calls ``sample_ppp`` through
its own module global, ``analytic`` and ``quadrature`` both bind
``integrate_adaptive``), so each call is seen exactly once whichever
module makes it.  Spans stay in memory with a link to their parent span;
the self time of a function is its span's duration minus the durations
of its direct child spans, which keeps recursive quadrature honest.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# span fields
NAME, START, END, PARENT, OUTER = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._installed: list[tuple] = []

    def _wrap(self, name, fn, on_result):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            active[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    active[name] == 1]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                active[name] -= 1
            if on_result is not None:
                on_result(self, idx, args, kwargs, result)
            return result

        return traced

    def install(self, name: str, fn, on_result=None) -> None:
        """Wrap ``fn`` at every ``hotnet`` module attribute bound to it.

        ``on_result(tracer, span_index, args, kwargs, result)`` may add to
        ``tracer.counters``.
        """
        wrapper = self._wrap(name, fn, on_result)
        bound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hotnet"
                                   or modname.startswith("hotnet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, fn))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{name}: no hotnet module binds {fn!r}")

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def summary(self) -> dict[str, float]:
        """Per-name ``calls``, ``s`` (outermost spans only, so recursion
        is not counted twice) and ``self_s``, plus the counters."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = defaultdict(float)
        out.update(self.counters)
        for i, span in enumerate(self.spans):
            name, dur = span[NAME], span[END] - span[START]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            if span[OUTER]:
                out[f"{name}.s"] += dur
        return out

    def write(self, path) -> None:
        """Write every span as ``[name, start, end, parent]``, times in
        seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], round(s[START] - t0, 7),
                 round(s[END] - t0, 7), s[PARENT]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
