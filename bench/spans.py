"""In-memory span tracing installed from outside the package.

A :class:`Tracer` replaces public functions on ``gtslatent`` modules
with timing wrappers.  The harness and the library call each other
through module attributes (``linalg.sym_eig``, ``lstm.adam_step``, ...),
so a wrapper installed on the module sees every call without any edit
to the package.  A target that does not exist is recorded as missing;
the layers it feeds are then reported as not measured.

Each span is ``(name, start, end, parent_index, info)``.  Work done by
an ``info`` hook (for example an eigen-residual check) runs outside
the wrapped call and is recorded as a ``trace.hook`` child span, so it
is charged to the tracer and not to the layer that called the target.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        """Time every call of ``module.attr`` as a span called ``name``.

        ``hook(args, kwargs, result)`` may return a dict stored with the
        span; an exception inside the hook is stored as ``hook_error``.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if hook is not None:
                hook_index = len(spans)
                spans.append(None)
                try:
                    info = hook(args, kwargs, result)
                except Exception as exc:  # a hook never fails the traced call
                    info = {"hook_error": f"{type(exc).__name__}: {exc}"}
                spans[index] = (name, start, end, parent, info)
                spans[hook_index] = ("trace.hook", end, time.perf_counter(),
                                     parent, None)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for ix, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[ix]
        return dict(out)

    def by_name(self, name: str) -> list:
        return [s for s in self.spans if s[0] == name]

    def to_json(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start_s": s - t0, "end_s": e - t0,
                 "parent": p, **({"info": i} if i else {})}
                for n, s, e, p, i in self.spans]
