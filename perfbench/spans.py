"""Span recording around avekit's public functions, installed from outside.

Each wrapped call records one span: name, start, end, parent span and
request id.  The wrappers replace every module-level binding of the
wrapped function object across ``avekit.*``: ``cli``, ``sge``, ``newton``,
``oracle`` and ``problems`` bind each other's functions by ``from`` import,
so patching only the defining module would miss those calls.  Nothing
under ``src/`` changes; ``Tracer.installed()`` restores every binding on
exit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass

# The public functions of each layer whose calls become spans.
TRACED = (
    ("avekit.cli", "main"),
    ("avekit.cli", "load_problem"),
    ("avekit.problems", "gen_class"),
    ("avekit.problems", "residual"),
    ("avekit.analysis", "condition_profile"),
    ("avekit.analysis", "rho_sr_enum"),
    ("avekit.analysis", "rho_sr_bisect"),
    ("avekit.analysis", "det_positive_all_signatures"),
    ("avekit.linalg", "lu_factor"),
    ("avekit.linalg", "lu_solve"),
    ("avekit.linalg", "char_polys_stack"),
    ("avekit.linalg", "max_abs_real_roots"),
    ("avekit.sge", "sge_solve"),
    ("avekit.newton", "newton_solve"),
    ("avekit.oracle", "enumerate_solutions"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while its wrappers are installed.

    ``request`` is set by the caller before each request; every span
    opened until the next assignment carries it.  Spans opened on worker
    threads (``compare`` under ``AVE_THREADS``) take the innermost span
    open on the main thread as their parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            request = self.request
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, request))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind a span-recording wrapper in place of each TRACED function."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "avekit" or key.startswith("avekit."))]
        saved = []
        try:
            for module_name, fn_name in TRACED:
                original = getattr(sys.modules[module_name], fn_name)
                wrapper = self._wrap(f"{module_name.split('.')[-1]}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.seconds - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}
