"""In-memory span tracer that wraps functions at the names their callers use.

A target is written ``"package.module:Attr.path"``. Wrapping replaces that
attribute with a function that records one span (name, start, end, parent)
per call, so every caller that looks the name up at call time is traced.
A target that no longer exists (a module, class or function removed by a
later refactor) is recorded in :attr:`Tracer.absent` instead of failing.

Spans are kept in flat lists and analysed after the run; nothing is written
while the traced code executes.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

_clock = time.monotonic


class SetupDone(BaseException):
    """Raised from the first timed call when only set-up is measured.

    Derives from BaseException so the program's own ``except Exception``
    handlers let it through unchanged.
    """


def _resolve(target: str):
    """Return (owner, attribute name, attribute) or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._begin_hooks: dict[str, object] = {}

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        hook = self._begin_hooks.get(name)
        if hook is not None:
            hook()
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(_clock())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = _clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def on_begin(self, name: str, hook) -> None:
        """Call ``hook()`` before each span called ``name`` starts."""
        self._begin_hooks[name] = hook

    # -- wrapping ------------------------------------------------------------

    def wrap(self, target: str, name: str | None = None, on_result=None) -> bool:
        """Trace calls through ``target``.

        ``name`` labels the span (no span is recorded when it is None);
        ``on_result(tracer, result, args)`` runs after each call returns.
        Returns False, and records the target as absent, when it does not
        exist.
        """
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return False
        owner, attr, fn = found
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.begin(name) if name is not None else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                if i >= 0:
                    tracer.end(i)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


@dataclass
class NameStats:
    calls: int = 0
    inclusive: float = 0.0  # seconds, outermost spans of this name only
    self_time: float = 0.0  # seconds, minus the time covered by child spans
    durations: list = field(default_factory=list)  # seconds, calls in the window


def analyse(tracer: Tracer, t0: float, t1: float) -> dict[str, NameStats]:
    """Per span name: calls started in [t0, t1], and inclusive and self time
    clipped to that window. Self times of all names sum to the part of the
    window covered by spans."""
    n = len(tracer.names)
    clipped = [0.0] * n
    for i in range(n):
        lo = max(tracer.starts[i], t0)
        hi = min(tracer.ends[i], t1)
        clipped[i] = hi - lo if hi > lo else 0.0
    child_time = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child_time[p] += clipped[i]
    out: dict[str, NameStats] = {}
    for i in range(n):
        name = tracer.names[i]
        st = out.get(name)
        if st is None:
            st = out[name] = NameStats()
        if t0 <= tracer.starts[i] <= t1:
            st.calls += 1
            st.durations.append(tracer.ends[i] - tracer.starts[i])
        st.self_time += clipped[i] - child_time[i]
        p = tracer.parents[i]
        while p >= 0 and tracer.names[p] != name:
            p = tracer.parents[p]
        if p < 0:
            st.inclusive += clipped[i]
    return out
