"""Span-based tracing and the always-on stage clocks.

Two timing primitives with different contracts:

* :func:`span` — *observability* timing.  Monotonic
  (``time.perf_counter``), nests through a thread-local stack (each
  thread gets its own stack, so spans opened on other threads, such as
  the slab prefetch thread, aggregate safely), and lands in the active
  registry as a ``span_seconds`` histogram labeled with the
  ``/``-joined span path.  When observability is disabled, ``span()``
  returns one shared no-op context manager — the near-zero fast path.

* :class:`StageClock` / :class:`Stopwatch` — *trace* timing.  The
  drivers' per-iteration records (``mttkrp_seconds`` etc.) are part of
  the documented trace format and must be populated whether or not
  observability is enabled, so these always measure.  They are the
  substrate ``repro.bench.timers`` and ``repro.core.trace`` consume.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from .state import active_registry, is_enabled

_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class _NullSpan:
    """Shared no-op span for disabled mode."""

    __slots__ = ()
    #: Mirrors :attr:`_Span.seconds` so callers can read it either way.
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "tags", "path", "seconds", "_start")

    def __init__(self, name: str, tags: dict):
        self.name = name
        self.tags = tags
        self.path = name
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = _stack()
        self.path = (stack[-1].path + "/" + self.name) if stack else self.name
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        registry = active_registry()
        if registry.enabled:
            registry.histogram("span_seconds", span=self.path,
                               **self.tags).observe(self.seconds)


def span(name: str, **tags: object):
    """Open a timing span; a context manager.

    >>> with span("mttkrp", mode=1):
    ...     pass

    Nesting composes the registry label: a ``span("solve")`` opened
    inside ``span("iteration")`` lands under ``iteration/solve``.
    Returns a shared no-op when observability is disabled.
    """
    if not is_enabled():
        return NULL_SPAN
    return _Span(name, tags)


def current_span_path() -> str | None:
    """The ``/``-joined path of the innermost open span on this thread."""
    stack = _stack()
    return stack[-1].path if stack else None


# ----------------------------------------------------------------------
# Always-on clocks (trace substrate)
# ----------------------------------------------------------------------
class Stopwatch:
    """A context-manager stopwatch accumulating into :attr:`seconds`.

    >>> with Stopwatch() as t:
    ...     pass
    >>> t.seconds >= 0.0
    True
    """

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.seconds += time.perf_counter() - self._start
        self._start = None


class StageClock:
    """Accumulates wall-clock per named stage (always on).

    The drivers run every outer iteration under one of these —
    ``clock.stage("mttkrp")`` / ``"admm"`` / ``"other"`` — and
    :meth:`repro.core.trace.OuterIterationRecord.from_stages` turns the
    totals into the per-iteration trace record.  When observability is
    enabled each stage exit additionally lands in the active registry
    (``stage_seconds`` histogram keyed by stage name), so the trace and
    the metrics are two views of the same measurement.

    >>> clock = StageClock()
    >>> with clock.stage("mttkrp"):
    ...     pass
    >>> set(clock.totals()) == {"mttkrp"}
    True
    """

    __slots__ = ("_totals", "scope")

    def __init__(self, scope: str | None = None) -> None:
        self._totals: dict[str, float] = defaultdict(float)
        #: Optional label distinguishing which driver is reporting
        #: (``"aoadmm"``, ``"als"``, ...) in the shared registry.
        self.scope = scope

    class _Stage:
        __slots__ = ("_owner", "_name", "_start")

        def __init__(self, owner: "StageClock", name: str) -> None:
            self._owner = owner
            self._name = name
            self._start = 0.0

        def __enter__(self) -> "StageClock._Stage":
            self._start = time.perf_counter()
            return self

        def __exit__(self, *exc) -> None:
            elapsed = time.perf_counter() - self._start
            owner = self._owner
            owner._totals[self._name] += elapsed
            registry = active_registry()
            if registry.enabled:
                labels = ({"stage": self._name, "scope": owner.scope}
                          if owner.scope else {"stage": self._name})
                registry.histogram("stage_seconds", **labels).observe(elapsed)

    def stage(self, name: str) -> "StageClock._Stage":
        """Context manager accumulating into *name*."""
        return StageClock._Stage(self, name)

    def seconds(self, name: str) -> float:
        """Total accumulated for one stage (0.0 if never entered)."""
        return self._totals.get(name, 0.0)

    def totals(self) -> dict[str, float]:
        """Seconds per stage."""
        return dict(self._totals)

    def fractions(self) -> dict[str, float]:
        """Normalized per-stage shares."""
        total = sum(self._totals.values())
        if total <= 0.0:
            return {k: 0.0 for k in self._totals}
        return {k: v / total for k, v in self._totals.items()}

    def reset(self) -> None:
        """Zero every stage (for per-iteration reuse)."""
        self._totals.clear()
