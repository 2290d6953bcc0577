"""In-memory spans for the benchmark's traced passes.

A span records one call into a layer of the library: its name
(``<module>.<call>``), start, end, and the span that was open when it
started.  Spans live in a list until the pass ends, then go out with
the pass's result.  Every span is opened from the benchmark's own
code, around the public call it makes (or around a pipeline stage
object it swaps in); nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class Span:
    """One timed call: ``parent`` is 0 for a top-level span."""

    id: int
    parent: int
    name: str
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans; a disabled tracer's :meth:`span` costs one call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str) -> contextlib.AbstractContextManager[None]:
        """Context manager timing the enclosed call as span ``name``."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def traced_stage(self, stage: Any, name: str) -> Any:
        """``stage`` with its ``run`` method timed as span ``name``.

        The pipeline's stage objects are frozen dataclasses, so the
        benchmark swaps a proxy into the pipeline instead of patching
        the stage; ``None`` (a disabled stage) stays ``None``.
        """
        if not self.enabled or stage is None:
            return stage
        return _TracedStage(stage, self, name)


def busy_by_name(spans: Iterable[Span], duration: Callable[[Span], float]) -> dict[str, float]:
    """Summed duration of every span, per span name."""
    busy: dict[str, float] = defaultdict(float)
    for span in spans:
        busy[span.name] += duration(span)
    return dict(busy)


def self_time_by_layer(spans: list[Span], duration: Callable[[Span], float]) -> dict[str, float]:
    """Per layer: span durations minus the time their children cover.

    Children are nested inside their parent on one thread, so the
    covered part is the sum of the children's durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            child_time[span.parent] += duration(span)
    layers: dict[str, float] = defaultdict(float)
    for span in spans:
        layers[span.layer] += duration(span) - child_time[span.id]
    return dict(layers)


class _TracedStage:
    """Forwards to a pipeline stage, timing each ``run`` call."""

    def __init__(self, stage: Any, tracer: Tracer, name: str) -> None:
        self._stage = stage
        self._tracer = tracer
        self._name = name

    def run(self, *args: Any, **kwargs: Any) -> Any:
        with self._tracer.span(self._name):
            return self._stage.run(*args, **kwargs)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._stage, attr)
