"""Span tracing from outside the program.

A :class:`Tracer` wraps public callables of the ``repro`` layers by
patching the attribute that callers look up: a class attribute for
methods, or the importing module's global for functions imported by
name.  Every call becomes a span (name, start, end, parent span, run
id).  Spans stay in memory; :meth:`Tracer.write_spans` writes them out
once the run has ended.

A layer's *self time* is its spans' duration minus the time covered by
their child spans, so the self times of all layers plus the untraced
residual add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: How a target is wrapped: ``call`` times the call; ``eager`` times a
#: generator function by draining it inside the span and returning an
#: iterator over the drained items; ``each`` times every ``next()`` of
#: the returned iterator as its own span (one span per yielded item).
CALL, EAGER, EACH = "call", "eager", "each"


@dataclass(frozen=True)
class Target:
    """One patch point: ``owner.attr`` is recorded as span ``span``."""

    owner: Any
    attr: str
    span: str
    mode: str = CALL
    #: Called with the call's result; returns ``{count_name: delta}``
    #: recorded at the same boundary as the span.
    counts: Optional[Callable[[Any], Dict[str, float]]] = None


class _Frame:
    __slots__ = ("index", "start", "children")

    def __init__(self, index: int, start: float) -> None:
        self.index = index
        self.start = start
        self.children = 0.0


class Tracer:
    """Collects spans and counts for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: (name, start, end, parent index or -1, run id)
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1].index if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.run_id))
        frame = _Frame(index, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if stack:
                stack[-1].children += duration
            with self._lock:
                self.spans[index] = (name, frame.start, end, parent,
                                     self.run_id)
                self.self_time[name] = (self.self_time.get(name, 0.0)
                                        + duration - frame.children)
                self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str, delta: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + delta

    # -- patching -------------------------------------------------------

    def _wrap(self, target: Target, func: Callable) -> Callable:
        tracer, name = self, target.span

        def record(result: Any) -> None:
            if target.counts is not None:
                for key, delta in target.counts(result).items():
                    tracer.count(key, delta)

        if target.mode == EACH:
            @functools.wraps(func)
            def each(*args: Any, **kwargs: Any) -> Iterator[Any]:
                iterator = iter(func(*args, **kwargs))
                while True:
                    with tracer.span(name):
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    record(item)
                    yield item
            return each

        @functools.wraps(func)
        def call(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = func(*args, **kwargs)
                if target.mode == EAGER:
                    result = list(result)
            record(result)
            return iter(result) if target.mode == EAGER else result
        return call

    @contextmanager
    def installed(self, targets: List[Target]) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block."""
        restore: List[Tuple[Any, str, Any]] = []
        try:
            for target in targets:
                owner, attr = target.owner, target.attr
                raw = (owner.__dict__[attr] if inspect.isclass(owner)
                       else getattr(owner, attr))
                restore.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self._wrap(target,
                                                          raw.__func__))
                elif isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(target,
                                                      raw.__func__))
                else:
                    patched = self._wrap(target, raw)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    # -- results --------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as fileobj:
            for index, (name, start, end, parent, run_id) in \
                    enumerate(self.spans):
                fileobj.write(json.dumps({
                    "id": index, "name": name, "start": start,
                    "end": end, "parent": parent, "run": run_id}) + "\n")
