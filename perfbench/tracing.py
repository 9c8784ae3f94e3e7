"""In-memory spans and counters recorded by wrappers around public functions.

The benchmark measures each layer from outside: :class:`Instrumentation`
replaces a public function or method with a wrapper that records one
*frame* per call, and :meth:`Instrumentation.uninstall` puts the original
object back. Two kinds of frame exist:

* a **span** keeps a record (name, start, end, parent, request id), for
  functions called a few times per request;
* a **counter** only adds to running totals (calls, time, self time),
  for functions called once per candidate, where a record per call would
  cost more than the call.

A frame's *self time* is its duration minus the part of it that its
children cover. Children on the same thread run one after another; a
child on another thread (the server's dispatch under the client's HTTP
call) may overlap its siblings, so span self time subtracts the *union*
of child intervals, never their sum.

A call that re-enters a wrapper of the same name (``ScoreCache.rank``
calling the wrapped ranker's ``rank``) records no second frame, so call
counts are counts of outermost calls.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

SPAN = "span"
COUNTER = "counter"


@dataclass
class Span:
    """One recorded span; times are ``perf_counter_ns`` readings."""

    id: int
    name: str
    start: int
    end: int
    parent: int | None
    request_id: str | None
    phase: str
    #: Time of counter frames directly beneath this span (not covered by
    #: child spans, which are subtracted as intervals).
    counter_ns: int = 0
    #: What the target's ``items`` function read from the result.
    items: Any = 0
    error: bool = False

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent,
            "request_id": self.request_id, "phase": self.phase,
        }


@dataclass
class CounterStat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    items: int = 0
    errors: int = 0


class _Frame:
    __slots__ = ("name", "kind", "start", "child_ns", "span_ns", "span", "request_id")

    def __init__(self, name, kind, start, request_id, span=None):
        self.name = name
        self.kind = kind
        self.start = start
        self.child_ns = 0  # durations of direct children (same thread)
        self.span_ns = 0  # durations of spans beneath a counter frame
        self.span = span
        self.request_id = request_id


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class Recorder:
    """Spans and counters for one benchmark process.

    Every thread keeps its own frame stack and its own counter and
    per-request tables, merged on read, so recording takes no lock.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.phase = "setup"
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables: list[tuple[dict, dict]] = []
        self._tables_lock = threading.Lock()
        #: request id -> id of the span that issued it on the client side,
        #: so a server-side span on another thread finds its parent.
        self.request_spans: dict[str, int] = {}
        #: request id -> latency in ns as its issuer measured it.
        self.latencies: dict[str, int] = {}

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.request_id = None
            local.counters = {}
            local.layers = {}
            with self._tables_lock:
                self._tables.append((local.counters, local.layers))
        return local

    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Attribute frames opened on this thread to ``request_id`` and
        record the request's latency as the caller sees it."""
        local = self._state()
        previous, local.request_id = local.request_id, request_id
        start = self.clock()
        try:
            yield
        finally:
            self.latencies[request_id] = self.clock() - start
            local.request_id = previous

    # -- recording -----------------------------------------------------------

    def call(
        self,
        name: str,
        kind: str,
        function: Callable,
        args: tuple,
        kwargs: dict,
        request_id: str | None = None,
        items: Callable[[Any], int] | None = None,
    ):
        local = self._state()
        stack = local.stack
        top = stack[-1] if stack else None
        if top is not None and top.name == name:
            return function(*args, **kwargs)
        explicit = request_id is not None
        if not explicit:
            request_id = top.request_id if top is not None else local.request_id
        span = None
        if kind == SPAN:
            parent = next((f.span for f in reversed(stack) if f.span), None)
            parent_id = parent.id if parent is not None else None
            span_id = next(self._ids)
            if parent is None and explicit:
                # The first span naming a request id issued it; a later
                # one (the server side, on another thread) hangs under it.
                parent_id = self.request_spans.setdefault(request_id, span_id)
                if parent_id == span_id:
                    parent_id = None
            span = Span(
                id=span_id, name=name, start=0, end=0,
                parent=parent_id, request_id=request_id, phase=self.phase,
            )
        frame = _Frame(name, kind, self.clock(), request_id, span)
        if span is not None:
            span.start = frame.start
        stack.append(frame)
        error = False
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        except BaseException:
            error = True
            raise
        finally:
            end = self.clock()
            stack.pop()
            self._close(local, frame, top, end, error, result, items)

    def _close(self, local, frame, parent, end, error, result, items) -> None:
        duration = end - frame.start
        count = 0
        if items is not None and not error:
            count = items(result)
        if frame.kind == SPAN:
            span = frame.span
            span.end = end
            span.items = count
            span.error = error
            self.spans.append(span)
        else:
            key = (self.phase, frame.name)
            stat = local.counters.get(key)
            if stat is None:
                stat = local.counters[key] = CounterStat()
            own = duration - frame.child_ns
            stat.calls += 1
            stat.total_ns += duration
            stat.self_ns += own
            stat.items += count
            stat.errors += error
            layer_key = (frame.request_id, layer_of(frame.name))
            local.layers[layer_key] = local.layers.get(layer_key, 0) + own
        if parent is None:
            return
        parent.child_ns += duration
        if parent.kind == SPAN:
            if frame.kind == COUNTER:
                parent.span.counter_ns += duration - frame.span_ns
        elif frame.kind == SPAN:
            parent.span_ns += duration
        else:
            parent.span_ns += frame.span_ns

    # -- reading -------------------------------------------------------------

    def counters(self, phase: str) -> dict[str, CounterStat]:
        merged: dict[str, CounterStat] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for counters, _ in tables:
            for (stat_phase, name), stat in list(counters.items()):
                if stat_phase != phase:
                    continue
                total = merged.setdefault(name, CounterStat())
                total.calls += stat.calls
                total.total_ns += stat.total_ns
                total.self_ns += stat.self_ns
                total.items += stat.items
                total.errors += stat.errors
        return merged

    def span_self_ns(self) -> dict[int, int]:
        """Self time of every span: duration minus the union of its child
        spans' intervals minus the counter time directly beneath it."""
        children: dict[int, list[tuple[int, int]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return {
            span.id: span.end - span.start - span.counter_ns - union_ns(
                children.get(span.id, []), span.start, span.end
            )
            for span in self.spans
        }

    def request_layers(self, phase: str = "run") -> dict[str, dict[str, int]]:
        """Self time per layer for every request of ``phase``, in ns."""
        layers: dict[str, dict[str, int]] = {}
        self_ns = self.span_self_ns()
        for span in self.spans:
            if span.phase != phase or span.request_id is None:
                continue
            table = layers.setdefault(span.request_id, {})
            layer = layer_of(span.name)
            table[layer] = table.get(layer, 0) + self_ns[span.id]
        with self._tables_lock:
            tables = list(self._tables)
        wanted = {span.request_id for span in self.spans if span.phase == phase}
        wanted.update(self.latencies)
        for _, per_request in tables:
            for (request_id, layer), ns in list(per_request.items()):
                if request_id in wanted:
                    table = layers.setdefault(request_id, {})
                    table[layer] = table.get(layer, 0) + ns
        return layers


@dataclass(frozen=True)
class Target:
    """One public function or method the benchmark wraps.

    ``path`` is ``"module:attribute"`` or ``"module:Class.attribute"``;
    the attribute must be defined on that module or class itself.
    """

    name: str
    path: str
    kind: str
    items: Callable[[Any], int] | None = None
    request_id: Callable[[tuple, dict], str | None] | None = None


class TargetMissing(RuntimeError):
    """A wrapped target no longer resolves (renamed or removed)."""


def resolve(path: str) -> tuple[Any, str, Any]:
    """(owner, attribute name, current raw value) for a target path."""
    module_name, _, dotted = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise TargetMissing(f"{path}: {error}") from None
    *owners, attribute = dotted.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TargetMissing(f"{path}: {part!r} not found")
    namespace = vars(owner)
    if attribute not in namespace:
        raise TargetMissing(f"{path}: {attribute!r} is not defined there")
    return owner, attribute, namespace[attribute]


def _wrap(recorder: Recorder, target: Target, original: Any) -> Any:
    if isinstance(original, property):
        getter = _wrap(recorder, target, original.fget)
        return property(getter, original.fset, original.fdel, original.__doc__)
    if isinstance(original, (staticmethod, classmethod)):
        return type(original)(_wrap(recorder, target, original.__func__))
    call = recorder.call
    name, kind, items, request_of = (
        target.name, target.kind, target.items, target.request_id,
    )

    def wrapper(*args, **kwargs):
        request_id = request_of(args, kwargs) if request_of else None
        return call(name, kind, original, args, kwargs, request_id, items)

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


@dataclass
class Instrumentation:
    """Installs wrappers for a set of targets and removes them again."""

    recorder: Recorder
    targets: tuple[Target, ...]
    #: (path, owner, attribute, original) per wrapped target.
    _installed: list[tuple[str, Any, str, Any]] = field(default_factory=list)

    def install(self) -> None:
        """Wrap every target; raises :class:`TargetMissing` before
        wrapping anything if one of them does not resolve."""
        if self._installed:
            raise RuntimeError("instrumentation is already installed")
        resolved = [(target, *resolve(target.path)) for target in self.targets]
        for target, owner, attribute, original in resolved:
            setattr(owner, attribute, _wrap(self.recorder, target, original))
            self._installed.append((target.path, owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every original and check that it is back in place."""
        restored = []
        while self._installed:
            path, owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
            restored.append((path, original))
        for path, original in restored:
            if resolve(path)[2] is not original:
                raise RuntimeError(f"{path} was not restored")

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()
