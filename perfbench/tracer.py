"""In-memory span tracing around the public entry points of ``repro``.

The benchmark observes the program from outside: :func:`instrument`
replaces selected functions and methods of the ``repro.*`` layers with
plain wrapper functions that open a span on entry and close it on
exit, and :meth:`Instrumentation.remove` puts the originals back.
Nothing under ``src/`` changes.

Two kinds of span exist:

* *recorded* spans (one cell replay, one cache read, one matrix) are
  kept individually with name, start, end, parent and op id, and are
  written out when the benchmark ends;
* *hot* spans (policy callbacks, fault service) fire hundreds of
  thousands of times per pass, so they are only summed per name.  Their
  time still counts as child time of the span that encloses them.

A layer's self time is its span minus the time its direct children
cover (:func:`perfbench.stats.self_time`).  Wrappers of one *group*
(all policy callbacks, say) do not nest: a callback that calls another
callback of its own group is charged once, to the outer call.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from perfbench.stats import self_time

#: Policy hooks timed as ``policy.<name>.callback_s``.
POLICY_HOOKS = (
    "select_victim", "on_page_in", "on_walk_hit", "on_walk_hits",
    "on_fault_pending",
)


@dataclass(frozen=True)
class Span:
    """One closed recorded span."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    #: Time of unrecorded (hot) direct children.
    hot_child_s: float


class _Frame:
    __slots__ = ("name", "start", "child_s", "hot_child_s", "group",
                 "span_id", "op")

    def __init__(self, name: str, start: float, group: Optional[str],
                 span_id: Optional[int], op: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.hot_child_s = 0.0
        self.group = group
        self.span_id = span_id
        self.op = op


class Tracer:
    """Collects spans and per-name totals for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: name -> [total seconds, self seconds, calls]
        self.totals: dict[str, list[float]] = defaultdict(
            lambda: [0.0, 0.0, 0]
        )
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str, *, op: Optional[int] = None,
             record: bool = True, group: Optional[str] = None) -> _Frame:
        """Push a frame; a recorded frame gets a span id."""
        stack = self._stack()
        if op is None and stack:
            op = stack[-1].op
        span_id = next(self._ids) if record else None
        frame = _Frame(name, self.clock(), group, span_id, op)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        """Pop ``frame``; charge its duration to its parent; return it."""
        end = self.clock()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span {frame.name!r} closed out of order "
                f"(innermost open span is {popped.name!r})"
            )
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
            if frame.span_id is None:
                parent.hot_child_s += duration
        with self._lock:
            totals = self.totals[frame.name]
            totals[0] += duration
            totals[1] += duration - frame.child_s
            totals[2] += 1
            if frame.span_id is not None:
                parent_id = None
                for outer in reversed(stack):
                    if outer.span_id is not None:
                        parent_id = outer.span_id
                        break
                self.spans.append(Span(
                    frame.span_id, frame.name, frame.start, end,
                    parent_id, frame.op, frame.hot_child_s,
                ))
        return duration

    def span(self, name: str, *, op: Optional[int] = None) -> "_SpanContext":
        """``with tracer.span(name):`` — one recorded span."""
        return _SpanContext(self, name, op)

    def wrap(self, fn: Callable[..., Any], name: str, *,
             record: bool = True, group: Optional[str] = None,
             ) -> Callable[..., Any]:
        """A plain function that runs ``fn`` inside a span ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if group is not None and stack and stack[-1].group == group:
                return fn(*args, **kwargs)
            frame = tracer.open(name, record=record, group=group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        return traced

    def total(self, name: str) -> float:
        return self.totals[name][0] if name in self.totals else 0.0

    def self_total(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return int(self.totals[name][2]) if name in self.totals else 0

    def span_self_times(self) -> dict[int, float]:
        """Self time of every recorded span, from the spans themselves."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return {
            span.span_id: self_time(
                span.start, span.end, children.get(span.span_id, ())
            ) - span.hot_child_s
            for span in self.spans
        }

    def write(self, path: Path) -> None:
        """Dump spans (with self times) and per-name totals as JSON."""
        selfs = self.span_self_times()
        payload = {
            "spans": [
                {
                    "id": span.span_id, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op,
                    "self_s": selfs[span.span_id],
                }
                for span in self.spans
            ],
            "totals": {
                name: {"total_s": t[0], "self_s": t[1], "calls": int(t[2])}
                for name, t in sorted(self.totals.items())
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, op: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op
        self.frame: Optional[_Frame] = None

    def __enter__(self) -> _Frame:
        self.frame = self.tracer.open(self.name, op=self.op)
        return self.frame

    def __exit__(self, *_exc: object) -> None:
        assert self.frame is not None
        self.tracer.close(self.frame)


class Instrumentation:
    """The wrappers :func:`instrument` installed, and their removal."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _wrap_method(inst: Instrumentation, tracer: Tracer, cls: type,
                 attr: str, name: str, **options: Any) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped: Any = classmethod(tracer.wrap(raw.__func__, name, **options))
    else:
        wrapped = tracer.wrap(raw, name, **options)
    inst.replace(cls, attr, wrapped)


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap each layer's entry points; call before any policy is built.

    Policy hooks are wrapped on the class, only where the class itself
    defines them, so an inherited no-op ``on_fault_pending`` stays the
    base-class function the batch kernel compares against, and the
    walker's bound-method listener still equals ``policy.on_walk_hit``.
    """
    from repro.core.hpe import HPEPolicy
    from repro.experiments import runner
    from repro.policies import (
        ClockProPolicy, IdealPolicy, LRUPolicy, RandomPolicy, RRIPPolicy,
    )
    from repro.resil.journal import RunJournal
    from repro.sim.cache import ResultCache
    from repro.sim.engine import UVMSimulator
    from repro.uvm.driver import UVMDriver
    from repro.workloads.suite import ApplicationSpec
    from repro.workloads.trace_io import TraceStore

    inst = Instrumentation()
    _wrap_method(inst, tracer, ApplicationSpec, "build", "workloads.trace_build")
    _wrap_method(inst, tracer, UVMSimulator, "run", "sim.run")
    for attr in ("service_fault", "handle_fault"):
        _wrap_method(inst, tracer, UVMDriver, attr, "uvm.service_fault",
                     record=False, group="uvm")
    for cls in (IdealPolicy, LRUPolicy, RandomPolicy, RRIPPolicy,
                ClockProPolicy, HPEPolicy):
        for hook in POLICY_HOOKS:
            if hook in cls.__dict__:
                _wrap_method(inst, tracer, cls, hook, f"policy.{cls.name}",
                             record=False, group="policy")
    _wrap_method(inst, tracer, ResultCache, "get", "cache.get")
    _wrap_method(inst, tracer, ResultCache, "put", "cache.put")
    inst.replace(runner, "run_scenario", tracer.wrap(
        runner.run_scenario, "orchestration.run_scenario"))
    _wrap_method(inst, tracer, TraceStore, "publish",
                 "orchestration.trace_publish")
    _wrap_method(inst, tracer, RunJournal, "append", "resil.journal_append")
    return inst
