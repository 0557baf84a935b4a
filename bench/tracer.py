"""Outside-in span tracer for the benchmark's traced round.

The tracer measures layers from the outside: it replaces public methods of
the program's classes with wrappers that record one span per call, runs the
jobs, and puts the original methods back.  Nothing in ``src/`` knows it is
being traced.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of the
enclosing span in the same job's span list (``-1`` for the job's root) and
``job`` the job id.  A span name is ``<group>`` or ``<group>:<Class>.<method>``;
the group (the part before ``:``) is what the layer metrics aggregate.

Two groups are phases rather than calls.  A wrapper on the simulator's
``run`` opens ``warmup``; the first ``bind_thread`` call inside it closes
``warmup`` and opens ``timed``, which ``run``'s return closes.  So
``warmup`` covers machine construction and functional warm-up, and
``timed`` covers thread binding, the event loop and statistics collection.

This module imports nothing from the program; the benchmark passes it the
classes to wrap.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Dict, List, Sequence, Tuple

__all__ = ["Tracer", "public_methods", "self_times", "summarize_job", "PHASES"]

#: Groups whose spans are phases of a simulator run.
PHASES = ("warmup", "timed")

#: Groups whose spans are kept, with their self time, in the written trace;
#: the call-level spans underneath are folded into per-job counts.
COARSE = ("job", "synth", "warmup", "timed")

Span = List  # [name, start, end, parent, job]


def public_methods(cls: type) -> List[str]:
    """Names of the plain functions ``cls`` itself defines without a ``_``.

    Read from the class dictionary, so a method that a later version of the
    program deletes or renames is simply not wrapped.
    """
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never double-counts and is never
    negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent, _job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _job) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append((end - start) - covered)
    return result


def group_of(name: str) -> str:
    """The aggregation group of a span name."""
    return name.split(":", 1)[0]


def summarize_job(spans: Sequence[Span]) -> Dict[str, object]:
    """Fold one job's spans into per-group time and call counts.

    ``spans[0]`` must be the job's root span.  Returns the job's duration,
    every group's total span time (children included), its self time split
    by the phase it ran in (``"none"`` outside any phase) and its call
    count, and the coarse spans with their self times.
    """
    selfs = self_times(spans)
    phase: List[str] = []
    self_s: Dict[str, Dict[str, float]] = {}
    calls: Dict[str, int] = {}
    span_s: Dict[str, float] = {}
    coarse = []
    for index, span in enumerate(spans):
        name, start, end, parent, job = span
        group = group_of(name)
        if group in PHASES:
            phase.append(group)
        else:
            phase.append(phase[parent] if parent >= 0 else "none")
        by_phase = self_s.setdefault(group, {})
        by_phase[phase[index]] = by_phase.get(phase[index], 0.0) + selfs[index]
        calls[group] = calls.get(group, 0) + 1
        span_s[group] = span_s.get(group, 0.0) + (end - start)
        if group in COARSE:
            coarse.append(
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "job": job,
                    "self_s": selfs[index],
                }
            )
    root = spans[0]
    return {
        "job_s": root[2] - root[1],
        "span_s": span_s,
        "self_s": self_s,
        "calls": calls,
        "spans": coarse,
    }


class Tracer:
    """Records spans from class-level wrappers installed by :meth:`install`.

    Spans of the current job stay in :attr:`spans` until :meth:`end_job`
    folds them into a summary and clears the list; :meth:`restore` puts
    every original method back.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = [-1]
        self._job = -1
        self._pending_timed = False
        self._installed: List[Tuple[type, str, object]] = []

    # -- span recording ----------------------------------------------------------

    def _open(self, name: str) -> None:
        span = [name, time.perf_counter(), 0.0, self._stack[-1], self._job]
        self._stack.append(len(self.spans))
        self.spans.append(span)

    def _close_top(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def begin_job(self, job: int) -> None:
        """Start the spans of job ``job`` with an open ``job`` root span."""
        self.spans.clear()
        self._stack[:] = [-1]
        self._job = job
        self._open("job")

    def end_job(self) -> Dict[str, object]:
        """Close the job's root span and return :func:`summarize_job`."""
        while len(self._stack) > 1:
            self._close_top()
        summary = summarize_job(self.spans)
        self.spans.clear()
        return summary

    # -- wrappers ----------------------------------------------------------------

    def _call_wrapper(self, function, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], self._job]
            stack.append(len(spans))
            spans.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _run_wrapper(self, function, name: str):
        def wrapper(*args, **kwargs):
            self._open("warmup")
            self._pending_timed = True
            try:
                return function(*args, **kwargs)
            finally:
                self._pending_timed = False
                self._close_top()

        return wrapper

    def _bind_wrapper(self, function, name: str):
        def wrapper(*args, **kwargs):
            if self._pending_timed:
                self._pending_timed = False
                self._close_top()
                self._open("timed")
            return function(*args, **kwargs)

        return wrapper

    def install(self, targets: Sequence[Tuple[type, str, str]]) -> None:
        """Wrap ``cls.method`` for every ``(cls, method, group)`` target.

        ``group`` ``"run"`` marks the simulator entry point and ``"bind"``
        the per-core thread binding (the phase markers); any other group
        records one span per call.  Targets absent from the class dictionary
        are skipped.
        """
        for cls, method, group in targets:
            original = vars(cls).get(method)
            if original is None:
                continue
            name = f"{group}:{cls.__name__}.{method}"
            if group == "run":
                make = self._run_wrapper
            elif group == "bind":
                make = self._bind_wrapper
            else:
                make = self._call_wrapper
            wrapper = functools.wraps(original)(make(original, name))
            self._installed.append((cls, method, original))
            setattr(cls, method, wrapper)

    def restore(self) -> None:
        """Put back every method :meth:`install` replaced."""
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)
