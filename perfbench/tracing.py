"""In-memory span tracing by wrapping attributes from the outside.

A :class:`Tracer` replaces functions and methods on modules and classes
with wrappers that record one span per call: name, parent span, run id,
start and end. Spans live in one flat array of doubles, five per span,
because Algorithm 2's inner layers are called tens of thousands of
times per run and a tuple per span would cost more memory and time. The
solver, called about a million times, is summed instead (``summed``).
``restore()`` puts every original attribute back.

The program under test is not edited: spans sit around the calls into
each layer, so a later change can move spans inside the program and
compare against these numbers.
"""
from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

NO_PARENT = -1
OUTSIDE = -1  # run id of spans outside any phase
_FIELDS = 5  # name id, parent span, run id, start, end
_MISSING = object()


class Tracer:
    """Records spans for every call of the attributes it wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rec = array("d")
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = OUTSIDE
        self._stack: list[int] = [NO_PARENT]  # open spans, as offsets into rec
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- recording

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` of the current run."""
        self.counters[(self.run_id, name)] += value

    def traced(self, name: str, fn: Callable,
               on_call: Callable[..., None] | None = None) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``.
        ``on_call(tracer, result, *args, **kwargs)`` may add counters."""
        nid = self._nid(name)
        tracer, rec, stack = self, self.rec, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(rec)
            rec.extend((nid, stack[-1], tracer.run_id, 0.0, 0.0))
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[i + 4] = perf_counter()
                rec[i + 3] = t0
                stack.pop()
            if on_call is not None:
                on_call(tracer, result, *args, **kwargs)
            return result

        return wrapper

    def summed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to add to the counters ``name + ".calls"`` and
        ``name + ".s"`` instead of recording spans: for leaf layers called
        about a million times, where a span per call would cost a third of
        the run."""
        calls, secs = name + ".calls", name + ".s"
        tracer, counters = self, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                run = tracer.run_id
                counters[(run, calls)] += 1
                counters[(run, secs)] += dt

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             on_call: Callable[..., None] | None = None, *, summed: bool = False) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a
        traced (or, with ``summed``, a summed) wrapper; ``restore`` undoes
        it."""
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        fn = getattr(owner, attr)
        setattr(owner, attr, self.summed(name, fn) if summed else self.traced(name, fn, on_call))

    def originals(self) -> list[tuple[Any, str, Any]]:
        """(owner, attr, original) for every wrapped attribute."""
        return list(self._saved)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)  # it was inherited, not owned
            else:
                setattr(owner, attr, own)

    @contextmanager
    def phase(self, run_id: int, name: str) -> Iterator[None]:
        """Spans inside belong to ``run_id``, under one top-level span
        called ``name``."""
        prev, self.run_id = self.run_id, run_id
        i = len(self.rec)
        self.rec.extend((self._nid(name), self._stack[-1], run_id, perf_counter(), 0.0))
        self._stack.append(i)
        try:
            yield
        finally:
            self.rec[i + 4] = perf_counter()
            self._stack.pop()
            self.run_id = prev

    # ------------------------------------------------------------- analysis

    def __len__(self) -> int:
        return len(self.rec) // _FIELDS

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """All spans as (name, start, end, parent index, run id)."""
        r = self.rec
        return [
            (self.names[int(r[i])], r[i + 3], r[i + 4],
             int(r[i + 1]) // _FIELDS if r[i + 1] >= 0 else NO_PARENT, int(r[i + 2]))
            for i in range(0, len(r), _FIELDS)
        ]

    def totals(self) -> dict[tuple[int, str], tuple[int, float, float]]:
        """(run id, name) -> (calls, inclusive seconds, self seconds)."""
        spans = self.spans()
        own = self_times([s[1] for s in spans], [s[2] for s in spans], [s[3] for s in spans])
        out: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, run), o in zip(spans, own):
            acc = out[(run, name)]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += o
        return {k: tuple(v) for k, v in out.items()}


def is_restored(originals: list[tuple[Any, str, Any]]) -> bool:
    """True when every ``(owner, attr, original)`` is back in place."""
    return all(vars(owner).get(attr, _MISSING) is orig for owner, attr, orig in originals)


def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval that the union of its children's intervals covers."""
    kids: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            kids[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, cs in kids.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in cs):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out
