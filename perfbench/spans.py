"""Spans recorded around calls into the proxy's layers, and their summary.

A span is one call: name, start, end, parent span, thread CPU, and the
request id it serves (``request_id`` on the client leg, ``response_to``
on the server leg; a child inherits its parent's). Each thread appends
fixed-width records to its own array, so recording takes no lock; the
arrays stay in memory until ``dump``.
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

FIELDS = ("id", "parent", "name", "start", "end", "cpu", "request", "bytes", "outcome")
_WIDTH = len(FIELDS)
FAILED = -1  # outcome of a call that raised


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._buffers: list[array.array] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # guards _buffers when a thread first records

    def _thread_state(self):
        tl = self._local
        try:
            return tl.stack, tl.buf
        except AttributeError:
            tl.stack = [(0, 0)]  # (span id, request id) of the enclosing span
            tl.buf = array.array("q")
            with self._lock:
                self._buffers.append(tl.buf)
            return tl.stack, tl.buf

    def wrap(self, fn, name: str, start=None, end=None):
        """Return ``fn`` wrapped to record one span per call.

        ``start(args)`` may return the request id, and ``end(args, result)``
        returns ``(request id or None, bytes, outcome)``. Both run outside
        the timed region.
        """
        index = len(self.names)
        self.names.append(name)
        state, ids = self._thread_state, self._ids
        wall, cpu = time.monotonic_ns, time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = state()
            parent, request = stack[-1]
            if start is not None:
                request = start(args) or request
            span = next(ids)
            stack.append((span, request))
            result, outcome, nbytes = None, FAILED, 0
            # The wall interval encloses the CPU one, so wait is never negative.
            t0 = wall()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
                outcome = 0
                return result
            finally:
                c1 = cpu()
                t1 = wall()
                stack.pop()
                if end is not None and outcome != FAILED:
                    own, nbytes, outcome = end(args, result)
                    request = own or request
                buf.extend((span, parent, index, t0, t1, c1 - c0, request, nbytes, outcome))

        return traced

    def dump(self, path: str) -> None:
        with self._lock:
            chunks = [buf.tobytes() for buf in self._buffers]
        with open(path, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        with open(path + ".names.json", "w") as f:
            json.dump(self.names, f)


class Calls:
    """Totals over the spans of one name."""

    __slots__ = ("n", "cpu", "wall", "self_wall", "bytes", "outcomes")

    def __init__(self):
        self.n = self.cpu = self.wall = self.self_wall = self.bytes = 0
        self.outcomes: dict[int, int] = defaultdict(int)

    def share(self, *outcomes: int) -> float:
        return sum(self.outcomes[o] for o in outcomes) / self.n if self.n else 0.0


def load(path: str) -> tuple[list[str], list[array.array]]:
    """The names and the column arrays of a dumped span file."""
    with open(path + ".names.json") as f:
        names = json.load(f)
    data = array.array("q")
    with open(path, "rb") as f:
        data.frombytes(f.read())
    return names, [data[i::_WIDTH] for i in range(_WIDTH)]


def summarize(names: list[str], cols: list[array.array], t0: int, t1: int):
    """Per-name totals over spans starting in [t0, t1], and all spans' totals.

    Self time is a span's duration minus the durations of its children.
    Returns ``(in_window, whole_run)``, each a dict name -> Calls, and the
    CPU of root spans (those without a parent) in the window.
    """
    ids, parents, name_ix, starts, ends, cpus, _, sizes, outcomes = cols
    child_wall: dict[int, int] = defaultdict(int)
    for parent, s, e in zip(parents, starts, ends):
        if parent:
            child_wall[parent] += e - s
    in_window: dict[str, Calls] = defaultdict(Calls)
    whole_run: dict[str, Calls] = defaultdict(Calls)
    root_cpu = 0
    for span, parent, ix, s, e, c, size, outcome in zip(
            ids, parents, name_ix, starts, ends, cpus, sizes, outcomes):
        groups = (whole_run[names[ix]], in_window[names[ix]]) if t0 <= s <= t1 \
            else (whole_run[names[ix]],)
        for calls in groups:
            calls.n += 1
            calls.cpu += c
            calls.wall += e - s
            calls.self_wall += e - s - child_wall.get(span, 0)
            calls.bytes += size
            calls.outcomes[outcome] += 1
        if not parent and t0 <= s <= t1:
            root_cpu += c
    return in_window, whole_run, root_cpu
