"""In-memory span recorder for the benchmark's traced mode.

Spans are recorded by wrappers the benchmark installs around public calls
of the program (class methods and module-level functions); the program
itself is not changed.  Each span has a name, a start, an end and the id
of the span that was open on the same thread when it started (its
parent).  Aggregates (count, total time, self time) are kept for every
name; raw spans go to a bounded ring that is written out at the end of a
run, with the number of spans that fell off the ring.

Self time is a span's duration minus the part covered by its direct
child spans, so a wrapper around ``grid_search`` reports the search's own
bookkeeping apart from the GBM fits it runs.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

__all__ = ["SpanRecorder"]

_MISSING = object()


class _Agg:
    __slots__ = ("count", "total", "self_total", "units")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.units = 0  # work units attached by a ``units`` hook (rows, trees)


class SpanRecorder:
    """Wrap callables, record their spans, and undo the wrapping.

    ``install`` replaces ``owner.attr`` with a recording wrapper;
    ``uninstall`` restores every original.  Wrappers stay cheap: two clock
    reads, a thread-local stack push/pop and one short locked update.
    """

    def __init__(self, ring: int = 20_000):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: list[tuple[Any, str, Any]] = []
        self.aggs: dict[str, _Agg] = {}
        self.ring: deque[tuple[int, str, float, float, int]] = deque(maxlen=ring)
        self.recorded = 0
        self.t0 = time.perf_counter()

    # ------------------------------------------------------------------ #
    def install(
        self,
        owner: Any,
        attr: str,
        name: str,
        units: Callable[[tuple, dict, Any], int] | None = None,
    ) -> None:
        """Record every call of ``owner.attr`` as span ``name``.

        ``units(args, kwargs, result)`` optionally returns a work count
        (rows scored, trees fitted) added to the span name's aggregate.
        """
        fn = getattr(owner, attr)  # a class yields the plain function
        self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self._wrap(fn, name, units))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _MISSING:  # the attribute was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, units: Any) -> Callable:
        local = self._local
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(self._ids), clock(), 0.0]  # id, start, child time
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if parent is not None:
                    parent[2] += dur
                n_units = units(args, kwargs, result) if units is not None else 0
                self._record(frame[0], name, frame[1], end, dur - frame[2],
                             parent[0] if parent is not None else 0, n_units)

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, span_id: int, name: str, start: float, end: float,
                self_time: float, parent_id: int, n_units: int) -> None:
        with self._lock:
            agg = self.aggs.get(name)
            if agg is None:
                agg = self.aggs[name] = _Agg()
            agg.count += 1
            agg.total += end - start
            agg.self_total += self_time
            agg.units += n_units
            self.ring.append((span_id, name, start - self.t0, end - self.t0, parent_id))
            self.recorded += 1

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> _Agg:
        return self.aggs.get(name) or _Agg()

    def per_call(self, name: str, scale: float, self_time: bool = False) -> float:
        """Mean (self) time per call of span ``name``, times ``scale``."""
        a = self.get(name)
        return scale * (a.self_total if self_time else a.total) / max(a.count, 1)

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        """Write the span ring and aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "spans_recorded": self.recorded,
            "spans_dropped": self.recorded - len(self.ring),
            "aggregates": {
                k: {"count": a.count, "total_s": a.total, "self_s": a.self_total,
                    "units": a.units}
                for k, a in sorted(self.aggs.items())
            },
            "spans": [
                {"id": i, "name": n, "start_s": s, "end_s": e, "parent": p}
                for i, n, s, e, p in self.ring
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
