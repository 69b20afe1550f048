"""In-memory span recorder and the attribute patcher that feeds it.

The traced run wraps public functions of the program from the outside:
each wrapped call opens a span (name, start, end, parent), spans nest on
a stack, and a span's self time is its duration minus the time its
direct children cover.  Calls are single-threaded, so children never
overlap and the covered time is the sum of their durations.

Totals per name are exact for every call.  Individual spans are kept up
to ``keep_spans`` and written out when the run ends; later ones are only
counted in ``dropped``, so a hot function cannot exhaust memory.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

Span = Tuple[int, int, str, float, float]  # (id, parent id or -1, name, start, end)


class SpanRecorder:
    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_spans: int = 50_000,
        distributions: Iterable[str] = (),
    ):
        self.clock = clock
        self.keep_spans = keep_spans
        #: name -> [calls, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> every call's duration, for names asked for percentiles
        self.durations: Dict[str, List[float]] = {n: [] for n in distributions}
        #: name -> summed quantity (e.g. bytes) recorded with :meth:`count`
        self.counts: Dict[str, float] = {}
        self.spans: List[Span] = []
        self.dropped = 0
        self._stack: List[List[Any]] = []  # [id, name, start, child seconds]
        self._next_id = 0

    def enter(self, name: str) -> List[Any]:
        frame = [self._next_id, name, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: List[Any]) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start, child_s = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0]
        total[0] += 1
        total[1] += duration - child_s
        samples = self.durations.get(name)
        if samples is not None:
            samples.append(duration)
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return traced

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0))[1])

    def write(self, path: Any) -> None:
        """Write the kept spans as JSON lines, after one summary line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}))
            fh.write("\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                )
                fh.write("\n")


@contextmanager
def patched(
    recorder: SpanRecorder, targets: Iterable[Tuple[str, Any, str]]
) -> Iterator[None]:
    """Wrap ``owner.attr`` for every ``(span name, owner, attr)`` target
    while the block runs, and put every original back afterwards, also
    when the block raises.

    ``owner`` is a class or a module.  The original is read from the
    owner's own ``__dict__``, so class- and static methods keep their
    descriptor type and the restored attribute is the very same object.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for name, owner, attr in targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement: Any = classmethod(recorder.wrap(original.__func__, name))
            elif isinstance(original, staticmethod):
                replacement = staticmethod(recorder.wrap(original.__func__, name))
            else:
                replacement = recorder.wrap(original, name)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
