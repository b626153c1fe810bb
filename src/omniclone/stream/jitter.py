"""Consumer-side jitter buffer: a bounded FIFO keyed by sequence number with
zero-order hold, and the fixed-rate loop that drains it.
"""
from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import InputError, NeverFedError

DEFAULT_WINDOW = 5  # queue depth f; the future-window length is a config knob
#: longest a RateLoop waiting for its first frame goes without checking stop()
_STOP_POLL_S = 0.05

PUSH_ACCEPTED = "accepted"
PUSH_STALE = "stale"


@dataclass(frozen=True)
class Stamped:
    """A payload tagged with its wire sequence number."""

    seq: int
    data: Any = None


class FrameQueue:
    """Bounded FIFO ordered by seq; newest data wins on overflow.

    Single producer, single consumer; all mutation is serialized through
    the internal lock. pop() never blocks: an empty queue re-emits the
    last frame with held=True (zero-order hold). Popping before the first
    push raises NeverFedError - callers block via wait_first().
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise InputError("queue capacity must be >= 1")
        self.capacity = capacity
        self._seqs: list[int] = []
        self._items: dict[int, Stamped] = {}
        self._last: Stamped | None = None
        self.held_count = 0
        self.stale_count = 0
        self._lock = threading.Lock()
        self._fed = threading.Condition(self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seqs)

    def push(self, frame: Stamped) -> str:
        with self._lock:
            if self._last is not None and frame.seq <= self._last.seq:
                self.stale_count += 1
                return PUSH_STALE
            pos = bisect.bisect_left(self._seqs, frame.seq)
            if pos < len(self._seqs) and self._seqs[pos] == frame.seq:
                self.stale_count += 1
                return PUSH_STALE
            self._seqs.insert(pos, frame.seq)
            self._items[frame.seq] = frame
            if len(self._seqs) > self.capacity:
                evicted = self._seqs.pop(0)
                del self._items[evicted]
            self._fed.notify_all()
            return PUSH_ACCEPTED

    def pop(self) -> tuple[Stamped, bool]:
        with self._lock:
            if self._seqs:
                seq = self._seqs.pop(0)
                frame = self._items.pop(seq)
                self._last = frame
                return frame, False
            if self._last is None:
                raise NeverFedError("pop before any frame was pushed")
            self.held_count += 1
            return self._last, True

    def wait_first(self, timeout: float | None = None) -> bool:
        """Block until the first frame arrives; True if one is available."""
        with self._lock:
            if self._last is not None or self._seqs:
                return True
            return self._fed.wait_for(
                lambda: bool(self._seqs) or self._last is not None, timeout
            )


class RateLoop:
    """Drives sink(frame, held) every 1/rate_hz seconds from a FrameQueue.

    A sink overrunning its slot bumps the overrun counter; the schedule
    catches up by at most one tick and never skips the next one.
    """

    def __init__(
        self,
        queue: FrameQueue,
        rate_hz: float = 50.0,
        sink: Callable[[Stamped, bool], None] = lambda frame, held: None,
        max_ticks: int | None = None,
    ):
        if rate_hz <= 0:
            raise InputError("rate_hz must be positive")
        self.queue = queue
        self.period = 1.0 / rate_hz
        self.sink = sink
        self.max_ticks = max_ticks
        self.ticks = 0
        self.fresh = 0
        self.held = 0
        self.overruns = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "RateLoop":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def _run(self) -> None:
        while not self.queue.wait_first(_STOP_POLL_S):
            if self._stop.is_set():
                return
        deadline = time.monotonic()
        while not self._stop.is_set():
            if self.max_ticks is not None and self.ticks >= self.max_ticks:
                return
            now = time.monotonic()
            if now < deadline:
                time.sleep(deadline - now)
            frame, held = self.queue.pop()
            self.sink(frame, held)
            self.ticks += 1
            self.fresh += 0 if held else 1
            self.held += 1 if held else 0
            deadline += self.period
            end = time.monotonic()
            if end > deadline:
                self.overruns += 1
                # bound catch-up to a single immediate tick
                deadline = max(deadline, end - self.period)


def fixed_rate_loop(
    queue: FrameQueue,
    rate_hz: float = 50.0,
    sink: Callable[[Stamped, bool], None] = lambda frame, held: None,
    max_ticks: int | None = None,
) -> RateLoop:
    """Start a fixed-rate drain of the queue; returns the running handle."""
    return RateLoop(queue, rate_hz, sink, max_ticks).start()
