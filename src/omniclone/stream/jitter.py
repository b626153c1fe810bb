"""Consumer-side jitter buffer: a bounded FIFO keyed by sequence number with
zero-order hold. The held frames live in one dict keyed by seq; the oldest
is always the smallest seq.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import InputError, NeverFedError

#: f, both the jitter-buffer depth and the student observation's
#: future-window length (`simtrack.build_student_obs`)
DEFAULT_WINDOW = 5

PUSH_ACCEPTED = "accepted"
PUSH_STALE = "stale"


@dataclass(frozen=True)
class Stamped:
    """A payload tagged with its wire sequence number."""

    seq: int
    data: Any = None


class FrameQueue:
    """Bounded FIFO ordered by seq; newest data wins on overflow.

    For one thread: the producer and the consumer run on the same thread,
    as the policy server and the simulator do, so nothing is locked. pop()
    never blocks: an empty queue re-emits the last frame with held=True
    (zero-order hold). Popping before the first push raises NeverFedError,
    so a consumer starts popping once len() is nonzero.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise InputError("queue capacity must be >= 1")
        self.capacity = capacity
        self._items: dict[int, Stamped] = {}
        self._last: Stamped | None = None
        self.held_count = 0
        self.stale_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, frame: Stamped) -> str:
        """Stale if its seq is already held, is <= the last popped seq, or
        is older than every held seq of a full queue (it would be evicted
        at once)."""
        seq, items = frame.seq, self._items
        if seq in items or (self._last is not None and seq <= self._last.seq):
            self.stale_count += 1
            return PUSH_STALE
        if len(items) >= self.capacity:
            oldest = min(items)
            if seq < oldest:
                self.stale_count += 1
                return PUSH_STALE
            del items[oldest]
        items[seq] = frame
        return PUSH_ACCEPTED

    def pop(self) -> tuple[Stamped, bool]:
        if self._items:
            self._last = self._items.pop(min(self._items))
            return self._last, False
        if self._last is None:
            raise NeverFedError("pop before any frame was pushed")
        self.held_count += 1
        return self._last, True
