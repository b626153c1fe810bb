"""Consumer-side jitter buffer: a bounded FIFO keyed by sequence number with
zero-order hold.
"""
from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import Any

from ..errors import InputError, NeverFedError

DEFAULT_WINDOW = 5  # queue depth f; the future-window length is a config knob

PUSH_ACCEPTED = "accepted"
PUSH_STALE = "stale"


@dataclass(frozen=True)
class Stamped:
    """A payload tagged with its wire sequence number."""

    seq: int
    data: Any = None


class FrameQueue:
    """Bounded FIFO ordered by seq; newest data wins on overflow.

    Safe for one producer and one consumer, on the same thread or on two;
    all mutation is serialized through the internal lock. pop() never
    blocks: an empty queue re-emits the last frame with held=True
    (zero-order hold). Popping before the first push raises NeverFedError,
    so a consumer starts popping once len() is nonzero.
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
