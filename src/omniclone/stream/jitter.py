"""Consumer-side jitter buffer: a bounded FIFO keyed by sequence number with
zero-order hold.
"""
from __future__ import annotations

import bisect
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
        self._seqs: list[int] = []
        self._items: dict[int, Stamped] = {}
        self._last: Stamped | None = None
        self.held_count = 0
        self.stale_count = 0

    def __len__(self) -> int:
        return len(self._seqs)

    def push(self, frame: Stamped) -> str:
        seq, seqs = frame.seq, self._seqs
        if self._last is not None and seq <= self._last.seq:
            self.stale_count += 1
            return PUSH_STALE
        pos = bisect.bisect_left(seqs, seq)
        if pos < len(seqs) and seqs[pos] == seq:
            self.stale_count += 1
            return PUSH_STALE
        seqs.insert(pos, seq)
        self._items[seq] = frame
        if len(seqs) > self.capacity:
            del self._items[seqs.pop(0)]
        return PUSH_ACCEPTED

    def pop(self) -> tuple[Stamped, bool]:
        if self._seqs:
            frame = self._items.pop(self._seqs.pop(0))
            self._last = frame
            return frame, False
        if self._last is None:
            raise NeverFedError("pop before any frame was pushed")
        self.held_count += 1
        return self._last, True
