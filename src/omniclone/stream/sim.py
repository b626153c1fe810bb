"""Virtual-time simulation of the producer -> lossy network -> jitter buffer
-> fixed-rate consumer pipeline.

Runs the real FrameQueue against the arrivals that `faults.fault_schedule`
draws, so a seeded run is exactly reproducible and can be checked
byte-for-byte against an independently written oracle. Arrival events that
coincide with a consumer tick are processed before the tick.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import InputError
from .faults import FaultConfig, fault_schedule
from .jitter import DEFAULT_WINDOW, FrameQueue, Stamped


@dataclass(frozen=True)
class TraceEntry:
    tick: int
    t: float
    seq: int
    held: bool


@dataclass(frozen=True)
class StreamTrace:
    entries: tuple[TraceEntry, ...]
    sent: int
    delivered: int
    dropped: int

    @property
    def fresh_seqs(self) -> list[int]:
        return [e.seq for e in self.entries if not e.held]

    @property
    def held_count(self) -> int:
        return sum(1 for e in self.entries if e.held)

    def max_consecutive_held(self) -> int:
        best = run = 0
        for e in self.entries:
            run = run + 1 if e.held else 0
            best = max(best, run)
        return best

    def to_csv(self) -> str:
        lines = ["tick,seq,held"]
        for e in self.entries:
            lines.append(f"{e.tick},{e.seq},{int(e.held)}")
        return "\n".join(lines) + "\n"


def simulate_stream(
    n_packets: int,
    producer_hz: float = 50.0,
    consumer_hz: float = 50.0,
    capacity: int = DEFAULT_WINDOW,
    fault: FaultConfig = FaultConfig(),
    seed: int = 0,
    n_ticks: int | None = None,
) -> StreamTrace:
    """Simulate the full pipeline in virtual time using the real FrameQueue.

    The consumer blocks until the first arrival, then ticks every
    1/consumer_hz. With no deliveries at all the trace is empty.
    """
    if not 0.0 < consumer_hz < float("inf"):
        raise InputError(f"consumer rate must be positive and finite, got {consumer_hz}")
    queue = FrameQueue(capacity)
    arrivals, delivered, dropped = fault_schedule(n_packets, producer_hz, fault, seed)
    if n_ticks is None:
        n_ticks = n_packets
    if not arrivals or n_ticks <= 0:
        return StreamTrace(entries=(), sent=n_packets, delivered=delivered, dropped=dropped)
    t_first = arrivals[0][0]
    entries: list[TraceEntry] = []
    cursor = 0
    for j in range(n_ticks):
        t_tick = t_first + j / consumer_hz
        while cursor < len(arrivals) and arrivals[cursor][0] <= t_tick:
            _, _, seq = arrivals[cursor]
            queue.push(Stamped(seq))
            cursor += 1
        frame, held = queue.pop()
        entries.append(TraceEntry(tick=j, t=t_tick, seq=frame.seq, held=held))
    return StreamTrace(
        entries=tuple(entries), sent=n_packets, delivered=delivered, dropped=dropped
    )
