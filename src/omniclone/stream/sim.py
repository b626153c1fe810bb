"""Virtual-time simulation of the producer -> lossy network -> jitter buffer
-> fixed-rate consumer pipeline.

Runs the real FrameQueue against a deterministic event schedule, so a
seeded run is exactly reproducible and can be checked byte-for-byte
against an independently written oracle. Arrival events that coincide
with a consumer tick are processed before the tick.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .faults import FaultConfig, decide
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


def fault_schedule(
    n_packets: int,
    producer_hz: float,
    fault: FaultConfig,
    seed: int,
) -> tuple[list[tuple[float, int, int]], int, int]:
    """Arrival events (time, order, seq) for packets seq=1..n sent on a fixed
    cadence through the seeded fault model. Returns (arrivals, delivered, dropped).

    The doubles come from one block of 4 * n_packets `Generator.random`
    draws of `default_rng(seed)`, which `decide` consumes in order, one
    for a dropped packet and four for a delivered one. A block holds the
    same doubles as that many scalar draws, so the arrivals are those of
    one `Generator.random`/`uniform` call per draw, bit for bit; the
    unused tail of the block is discarded with the local generator.
    """
    if n_packets < 0:
        raise InputError(f"packet count must be >= 0, got {n_packets}")
    if not 0.0 < producer_hz < float("inf"):
        raise InputError(f"producer rate must be positive and finite, got {producer_hz}")
    draw = iter(np.random.default_rng(seed).random(4 * n_packets).tolist()).__next__
    arrivals: list[tuple[float, int, int]] = []
    order = 0
    dropped = 0
    for i in range(n_packets):
        t_send = i / producer_hz
        decision = decide(fault, draw)
        if decision.dropped:
            dropped += 1
            continue
        for delay in decision.delays_s:
            arrivals.append((t_send + delay, order, i + 1))
            order += 1
    arrivals.sort()
    return arrivals, order, dropped


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
    arrivals, delivered, dropped = fault_schedule(n_packets, producer_hz, fault, seed)
    if n_ticks is None:
        n_ticks = n_packets
    if not arrivals or n_ticks <= 0:
        return StreamTrace(entries=(), sent=n_packets, delivered=delivered, dropped=dropped)
    queue = FrameQueue(capacity)
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
