"""Deterministic network fault model for datagram transports.

`fault_schedule` alone holds the per-packet draw order (drop, jitter,
reorder, duplicate), so a seeded run is exactly reproducible and a test can
replay the same generator to predict the delivered trace. The virtual
simulator and the live loopback probe both take their fates from it, so a
given seed drops the same seqs in both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, InputError

#: extra delay of a packet drawn for reordering, and of a duplicate copy
#: behind its original
REORDER_EXTRA_MS = 20.0
DUPLICATE_DELAY_MS = 1.0


@dataclass(frozen=True)
class FaultConfig:
    drop_prob: float = 0.0
    jitter_ms: tuple[float, float] = (0.0, 0.0)
    reorder_prob: float = 0.0
    duplicate_prob: float = 0.0

    def __post_init__(self):
        for name in ("drop_prob", "reorder_prob", "duplicate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        lo, hi = self.jitter_ms
        if not 0 <= lo <= hi < math.inf:
            raise ConfigError(f"jitter_ms range ({lo}, {hi}) invalid")


def fault_schedule(
    n_packets: int,
    producer_hz: float,
    fault: FaultConfig,
    seed: int,
) -> tuple[list[tuple[float, int, int]], int, int]:
    """Arrival events (time, order, seq) for packets seq=1..n sent on a fixed
    cadence through the seeded fault model. Returns (arrivals, delivered, dropped).

    Each packet's fate is read in the wire order drop, jitter, reorder,
    duplicate from one block of 4 * n_packets `Generator.random` draws of
    `default_rng(seed)`: one double if it is dropped, four if it is
    delivered. Jitter is `lo + (hi - lo) * u`, the arithmetic of
    `Generator.uniform`, and a block holds the same doubles as that many
    scalar draws, so the arrivals are those of one `random`/`uniform` call
    per draw, bit for bit; the unused tail of the block is discarded.
    """
    if n_packets < 0:
        raise InputError(f"packet count must be >= 0, got {n_packets}")
    if not 0.0 < producer_hz < math.inf:
        raise InputError(f"producer rate must be positive and finite, got {producer_hz}")
    u = np.random.default_rng(seed).random(4 * n_packets).tolist()
    lo, hi = map(float, fault.jitter_ms)  # as Generator.uniform converts its bounds
    arrivals: list[tuple[float, int, int]] = []
    k = dropped = 0  # k: the next unread double
    for i in range(n_packets):
        if u[k] < fault.drop_prob:
            dropped += 1
            k += 1
            continue
        delay_ms = lo + (hi - lo) * u[k + 1]
        if u[k + 2] < fault.reorder_prob:
            delay_ms += REORDER_EXTRA_MS
        t_send = i / producer_hz
        arrivals.append((t_send + delay_ms / 1000.0, len(arrivals), i + 1))
        if u[k + 3] < fault.duplicate_prob:
            arrivals.append((t_send + (delay_ms + DUPLICATE_DELAY_MS) / 1000.0, len(arrivals), i + 1))
        k += 4
    delivered = len(arrivals)
    arrivals.sort()
    return arrivals, delivered, dropped
