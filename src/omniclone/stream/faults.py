"""Deterministic network fault model for datagram transports.

Per-packet random draws happen in a fixed order (drop, jitter, reorder,
duplicate) so a seeded run is exactly reproducible and a test can replay
the same generator to predict the delivered trace. `sim.fault_schedule`
applies it to a stream of packets; the virtual simulator and the live
loopback probe both take their fates from there, so a given seed drops
the same seqs in both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

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


@dataclass(frozen=True)
class Decision:
    dropped: bool
    delays_s: tuple[float, ...]  # one entry per delivered copy


def decide(config: FaultConfig, rng: np.random.Generator) -> Decision:
    """Draw the fate of one packet. Draw order is part of the wire contract
    for reproducibility: drop, jitter, reorder, duplicate."""
    if rng.random() < config.drop_prob:
        return Decision(dropped=True, delays_s=())
    lo, hi = config.jitter_ms
    delay_ms = float(rng.uniform(lo, hi))
    if rng.random() < config.reorder_prob:
        delay_ms += REORDER_EXTRA_MS
    delays = [delay_ms / 1000.0]
    if rng.random() < config.duplicate_prob:
        delays.append((delay_ms + DUPLICATE_DELAY_MS) / 1000.0)
    return Decision(dropped=False, delays_s=tuple(delays))
