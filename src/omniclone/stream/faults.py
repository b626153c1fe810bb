"""Deterministic network fault model for datagram transports.

Per-packet random draws happen in a fixed order (drop, jitter, reorder,
duplicate) so a seeded run is exactly reproducible and a test can replay
the same generator to predict the delivered trace. `decide` alone holds
that order, whether it draws from a Generator or from a block of doubles.
`sim.fault_schedule` applies it to a stream of packets; the virtual
simulator and the live loopback probe both take their fates from there,
so a given seed drops the same seqs in both.
"""
from __future__ import annotations

import math
from collections.abc import Callable
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


def decide(config: FaultConfig, rng: np.random.Generator | Callable[[], float]) -> Decision:
    """Draw the fate of one packet. Draw order is part of the wire contract
    for reproducibility: drop, jitter, reorder, duplicate.

    rng is a Generator or a callable returning its next double in [0, 1),
    such as one over a block of `Generator.random` draws: a packet takes one
    double if dropped, else four. Jitter is `lo + (hi - lo) * u`, the
    arithmetic of `Generator.uniform`, so both forms give the same bits.
    """
    draw = rng.random if isinstance(rng, np.random.Generator) else rng
    if draw() < config.drop_prob:
        return _DROPPED
    lo, hi = config.jitter_ms
    lo, hi = float(lo), float(hi)  # as Generator.uniform converts its bounds
    delay_ms = lo + (hi - lo) * draw()
    if draw() < config.reorder_prob:
        delay_ms += REORDER_EXTRA_MS
    if draw() < config.duplicate_prob:
        return Decision(False, (delay_ms / 1000.0, (delay_ms + DUPLICATE_DELAY_MS) / 1000.0))
    return Decision(False, (delay_ms / 1000.0,))


_DROPPED = Decision(dropped=True, delays_s=())
