"""Deterministic network fault injection for datagram transports.

Per-packet random draws happen in a fixed order (drop, jitter, reorder,
duplicate) so a seeded run is exactly reproducible and a test can replay
the same generator to predict the delivered trace.
"""
from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class FaultConfig:
    drop_prob: float = 0.0
    jitter_ms: tuple[float, float] = (0.0, 0.0)
    reorder_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_extra_ms: float = 20.0
    duplicate_delay_ms: float = 1.0

    def __post_init__(self):
        for name in ("drop_prob", "reorder_prob", "duplicate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        lo, hi = self.jitter_ms
        if lo < 0 or hi < lo:
            raise ConfigError(f"jitter_ms range ({lo}, {hi}) invalid")

    @property
    def passthrough(self) -> bool:
        return (
            self.drop_prob == 0.0
            and self.jitter_ms == (0.0, 0.0)
            and self.reorder_prob == 0.0
            and self.duplicate_prob == 0.0
        )


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
        delay_ms += config.reorder_extra_ms
    delays = [delay_ms / 1000.0]
    if rng.random() < config.duplicate_prob:
        delays.append((delay_ms + config.duplicate_delay_ms) / 1000.0)
    return Decision(dropped=False, delays_s=tuple(delays))


class FaultInjector:
    """Wraps a send callable; delivers copies after their decided delays.

    Zero-delay passthrough sends synchronously (byte-identical path); any
    delayed copy is dispatched from a scheduler thread.
    """

    def __init__(self, send: Callable[[bytes], None], config: FaultConfig, seed: int):
        self._send = send
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.sent = 0
        self.dropped = 0
        self.delivered = 0
        self._heap: list[tuple[float, int, bytes]] = []
        self._counter = 0
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._thread: threading.Thread | None = None

    def __call__(self, payload: bytes) -> None:
        self.sent += 1
        decision = decide(self.config, self.rng)
        if decision.dropped:
            self.dropped += 1
            return
        now = time.monotonic()
        for delay in decision.delays_s:
            if delay <= 0.0:
                self._send(payload)
                self.delivered += 1
            else:
                self._schedule(now + delay, payload)

    def _schedule(self, due: float, payload: bytes) -> None:
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(target=self._dispatch, daemon=True)
                self._thread.start()
            heapq.heappush(self._heap, (due, self._counter, payload))
            self._counter += 1
            self._wake.notify_all()

    def _dispatch(self) -> None:
        while True:
            with self._lock:
                while not self._heap and not self._closed:
                    self._wake.wait()
                if self._closed and not self._heap:
                    return
                due, _, payload = self._heap[0]
                wait = due - time.monotonic()
                if wait > 0:
                    self._wake.wait(wait)
                    continue
                heapq.heappop(self._heap)
            self._send(payload)
            self.delivered += 1

    def drain(self, timeout: float = 5.0) -> None:
        """Block until every scheduled copy has been delivered."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            with self._lock:
                if not self._heap:
                    return
            time.sleep(0.001)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._wake.notify_all()
