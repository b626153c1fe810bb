"""The shared host's speed, from a fixed reference computation.

The probe is benchmark code only, never the program's: small numpy matrix
chains (like forward kinematics), a JSON round trip of a clip-like record
(like clip files), and struct packing with a CRC (like the wire codec).
A run times it just before every timed block of work (and in the slack
before each open-loop tick). The block's wall-clock time is multiplied by
`scale`, the probe's nominal time over its time just then, so the figures
read as if the host ran at its nominal speed: a program change moves
them, a host that drifts between speeds does not.
"""
from __future__ import annotations

import json
import statistics
import struct
import time
import zlib

import numpy as np

#: the probe's time (median of the last WINDOW) that counts as the host's nominal speed:
#: about the median on the 2-CPU Intel Xeon virtual machine this was built on,
#: where it ranged from about 0.8 to 2 ms
NOMINAL_S = 0.001
#: `scale` uses the median of this many latest probe times: a single probe is now and then
#: much faster than the host's current state, and a median of a few ignores it
WINDOW = 3

_rng = np.random.default_rng(12345)
_MATS = _rng.normal(size=(30, 4, 4)) * 0.3
_RECORD = {"frames": [{"t": i / 30.0, "q": _rng.normal(size=29).round(6).tolist()} for i in range(6)]}
_PAYLOAD = _rng.normal(size=87).astype(np.float32).tobytes()


def _work() -> float:
    acc = 0.0
    for _ in range(2):
        m = np.eye(4)
        for k in range(30):
            m = m @ _MATS[k]
            m = m / np.abs(m).max()
        acc += float(m[0, 0])
        acc += len(json.loads(json.dumps(_RECORD))["frames"])
        for seq in range(20):
            head = struct.pack("<BIQ", 1, seq, seq * 20_000)
            acc += zlib.crc32(head + _PAYLOAD) & 1
    return acc


class HostSpeed:
    def __init__(self):
        self.scale = 1.0
        self.probe_s: list[float] = []

    def measure(self) -> None:
        """Time the probe once; set `scale` from the median of the latest WINDOW times."""
        start = time.perf_counter()
        _work()
        self.probe_s.append(time.perf_counter() - start)
        self.scale = NOMINAL_S / statistics.median(self.probe_s[-WINDOW:])

    def summary(self) -> dict:
        ms = [1e3 * s for s in self.probe_s]
        return {
            "nominal_ms": 1e3 * NOMINAL_S,
            "probe_ms_median": statistics.median(ms),
            "probe_ms_min": min(ms),
            "probe_ms_max": max(ms),
        }


#: the one instance a run uses; paths read `HOST.scale` when they record a timing
HOST = HostSpeed()
