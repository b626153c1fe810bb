"""UDP endpoints: the retargeting relay (sender), the policy server
(receiver and fixed-rate consumer), and latency probes. The server and the
one-way probe each run as one loop on the caller's thread; the probe draws
its packet fates from the same `fault_schedule` as the virtual simulator.

Send timestamps are sender-local microseconds from time.monotonic_ns, so
one-way latency is only meaningful on a shared clock (loopback). For a
remote server the heartbeat echo gives an RTT/2 approximation.
"""
from __future__ import annotations

import math
import select
import socket
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import InputError, InsufficientDataError, ProtocolError
from ..kinematics import HumanoidModel, load_reference_model
from ..motion import MotionClip, derive_body_kinematics, percentile
from .faults import FaultConfig, fault_schedule
from .jitter import DEFAULT_WINDOW, FrameQueue, Stamped
from .packet import (
    MSG_FRAMES,
    MSG_HEARTBEAT,
    PacketFrame,
    StreamPacket,
    decode_packet,
    encode_packet,
    heartbeat,
    payload_finite,
)


def now_us() -> int:
    return time.monotonic_ns() // 1000


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise InputError(f"address {text!r} must be host:port")
    return host, int(port)


def send_clip(
    clip: MotionClip,
    model,
    forward: tuple[str, int],
    rate_hz: float | None = None,
) -> int:
    """Stream a clip to the forward address at its fps (or rate_hz), one
    single-frame packet per clip frame, seq 1 first, each stamped as it is
    sent. Returns the number of packets handed to the transport."""
    clip = derive_body_kinematics(clip, model)
    rows = zip(clip.root_lin_vel, clip.body_pos, clip.body_quat, clip.joint_pos)
    period = 1.0 / (rate_hz or clip.fps)
    deadline = time.monotonic()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        for seq, row in enumerate(rows, start=1):
            now = time.monotonic()
            if now < deadline:
                time.sleep(deadline - now)
            packet = StreamPacket(MSG_FRAMES, seq, now_us(), (PacketFrame(*row),))
            sock.sendto(encode_packet(packet), forward)
            deadline += period
    return len(clip.t)


class PolicyServer:
    """Receives frame packets into a jitter buffer and drains it at a fixed
    rate through a tracker sink, in one loop that run() drives on the
    caller's thread. Heartbeats are echoed back to the sender. The
    counters are final once run() returns; close() releases the socket.

    The first tick runs when the first frame is accepted, or at once when
    the queue holds frames as run() begins, and later ticks every
    1/rate_hz seconds. Datagrams that are waiting when a tick is due are
    ingested before it, up to the queue's capacity. A sink that overruns
    its slot bumps `overruns`; the schedule then catches up by at most one
    tick and never skips the next one.

    Decode errors, frame packets that carry no frame, frame packets whose
    key-body or joint count differs from the model (default: the bundled
    one), and frame packets whose payload is not finite are counted as
    decode_errors and never fatal to the loop, so every popped frame the
    sink sees carries data. Held and stale frames are counted by the queue.
    """

    def __init__(
        self,
        listen: tuple[str, int],
        rate_hz: float = 50.0,
        capacity: int = DEFAULT_WINDOW,
        sink: Callable[[Stamped, bool], None] = lambda frame, held: None,
        model: HumanoidModel | None = None,
    ):
        if not 0.0 < rate_hz < math.inf:
            raise InputError(f"rate_hz must be positive and finite, got {rate_hz}")
        model = load_reference_model() if model is None else model
        self.frame_counts = (model.n_key_bodies, model.n_joints)
        self.period = 1.0 / rate_hz
        self.sink = sink
        self.queue = FrameQueue(capacity)
        self.received = self.decode_errors = self.heartbeats = 0
        self.ticks = self.fresh = self.overruns = 0
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.bind(listen)
        except OSError:
            self.sock.close()
            raise
        self.sock.setblocking(False)
        self.addr = self.sock.getsockname()

    def run(self, duration: float | None = None) -> None:
        """Receive and tick for `duration` seconds; with None, until the
        caller is interrupted (KeyboardInterrupt propagates)."""
        start = time.monotonic()
        end = math.inf if duration is None else start + duration
        deadline = start if len(self.queue) else math.inf
        while (now := time.monotonic()) < end:
            if now >= deadline:
                # arrivals that coincide with a tick are processed before it
                self._receive()
                frame, held = self.queue.pop()
                self.sink(frame, held)
                self.ticks += 1
                self.fresh += not held
                deadline += self.period
                done = time.monotonic()
                if done > deadline:
                    self.overruns += 1
                    # bound catch-up to a single immediate tick
                    deadline = max(deadline, done - self.period)
                continue
            due = min(deadline, end)
            if select.select([self.sock], [], [], None if due == math.inf else due - now)[0]:
                self._receive()
                if deadline == math.inf and len(self.queue):
                    deadline = time.monotonic()

    def _receive(self) -> None:
        """Ingest the datagrams already waiting, at most the queue's capacity."""
        for _ in range(self.queue.capacity):
            try:
                data, sender = self.sock.recvfrom(65536)
            except OSError:  # BlockingIOError once nothing is waiting
                return
            try:
                packet = decode_packet(data)
            except ProtocolError:
                self.decode_errors += 1
                continue
            if packet.msg_type == MSG_FRAMES and (
                not packet.frames
                or (packet.n_bodies, packet.n_joints) != self.frame_counts
                or not payload_finite(data)
            ):
                self.decode_errors += 1
                continue
            self.received += 1
            if packet.msg_type == MSG_HEARTBEAT:
                self.heartbeats += 1
                try:
                    self.sock.sendto(data, sender)
                except OSError:
                    pass
                continue
            if packet.msg_type == MSG_FRAMES:
                self.queue.push(Stamped(packet.seq, packet.frames))

    def close(self) -> None:
        self.sock.close()

    def summary_csv(self) -> str:
        q = self.queue
        header = "received,decode_errors,heartbeats,ticks,fresh,held,overruns,stale"
        return (
            f"{header}\n{self.received},{self.decode_errors},{self.heartbeats},"
            f"{self.ticks},{self.fresh},{q.held_count},{self.overruns},{q.stale_count}\n"
        )


@dataclass(frozen=True)
class LatencyStats:
    mean_ms: float
    p95_ms: float
    sent: int
    received: int


def summarize_latencies(latencies_ms: Sequence[float], sent: int) -> LatencyStats:
    if len(latencies_ms) < 10:
        raise InsufficientDataError(
            f"only {len(latencies_ms)} latency samples (need >= 10)"
        )
    arr = np.asarray(latencies_ms, dtype=float)
    return LatencyStats(
        mean_ms=float(arr.mean()),
        p95_ms=percentile(arr, 95.0),
        sent=sent,
        received=len(arr),
    )


def measure_latency(
    n_samples: int,
    rate_hz: float = 200.0,
    fault: FaultConfig | None = None,
    seed: int = 0,
) -> LatencyStats:
    """One-way loopback latency probe, run on the caller's thread.

    Heartbeat seq is stamped with now_us() at (seq - 1) / rate_hz, and its
    copies leave after the delays that `fault_schedule` draws for it, so a
    given seed drops the same seqs as the virtual simulator. Datagrams are
    received while the loop waits for its next event, and for 50 ms after
    the last; each decoded one adds receive_time - send_ts to the summary.
    """
    arrivals, _, _ = fault_schedule(n_samples, rate_hz, fault or FaultConfig(), seed)
    # (time, is_copy, seq): a seq is stamped before its copies that leave at once
    events = sorted(
        [((seq - 1) / rate_hz, False, seq) for seq in range(1, n_samples + 1)]
        + [(t, True, seq) for t, _, seq in arrivals]
    )
    stamps = [0] * (n_samples + 1)
    latencies: list[float] = []
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as rx, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
        rx.bind(("127.0.0.1", 0))
        rx.setblocking(False)
        addr = rx.getsockname()

        def receive_until(due: float) -> None:
            while (wait := due - time.monotonic()) > 0:
                if not select.select([rx], [], [], wait)[0]:
                    continue
                while True:
                    try:
                        data = rx.recv(65536)
                    except BlockingIOError:
                        break
                    try:
                        packet = decode_packet(data)
                    except ProtocolError:
                        continue
                    latencies.append((now_us() - packet.send_ts_us) / 1000.0)

        start = time.monotonic()
        for t, is_copy, seq in events:
            receive_until(start + t)
            if is_copy:
                tx.sendto(encode_packet(heartbeat(seq, stamps[seq])), addr)
            else:
                stamps[seq] = now_us()
        receive_until(time.monotonic() + 0.05)
    return summarize_latencies(latencies, sent=n_samples)


def echo_latency(
    server_addr: tuple[str, int], n_samples: int, rate_hz: float = 100.0
) -> LatencyStats:
    """Two-way heartbeat echo against a PolicyServer; reports RTT/2 (an
    approximation when clocks are not shared).

    Each sample waits up to 0.2 s for the echo of its own seq; echoes of
    other seqs, such as a late one from an earlier sample, are discarded.
    """
    latencies: list[float] = []
    period = 1.0 / rate_hz
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        for seq in range(1, n_samples + 1):
            start = now_us()
            sock.sendto(encode_packet(heartbeat(seq, start)), server_addr)
            deadline = time.monotonic() + 0.2
            while (remaining := deadline - time.monotonic()) > 0:
                sock.settimeout(remaining)
                try:
                    echoed = decode_packet(sock.recvfrom(65536)[0]).seq
                except socket.timeout:
                    break
                except ProtocolError:
                    continue
                if echoed == seq:
                    latencies.append((now_us() - start) / 2000.0)
                    break
            time.sleep(period)
    return summarize_latencies(latencies, sent=n_samples)
