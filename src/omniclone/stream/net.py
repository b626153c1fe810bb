"""UDP endpoints: the retargeting relay (sender), the policy server
(receiver + fixed-rate consumer), and latency probes.

Send timestamps are sender-local microseconds from time.monotonic_ns, so
one-way latency is only meaningful on a shared clock (loopback). For a
remote server the heartbeat echo gives an RTT/2 approximation.
"""
from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import InputError, InsufficientDataError, ProtocolError
from ..kinematics import HumanoidModel, load_reference_model
from ..motion import MotionClip, derive_body_kinematics, percentile
from .faults import FaultConfig, FaultInjector
from .jitter import DEFAULT_WINDOW, FrameQueue, RateLoop, Stamped
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


def udp_sender(addr: tuple[str, int]) -> Callable[[bytes], None]:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def send(payload: bytes) -> None:
        sock.sendto(payload, addr)

    return send


def clip_packets(clip: MotionClip, model, start_seq: int = 1):
    """Generate one single-frame packet per clip frame."""
    clip = derive_body_kinematics(clip, model)
    rows = zip(clip.root_lin_vel, clip.body_pos, clip.body_quat, clip.joint_pos)
    for i, row in enumerate(rows):
        yield StreamPacket(
            msg_type=MSG_FRAMES,
            seq=start_seq + i,
            send_ts_us=0,  # stamped at send time
            frames=(PacketFrame(*row),),
        )


def send_clip(
    clip: MotionClip,
    model,
    forward: tuple[str, int],
    rate_hz: float | None = None,
    fault: FaultConfig | None = None,
    seed: int = 0,
) -> int:
    """Stream a clip to the forward address at its fps (or rate_hz). Returns
    the number of packets handed to the transport."""
    rate = rate_hz or clip.fps
    raw_send = udp_sender(forward)
    send = raw_send if fault is None or fault.passthrough else FaultInjector(raw_send, fault, seed)
    period = 1.0 / rate
    deadline = time.monotonic()
    count = 0
    for packet in clip_packets(clip, model):
        now = time.monotonic()
        if now < deadline:
            time.sleep(deadline - now)
        stamped = StreamPacket(
            msg_type=packet.msg_type,
            seq=packet.seq,
            send_ts_us=now_us(),
            frames=packet.frames,
        )
        send(encode_packet(stamped))
        count += 1
        deadline += period
    if isinstance(send, FaultInjector):
        send.drain()
    return count


@dataclass
class ServerStats:
    """Receiver counters; the tick counters live on the server's RateLoop."""

    received: int = 0
    decode_errors: int = 0
    heartbeats: int = 0


class PolicyServer:
    """Receives frame packets into a jitter buffer and drains it at a fixed
    rate through a tracker sink. Heartbeats are echoed back to the sender.

    Decode errors, frame packets whose key-body or joint count differs
    from the model (default: the bundled one), and frame packets whose
    payload is not finite are counted as decode_errors and never fatal to
    the receiver loop.
    """

    def __init__(
        self,
        listen: tuple[str, int],
        rate_hz: float = 50.0,
        capacity: int = DEFAULT_WINDOW,
        sink: Callable[[Stamped, bool], None] = lambda frame, held: None,
        max_ticks: int | None = None,
        model: HumanoidModel | None = None,
    ):
        model = load_reference_model() if model is None else model
        self.frame_counts = (model.n_key_bodies, model.n_joints)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(listen)
        self.sock.settimeout(0.05)
        self.addr = self.sock.getsockname()
        self.queue = FrameQueue(capacity)
        self.stats = ServerStats()
        self._stop = threading.Event()
        self._rx = threading.Thread(target=self._receive_loop, daemon=True)
        self.loop = RateLoop(self.queue, rate_hz, sink, max_ticks=max_ticks)

    def start(self) -> "PolicyServer":
        self._rx.start()
        self.loop.start()
        return self

    def _receive_loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, sender = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                packet = decode_packet(data)
            except ProtocolError:
                self.stats.decode_errors += 1
                continue
            if packet.msg_type == MSG_FRAMES and (
                (packet.n_bodies, packet.n_joints) != self.frame_counts
                or not payload_finite(data)
            ):
                self.stats.decode_errors += 1
                continue
            self.stats.received += 1
            if packet.msg_type == MSG_HEARTBEAT:
                self.stats.heartbeats += 1
                try:
                    self.sock.sendto(data, sender)
                except OSError:
                    pass
                continue
            if packet.msg_type == MSG_FRAMES:
                self.queue.push(Stamped(packet.seq, packet.frames))

    def stop(self) -> None:
        self._stop.set()
        self.loop.stop()
        self.loop.join(2.0)
        self._rx.join(2.0)
        try:
            self.sock.close()
        except OSError:
            pass

    def summary_csv(self) -> str:
        s, loop = self.stats, self.loop
        header = "received,decode_errors,heartbeats,ticks,fresh,held,overruns"
        return (
            f"{header}\n{s.received},{s.decode_errors},{s.heartbeats},"
            f"{loop.ticks},{loop.fresh},{loop.held},{loop.overruns}\n"
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
    constant_delay_ms: float = 0.0,
) -> LatencyStats:
    """One-way loopback latency probe: spins a local receiver, streams
    heartbeat-sized packets through the (optional) fault injector, and
    summarizes receive_time - send_ts per packet."""
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rx.bind(("127.0.0.1", 0))
    rx.settimeout(0.05)
    addr = rx.getsockname()
    latencies: list[float] = []
    done = threading.Event()

    def receive():
        while True:
            try:
                data, _ = rx.recvfrom(65536)
            except socket.timeout:
                if done.is_set():
                    return
                continue
            except OSError:
                return
            try:
                packet = decode_packet(data)
            except ProtocolError:
                continue
            latencies.append((now_us() - packet.send_ts_us) / 1000.0)

    thread = threading.Thread(target=receive, daemon=True)
    thread.start()
    raw_send = udp_sender(addr)
    if constant_delay_ms > 0:
        fault = FaultConfig(jitter_ms=(constant_delay_ms, constant_delay_ms))
    injector = None
    if fault is not None and not fault.passthrough:
        injector = FaultInjector(raw_send, fault, seed)
        send = injector
    else:
        send = raw_send
    period = 1.0 / rate_hz
    deadline = time.monotonic()
    for seq in range(1, n_samples + 1):
        now = time.monotonic()
        if now < deadline:
            time.sleep(deadline - now)
        send(encode_packet(heartbeat(seq, now_us())))
        deadline += period
    if injector is not None:
        injector.drain()
        injector.close()
    time.sleep(0.05)
    done.set()
    thread.join(1.0)
    rx.close()
    return summarize_latencies(latencies, sent=n_samples)


def echo_latency(
    server_addr: tuple[str, int], n_samples: int, rate_hz: float = 100.0
) -> LatencyStats:
    """Two-way heartbeat echo against a PolicyServer; reports RTT/2 (an
    approximation when clocks are not shared).

    Each sample waits up to 0.2 s for the echo of its own seq; echoes of
    other seqs, such as a late one from an earlier sample, are discarded.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    latencies: list[float] = []
    period = 1.0 / rate_hz
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
    sock.close()
    return summarize_latencies(latencies, sent=n_samples)
