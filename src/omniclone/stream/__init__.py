"""Real-time motion streaming: wire codec, jitter buffer with zero-order
hold, a policy server that receives and ticks at a fixed rate on one
thread, fault injection, latency probes, and a virtual-time pipeline
simulator."""

from .faults import Decision, FaultConfig, FaultInjector, decide
from .jitter import (
    DEFAULT_WINDOW,
    PUSH_ACCEPTED,
    PUSH_STALE,
    FrameQueue,
    Stamped,
)
from .net import (
    LatencyStats,
    PolicyServer,
    clip_packets,
    echo_latency,
    measure_latency,
    now_us,
    parse_addr,
    send_clip,
    summarize_latencies,
)
from .packet import (
    HEADER_LEN,
    MAGIC,
    MAX_DATAGRAM,
    MSG_CALIBRATION,
    MSG_FRAMES,
    MSG_HEARTBEAT,
    VERSION,
    PacketFrame,
    StreamPacket,
    decode_packet,
    encode_packet,
    frame_bytes,
    heartbeat,
    packet_bytes,
    packet_frame_from_motion,
    packets_equal,
)
from .sim import StreamTrace, TraceEntry, fault_schedule, simulate_stream

__all__ = [
    "DEFAULT_WINDOW",
    "Decision",
    "FaultConfig",
    "FaultInjector",
    "FrameQueue",
    "HEADER_LEN",
    "LatencyStats",
    "MAGIC",
    "MAX_DATAGRAM",
    "MSG_CALIBRATION",
    "MSG_FRAMES",
    "MSG_HEARTBEAT",
    "PUSH_ACCEPTED",
    "PUSH_STALE",
    "PacketFrame",
    "PolicyServer",
    "Stamped",
    "StreamPacket",
    "StreamTrace",
    "TraceEntry",
    "VERSION",
    "clip_packets",
    "decide",
    "decode_packet",
    "echo_latency",
    "encode_packet",
    "fault_schedule",
    "frame_bytes",
    "heartbeat",
    "measure_latency",
    "now_us",
    "packet_bytes",
    "packet_frame_from_motion",
    "packets_equal",
    "parse_addr",
    "send_clip",
    "simulate_stream",
    "summarize_latencies",
]
