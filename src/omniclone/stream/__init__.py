"""Real-time motion streaming: wire codec, jitter buffer with zero-order
hold, a policy server that receives and ticks at a fixed rate, a seeded
fault model, latency probes, and a virtual-time pipeline simulator. The
server and the one-way latency probe each run on the caller's thread, and
nothing here starts a thread. The probe takes its packet fates from the
same `fault_schedule` as the simulator, so a given seed drops the same
seqs in both."""

from .faults import Decision, FaultConfig, decide
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
)
from .sim import StreamTrace, TraceEntry, fault_schedule, simulate_stream

__all__ = [
    "DEFAULT_WINDOW",
    "Decision",
    "FaultConfig",
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
    "parse_addr",
    "send_clip",
    "simulate_stream",
    "summarize_latencies",
]
