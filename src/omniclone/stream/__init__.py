"""Real-time motion streaming: wire codec, jitter buffer with zero-order
hold, a policy server that receives and ticks at a fixed rate, a seeded
fault model, latency probes, and a virtual-time pipeline simulator. The
server and the one-way latency probe each run on the caller's thread, and
nothing here starts a thread. The probe takes its packet fates from the
same `faults.fault_schedule` as the simulator, so a given seed drops the
same seqs in both."""

from .faults import FaultConfig, fault_schedule
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
from .sim import StreamTrace, TraceEntry, simulate_stream

__all__ = [
    "DEFAULT_WINDOW",
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
