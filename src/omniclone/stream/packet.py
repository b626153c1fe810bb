"""Bit-exact UDP datagram codec.

Layout (all little-endian):
    magic      4 bytes  "OCL1"
    version    1 byte   = 1
    msg_type   1 byte   0=frames, 1=calibration, 2=heartbeat
    flags      2 bytes
    seq        4 bytes  unsigned, monotone per session
    send_ts_us 8 bytes  unsigned microseconds
    frame_count 2 bytes unsigned
    n_bodies   2 bytes  unsigned
    n_joints   2 bytes  unsigned
    payload    frame_count x [root_lin_vel 3xf32,
                              per body (pos 3xf32, quat 4xf32),
                              joint_pos n x f32]
    crc32      4 bytes  IEEE, over all preceding bytes

Datagrams larger than 1400 bytes are rejected at encode time, and at
decode time before the CRC pass, so an oversize datagram costs a receiver
no more than a length check.

decode_packet checks the length, magic, version, exact size and CRC, then
views the payload once as a (frame_count, 3 + 7K + n) float32 array. The
checked header fixes every frame's shapes, so the decoded PacketFrames and
StreamPacket are built from those views with motion._unchecked, without
re-running their constructors' checks: root_lin_vel and joint_pos are
read-only views of the datagram, and body_pos and body_quat are rows of one
copy each per packet. packet_frame_from_motion builds its PacketFrame
the same way from a Frame's checked arrays, after PacketFrame's float32
conversion. Every other caller goes through the checking constructors.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import CorruptionError, InputError, ProtocolError, TruncationError
from ..motion import _unchecked

MAGIC = b"OCL1"
VERSION = 1
MSG_FRAMES = 0
MSG_CALIBRATION = 1
MSG_HEARTBEAT = 2

MAX_DATAGRAM = 1400
HEADER = struct.Struct("<4sBBHIQHHH")
HEADER_LEN = HEADER.size  # 26
CRC_LEN = 4


def _wire_array(x) -> np.ndarray:
    """x as PacketFrame holds it: a C-contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=np.float32)


@dataclass(frozen=True, eq=False)
class PacketFrame:
    """One frame of the command stream as carried on the wire (float32)."""

    root_lin_vel: np.ndarray  # (3,)
    body_pos: np.ndarray  # (K, 3)
    body_quat: np.ndarray  # (K, 4)
    joint_pos: np.ndarray  # (n,)

    def __post_init__(self):
        for name in ("root_lin_vel", "body_pos", "body_quat", "joint_pos"):
            object.__setattr__(self, name, _wire_array(getattr(self, name)))
        if self.root_lin_vel.shape != (3,):
            raise InputError("root_lin_vel must be a 3-vector")
        k = self.body_pos.shape[0]
        if self.body_pos.shape != (k, 3) or self.body_quat.shape != (k, 4):
            raise InputError("body_pos/body_quat shapes inconsistent")
        if self.joint_pos.ndim != 1:
            raise InputError("joint_pos must be a vector")

    @property
    def n_bodies(self) -> int:
        return self.body_pos.shape[0]

    @property
    def n_joints(self) -> int:
        return self.joint_pos.shape[0]


@dataclass(frozen=True, eq=False)
class StreamPacket:
    msg_type: int
    seq: int
    send_ts_us: int
    frames: tuple[PacketFrame, ...] = ()
    flags: int = 0
    n_bodies: int = 0
    n_joints: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if self.frames:
            k = self.frames[0].n_bodies
            n = self.frames[0].n_joints
            if self.n_bodies == 0 and self.n_joints == 0:
                object.__setattr__(self, "n_bodies", k)
                object.__setattr__(self, "n_joints", n)
            for f in self.frames:
                if f.n_bodies != self.n_bodies or f.n_joints != self.n_joints:
                    raise InputError("frames disagree on body/joint counts")
        if not 0 <= self.seq < 2**32:
            raise InputError("seq out of uint32 range")
        if not 0 <= self.send_ts_us < 2**64:
            raise InputError("send_ts_us out of uint64 range")


def heartbeat(seq: int, send_ts_us: int) -> StreamPacket:
    return StreamPacket(msg_type=MSG_HEARTBEAT, seq=seq, send_ts_us=send_ts_us)


def frame_bytes(k: int, n: int) -> int:
    return 4 * (3 + 7 * k + n)


def packet_bytes(frame_count: int, k: int, n: int) -> int:
    return HEADER_LEN + frame_count * frame_bytes(k, n) + CRC_LEN


def encode_packet(packet: StreamPacket) -> bytes:
    total = packet_bytes(len(packet.frames), packet.n_bodies, packet.n_joints)
    if total > MAX_DATAGRAM:
        raise InputError(
            f"datagram of {total} bytes exceeds the {MAX_DATAGRAM}-byte budget"
        )
    parts = [
        HEADER.pack(
            MAGIC,
            VERSION,
            packet.msg_type,
            packet.flags,
            packet.seq,
            packet.send_ts_us,
            len(packet.frames),
            packet.n_bodies,
            packet.n_joints,
        )
    ]
    for f in packet.frames:
        parts.append(f.root_lin_vel.tobytes())
        parts.append(np.concatenate((f.body_pos, f.body_quat), axis=1).tobytes())
        parts.append(f.joint_pos.tobytes())
    body = b"".join(parts)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return body + struct.pack("<I", crc)


def decode_packet(data: bytes) -> StreamPacket:
    if len(data) < HEADER_LEN + CRC_LEN:
        raise TruncationError(f"datagram of {len(data)} bytes is shorter than a header")
    if len(data) > MAX_DATAGRAM:
        raise ProtocolError(
            f"datagram of {len(data)} bytes exceeds the {MAX_DATAGRAM}-byte budget"
        )
    magic, version, msg_type, flags, seq, ts, frame_count, k, n = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    expected = packet_bytes(frame_count, k, n)
    if len(data) != expected:
        raise TruncationError(
            f"datagram of {len(data)} bytes, expected {expected} for {frame_count} frames"
        )
    crc = struct.unpack_from("<I", data, len(data) - CRC_LEN)[0]
    actual = zlib.crc32(data[:-CRC_LEN]) & 0xFFFFFFFF
    if crc != actual:
        raise CorruptionError(f"crc mismatch: trailer {crc:#010x}, computed {actual:#010x}")
    frames = ()
    if frame_count:
        # the checked length fixes every shape below, so the frames skip
        # PacketFrame's conversions and checks (see the module docstring)
        joints_at = 3 + 7 * k
        width = joints_at + n
        rows = np.frombuffer(
            data, dtype="<f4", count=frame_count * width, offset=HEADER_LEN
        ).reshape(frame_count, width)
        body = rows[:, 3:joints_at].reshape(frame_count, k, 7)
        body_pos = body[:, :, :3].copy()
        body_quat = body[:, :, 3:].copy()
        frames = tuple([
            _unchecked(
                PacketFrame,
                root_lin_vel=rows[i, :3],
                body_pos=body_pos[i],
                body_quat=body_quat[i],
                joint_pos=rows[i, joints_at:],
            )
            for i in range(frame_count)
        ])
    # seq and ts are in range by the struct format
    return _unchecked(
        StreamPacket,
        msg_type=msg_type,
        seq=seq,
        send_ts_us=ts,
        frames=frames,
        flags=flags,
        n_bodies=k,
        n_joints=n,
    )


def payload_finite(data: bytes) -> bool:
    """Whether every float32 payload value of a decodable datagram is finite.

    decode_packet passes non-finite values through as sent; a receiver that
    must reject them calls this once per datagram.
    """
    count = (len(data) - HEADER_LEN - CRC_LEN) // 4
    payload = np.frombuffer(data, dtype="<f4", count=count, offset=HEADER_LEN)
    return bool(np.isfinite(payload).all())


def packet_frame_from_motion(frame, model) -> PacketFrame:
    """Project a motion Frame onto the wire schema (key bodies + joints).

    The Frame's constructor has checked every shape PacketFrame checks, so
    the PacketFrame is built from its arrays with motion._unchecked after
    the one conversion PacketFrame's constructor makes (_wire_array).
    """
    if frame.body_pos is None:
        raise InputError("frame lacks body kinematics; derive them before streaming")
    return _unchecked(
        PacketFrame,
        root_lin_vel=_wire_array(frame.root_lin_vel),
        body_pos=_wire_array(frame.body_pos),
        body_quat=_wire_array(frame.body_quat),
        joint_pos=_wire_array(frame.joint_pos),
    )
