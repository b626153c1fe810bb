"""Seeded input generators for the four benchmark paths.

Everything here is derived from one integer seed, so the same seed gives
byte-identical inputs. The program under test only ever sees what these
functions return (clip files on disk, subject frames, datagrams, chunks).
"""
from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from omniclone.bench import ManifestEntry, save_manifest
from omniclone.kinematics import HumanoidModel, RigidPose, forward_kinematics_arrays
from omniclone.motion import BENCH_STRATA, Frame, MotionClip, derive_body_kinematics, save_clip
from omniclone.retarget import CalibrationResult, SubjectFrame, calibrate
from omniclone.rotations import quat_from_yaw
from omniclone.stream import (
    MSG_FRAMES,
    FaultConfig,
    PacketFrame,
    StreamPacket,
    encode_packet,
    heartbeat,
)
from omniclone.synthetic import SUITE_SPEEDS
from omniclone.vlabridge import ActionChunk

ROOT_Z = 0.75

#: marker name -> humanoid key body, one marker per key body
MARKERS = {
    "m_pelvis": "pelvis",
    "m_chest": "torso",
    "m_lhand": "left_wrist_yaw_link",
    "m_rhand": "right_wrist_yaw_link",
    "m_lfoot": "left_ankle_roll_link",
    "m_rfoot": "right_ankle_roll_link",
    "m_head": "head",
}

#: fault model of the stream-faults path: drop, jitter 0-40 ms, reorder, duplicate.
#: Chosen values, not measured from a real link (see README.md).
STREAM_FAULT = FaultConfig(
    drop_prob=0.05, jitter_ms=(0.0, 40.0), reorder_prob=0.05, duplicate_prob=0.05
)
STREAM_HZ = 50.0
STREAM_CAPACITY = 5


# ---------------------------------------------------------------------------
# Smooth seeded joint motion
# ---------------------------------------------------------------------------

def smooth_joint_motion(model: HumanoidModel, rng: np.random.Generator, times: np.ndarray) -> np.ndarray:
    """(T, n) joint angles: one seeded sinusoid per joint, inside its limits."""
    n = model.n_joints
    lo = np.array([l.limits[0] for l in model.links if l.actuated])
    hi = np.array([l.limits[1] for l in model.links if l.actuated])
    amp = np.minimum(rng.uniform(0.05, 0.3, n), (hi - lo) / 4.0)
    centre = np.clip(0.0, lo + amp, hi - amp)
    freq = rng.uniform(0.2, 1.0, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    return centre + amp * np.sin(2.0 * np.pi * freq * times[:, None] + phase)


def _clip(model, rng, name, category, level, n_frames, fps, speed, with_bodies) -> MotionClip:
    times = np.arange(n_frames) / fps
    joints = smooth_joint_motion(model, rng, times)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    vel = speed * np.array([np.cos(heading), np.sin(heading), 0.0])
    quat = quat_from_yaw(heading)
    frames = tuple(
        Frame(
            t=float(t),
            root=RigidPose(np.array([0.0, 0.0, ROOT_Z]) + vel * t, quat),
            root_lin_vel=vel,
            root_ang_vel=np.zeros(3),
            joint_pos=joints[i],
        )
        for i, t in enumerate(times)
    )
    clip = MotionClip(
        name=name,
        fps=fps,
        category=category,
        level=level,
        frames=frames,
        dof_names=model.joint_names,
        key_bodies=model.key_bodies,
    )
    return derive_body_kinematics(clip, model) if with_bodies else clip


# ---------------------------------------------------------------------------
# eval: a suite over all 18 strata, written to disk
# ---------------------------------------------------------------------------

@dataclass
class EvalInputs:
    manifest: pathlib.Path
    clips: list[MotionClip]  # in manifest order, as generated (for the reference report)


def make_suite(
    model: HumanoidModel,
    seed: int,
    out_dir: pathlib.Path,
    clips_per_stratum: int,
    frames_range: tuple[int, int],
    fps: float = 30.0,
    no_bodies_share: float = 0.3,
) -> EvalInputs:
    rng = np.random.default_rng([seed, 1])
    clips_dir = out_dir / "clips"
    clips_dir.mkdir(parents=True, exist_ok=True)
    n_clips = len(BENCH_STRATA) * clips_per_stratum
    # the seed shuffles a fixed set of lengths and body-less clips, so the
    # suite's total work is the same for every seed
    lengths = rng.permutation(np.linspace(*frames_range, n_clips).round().astype(int))
    no_bodies = set(rng.permutation(n_clips)[: round(no_bodies_share * n_clips)].tolist())
    clips, entries = [], []
    for c, (cat, lvl) in enumerate(s for s in BENCH_STRATA for _ in range(clips_per_stratum)):
        clip = _clip(
            model, rng, f"{cat}_{lvl}_{c % clips_per_stratum:02d}", cat, lvl, int(lengths[c]), fps,
            SUITE_SPEEDS[(cat, lvl)], c not in no_bodies,
        )
        path = clips_dir / f"{clip.name}.json"
        save_clip(clip, path)
        clips.append(clip)
        entries.append(ManifestEntry(path=f"clips/{path.name}", category=cat, level=lvl))
    manifest = out_dir / "manifest.json"
    save_manifest(entries, manifest)
    return EvalInputs(manifest=manifest, clips=clips)


# ---------------------------------------------------------------------------
# teleop: a synthetic operator, calibrated once
# ---------------------------------------------------------------------------

@dataclass
class TeleopInputs:
    frames: list[SubjectFrame]  # 50 Hz operator samples, some with a dropped marker
    cal: CalibrationResult
    ref_root: RigidPose  # reference root the robot state is built at


def _subjects(model, joints, root_pos, root_quat, times, scale, vel, drops) -> list[SubjectFrame]:
    """Operator samples: the humanoid's key bodies scaled by `scale`, with
    the marker named in drops[i] (if any) missing from sample i."""
    pos, quat = forward_kinematics_arrays(model, joints, root_pos, root_quat)
    slots = [(m, model.key_body_index[model.key_bodies.index(b)]) for m, b in MARKERS.items()]
    return [
        SubjectFrame(
            t=float(t),
            root=RigidPose(scale * root_pos[i], root_quat[i]),
            markers={m: scale * pos[i, j] for m, j in slots if m != drops[i]},
            marker_quats={m: quat[i, j] for m, j in slots if m != drops[i]},
            root_lin_vel=scale * vel,
            root_ang_vel=np.zeros(3),
            joint_pos=joints[i],
        )
        for i, t in enumerate(times)
    ]


def make_operator(model: HumanoidModel, seed: int, n_frames: int, dropout_share: float = 0.02) -> TeleopInputs:
    rng = np.random.default_rng([seed, 2])
    scale = rng.uniform(0.85, 1.15)  # operator size relative to the humanoid
    times = np.arange(n_frames) / 50.0
    joints = smooth_joint_motion(model, rng, times)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    vel = 0.5 * np.array([np.cos(heading), np.sin(heading), 0.0])
    quat = quat_from_yaw(heading)
    start = np.array([0.0, 0.0, ROOT_Z])
    (calib,) = _subjects(
        model, np.zeros((1, model.n_joints)), start[None], quat[None], [0.0], scale, np.zeros(3), [None]
    )
    cal = calibrate(calib, model, MARKERS)
    names = list(MARKERS)
    drops: list[str | None] = [None] * n_frames
    # a fixed number of dropouts at seeded positions; never the first sample,
    # which has no previous frame to hold
    for i in rng.permutation(np.arange(1, n_frames))[: round(dropout_share * n_frames)]:
        drops[i] = names[int(rng.integers(len(names)))]
    frames = _subjects(
        model, joints, start + vel * times[:, None], np.tile(quat, (n_frames, 1)), times, scale, vel, drops
    )
    return TeleopInputs(frames=frames, cal=cal, ref_root=RigidPose(start, quat))


# ---------------------------------------------------------------------------
# stream: mixed-size datagrams plus damaged extra copies
# ---------------------------------------------------------------------------

@dataclass
class StreamSession:
    """One sender session: seqs 1..n through its own fault draws and jitter buffer."""

    packets: list[StreamPacket]  # seq i+1 at index i; heartbeats, 1-frame and 4-frame
    damaged: dict[int, tuple[str, bytes]]  # seq -> (truncation | crc, damaged copy of its datagram)
    fault_seed: int


def make_stream(
    seed: int, n_sessions: int, n_packets: int, n_bodies: int, n_joints: int, damaged_share: float = 0.06
) -> list[StreamSession]:
    rng = np.random.default_rng([seed, 3])
    pool = [
        PacketFrame(
            root_lin_vel=rng.normal(0.0, 0.5, 3),
            body_pos=rng.normal(0.0, 0.5, (n_bodies, 3)),
            body_quat=rng.normal(0.0, 1.0, (n_bodies, 4)),
            joint_pos=rng.normal(0.0, 0.5, n_joints),
        )
        for _ in range(64)
    ]
    return [_session(rng, pool, n_packets, damaged_share) for _ in range(n_sessions)]


def _session(rng, pool, n_packets, damaged_share) -> StreamSession:
    # fixed counts in seeded order: 10 % heartbeats, 60 % 1-frame, 30 % 4-frame packets (a chosen mix)
    n_heartbeat, n_one = round(0.1 * n_packets), round(0.6 * n_packets)
    kinds = rng.permutation([0] * n_heartbeat + [1] * n_one + [4] * (n_packets - n_heartbeat - n_one)).tolist()
    picks = rng.integers(len(pool), size=(n_packets, 4)).tolist()
    packets = []
    for i, kind in enumerate(kinds):
        seq, ts = i + 1, (i + 1) * 20_000
        if kind == 0:
            packets.append(heartbeat(seq, ts))
        else:
            packets.append(StreamPacket(MSG_FRAMES, seq, ts, tuple(pool[j] for j in picks[i][:kind])))
    damaged = {}
    for k, i in enumerate(rng.permutation(n_packets)[: round(damaged_share * n_packets)]):
        data = encode_packet(packets[i])
        if k % 2 == 0:
            damaged[int(i) + 1] = ("truncation", data[: int(rng.integers(1, len(data)))])
        else:
            # flip one bit in seq/timestamp or payload: the length stays valid, so only the CRC catches it
            region = list(range(8, 20)) + list(range(26, len(data) - 4))
            pos = region[int(rng.integers(len(region)))]
            bad = bytearray(data)
            bad[pos] ^= 1 << int(rng.integers(8))
            damaged[int(i) + 1] = ("crc", bytes(bad))
    return StreamSession(packets=packets, damaged=damaged, fault_seed=int(rng.integers(2**31)))


# ---------------------------------------------------------------------------
# vla: recorded action chunks
# ---------------------------------------------------------------------------

def make_chunks(model: HumanoidModel, seed: int, n_chunks: int, horizon: int = 16, execute_len: int = 8) -> list[ActionChunk]:
    """Chunks re-planned every execute_len steps of a smooth 50 Hz joint trajectory."""
    rng = np.random.default_rng([seed, 4])
    times = np.arange(n_chunks * execute_len + horizon) / 50.0
    joints = smooth_joint_motion(model, rng, times)
    return [
        ActionChunk(joints[c * execute_len : c * execute_len + horizon], source_step=c)
        for c in range(n_chunks)
    ]
