"""Independent reference implementations used as test oracles.

Deliberately written with different machinery than the package (4x4
homogeneous matrices instead of quaternion composition, struct-by-struct
packet building, plain-list queue simulation) so agreement is evidence,
not tautology. The exception is per_link_fk: a link-by-link walk on the
package's quaternion core that both FK paths (level-wise numpy and the
scalar walk over one configuration) must match bit for bit; that core is
itself checked against numpy's cross product and stacking
(cross_quat_rotate, stack_quat_mul). per_field_dr draws one scalar per
field, which tables.sample_dr's single draw must reproduce.
teacher_obs_length counts the teacher observation's blocks from the
model's joint and key-body counts.
student_obs_blocks and retarget_frame_per_marker are the teleop tick's
observation and retarget steps written with one transform per block and
one row write per marker; the package's fused forms do the same
arithmetic per element, so they must match bit for bit.

rows_clip_doc is no oracle: it writes the row layout of older clip files,
which the package still reads but no longer writes. Nor are the writers
and helpers that only tests use, which the package does not ship:
save_model, save_subject_stream (with subject_frame_to_dict),
save_mapping, save_chunks, parse_report_csv, quat_normalize,
quat_distance, packets_equal, decoded_frames_canonical, sine_joint_clip
and identity_pose.
per_packet_fault_schedule keeps the fault model's scalar draws, one
generator call per draw, which the package's one-block schedule must
reproduce bit for bit.
"""
import json
import math
import struct
import zlib
from dataclasses import replace

import numpy as np

from omniclone.bench import BenchReport, StratumRow
from omniclone.errors import InputError
from omniclone.kinematics import (
    GRAVITY,
    RigidPose,
    key_body_poses,
    model_to_dict,
    to_base_point,
    to_base_quat,
    to_base_vector,
)
from omniclone.motion import BENCH_STRATA, COLUMNS, Frame, MotionClip, clip_to_dict
from omniclone.rotations import IDENTITY_QUAT, quat_from_axis_angle, quat_mul, quat_rotate
from omniclone.stream import PacketFrame, StreamPacket
from omniclone.stream.faults import DUPLICATE_DELAY_MS, REORDER_EXTRA_MS
from omniclone.synthetic import DEFAULT_ROOT_Z
from tables import DRConfig


# ---------------------------------------------------------------------------
# Forward kinematics via homogeneous matrices
# ---------------------------------------------------------------------------

def rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def quat_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def homogeneous(rot, trans):
    T = np.eye(4)
    T[:3, :3] = rot
    T[:3, 3] = trans
    return T


def matrix_fk(links, joint_pos, root_pos, root_quat):
    """links: sequence of (name, parent, offset_pos, offset_quat, axis, actuated).
    Returns {name: 4x4 world transform}. Parent entries must precede children."""
    world = {}
    joint_iter = 0
    for name, parent, offset_pos, offset_quat, axis, actuated in links:
        if parent is None:
            world[name] = homogeneous(quat_matrix(root_quat), root_pos)
            continue
        local = homogeneous(quat_matrix(offset_quat), offset_pos)
        if actuated:
            angle = joint_pos[joint_iter]
            joint_iter += 1
            local = local @ homogeneous(rodrigues(axis, angle), np.zeros(3))
        world[name] = world[parent] @ local
    return world


def matrix_to_quat(R):
    """Shepperd's method; returns (w, x, y, z) with w >= 0."""
    m = np.asarray(R, dtype=float)
    tr = np.trace(m)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def links_from_model(model):
    """Extract the oracle's link tuples from a HumanoidModel."""
    return [
        (
            l.name,
            l.parent,
            np.asarray(l.offset_pos, dtype=float),
            np.asarray(l.offset_quat, dtype=float),
            np.asarray(l.axis, dtype=float),
            l.actuated,
        )
        for l in model.links
    ]


def per_link_fk(model, joint_pos, root_pos, root_quat):
    """Link-by-link FK walk in link order: (..., L, 3), (..., L, 4).

    The package's FK walks the links with Python floats for one
    configuration, and for a batch goes one tree depth at a time on
    component-major (3, L, B) and (4, L, B) arrays, writing each product
    as sums of permuted, signed terms. Both keep the arithmetic per link of
    this walk, so all three must agree bit for bit.
    """
    joint_pos = np.asarray(joint_pos, dtype=float)
    batch = joint_pos.shape[:-1]
    L = len(model.links)
    pos = np.empty(batch + (L, 3))
    quat = np.empty(batch + (L, 4))
    for i in range(L):
        parent = model.parent_index[i]
        if parent == -1:
            pos[..., i, :] = root_pos
            quat[..., i, :] = root_quat
            continue
        p_pos = pos[..., parent, :]
        p_quat = quat[..., parent, :]
        pos[..., i, :] = p_pos + quat_rotate(p_quat, model.offsets_pos[i])
        frame = quat_mul(p_quat, model.offsets_quat[i])
        j = model.joint_index[i]
        if j >= 0:
            jq = quat_from_axis_angle(model.axes[i], joint_pos[..., j])
            frame = quat_mul(frame, jq)
        quat[..., i, :] = frame
    return pos, quat


def teacher_obs_length(model):
    n, k = model.n_joints, model.n_key_bodies
    return 2 * n + 13 * k + 3 + 3 + n + 2 * n + 7 * k


def per_field_dr(rng, r):
    """Domain-randomization sample from the ranges r, with one scalar draw
    per field, in table order."""
    u = lambda band: float(rng.uniform(*band))
    return DRConfig(
        action_delay_s=u(r.action_delay_s),
        action_noise_rad=u(r.action_noise_rad),
        link_mass_scale={label: u(r.link_mass_scale) for label in r.mass_links},
        torso_com_offset_m=(u(r.torso_com_x_m), u(r.torso_com_yz_m), u(r.torso_com_yz_m)),
        torque_rfi_fraction=r.torque_rfi_fraction,
        static_friction={label: u(r.friction) for label in r.friction_joints},
        dynamic_friction={label: u(r.friction) for label in r.friction_joints},
        stiffness_scale=u(r.stiffness_scale),
        damping_scale=u(r.damping_scale),
        armature_scale=u(r.armature_scale),
    )


# ---------------------------------------------------------------------------
# Quaternion products through numpy's own cross product and stacking
# ---------------------------------------------------------------------------

def cross_quat_rotate(q, v):
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = q[..., :1]
    u = q[..., 1:]
    cross = np.cross(u, v)
    return v + 2.0 * (w * cross + np.cross(u, cross))


def stack_quat_mul(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# The teleop tick's observation and retarget, block by block and marker by marker
# ---------------------------------------------------------------------------

def student_obs_blocks(state, ref_window, model, future_window):
    """build_student_obs as one transform and one concatenated block per
    layout entry; the fused build_student_obs must match its values and layout."""
    if len(ref_window) != future_window:
        raise InputError(f"reference window has {len(ref_window)} frames, expected {future_window}")
    root = state.root
    blocks = [
        ("joint_pos", state.joint_pos),
        ("gravity", to_base_vector(root, GRAVITY)),
        ("root_ang_vel", state.root_ang_vel),
        ("last_action", state.last_action),
    ]
    for i, ref in enumerate(ref_window):
        if ref.body_pos is not None and ref.body_quat is not None:
            body_pos, body_quat = ref.body_pos, ref.body_quat
        else:
            body_pos, body_quat = key_body_poses(
                model, ref.joint_pos, ref.root.position, ref.root.orientation
            )
        blocks.append((f"ref{i}_body_pos", to_base_point(root, body_pos)))
        blocks.append((f"ref{i}_body_quat", to_base_quat(root, body_quat)))
        blocks.append((f"ref{i}_root_lin_vel", to_base_vector(root, ref.root_lin_vel)))
    layout, parts, offset = [], [], 0
    for name, arr in blocks:
        flat = np.asarray(arr, dtype=float).ravel()
        layout.append((name, offset, flat.size))
        parts.append(flat)
        offset += flat.size
    return np.concatenate(parts), tuple(layout)


def retarget_frame_per_marker(raw, cal, model, previous=None):
    """retarget_frame writing one key-body row per mapped marker; the
    vectorised version must return the same frame and held flag."""
    s = cal.scale
    origin = np.asarray(cal.session_origin)
    slot = {body: i for i, body in enumerate(model.key_bodies)}
    body_pos = np.zeros((len(slot), 3))
    body_quat = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (len(slot), 1))
    for marker, body in cal.key_body_mapping.items():
        if marker not in raw.markers:
            if previous is None:
                raise InputError(f"marker {marker!r} missing and no previous frame to hold")
            return replace(previous, t=raw.t), True
        body_pos[slot[body]] = s * (raw.markers[marker] - origin)
        if marker in raw.marker_quats:
            body_quat[slot[body]] = raw.marker_quats[marker]
    frame = Frame(
        t=raw.t,
        root=RigidPose(s * (raw.root.position - origin), raw.root.orientation),
        root_lin_vel=s * raw.root_lin_vel if raw.root_lin_vel is not None else np.zeros(3),
        root_ang_vel=raw.root_ang_vel if raw.root_ang_vel is not None else np.zeros(3),
        joint_pos=np.asarray(
            raw.joint_pos if raw.joint_pos is not None else np.zeros(model.n_joints), dtype=float
        ),
        body_pos=body_pos,
        body_quat=body_quat,
    )
    return frame, False


# ---------------------------------------------------------------------------
# Clip documents in the row layout
# ---------------------------------------------------------------------------

def rows_clip_doc(clip):
    """The clip's file document in the row layout of older clip files: one
    object per frame, under "frames", holding each present field as decimal
    numbers."""
    columns = {
        key: getattr(clip, key).tolist() for key in COLUMNS if getattr(clip, key) is not None
    }
    return {
        "header": clip_to_dict(clip)["header"],
        "frames": [dict(zip(columns, row)) for row in zip(*columns.values())],
    }


# ---------------------------------------------------------------------------
# Writers and helpers that only tests use
# ---------------------------------------------------------------------------

def identity_pose():
    return RigidPose(np.zeros(3), IDENTITY_QUAT.copy())


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    return q / norm


def quat_distance(a, b):
    """Sign-agnostic component distance min(|a-b|, |a+b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.minimum(
        np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1)
    )


def sine_joint_clip(
    model,
    joint=0,
    amplitude=1.0,
    frequency_hz=1.0,
    n_frames=90,
    fps=30.0,
    name="sine",
    with_joint_vel=True,
):
    """One joint follows amplitude * sin(2 pi f t); everything else static."""
    n = model.n_joints
    omega = 2.0 * np.pi * frequency_hz
    t = np.arange(n_frames) / fps
    joint_pos = np.zeros((n_frames, n))
    joint_pos[:, joint] = amplitude * np.sin(omega * t)
    joint_vel = None
    if with_joint_vel:
        joint_vel = np.zeros((n_frames, n))
        joint_vel[:, joint] = amplitude * omega * np.cos(omega * t)
    return MotionClip.from_arrays(
        name,
        fps,
        "other",
        "none",
        dof_names=model.joint_names,
        key_bodies=model.key_bodies,
        t=t,
        root_pos=np.tile([0.0, 0.0, DEFAULT_ROOT_Z], (n_frames, 1)),
        root_quat=np.tile(IDENTITY_QUAT, (n_frames, 1)),
        root_lin_vel=np.zeros((n_frames, 3)),
        root_ang_vel=np.zeros((n_frames, 3)),
        joint_pos=joint_pos,
        joint_vel=joint_vel,
    )


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def subject_frame_to_dict(frame):
    doc = {
        "t": frame.t,
        "root_pos": frame.root.position.tolist(),
        "root_quat": frame.root.orientation.tolist(),
        "markers": {k: v.tolist() for k, v in frame.markers.items()},
    }
    if frame.marker_quats:
        doc["marker_quats"] = {k: v.tolist() for k, v in frame.marker_quats.items()}
    for key in ("root_lin_vel", "root_ang_vel", "joint_pos"):
        val = getattr(frame, key)
        if val is not None:
            doc[key] = np.asarray(val).tolist()
    return doc


def save_subject_stream(frames, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"frames": [subject_frame_to_dict(f) for f in frames]}, fh, indent=1)
        fh.write("\n")


def save_mapping(mapping, path):
    with open(path, "w", encoding="utf-8") as fh:
        for marker, body in mapping.items():
            fh.write(f"{marker} {body}\n")


def save_chunks(chunks, path):
    doc = {"chunks": [np.asarray(c.actions).tolist() for c in chunks]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def parse_report_csv(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "category,level,sr_percent,mpjpe_mm":
        raise InputError("unexpected report csv header")
    rows = []
    for ln in lines[1:]:
        cat, lvl, sr, mp = ln.split(",")
        rows.append(
            StratumRow(
                category=cat,
                level=lvl,
                sr_percent=float(sr),
                mpjpe_mm=float(mp) if mp else None,
            )
        )
    covered = {(r.category, r.level) for r in rows}
    return BenchReport(
        rows=tuple(rows), partial=any(s not in covered for s in BENCH_STRATA)
    )


def packets_equal(a, b):
    if (
        a.msg_type != b.msg_type
        or a.seq != b.seq
        or a.send_ts_us != b.send_ts_us
        or a.flags != b.flags
        or a.n_bodies != b.n_bodies
        or a.n_joints != b.n_joints
        or len(a.frames) != len(b.frames)
    ):
        return False
    for fa, fb in zip(a.frames, b.frames):
        if not (
            np.array_equal(fa.root_lin_vel, fb.root_lin_vel)
            and np.array_equal(fa.body_pos, fb.body_pos)
            and np.array_equal(fa.body_quat, fb.body_quat)
            and np.array_equal(fa.joint_pos, fb.joint_pos)
        ):
            return False
    return True


def decoded_frames_canonical(packet):
    """Whether every frame array of a decoded packet is float32, C-contiguous
    and of PacketFrame's shapes, and the packet equals one rebuilt through
    the checking PacketFrame and StreamPacket constructors."""
    k, n = packet.n_bodies, packet.n_joints
    shapes = {"root_lin_vel": (3,), "body_pos": (k, 3), "body_quat": (k, 4), "joint_pos": (n,)}
    for f in packet.frames:
        for name, shape in shapes.items():
            arr = getattr(f, name)
            if arr.dtype != np.float32 or not arr.flags["C_CONTIGUOUS"] or arr.shape != shape:
                return False
    rebuilt = StreamPacket(
        packet.msg_type, packet.seq, packet.send_ts_us,
        tuple(PacketFrame(f.root_lin_vel, f.body_pos, f.body_quat, f.joint_pos) for f in packet.frames),
        packet.flags, packet.n_bodies, packet.n_joints,
    )
    return packets_equal(packet, rebuilt)


# ---------------------------------------------------------------------------
# Fault model, one generator call per draw
# ---------------------------------------------------------------------------

def per_packet_fault_schedule(n_packets, producer_hz, fault, seed):
    """fault_schedule's (arrivals, delivered, dropped) with each packet's
    fate drawn by scalar `Generator.random` and `Generator.uniform` calls,
    in the wire order drop, jitter, reorder, duplicate."""
    rng = np.random.default_rng(seed)
    arrivals = []
    order = dropped = 0
    for i in range(n_packets):
        t_send = i / producer_hz
        if rng.random() < fault.drop_prob:
            dropped += 1
            continue
        lo, hi = fault.jitter_ms
        delay_ms = float(rng.uniform(lo, hi))
        if rng.random() < fault.reorder_prob:
            delay_ms += REORDER_EXTRA_MS
        delays = [delay_ms / 1000.0]
        if rng.random() < fault.duplicate_prob:
            delays.append((delay_ms + DUPLICATE_DELAY_MS) / 1000.0)
        for delay in delays:
            arrivals.append((t_send + delay, order, i + 1))
            order += 1
    arrivals.sort()
    return arrivals, order, dropped


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def sorted_percentile(values, p):
    """Closest-ranks linear interpolation, spelled out index by index."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    h = (p / 100.0) * (n - 1)
    lo = int(h)
    frac = h - lo
    if lo + 1 >= n:
        return xs[-1]
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def sorted_mean(values):
    """Exactly rounded mean over the sorted sample."""
    xs = sorted(float(v) for v in values)
    return math.fsum(xs) / len(xs)


def double_loop_mpjpe(pred, ref):
    total = 0.0
    count = 0
    for t in range(len(pred)):
        for k in range(len(pred[t])):
            d = 0.0
            for c in range(3):
                d += (pred[t][k][c] - ref[t][k][c]) ** 2
            total += d**0.5
            count += 1
    return 1000.0 * total / count


def first_failure_loop(pred_bodies, ref_bodies, pred_roots, ref_roots, deviation_m, fall_z_m, drift_m):
    """Frame-by-frame scan: (index, reason) of the first failed frame, or None."""
    for t in range(len(pred_roots)):
        for k in range(len(pred_bodies[t])):
            if math.dist(pred_bodies[t][k], ref_bodies[t][k]) > deviation_m:
                return t, "deviation"
        if pred_roots[t][2] < fall_z_m and ref_roots[t][2] >= fall_z_m + 0.1:
            return t, "fall"
        if math.dist(pred_roots[t][:2], ref_roots[t][:2]) > drift_m:
            return t, "deviation"
    return None


# ---------------------------------------------------------------------------
# Wire protocol reference encoder
# ---------------------------------------------------------------------------

def reference_encode(msg_type, flags, seq, send_ts_us, frames):
    """frames: list of dicts {root_lin_vel, bodies: [(pos, quat)...], joint_pos}."""
    if frames:
        k = len(frames[0]["bodies"])
        n = len(frames[0]["joint_pos"])
    else:
        k = n = 0
    out = b"OCL1"
    out += struct.pack("<B", 1)
    out += struct.pack("<B", msg_type)
    out += struct.pack("<H", flags)
    out += struct.pack("<I", seq)
    out += struct.pack("<Q", send_ts_us)
    out += struct.pack("<H", len(frames))
    out += struct.pack("<H", k)
    out += struct.pack("<H", n)
    for f in frames:
        for v in f["root_lin_vel"]:
            out += struct.pack("<f", v)
        for pos, quat in f["bodies"]:
            for v in pos:
                out += struct.pack("<f", v)
            for v in quat:
                out += struct.pack("<f", v)
        for v in f["joint_pos"]:
            out += struct.pack("<f", v)
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    return out


# ---------------------------------------------------------------------------
# Jitter-buffer / zero-order-hold simulation
# ---------------------------------------------------------------------------

def hold_pipeline_oracle(arrivals, consumer_hz, capacity, n_ticks):
    """Naive list-based re-simulation of the buffered hold pipeline.

    arrivals: sorted list of (time, order, seq). The consumer's first tick
    is at the first arrival time; arrivals at a tick instant land before
    the tick. Returns (tick, seq, held) triples.
    """
    if not arrivals:
        return []
    pending = []  # seqs currently buffered
    last = None
    trace = []
    cursor = 0
    t0 = arrivals[0][0]
    for j in range(n_ticks):
        t_tick = t0 + j / consumer_hz
        while cursor < len(arrivals) and arrivals[cursor][0] <= t_tick:
            seq = arrivals[cursor][2]
            cursor += 1
            if last is not None and seq <= last:
                continue
            if seq in pending:
                continue
            pending.append(seq)
            pending.sort()
            if len(pending) > capacity:
                pending.pop(0)
        if pending:
            seq = pending.pop(0)
            last = seq
            trace.append((j, seq, False))
        else:
            trace.append((j, last, True))
    return trace


# ---------------------------------------------------------------------------
# Receding-horizon schedule
# ---------------------------------------------------------------------------

def chunk_schedule_oracle(ticks, execute_len):
    """(planner call ticks, [(chunk_number, step_index)] per tick)."""
    calls = []
    served = []
    chunk = -1
    for t in range(ticks):
        if t % execute_len == 0:
            calls.append(t)
            chunk += 1
        served.append((chunk, t % execute_len))
    return calls, served
