"""Policy-side machinery without the learned network: the robot state,
the teacher and student observation builders and the deterministic oracle
trackers that stand in for the policy.

Every observed quantity is expressed in the robot's local base frame, so
observation vectors are invariant to planar translations and yaw applied
jointly to state and reference.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError
from .kinematics import (
    GRAVITY,
    HumanoidModel,
    RigidPose,
    key_body_poses,
    to_base_point,
    to_base_quat,
    to_base_vector,
)
from .motion import COLUMNS, Frame, MotionClip, finite_difference
from .rotations import quat_canonical, quat_conjugate, quat_mul, quat_rotate
from .stream.jitter import DEFAULT_WINDOW

# pd integrator steps per clip frame. A step costs under 10 µs, so the cap
# keeps a frame's integration near 10 ms at worst while a 1 ms step still fits
# a 1 fps clip; without it an accepted but tiny dt stalls bench run for hours.
MAX_PD_STEPS_PER_FRAME = 1000


# ---------------------------------------------------------------------------
# Robot state
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RobotState:
    """Proprioceptive snapshot. root_ang_vel is base-frame; body poses and
    velocities are world-frame per key body.

    As on a Frame, the key-body poses are optional: body_pos and body_quat
    are both given or both None. A reader that needs them takes them through
    _frame_key_bodies, which derives them from the state's own joints at its
    root. body_lin_vel and body_ang_vel are always given.

    The constructor checks nothing: state_from_frame, the one builder,
    checks what it takes, and the observation builders check the state's
    counts against the model.
    """

    root: RigidPose
    root_ang_vel: np.ndarray  # (3,) base frame
    joint_pos: np.ndarray  # (n,)
    joint_vel: np.ndarray  # (n,)
    body_pos: np.ndarray | None  # (K, 3)
    body_quat: np.ndarray | None  # (K, 4)
    body_lin_vel: np.ndarray  # (K, 3)
    body_ang_vel: np.ndarray  # (K, 3)
    last_action: np.ndarray  # (n,)

    @property
    def n_joints(self) -> int:
        return self.joint_pos.shape[0]

    @property
    def n_bodies(self) -> int:
        return self.body_lin_vel.shape[0]


def _frame_key_bodies(
    frame: Frame | RobotState, model: HumanoidModel
) -> tuple[np.ndarray, np.ndarray]:
    """Key-body positions and orientations a frame or state carries, else
    key_body_poses of its joints at its root."""
    if frame.body_pos is not None:
        return frame.body_pos, frame.body_quat
    return key_body_poses(model, frame.joint_pos, frame.root.position, frame.root.orientation)


def state_from_frame(
    frame: Frame,
    model: HumanoidModel,
    last_action: np.ndarray | None = None,
) -> RobotState:
    """Robot state that exactly realizes the given reference frame.

    Runs no FK. The state carries the frame's key-body group if the frame
    carries one; missing joint and body velocities are zero, for the
    frame's key bodies or else the model's. The frame's arrays were checked
    when it was built, its body group all or none, so only the joint count
    and last_action (default: the frame's joints) are checked here. The
    root angular velocity goes into the base frame by quat_rotate's path
    for one vector, on Python floats.
    """
    n = model.n_joints
    if frame.joint_pos.shape[0] != n:
        raise InputError(f"joint_pos: expected {n} joints, got {frame.joint_pos.shape[0]}")
    if last_action is None:
        last_action = frame.joint_pos.copy()
    else:
        last_action = np.asarray(last_action, dtype=float)
        if last_action.shape != (n,):
            raise InputError(f"last_action: expected shape {(n,)}, got {last_action.shape}")
    k = model.n_key_bodies if frame.body_pos is None else frame.body_pos.shape[0]
    return RobotState(
        root=frame.root,
        root_ang_vel=to_base_vector(frame.root, frame.root_ang_vel),
        joint_pos=frame.joint_pos,
        joint_vel=frame.joint_vel if frame.joint_vel is not None else np.zeros(n),
        body_pos=frame.body_pos,
        body_quat=frame.body_quat,
        body_lin_vel=np.zeros((k, 3)) if frame.body_lin_vel is None else frame.body_lin_vel,
        body_ang_vel=np.zeros((k, 3)) if frame.body_ang_vel is None else frame.body_ang_vel,
        last_action=last_action,
    )


# ---------------------------------------------------------------------------
# Observation builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ObservationVector:
    values: np.ndarray
    layout: tuple[tuple[str, int, int], ...]  # (name, offset, length)

    def __post_init__(self):
        total = sum(length for _, _, length in self.layout)
        if total != self.values.shape[0]:
            raise InputError(
                f"layout covers {total} values, vector has {self.values.shape[0]}"
            )

    def layout_csv(self) -> str:
        lines = ["name,offset,length"]
        for name, offset, length in self.layout:
            lines.append(f"{name},{offset},{length}")
        return "\n".join(lines) + "\n"


def _assemble(blocks: Sequence[tuple[str, np.ndarray]]) -> ObservationVector:
    layout = []
    parts = []
    offset = 0
    for name, arr in blocks:
        flat = np.asarray(arr, dtype=float).ravel()
        layout.append((name, offset, flat.size))
        parts.append(flat)
        offset += flat.size
    return ObservationVector(np.concatenate(parts), tuple(layout))


def build_teacher_obs(
    state: RobotState,
    ref: Frame,
    model: HumanoidModel,
) -> ObservationVector:
    """Privileged observation: full kinematic state plus one reference frame.

    Blocks, in order: joint positions/velocities; key-body positions,
    orientations, linear and angular velocities; gravity; root angular
    velocity; previous action; reference joint positions and velocities;
    reference key-body positions and orientations. World-frame quantities
    are transformed into the current base frame. The state's and the
    reference's key-body poses are the ones they carry, else FK of their
    joints at their root (_frame_key_bodies).
    """
    if state.n_joints != model.n_joints or state.n_bodies != model.n_key_bodies:
        raise InputError("state dimensions do not match the model")
    if ref.joint_pos.shape[0] != model.n_joints:
        raise InputError("reference joint count does not match the model")
    if ref.joint_vel is None:
        raise InputError("reference frame lacks joint velocities; derive them first")
    root = state.root
    body_pos, body_quat = _frame_key_bodies(state, model)
    ref_body_pos, ref_body_quat = _frame_key_bodies(ref, model)
    blocks = [
        ("joint_pos", state.joint_pos),
        ("joint_vel", state.joint_vel),
        ("body_pos", to_base_point(root, body_pos)),
        ("body_quat", to_base_quat(root, body_quat)),
        ("body_lin_vel", to_base_vector(root, state.body_lin_vel)),
        ("body_ang_vel", to_base_vector(root, state.body_ang_vel)),
        ("gravity", to_base_vector(root, GRAVITY)),
        ("root_ang_vel", state.root_ang_vel),
        ("last_action", state.last_action),
        ("ref_joint_pos", ref.joint_pos),
        ("ref_joint_vel", ref.joint_vel),
        ("ref_body_pos", to_base_point(root, ref_body_pos)),
        ("ref_body_quat", to_base_quat(root, ref_body_quat)),
    ]
    return _assemble(blocks)


@lru_cache(maxsize=32)
def _student_layout(n: int, k: int, f: int) -> tuple[tuple[str, int, int], ...]:
    """build_student_obs's layout for n joints, k key bodies and f frames."""
    layout = [("joint_pos", 0, n), ("gravity", n, 3), ("root_ang_vel", n + 3, 3), ("last_action", n + 6, n)]
    offset = 2 * n + 6
    for i in range(f):
        layout += [
            (f"ref{i}_body_pos", offset, 3 * k),
            (f"ref{i}_body_quat", offset + 3 * k, 4 * k),
            (f"ref{i}_root_lin_vel", offset + 7 * k, 3),
        ]
        offset += 7 * k + 3
    return tuple(layout)


def build_student_obs(
    state: RobotState,
    ref_window: Sequence[Frame],
    model: HumanoidModel,
    future_window: int = DEFAULT_WINDOW,
) -> ObservationVector:
    """Deployable observation: proprioception that is reliable on hardware
    plus a window of future reference commands.

    Reads the state's joints, root, root angular velocity, gravity and last
    action, never its key bodies, so a state without them costs no FK. Per
    window frame: key-body positions and orientations plus the root linear
    velocity, all in the current base frame; per-link angular velocities
    are deliberately excluded. The reference slice length is f * (7K + 3).
    """
    if state.n_joints != model.n_joints:
        raise InputError("state dimensions do not match the model")
    if len(ref_window) != future_window:
        raise InputError(
            f"reference window has {len(ref_window)} frames, expected {future_window}"
            " (pad upstream via zero-order hold, never here)"
        )
    n, k, f = model.n_joints, model.n_key_bodies, future_window
    key_bodies = [_frame_key_bodies(ref, model) for ref in ref_window]
    if any(pos.shape[0] != k for pos, _ in key_bodies):
        raise InputError(f"every reference frame must carry the model's {k} key bodies")
    root = state.root
    inv = quat_conjugate(root.orientation)
    # gravity, the window's key-body points relative to the root and its root
    # velocities go into the base frame in one rotation: (1 + f*K + f, 3)
    vectors = np.concatenate([
        GRAVITY[None],
        np.array([pos for pos, _ in key_bodies]).reshape(-1, 3) - root.position,
        np.array([ref.root_lin_vel for ref in ref_window]).reshape(-1, 3),
    ])
    rotated = quat_rotate(inv, vectors)
    quats = np.array([quat for _, quat in key_bodies]).reshape(-1, 4)
    values = np.empty(student_obs_length(model, f))
    values[:n] = state.joint_pos
    values[n : n + 3] = rotated[0]
    values[n + 3 : n + 6] = state.root_ang_vel
    values[n + 6 : 2 * n + 6] = state.last_action
    # one row of 7K + 3 values per window frame: body_pos, body_quat, root_lin_vel
    window = values[2 * n + 6 :].reshape(f, 7 * k + 3)
    window[:, : 3 * k] = rotated[1 : 1 + f * k].reshape(f, 3 * k)
    window[:, 3 * k : 7 * k] = quat_canonical(quat_mul(inv, quats)).reshape(f, 4 * k)
    window[:, 7 * k :] = rotated[1 + f * k :]
    return ObservationVector(values, _student_layout(n, k, f))


def student_obs_length(model: HumanoidModel, future_window: int = DEFAULT_WINDOW) -> int:
    n, k = model.n_joints, model.n_key_bodies
    return n + 3 + 3 + n + future_window * (7 * k + 3)


# ---------------------------------------------------------------------------
# Oracle trackers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrackerSpec:
    """Deterministic stand-in for the learned tracking policy, run by Tracker."""

    mode: str  # perfect | lag | noise | pd
    lag: int = 0
    noise_std: float = 0.0
    kp: float = 0.0
    kd: float = 0.0
    dt: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("perfect", "lag", "noise", "pd"):
            raise ConfigError(f"unknown tracker mode {self.mode!r}")
        if not all(math.isfinite(x) for x in (self.noise_std, self.kp, self.kd)):
            raise ConfigError("tracker noise std, kp and kd must be finite")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ConfigError(f"tracker dt must be positive and finite, got {self.dt}")
        if self.mode == "lag" and self.lag < 0:
            raise ConfigError("lag must be >= 0")
        if self.mode == "noise" and self.noise_std < 0:
            raise ConfigError("noise std must be >= 0")
        if self.mode == "pd" and self.kp <= 0:
            raise ConfigError("pd tracker requires kp > 0")


def parse_tracker(text: str) -> TrackerSpec:
    """Parse CLI tracker specs: perfect|oracle, lag:k, noise:sigma,
    pd:kp,kd[,dt]."""
    head, _, rest = text.partition(":")
    head = head.strip().lower()

    def number(field: str, kind=float):
        try:
            return kind(field)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"tracker {text!r}: {field!r} is not {what}") from None

    if head in ("perfect", "oracle"):
        return TrackerSpec(mode="perfect")
    if head == "lag":
        return TrackerSpec(mode="lag", lag=number(rest, int))
    if head == "noise":
        return TrackerSpec(mode="noise", noise_std=number(rest))
    if head == "pd":
        parts = [p for p in rest.split(",") if p]
        if len(parts) not in (2, 3):
            raise ConfigError("pd tracker spec is pd:kp,kd[,dt]")
        kp, kd = number(parts[0]), number(parts[1])
        dt = number(parts[2]) if len(parts) == 3 else None
        return TrackerSpec(mode="pd", kp=kp, kd=kd, dt=dt)
    raise ConfigError(f"unknown tracker {text!r}")


class Tracker:
    """An oracle tracker that realises target joints frame by frame,
    `frame_period` seconds apart: follow((T, n) targets) realises a block of
    frames in one call, and step(target) one frame. The state carries over
    from call to call, so following two blocks equals following their
    concatenation. noise adds one (n,) normal draw per frame; lag:k returns
    the target of k frames before, the first one until there are k; pd
    starts at rest on the first target, takes round(frame_period / dt)
    semi-implicit Euler steps a frame (at most MAX_PD_STEPS_PER_FRAME) and
    keeps its joint velocity in `v`."""

    def __init__(self, spec: TrackerSpec, frame_period: float):
        self.spec = spec
        self.v: np.ndarray | None = None
        self._q: np.ndarray | None = None
        self._history: deque[np.ndarray] = deque(maxlen=spec.lag + 1)  # lag:k returns the oldest
        self._rng = np.random.default_rng(spec.seed) if spec.mode == "noise" else None
        if spec.mode == "pd":
            self._dt = frame_period if spec.dt is None else spec.dt
            self._steps = max(1, round(frame_period / self._dt))
            if self._steps > MAX_PD_STEPS_PER_FRAME:
                raise ConfigError(
                    f"pd tracker dt {self._dt} takes {self._steps} steps per {round(1.0 / frame_period, 9)}"
                    f" fps frame; at most {MAX_PD_STEPS_PER_FRAME} are allowed"
                )

    def follow(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Realise (T, n) targets, one row per frame: the realised joints and,
        for pd, the integrator's joint velocity after each frame (else None)."""
        spec = self.spec
        joint_pos = np.empty(targets.shape)
        if spec.mode == "noise":
            normal, std = self._rng.normal, spec.noise_std
            for t, target in enumerate(targets):
                joint_pos[t] = target + normal(0.0, std, target.shape)
            return joint_pos, None
        if spec.mode == "pd":
            joint_vel = np.empty(targets.shape)
            if self.v is None and len(targets):
                self._q, self.v = targets[0].copy(), np.zeros(targets[0].shape)
            q, v, dt, kp, kd, steps = self._q, self.v, self._dt, spec.kp, spec.kd, range(self._steps)
            # v + dt * (kp * (target - q) - kd * v), then q + dt * v, one ufunc
            # at a time into scratch rows and the frame's output rows
            sub, mul, add = np.subtract, np.multiply, np.add
            e, w = np.empty(targets.shape[1:]), np.empty(targets.shape[1:])
            for target, q_out, v_out in zip(targets, joint_pos, joint_vel):
                for _ in steps:
                    sub(target, q, e)
                    mul(kp, e, e)
                    mul(kd, v, w)
                    sub(e, w, e)
                    mul(dt, e, e)
                    v = add(v, e, v_out)
                    mul(dt, v, e)
                    q = add(q, e, q_out)
            self._q, self.v = q, v
            return joint_pos, joint_vel
        history = self._history
        for t, target in enumerate(targets):
            history.append(target)
            joint_pos[t] = history[0]
        return joint_pos, None

    def step(self, target: np.ndarray) -> np.ndarray:
        """Realise one frame: row 0 of follow(target[None])."""
        return self.follow(target[None])[0][0]


def _track_joints(
    spec: TrackerSpec,
    clip: MotionClip,
    model: HumanoidModel,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """What noise and pd realise on the clip: a Tracker following its joints
    at its frame period, and the key bodies of the realised joints at the
    clip's roots from one key_body_poses call. Returns joint_pos, joint_vel
    (pd's integrator velocities, None for noise), body_pos and body_quat."""
    joint_pos, joint_vel = Tracker(spec, 1.0 / clip.fps).follow(clip.joint_pos)
    body_pos, body_quat = key_body_poses(model, joint_pos, clip.root_pos, clip.root_quat)
    return joint_pos, joint_vel, body_pos, body_quat


def track_clip(
    spec: TrackerSpec,
    clip: MotionClip,
    model: HumanoidModel,
) -> MotionClip:
    """The motion realised under the configured tracking behaviour, as a
    MotionClip on the clip's time grid with joint velocities and key bodies.

    A clip without joint velocities gets finite differences, and one without
    key bodies gets key_body_poses of its joints and the model's key-body
    names. perfect and lag:0 return the clip itself when it has both;
    lag:k replays whole frames max(0, t - k), root and bodies included;
    noise and pd realise the joints by _track_joints while the root is
    replayed kinematically, and pd's joint velocities are the integrator's.
    At most one clip is built, by one replace.
    """
    columns = {}
    if clip.joint_vel is None:
        columns["joint_vel"] = finite_difference(clip.joint_pos, clip.fps)
    if spec.mode in ("noise", "pd"):
        joint_pos, joint_vel, body_pos, body_quat = _track_joints(spec, clip, model)
        columns.update(joint_pos=joint_pos, body_pos=body_pos, body_quat=body_quat)
        if joint_vel is not None:
            columns["joint_vel"] = joint_vel
    elif clip.body_pos is None:
        columns["body_pos"], columns["body_quat"] = key_body_poses(
            model, clip.joint_pos, clip.root_pos, clip.root_quat
        )
    k = spec.lag if spec.mode == "lag" else 0
    if k:
        src = np.maximum(np.arange(len(clip.t)) - k, 0)
        full = {key: columns.get(key, getattr(clip, key)) for key in COLUMNS if key != "t"}
        columns = {key: column[src] for key, column in full.items() if column is not None}
    if not columns:  # the columns are read-only, so no copy is needed
        return clip
    if clip.body_pos is None:
        columns["key_bodies"] = model.key_bodies
    return clip.replace(**columns)
