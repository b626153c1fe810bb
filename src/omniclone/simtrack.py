"""Policy-side machinery without the learned network: observation builders,
reward evaluation, domain-randomization sampling, deterministic oracle
trackers, and the default system-configuration tables.

Every observed quantity is expressed in the robot's local base frame, so
observation vectors are invariant to planar translations and yaw applied
jointly to state and reference.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

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
from .motion import (
    COLUMNS,
    Frame,
    MotionClip,
    derive_body_kinematics,
    derive_joint_velocities,
)
from .rotations import quat_angle, quat_canonical, quat_conjugate, quat_mul, quat_rotate, quat_rotate_inverse

DEFAULT_FUTURE_WINDOW = 5  # f: queue depth and future-window length share one knob
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
    velocities are world-frame per key body."""

    root: RigidPose
    root_ang_vel: np.ndarray  # (3,) base frame
    joint_pos: np.ndarray  # (n,)
    joint_vel: np.ndarray  # (n,)
    body_pos: np.ndarray  # (K, 3)
    body_quat: np.ndarray  # (K, 4)
    body_lin_vel: np.ndarray  # (K, 3)
    body_ang_vel: np.ndarray  # (K, 3)
    last_action: np.ndarray  # (n,)
    gravity_world: np.ndarray = field(default_factory=lambda: GRAVITY.copy())
    joint_acc: np.ndarray | None = None  # (n,), zeros when unavailable

    def __post_init__(self):
        n = self.joint_pos.shape[0]
        k = self.body_pos.shape[0]
        checks = {
            "root_ang_vel": ((3,), self.root_ang_vel),
            "joint_pos": ((n,), self.joint_pos),
            "joint_vel": ((n,), self.joint_vel),
            "body_pos": ((k, 3), self.body_pos),
            "body_quat": ((k, 4), self.body_quat),
            "body_lin_vel": ((k, 3), self.body_lin_vel),
            "body_ang_vel": ((k, 3), self.body_ang_vel),
            "last_action": ((n,), self.last_action),
            "gravity_world": ((3,), self.gravity_world),
        }
        for name, (shape, val) in checks.items():
            arr = np.asarray(val, dtype=float)
            if arr.shape != shape:
                raise InputError(f"{name}: expected shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        if self.joint_acc is None:
            object.__setattr__(self, "joint_acc", np.zeros(n))
        else:
            acc = np.asarray(self.joint_acc, dtype=float)
            if acc.shape != (n,):
                raise InputError(f"joint_acc: expected shape ({n},), got {acc.shape}")
            object.__setattr__(self, "joint_acc", acc)

    @property
    def n_joints(self) -> int:
        return self.joint_pos.shape[0]

    @property
    def n_bodies(self) -> int:
        return self.body_pos.shape[0]


def _frame_key_bodies(frame: Frame, model: HumanoidModel) -> tuple[np.ndarray, np.ndarray]:
    """Key-body positions and orientations the frame carries, else FK of its joints."""
    if frame.body_pos is not None and frame.body_quat is not None:
        return frame.body_pos, frame.body_quat
    return key_body_poses(model, frame.joint_pos, frame.root.position, frame.root.orientation)


def state_from_frame(
    frame: Frame,
    model: HumanoidModel,
    last_action: np.ndarray | None = None,
) -> RobotState:
    """Robot state that exactly realizes the given reference frame."""
    joint_vel = frame.joint_vel if frame.joint_vel is not None else np.zeros(model.n_joints)
    body_pos, body_quat = _frame_key_bodies(frame, model)
    k = body_pos.shape[0]
    body_lin = frame.body_lin_vel if frame.body_lin_vel is not None else np.zeros((k, 3))
    body_ang = frame.body_ang_vel if frame.body_ang_vel is not None else np.zeros((k, 3))
    return RobotState(
        root=frame.root,
        root_ang_vel=to_base_vector(frame.root, frame.root_ang_vel),
        joint_pos=frame.joint_pos,
        joint_vel=joint_vel,
        body_pos=body_pos,
        body_quat=body_quat,
        body_lin_vel=body_lin,
        body_ang_vel=body_ang,
        last_action=frame.joint_pos.copy() if last_action is None else last_action,
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

    def slice(self, name: str) -> np.ndarray:
        for entry, offset, length in self.layout:
            if entry == name:
                return self.values[offset : offset + length]
        raise KeyError(name)

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
    include_ref_joint_vel: bool = True,
) -> ObservationVector:
    """Privileged observation: full kinematic state plus one reference frame.

    Blocks, in order: joint positions/velocities; key-body positions,
    orientations, linear and angular velocities; gravity; root angular
    velocity; previous action; reference joint positions (and velocities);
    reference key-body positions and orientations. World-frame quantities
    are transformed into the current base frame.
    """
    if state.n_joints != model.n_joints or state.n_bodies != model.n_key_bodies:
        raise InputError("state dimensions do not match the model")
    if ref.joint_pos.shape[0] != model.n_joints:
        raise InputError("reference joint count does not match the model")
    root = state.root
    ref_body_pos, ref_body_quat = _frame_key_bodies(ref, model)
    blocks = [
        ("joint_pos", state.joint_pos),
        ("joint_vel", state.joint_vel),
        ("body_pos", to_base_point(root, state.body_pos)),
        ("body_quat", to_base_quat(root, state.body_quat)),
        ("body_lin_vel", to_base_vector(root, state.body_lin_vel)),
        ("body_ang_vel", to_base_vector(root, state.body_ang_vel)),
        ("gravity", to_base_vector(root, state.gravity_world)),
        ("root_ang_vel", state.root_ang_vel),
        ("last_action", state.last_action),
        ("ref_joint_pos", ref.joint_pos),
    ]
    if include_ref_joint_vel:
        if ref.joint_vel is None:
            raise InputError(
                "reference frame lacks joint velocities; derive them or disable include_ref_joint_vel"
            )
        blocks.append(("ref_joint_vel", ref.joint_vel))
    blocks.append(("ref_body_pos", to_base_point(root, ref_body_pos)))
    blocks.append(("ref_body_quat", to_base_quat(root, ref_body_quat)))
    return _assemble(blocks)


def build_student_obs(
    state: RobotState,
    ref_window: Sequence[Frame],
    model: HumanoidModel,
    future_window: int = DEFAULT_FUTURE_WINDOW,
) -> ObservationVector:
    """Deployable observation: proprioception that is reliable on hardware
    plus a window of future reference commands.

    Per window frame: key-body positions and orientations plus the root
    linear velocity, all in the current base frame; per-link angular
    velocities are deliberately excluded. The reference slice length is
    f * (7K + 3).
    """
    if state.n_joints != model.n_joints or state.n_bodies != model.n_key_bodies:
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
        state.gravity_world[None],
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
    layout = [("joint_pos", 0, n), ("gravity", n, 3), ("root_ang_vel", n + 3, 3), ("last_action", n + 6, n)]
    offset = 2 * n + 6
    for i in range(f):
        layout += [
            (f"ref{i}_body_pos", offset, 3 * k),
            (f"ref{i}_body_quat", offset + 3 * k, 4 * k),
            (f"ref{i}_root_lin_vel", offset + 7 * k, 3),
        ]
        offset += 7 * k + 3
    return ObservationVector(values, tuple(layout))


def teacher_obs_length(model: HumanoidModel) -> int:
    n, k = model.n_joints, model.n_key_bodies
    return 2 * n + 13 * k + 3 + 3 + n + 2 * n + 7 * k


def student_obs_length(model: HumanoidModel, future_window: int = DEFAULT_FUTURE_WINDOW) -> int:
    n, k = model.n_joints, model.n_key_bodies
    return n + 3 + 3 + n + future_window * (7 * k + 3)


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

TRACKING_TERMS = (
    "torso_global_pos",
    "torso_global_rot",
    "fullbody_global_lin_vel",
    "fullbody_global_ang_vel",
    "fullbody_relative_pos",
    "fullbody_relative_rot",
    "ee_relative_pos",
    "ee_relative_rot",
    "ee_relative_lin_vel",
    "ee_relative_ang_vel",
)

PENALTY_TERMS = (
    "action_rate",
    "contact_air_time",
    "joint_acceleration",
    "joint_position_limits",
    "velocity_action_limits",
)

DEFAULT_REWARD_WEIGHTS: dict[str, float] = {
    "action_rate": -8.0,
    "contact_air_time": -100.0,
    "joint_acceleration": -1.0e-7,
    "joint_position_limits": -10.0,
    "velocity_action_limits": -1.0,
    "torso_global_pos": 0.5,
    "torso_global_rot": 0.5,
    "fullbody_global_lin_vel": 1.0,
    "fullbody_global_ang_vel": 1.0,
    "fullbody_relative_pos": 1.0,
    "fullbody_relative_rot": 1.0,
    "ee_relative_pos": 0.5,
    "ee_relative_rot": 0.5,
    "ee_relative_lin_vel": 0.5,
    "ee_relative_ang_vel": 0.5,
}

DEFAULT_END_EFFECTORS = (
    "left_wrist_yaw_link",
    "right_wrist_yaw_link",
    "left_ankle_roll_link",
    "right_ankle_roll_link",
)

DEFAULT_FEET = ("left_ankle_roll_link", "right_ankle_roll_link")


@dataclass(frozen=True)
class RewardConfig:
    """Weights and kernel widths; defaults reproduce the shipped tables.

    Tracking terms score w * exp(-sigma * e^2); grouped table rows apply
    their weight to each listed sub-term. Contact air time is approximated
    by a foot-height disagreement indicator (no contact simulation here).
    """

    weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_REWARD_WEIGHTS)
    )
    sigmas: Mapping[str, float] = field(
        default_factory=lambda: {term: 1.0 for term in TRACKING_TERMS}
    )
    joint_vel_limit: float = 20.0
    air_time_height_tol: float = 0.1
    torso_body: str = "torso"
    end_effectors: tuple[str, ...] = DEFAULT_END_EFFECTORS
    feet: tuple[str, ...] = DEFAULT_FEET

    def __post_init__(self):
        unknown = set(self.weights) - set(TRACKING_TERMS) - set(PENALTY_TERMS)
        if unknown:
            raise ConfigError(f"unknown reward terms: {sorted(unknown)}")
        for term in TRACKING_TERMS + PENALTY_TERMS:
            if term not in self.weights:
                raise ConfigError(f"missing weight for reward term {term!r}")


@dataclass(frozen=True)
class RewardResult:
    total: float
    terms: Mapping[str, float]


def _overshoot(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.sum(np.maximum(0.0, values - hi) + np.maximum(0.0, lo - values)))


def reward(
    state: RobotState,
    ref: Frame,
    action: np.ndarray,
    prev_action: np.ndarray,
    model: HumanoidModel,
    config: RewardConfig | None = None,
) -> RewardResult:
    """Weighted sum of exponential tracking kernels and penalties.

    Reference body velocities default to zero when the frame does not
    carry them, so a static reference scores exactly against a static
    state.
    """
    if config is None:
        config = RewardConfig()
    action = np.asarray(action, dtype=float)
    prev_action = np.asarray(prev_action, dtype=float)
    n = model.n_joints
    if action.shape != (n,) or prev_action.shape != (n,):
        raise InputError("action vectors must have one entry per joint")
    slots = {body: i for i, body in enumerate(model.key_bodies)}
    try:
        torso = slots[config.torso_body]
    except KeyError:
        raise ConfigError(f"torso body {config.torso_body!r} is not a key body") from None
    unknown_ee = [b for b in config.end_effectors if b not in slots]
    if unknown_ee:
        raise ConfigError(f"unknown end-effector names: {unknown_ee}")
    unknown_feet = [b for b in config.feet if b not in slots]
    if unknown_feet:
        raise ConfigError(f"unknown foot names: {unknown_feet}")
    ee = np.array([slots[b] for b in config.end_effectors])
    feet = np.array([slots[b] for b in config.feet])

    ref_body_pos, ref_body_quat = _frame_key_bodies(ref, model)
    k = model.n_key_bodies
    ref_body_lin = ref.body_lin_vel if ref.body_lin_vel is not None else np.zeros((k, 3))
    ref_body_ang = ref.body_ang_vel if ref.body_ang_vel is not None else np.zeros((k, 3))

    root, ref_root = state.root, ref.root
    local_pos = to_base_point(root, state.body_pos)
    local_ref_pos = to_base_point(ref_root, ref_body_pos)
    rel_rot_err = quat_angle(
        quat_mul(quat_conjugate(root.orientation), state.body_quat),
        quat_mul(quat_conjugate(ref_root.orientation), ref_body_quat),
    )
    local_lin = quat_rotate_inverse(root.orientation, state.body_lin_vel)
    local_ref_lin = quat_rotate_inverse(ref_root.orientation, ref_body_lin)
    local_ang = quat_rotate_inverse(root.orientation, state.body_ang_vel)
    local_ref_ang = quat_rotate_inverse(ref_root.orientation, ref_body_ang)

    errors2 = {
        "torso_global_pos": float(
            np.sum((state.body_pos[torso] - ref_body_pos[torso]) ** 2)
        ),
        "torso_global_rot": float(
            quat_angle(state.body_quat[torso], ref_body_quat[torso]) ** 2
        ),
        "fullbody_global_lin_vel": float(
            np.mean(np.sum((state.body_lin_vel - ref_body_lin) ** 2, axis=1))
        ),
        "fullbody_global_ang_vel": float(
            np.mean(np.sum((state.body_ang_vel - ref_body_ang) ** 2, axis=1))
        ),
        "fullbody_relative_pos": float(
            np.mean(np.sum((local_pos - local_ref_pos) ** 2, axis=1))
        ),
        "fullbody_relative_rot": float(np.mean(rel_rot_err**2)),
        "ee_relative_pos": float(
            np.mean(np.sum((local_pos[ee] - local_ref_pos[ee]) ** 2, axis=1))
        ),
        "ee_relative_rot": float(np.mean(rel_rot_err[ee] ** 2)),
        "ee_relative_lin_vel": float(
            np.mean(np.sum((local_lin[ee] - local_ref_lin[ee]) ** 2, axis=1))
        ),
        "ee_relative_ang_vel": float(
            np.mean(np.sum((local_ang[ee] - local_ref_ang[ee]) ** 2, axis=1))
        ),
    }

    lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
    air_violation = float(
        np.any(
            np.abs(state.body_pos[feet, 2] - ref_body_pos[feet, 2])
            > config.air_time_height_tol
        )
    )
    magnitudes = {
        "action_rate": float(np.sum((action - prev_action) ** 2)),
        "joint_acceleration": float(np.sum(state.joint_acc**2)),
        "joint_position_limits": _overshoot(state.joint_pos, lo, hi),
        "velocity_action_limits": float(
            np.sum(np.maximum(0.0, np.abs(state.joint_vel) - config.joint_vel_limit))
        )
        + _overshoot(action, lo, hi),
        "contact_air_time": air_violation,
    }

    terms: dict[str, float] = {}
    for term in TRACKING_TERMS:
        terms[term] = config.weights[term] * float(
            np.exp(-config.sigmas[term] * errors2[term])
        )
    for term in PENALTY_TERMS:
        terms[term] = config.weights[term] * magnitudes[term]
    return RewardResult(total=float(sum(terms.values())), terms=terms)


# ---------------------------------------------------------------------------
# Domain randomization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DRRanges:
    """Sampling ranges; defaults reproduce the shipped randomization table."""

    action_delay_s: tuple[float, float] = (0.0, 0.02)
    action_noise_rad: tuple[float, float] = (0.0, 0.02)
    link_mass_scale: tuple[float, float] = (0.9, 1.1)
    mass_links: tuple[str, ...] = ("torso", "shoulder_yaw")
    torso_com_x_m: tuple[float, float] = (-0.075, 0.075)
    torso_com_yz_m: tuple[float, float] = (-0.1, 0.1)
    torque_rfi_fraction: float = 0.02
    friction: tuple[float, float] = (0.3, 2.0)
    friction_joints: tuple[str, ...] = ("ankle_roll", "pelvis", "hip_roll", "knee", "elbow")
    stiffness_scale: tuple[float, float] = (0.95, 1.05)
    damping_scale: tuple[float, float] = (0.95, 1.05)
    armature_scale: tuple[float, float] = (0.995, 1.015)


@dataclass(frozen=True)
class DRConfig:
    action_delay_s: float
    action_noise_rad: float
    link_mass_scale: Mapping[str, float]
    torso_com_offset_m: tuple[float, float, float]
    torque_rfi_fraction: float
    static_friction: Mapping[str, float]
    dynamic_friction: Mapping[str, float]
    stiffness_scale: float
    damping_scale: float
    armature_scale: float

    def validate(self, ranges: DRRanges | None = None) -> None:
        r = ranges or DRRanges()

        def inside(value, band, name):
            if not band[0] <= value <= band[1]:
                raise ConfigError(f"{name}={value} outside {band}")

        inside(self.action_delay_s, r.action_delay_s, "action_delay_s")
        inside(self.action_noise_rad, r.action_noise_rad, "action_noise_rad")
        for label, scale in self.link_mass_scale.items():
            inside(scale, r.link_mass_scale, f"link_mass_scale[{label}]")
        inside(self.torso_com_offset_m[0], r.torso_com_x_m, "torso_com_offset_m[x]")
        inside(self.torso_com_offset_m[1], r.torso_com_yz_m, "torso_com_offset_m[y]")
        inside(self.torso_com_offset_m[2], r.torso_com_yz_m, "torso_com_offset_m[z]")
        if self.torque_rfi_fraction != r.torque_rfi_fraction:
            raise ConfigError("torque_rfi_fraction is fixed at the table value")
        for label, mu in self.static_friction.items():
            inside(mu, r.friction, f"static_friction[{label}]")
        for label, mu in self.dynamic_friction.items():
            inside(mu, r.friction, f"dynamic_friction[{label}]")
        inside(self.stiffness_scale, r.stiffness_scale, "stiffness_scale")
        inside(self.damping_scale, r.damping_scale, "damping_scale")
        inside(self.armature_scale, r.armature_scale, "armature_scale")


def sample_dr(seed: int | np.random.Generator) -> DRConfig:
    """Uniform sample of every randomized field, in table order.

    No tracker consumes action_delay or action_noise any more, and the
    physical fields are sampled and validated but not simulated (there is
    no physics engine at desk scale).
    """
    r = DRRanges()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    bands = (
        [r.action_delay_s, r.action_noise_rad]
        + [r.link_mass_scale] * len(r.mass_links)
        + [r.torso_com_x_m, r.torso_com_yz_m, r.torso_com_yz_m]
        + [r.friction] * (2 * len(r.friction_joints))
        + [r.stiffness_scale, r.damping_scale, r.armature_scale]
    )
    # one draw over every band, in table order, gives the values of one
    # scalar draw per band and leaves the generator in the same state
    lo, hi = zip(*bands)
    draw = iter(rng.uniform(lo, hi).tolist())
    return DRConfig(
        action_delay_s=next(draw),
        action_noise_rad=next(draw),
        link_mass_scale={label: next(draw) for label in r.mass_links},
        torso_com_offset_m=(next(draw), next(draw), next(draw)),
        torque_rfi_fraction=r.torque_rfi_fraction,
        static_friction={label: next(draw) for label in r.friction_joints},
        dynamic_friction={label: next(draw) for label in r.friction_joints},
        stiffness_scale=next(draw),
        damping_scale=next(draw),
        armature_scale=next(draw),
    )


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
    """An oracle tracker stepped frame by frame, `frame_period` seconds apart:
    step(target joints) -> realised joints. pd starts at rest on the first
    target, takes round(frame_period / dt) semi-implicit Euler steps a frame
    (at most MAX_PD_STEPS_PER_FRAME) and keeps its joint velocity in `v`."""

    def __init__(self, spec: TrackerSpec, frame_period: float):
        self.spec = spec
        self.v: np.ndarray | None = None
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

    def step(self, target: np.ndarray) -> np.ndarray:
        spec = self.spec
        if spec.mode == "noise":
            return target + self._rng.normal(0.0, spec.noise_std, target.shape)
        if spec.mode == "pd":
            if self.v is None:
                self._q, self.v = target.copy(), np.zeros(target.shape)
            q, v, dt = self._q, self.v, self._dt
            for _ in range(self._steps):
                v = v + dt * (spec.kp * (target - q) - spec.kd * v)
                q = q + dt * v
            self._q, self.v = q, v
            return q
        self._history.append(target)
        return self._history[0]


def track_clip(
    spec: TrackerSpec,
    clip: MotionClip,
    model: HumanoidModel,
) -> MotionClip:
    """The motion realised under the configured tracking behaviour, as a
    MotionClip on the clip's time grid with joint velocities and key bodies.

    perfect and lag:0 return the clip with its derived columns itself;
    lag:k replays whole frames max(0, t - k), root and bodies included;
    noise and pd step a Tracker over the clip's joints at its frame period
    (bodies recomputed through FK) while the root is replayed
    kinematically, and pd's joint velocities are the integrator's.
    """
    clip = derive_joint_velocities(clip)
    clip = derive_body_kinematics(clip, model)

    if spec.mode in ("perfect", "lag"):
        k = spec.lag if spec.mode == "lag" else 0
        if k == 0:  # the columns are read-only, so no copy is needed
            return clip
        src = np.maximum(np.arange(len(clip.t)) - k, 0)
        return clip.replace(
            **{
                key: getattr(clip, key)[src]
                for key in COLUMNS
                if key != "t" and getattr(clip, key) is not None
            }
        )

    tracker = Tracker(spec, 1.0 / clip.fps)
    joint_pos = np.empty(clip.joint_pos.shape)
    joint_vel = np.empty(clip.joint_pos.shape) if spec.mode == "pd" else clip.joint_vel
    for t, target in enumerate(clip.joint_pos):
        joint_pos[t] = tracker.step(target)
        if tracker.v is not None:  # pd
            joint_vel[t] = tracker.v
    body_pos, body_quat = key_body_poses(model, joint_pos, clip.root_pos, clip.root_quat)
    return clip.replace(
        joint_pos=joint_pos, joint_vel=joint_vel, body_pos=body_pos, body_quat=body_quat
    )


# ---------------------------------------------------------------------------
# System configuration tables
# ---------------------------------------------------------------------------

def _defaults_doc(cls) -> dict:
    """The default field values of dataclass `cls`, tuples as lists."""
    obj = cls()
    return {
        f.name: list(v) if isinstance(v := getattr(obj, f.name), tuple) else v
        for f in fields(obj)
    }


def default_system_config() -> dict:
    """Config document whose values reproduce the shipped tables verbatim."""
    return {
        "reward": _defaults_doc(RewardConfig),
        "domain_randomization": _defaults_doc(DRRanges),
        # teacher/student transformer sizes, recorded only: no network runs here
        "arch": {
            "teacher": {"d_model": 256, "d_ff": 512, "n_heads": 4, "n_tokens": 4, "n_layers": 4},
            "student": {"d_model": 512, "d_ff": 1024, "n_heads": 4, "n_tokens": 2, "n_layers": 4},
        },
        "observation": {
            "include_ref_joint_vel": True,
            "future_window": DEFAULT_FUTURE_WINDOW,
        },
    }
