"""The paper's training recipe as tables: the tracking reward, the
domain-randomization (DR) sampler and the system-configuration document.

No command trains a policy, computes a reward or draws a DR sample, so
this code is not part of the package; test_reward_dr_fidelity and
test_simtrack.py pin it as fidelity data.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from omniclone.errors import ConfigError, InputError
from omniclone.kinematics import HumanoidModel, to_base_point
from omniclone.motion import Frame
from omniclone.rotations import quat_conjugate, quat_mul, quat_rotate_inverse
from omniclone.simtrack import RobotState, _frame_key_bodies
from omniclone.stream.jitter import DEFAULT_WINDOW


def quat_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic angle (rad) between two unit quaternions, sign-agnostic."""
    d = quat_mul(quat_conjugate(a), b)
    vec = np.linalg.norm(d[..., 1:], axis=-1)
    return 2.0 * np.arctan2(vec, np.abs(d[..., 0]))


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
    joint_acc: np.ndarray | None = None,
) -> RewardResult:
    """Weighted sum of exponential tracking kernels and penalties.

    Reference body velocities default to zero when the frame does not
    carry them, so a static reference scores exactly against a static
    state. Joint accelerations default to zero: no simulator measures them.
    """
    if config is None:
        config = RewardConfig()
    action = np.asarray(action, dtype=float)
    prev_action = np.asarray(prev_action, dtype=float)
    n = model.n_joints
    if action.shape != (n,) or prev_action.shape != (n,):
        raise InputError("action vectors must have one entry per joint")
    joint_acc = np.zeros(n) if joint_acc is None else np.asarray(joint_acc, dtype=float)
    if joint_acc.shape != (n,):
        raise InputError(f"joint_acc: expected shape ({n},), got {joint_acc.shape}")
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

    body_pos, body_quat = _frame_key_bodies(state, model)
    ref_body_pos, ref_body_quat = _frame_key_bodies(ref, model)
    k = model.n_key_bodies
    ref_body_lin = ref.body_lin_vel if ref.body_lin_vel is not None else np.zeros((k, 3))
    ref_body_ang = ref.body_ang_vel if ref.body_ang_vel is not None else np.zeros((k, 3))

    root, ref_root = state.root, ref.root
    local_pos = to_base_point(root, body_pos)
    local_ref_pos = to_base_point(ref_root, ref_body_pos)
    rel_rot_err = quat_angle(
        quat_mul(quat_conjugate(root.orientation), body_quat),
        quat_mul(quat_conjugate(ref_root.orientation), ref_body_quat),
    )
    local_lin = quat_rotate_inverse(root.orientation, state.body_lin_vel)
    local_ref_lin = quat_rotate_inverse(ref_root.orientation, ref_body_lin)
    local_ang = quat_rotate_inverse(root.orientation, state.body_ang_vel)
    local_ref_ang = quat_rotate_inverse(ref_root.orientation, ref_body_ang)

    errors2 = {
        "torso_global_pos": float(
            np.sum((body_pos[torso] - ref_body_pos[torso]) ** 2)
        ),
        "torso_global_rot": float(
            quat_angle(body_quat[torso], ref_body_quat[torso]) ** 2
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
            np.abs(body_pos[feet, 2] - ref_body_pos[feet, 2])
            > config.air_time_height_tol
        )
    )
    magnitudes = {
        "action_rate": float(np.sum((action - prev_action) ** 2)),
        "joint_acceleration": float(np.sum(joint_acc**2)),
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
            "future_window": DEFAULT_WINDOW,
        },
    }
