"""Synthetic reference clips: deterministic generators for benchmark
suites, streaming demos, and tests."""
from __future__ import annotations

import numpy as np

from .kinematics import HumanoidModel
from .motion import BENCH_STRATA, MotionClip, derive_body_kinematics
from .rotations import quat_from_yaw

DEFAULT_ROOT_Z = 0.75

#: per-stratum planar speeds (m/s) for constant-velocity suites; kept below
#: 1.5 so lagged trackers stay inside the default failure thresholds
SUITE_SPEEDS: dict[tuple[str, str], float] = {
    ("loco_manip", "high"): 0.6,
    ("loco_manip", "medium"): 0.8,
    ("loco_manip", "low"): 1.0,
    ("manip", "high"): 0.4,
    ("manip", "medium"): 0.5,
    ("manip", "low"): 0.6,
    ("squat", "high"): 0.4,
    ("squat", "medium"): 0.5,
    ("squat", "low"): 0.6,
    ("walk", "fast"): 1.4,
    ("walk", "medium_speed"): 1.1,
    ("walk", "slow"): 0.8,
    ("run", "fast"): 1.4,
    ("run", "medium_speed"): 1.2,
    ("run", "slow"): 1.0,
    ("jump", "high"): 0.9,
    ("jump", "medium"): 0.7,
    ("jump", "low"): 0.5,
}


def constant_velocity_clip(
    model: HumanoidModel,
    speed: float,
    n_frames: int = 90,
    fps: float = 30.0,
    heading: float = 0.0,
    root_z: float = DEFAULT_ROOT_Z,
    name: str = "line",
    category: str = "walk",
    level: str = "slow",
    with_bodies: bool = True,
) -> MotionClip:
    """Root translates at a constant planar velocity; joints are static."""
    n = model.n_joints
    vel = speed * np.array([np.cos(heading), np.sin(heading), 0.0])
    t = np.arange(n_frames) / fps
    clip = MotionClip.from_arrays(
        name,
        fps,
        category,
        level,
        dof_names=model.joint_names,
        key_bodies=model.key_bodies,
        t=t,
        root_pos=np.array([0.0, 0.0, root_z]) + vel * t[:, None],
        root_quat=np.tile(quat_from_yaw(heading), (n_frames, 1)),
        root_lin_vel=np.tile(vel, (n_frames, 1)),
        root_ang_vel=np.zeros((n_frames, 3)),
        joint_pos=np.zeros((n_frames, n)),
        joint_vel=np.zeros((n_frames, n)),
    )
    return derive_body_kinematics(clip, model) if with_bodies else clip


def static_clip(
    model: HumanoidModel,
    n_frames: int = 90,
    fps: float = 30.0,
    root_z: float = DEFAULT_ROOT_Z,
) -> MotionClip:
    return constant_velocity_clip(
        model,
        speed=0.0,
        n_frames=n_frames,
        fps=fps,
        root_z=root_z,
        name="static",
        category="manip",
        level="medium",
    )


def benchmark_suite(
    model: HumanoidModel,
    clips_per_stratum: int = 10,
    n_frames: int = 150,
    fps: float = 30.0,
) -> list[MotionClip]:
    """A full 6x3 suite of constant-velocity clips, one speed per stratum,
    headings staggered per clip so trajectories differ."""
    clips = []
    for s_idx, (cat, lvl) in enumerate(BENCH_STRATA):
        v = SUITE_SPEEDS[(cat, lvl)]
        for i in range(clips_per_stratum):
            heading = 2.0 * np.pi * (i + s_idx / len(BENCH_STRATA)) / clips_per_stratum
            clips.append(
                constant_velocity_clip(
                    model,
                    speed=v,
                    n_frames=n_frames,
                    fps=fps,
                    heading=heading,
                    name=f"{cat}_{lvl}_{i:02d}",
                    category=cat,
                    level=lvl,
                )
            )
    return clips
