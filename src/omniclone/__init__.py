"""Desk-scale whole-body teleoperation infrastructure: kinematics,
subject-agnostic retargeting, fault-tolerant motion streaming, tracking
evaluation, and a receding-horizon planner bridge."""

__version__ = "0.1.0"

from . import bench, kinematics, motion, retarget, rotations, simtrack, stream, synthetic, vlabridge
from .errors import OmniCloneError

__all__ = [
    "OmniCloneError",
    "__version__",
    "bench",
    "kinematics",
    "motion",
    "retarget",
    "rotations",
    "simtrack",
    "stream",
    "synthetic",
    "vlabridge",
]
