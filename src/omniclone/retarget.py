"""Subject-agnostic retargeting: a single uniform scale estimated from one
calibration frame maps raw capture streams onto the humanoid morphology.

No per-operator parameters exist anywhere in this module; the calibration
frame itself is the only subject-specific input.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import CalibrationError, ClipParseError, InputError
from .files import read_json, read_text
from .kinematics import _QUAT_TOL, HumanoidModel, RigidPose, chain_height
from .motion import Frame, MotionClip
from .rotations import IDENTITY_QUAT

SCALE_SANITY_BAND = (0.3, 3.0)


@dataclass(frozen=True, eq=False)
class SubjectFrame:
    """One raw capture sample: named marker positions plus the subject root."""

    t: float
    root: RigidPose
    markers: Mapping[str, np.ndarray]
    marker_quats: Mapping[str, np.ndarray] = field(default_factory=dict)
    root_lin_vel: np.ndarray | None = None
    root_ang_vel: np.ndarray | None = None
    joint_pos: np.ndarray | None = None

    def __post_init__(self):
        markers = {
            name: np.asarray(p, dtype=float) for name, p in self.markers.items()
        }
        for name, p in markers.items():
            if p.shape != (3,) or not np.all(np.isfinite(p)):
                raise InputError(f"marker {name!r}: expected a finite 3-vector")
        object.__setattr__(self, "markers", markers)
        quats = {
            name: np.asarray(q, dtype=float) for name, q in self.marker_quats.items()
        }
        for name, q in quats.items():
            # written so that a non-finite quaternion fails; accepted values keep their bits
            if q.shape != (4,) or not abs(np.linalg.norm(q) - 1.0) <= _QUAT_TOL:
                raise InputError(f"marker quaternion {name!r}: expected a finite unit 4-vector")
        object.__setattr__(self, "marker_quats", quats)


@dataclass(frozen=True)
class CalibrationResult:
    scale: float
    subject_height_metric: float
    humanoid_height_metric: float
    key_body_mapping: Mapping[str, str]  # subject marker -> humanoid key body
    session_origin: tuple[float, float, float]

    def __post_init__(self):
        expected = self.humanoid_height_metric / self.subject_height_metric
        if abs(self.scale - expected) > 1e-12 * max(1.0, abs(expected)):
            raise CalibrationError(
                f"scale {self.scale} inconsistent with metric ratio {expected}"
            )
        lo, hi = SCALE_SANITY_BAND
        if not lo <= self.scale <= hi:
            raise CalibrationError(
                f"scale {self.scale:.4f} outside sanity band [{lo}, {hi}]"
            )
        targets = list(self.key_body_mapping.values())
        if len(set(targets)) != len(targets):
            raise CalibrationError("key_body_mapping is not injective")


def _chain_markers(
    model: HumanoidModel, mapping: Mapping[str, str]
) -> list[str]:
    """Subject markers mapped onto the humanoid calibration-chain anchors."""
    inverse = {body: marker for marker, body in mapping.items()}
    markers = []
    for link in model.calibration_chain:
        if link not in inverse:
            raise CalibrationError(
                f"mapping has no subject marker for calibration link {link!r}"
            )
        markers.append(inverse[link])
    return markers


def calibrate(
    calibration_frame: SubjectFrame,
    humanoid: HumanoidModel,
    mapping: Mapping[str, str],
) -> CalibrationResult:
    """Estimate the session scale from a calibration frame.

    The subject height metric is the segment-length sum along the subject
    analogue of the humanoid calibration chain; the scale is the ratio of
    the two metrics.
    """
    missing = [b for b in humanoid.key_bodies if b not in set(mapping.values())]
    if missing:
        raise CalibrationError(f"mapping does not cover key bodies: {missing}")
    targets = list(mapping.values())
    if len(set(targets)) != len(targets):
        raise CalibrationError("mapping is not injective")
    unknown = [b for b in targets if b not in humanoid.key_bodies]
    if unknown:
        raise CalibrationError(f"mapping targets outside the key-body set: {unknown}")
    humanoid_metric = chain_height(humanoid, np.zeros(humanoid.n_joints))
    points = []
    for marker in _chain_markers(humanoid, mapping):
        if marker not in calibration_frame.markers:
            raise CalibrationError(f"calibration frame is missing marker {marker!r}")
        points.append(calibration_frame.markers[marker])
    subject_metric = float(np.sum(np.linalg.norm(np.diff(np.stack(points), axis=0), axis=1)))
    if subject_metric < 1e-9:
        raise CalibrationError(f"degenerate subject height metric {subject_metric}")
    x, y = calibration_frame.root.position[:2]
    return CalibrationResult(
        scale=humanoid_metric / subject_metric,
        subject_height_metric=subject_metric,
        humanoid_height_metric=humanoid_metric,
        key_body_mapping=dict(mapping),
        session_origin=(float(x), float(y), 0.0),
    )


def retarget_frame(
    raw: SubjectFrame,
    cal: CalibrationResult,
    model: HumanoidModel,
    previous: Frame | None = None,
) -> tuple[Frame, bool]:
    """Rescale one subject frame onto the humanoid.

    Positions are re-zeroed to the session origin (the calibration root's
    planar position, yaw preserved) and multiplied by the session scale;
    orientations pass through unchanged, linear velocities scale, angular
    velocities do not. Marker dropout substitutes the previous retargeted
    frame and flags the result held.
    """
    mapped = cal.key_body_mapping
    missing = next((marker for marker in mapped if marker not in raw.markers), None)
    if missing is not None:
        if previous is None:
            raise InputError(f"marker {missing!r} missing and no previous frame to hold")
        return replace(previous, t=raw.t), True
    s = cal.scale
    origin = np.asarray(cal.session_origin)
    slot = model.key_body_slots
    # an unmapped key body keeps position zero (origin - origin is +0.0) and
    # the identity orientation
    points = [origin] * len(slot)
    quats = [IDENTITY_QUAT] * len(slot)
    for marker, body in mapped.items():
        points[slot[body]] = raw.markers[marker]
        quats[slot[body]] = raw.marker_quats.get(marker, IDENTITY_QUAT)
    body_pos = s * (np.array(points) - origin)
    body_quat = np.array(quats)
    root = RigidPose(s * (raw.root.position - origin), raw.root.orientation)
    n = model.n_joints
    joint_pos = raw.joint_pos if raw.joint_pos is not None else np.zeros(n)
    frame = Frame(
        t=raw.t,
        root=root,
        root_lin_vel=s * raw.root_lin_vel if raw.root_lin_vel is not None else np.zeros(3),
        root_ang_vel=raw.root_ang_vel if raw.root_ang_vel is not None else np.zeros(3),
        joint_pos=np.asarray(joint_pos, dtype=float),
        body_pos=body_pos,
        body_quat=body_quat,
    )
    return frame, False


def retarget_stream(
    frames: Sequence[SubjectFrame],
    cal: CalibrationResult,
    model: HumanoidModel,
) -> tuple[list[Frame], list[int]]:
    """Retarget a whole stream; returns the frames plus indices that were held."""
    out: list[Frame] = []
    held: list[int] = []
    prev: Frame | None = None
    for i, raw in enumerate(frames):
        frame, was_held = retarget_frame(raw, cal, model, previous=prev)
        if was_held:
            held.append(i)
        out.append(frame)
        prev = frame
    return out, held


def discrepancy_report(
    retargeted: Sequence[Frame], reference: Sequence[Frame]
) -> dict[str, float]:
    """Max/mean Euclidean key-body deviation between two equally long clips."""
    if len(retargeted) != len(reference):
        raise InputError(
            f"length mismatch: {len(retargeted)} retargeted vs {len(reference)} reference"
        )
    if not retargeted:
        raise InputError("empty clip")
    devs = []
    for a, b in zip(retargeted, reference):
        if a.body_pos is None or b.body_pos is None:
            raise InputError("discrepancy_report requires body positions on both sides")
        if a.body_pos.shape != b.body_pos.shape:
            raise InputError("key-body sets differ")
        devs.append(np.linalg.norm(a.body_pos - b.body_pos, axis=1))
    devs = np.stack(devs)
    return {
        "max_keybody_deviation_m": float(devs.max()),
        "mean_deviation_m": float(devs.mean()),
    }


# ---------------------------------------------------------------------------
# File formats: subject streams and marker-mapping tables
# ---------------------------------------------------------------------------

def subject_frame_from_dict(doc: Mapping, i: int = 0) -> SubjectFrame:
    try:
        root = RigidPose(
            np.asarray(doc["root_pos"], dtype=float),
            np.asarray(doc["root_quat"], dtype=float),
        )
        markers = {str(k): np.asarray(v, dtype=float) for k, v in doc["markers"].items()}
        quats = {
            str(k): np.asarray(v, dtype=float)
            for k, v in doc.get("marker_quats", {}).items()
        }
        t = float(doc.get("t", 0.0))
        opt = {
            key: np.asarray(doc[key], dtype=float)
            for key in ("root_lin_vel", "root_ang_vel", "joint_pos")
            if doc.get(key) is not None
        }
    # ValueError covers a non-numeric value and RigidPose's InputError;
    # AttributeError a markers or marker_quats entry that is not an object
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ClipParseError(f"subject frames[{i}]: {exc}") from None
    return SubjectFrame(t=t, root=root, markers=markers, marker_quats=quats, **opt)


def load_subject_frame(path) -> SubjectFrame:
    return subject_frame_from_dict(read_json(path))


def load_subject_stream(path) -> list[SubjectFrame]:
    doc = read_json(path)
    if not isinstance(doc, Mapping) or not isinstance(doc.get("frames"), list):
        raise ClipParseError(f"{path}: expected an object with a 'frames' list")
    return [subject_frame_from_dict(fd, i) for i, fd in enumerate(doc["frames"])]


def load_mapping(path) -> dict[str, str]:
    """Two-column name table: `subject_marker humanoid_link`, # comments allowed."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.replace(",", " ").split()
        if len(parts) != 2:
            raise ClipParseError(f"{path}: line {lineno}: expected two columns")
        mapping[parts[0]] = parts[1]
    return mapping


def retargeted_clip(
    frames: Sequence[Frame],
    model: HumanoidModel,
    fps: float,
    name: str = "retargeted",
) -> MotionClip:
    return MotionClip(
        name=name,
        fps=fps,
        category="other",
        level="none",
        frames=frames,
        dof_names=model.joint_names,
        key_bodies=model.key_bodies,
    )
