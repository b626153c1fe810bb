"""Humanoid morphology, forward kinematics on arrays, and world-to-base
frame transforms.

The kinematic model is a tree of links. Every link except the root is
attached to its parent through a fixed offset (translation + rotation)
followed by a revolute joint about a fixed axis. Links whose limits are
[0, 0] are fixed attachments and carry no actuated joint. The root link
is the floating base (pelvis for the bundled model).
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError, ClipParseError
from .files import read_json
from .rotations import (
    IDENTITY_QUAT,
    quat_canonical,
    quat_conjugate,
    quat_mul,
    quat_rotate_inverse,
)

GRAVITY = np.array([0.0, 0.0, -9.81])

_QUAT_TOL = 1e-6


def _as_array(x, shape, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != shape:
        raise InputError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name}: non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class RigidPose:
    """Position (m) + unit quaternion (w,x,y,z), canonical sign w >= 0."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        pos = _as_array(self.position, (3,), "position")
        quat = np.asarray(self.orientation, dtype=float)
        if quat.shape != (4,):
            raise InputError(f"orientation: expected shape (4,), got {quat.shape}")
        norm = np.linalg.norm(quat)
        if not abs(norm - 1.0) <= _QUAT_TOL:  # written so that NaN fails
            raise InputError(f"orientation: norm {norm:.9f} deviates beyond {_QUAT_TOL}")
        quat = quat / norm
        # quat_canonical's sign rule on one quaternion: negate when the first
        # nonzero component is negative (-0.0 counts as zero)
        for c in quat.tolist():
            if c != 0.0:
                if c < 0.0:
                    quat = -quat
                break
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", quat)


# quat_mul(a, b) as the sum over i of a[i] * (_QUAT_SIGN[i] * b[_QUAT_PERM[i]]),
# summed left to right: per component these are the products of quat_mul in
# its order, since x - y*z equals x + y*(-z) exactly
_QUAT_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_QUAT_SIGN = np.array(
    [[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]]
)[..., None]
# the joint quaternion is (cos, axis * sin) of the half-angle, and _QUAT_PERM[i]
# puts its cos in row i: row r of term i scales cos (0) or sin (1), shaped to
# broadcast against a level's joint columns
_JOINT_TRIG = (1 - np.eye(4, dtype=int))[..., None]
# u x v = u[[1, 2, 0]] * v[[2, 0, 1]] - u[[2, 0, 1]] * v[[1, 2, 0]] with both
# products in one call: _CROSS_Q picks the two row orders of u = q[1:] out of
# a quaternion q, _CROSS_V those of a vector
_CROSS_Q = [2, 3, 1, 3, 1, 2]
_CROSS_V = [2, 0, 1, 1, 2, 0]
# frames per chunk of a batch: bounds the temporaries of a level (a
# (4, 4, m, chunk) product is 160 KB at m = 5) however long the batch
_FK_CHUNK = 256


def _as_slice(index: np.ndarray):
    """The index array as a slice when it is one non-empty contiguous run."""
    if index.size and np.all(np.diff(index) == 1):
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


@dataclass(frozen=True)
class LinkSpec:
    """One entry of the model file: a link plus the joint attaching it."""

    name: str
    parent: str | None
    offset_pos: tuple[float, float, float] = (0.0, 0.0, 0.0)
    offset_quat: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    limits: tuple[float, float] = (0.0, 0.0)

    @property
    def actuated(self) -> bool:
        return self.parent is not None and self.limits != (0.0, 0.0)


class HumanoidModel:
    """Immutable kinematic tree with key-body and calibration metadata."""

    def __init__(
        self,
        links: Sequence[LinkSpec],
        key_bodies: Sequence[str],
        calibration_chain: Sequence[str],
    ):
        if not links:
            raise ConfigError("model has no links")
        order = self._topological_order(links)
        self.links: tuple[LinkSpec, ...] = tuple(order)
        self.link_names: tuple[str, ...] = tuple(l.name for l in self.links)
        self._index: dict[str, int] = {n: i for i, n in enumerate(self.link_names)}
        self.parent_index = np.array(
            [-1 if l.parent is None else self._index[l.parent] for l in self.links]
        )
        self.offsets_pos = np.array([l.offset_pos for l in self.links], dtype=float)
        self.offsets_quat = np.array([l.offset_quat for l in self.links], dtype=float)
        self.axes = np.array([l.axis for l in self.links], dtype=float)
        self.joint_names: tuple[str, ...] = tuple(
            l.name for l in self.links if l.actuated
        )
        self.joint_index = np.full(len(self.links), -1)
        for j, name in enumerate(self.joint_names):
            self.joint_index[self._index[name]] = j
        self.joint_limits = np.array(
            [l.limits for l in self.links if l.actuated], dtype=float
        )
        self.root_index = int(np.flatnonzero(self.parent_index == -1)[0])
        self.fk_levels = self._fk_levels()
        self.fk_links = self._fk_links()
        self.key_bodies: tuple[str, ...] = tuple(key_bodies)
        self.calibration_chain: tuple[str, ...] = tuple(calibration_chain)
        self._validate()
        # the key bodies' link rows: a tuple for the walk over one
        # configuration, an index array for a batch
        self.key_body_rows: tuple[int, ...] = tuple(self._index[b] for b in self.key_bodies)
        # each key body's row in a (K, ...) key-body array
        self.key_body_slots: dict[str, int] = {b: i for i, b in enumerate(self.key_bodies)}
        self.key_body_index = np.array(self.key_body_rows, dtype=int)

    @property
    def n_joints(self) -> int:
        return len(self.joint_names)

    @property
    def n_key_bodies(self) -> int:
        return len(self.key_bodies)

    @property
    def root_name(self) -> str:
        return self.link_names[self.root_index]

    def link_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigError(f"unknown link {name!r}") from None

    @staticmethod
    def _topological_order(links: Sequence[LinkSpec]) -> list[LinkSpec]:
        by_name = {}
        for l in links:
            if l.name in by_name:
                raise ConfigError(f"duplicate link {l.name!r}")
            by_name[l.name] = l
        roots = [l for l in links if l.parent is None]
        if len(roots) != 1:
            raise ConfigError(f"model must have exactly one root, found {len(roots)}")
        children: dict[str, list[LinkSpec]] = {n: [] for n in by_name}
        for l in links:
            if l.parent is not None:
                if l.parent not in by_name:
                    raise ConfigError(f"link {l.name!r}: unknown parent {l.parent!r}")
                children[l.parent].append(l)
        # breadth-first, so the links of one depth are contiguous in the
        # order and every parent sits in an earlier depth (see _fk_levels)
        order: list[LinkSpec] = []
        queue = [roots[0]]
        while queue:
            link = queue.pop(0)
            order.append(link)
            queue.extend(children[link.name])
        if len(order) != len(links):
            raise ConfigError("model contains a cycle or unreachable links")
        return order

    def _fk_levels(self) -> tuple:
        """The batched FK plan, per tree depth below the root: (its links,
        their parents, where its actuated links sit among its links, their
        joint columns, offset position terms, offset product terms, joint
        product terms).

        The links are a slice. Parents and actuated positions are a slice
        where they are one contiguous run, so that indexing with them gives
        a view, and an index array otherwise; joint columns are an index
        array. The terms hold the level's constants component-major, with a
        trailing batch axis of 1 (m links, a of them actuated):
        - offset position terms (9, m, 1): the offset v, then
          v[_CROSS_V], the factors of the cross product with it;
        - offset product terms (4, 4, m, 1): term i is
          _QUAT_SIGN[i] * b[_QUAT_PERM[i]] for the offset quaternion b;
        - joint product terms (4, 4, a, 1): the same for the joint
          quaternion with cos and sin set to 1, so that term i times the
          _JOINT_TRIG[i] rows of (cos, sin) of the half-angles is term i.
        """
        depth = np.zeros(len(self.links), dtype=int)
        for i, parent in enumerate(self.parent_index):
            if parent >= 0:
                depth[i] = depth[parent] + 1
        assert np.all(np.diff(depth) >= 0), "links are not in breadth-first order"
        levels = []
        for d in range(1, int(depth.max()) + 1):
            links = np.flatnonzero(depth == d)
            rel = np.flatnonzero(self.joint_index[links] >= 0)
            actuated = links[rel]
            v = self.offsets_pos[links].T
            b = self.offsets_quat[links].T
            axis = np.concatenate([np.ones((1, len(actuated))), self.axes[actuated].T])
            levels.append(
                (
                    slice(int(links[0]), int(links[-1]) + 1),
                    _as_slice(self.parent_index[links]),
                    _as_slice(rel),
                    self.joint_index[actuated],
                    np.concatenate([v, v[_CROSS_V]])[..., None],
                    (_QUAT_SIGN * b[_QUAT_PERM])[..., None],
                    (_QUAT_SIGN * axis[_QUAT_PERM])[..., None],
                )
            )
        return tuple(levels)

    def _fk_links(self) -> tuple:
        """Per non-root link in link order: (link, parent, joint column or
        -1, offset position, offset quaternion, joint axis), as Python ints
        and float tuples, for the walk over one configuration."""
        return tuple(
            (
                i,
                int(self.parent_index[i]),
                int(self.joint_index[i]),
                tuple(self.offsets_pos[i].tolist()),
                tuple(self.offsets_quat[i].tolist()),
                tuple(self.axes[i].tolist()),
            )
            for i in range(len(self.links))
            if self.parent_index[i] >= 0
        )

    def _validate(self) -> None:
        for i, l in enumerate(self.links):
            if l.parent is not None:
                axis_norm = np.linalg.norm(self.axes[i])
                if abs(axis_norm - 1.0) > 1e-9:
                    raise ConfigError(f"link {l.name!r}: joint axis norm {axis_norm}")
            quat_norm = np.linalg.norm(self.offsets_quat[i])
            if abs(quat_norm - 1.0) > 1e-9:
                raise ConfigError(f"link {l.name!r}: offset quaternion norm {quat_norm}")
        for j, (lo, hi) in enumerate(self.joint_limits):
            if lo > hi:
                raise ConfigError(f"joint {self.joint_names[j]!r}: limits [{lo}, {hi}]")
        for b in self.key_bodies:
            if b not in self._index:
                raise ConfigError(f"key body {b!r} is not a link")
        if len(set(self.key_bodies)) != len(self.key_bodies):
            raise ConfigError("key_bodies contains duplicates")
        self._validate_chain()

    def _validate_chain(self) -> None:
        chain = self.calibration_chain
        if not chain:
            return
        for b in chain:
            if b not in self._index:
                raise ConfigError(f"calibration link {b!r} is not a link")
        if chain[0] != self.root_name:
            raise ConfigError(
                f"calibration_chain must start at the root {self.root_name!r}"
            )
        # every entry must be a strict descendant of the previous entry
        for prev, cur in zip(chain, chain[1:]):
            idx = self.parent_index[self._index[cur]]
            while idx != -1 and self.link_names[idx] != prev:
                idx = self.parent_index[idx]
            if idx == -1:
                raise ConfigError(
                    f"calibration_chain: {cur!r} is not a descendant of {prev!r}"
                )
        leaf = chain[-1]
        if leaf in {l.parent for l in self.links}:
            raise ConfigError(f"calibration_chain must end at a leaf, {leaf!r} has children")


def _fk_inputs(model: HumanoidModel, joint_pos, root_pos, root_quat):
    """The FK inputs as float arrays, checked, and whether they are one
    configuration: joint_pos (n,), root_pos (3,) and root_quat (4,)."""
    joint_pos = np.asarray(joint_pos, dtype=float)
    root_pos = np.asarray(root_pos, dtype=float)
    root_quat = np.asarray(root_quat, dtype=float)
    n = model.n_joints
    if joint_pos.ndim == 0:
        raise InputError(f"joint_pos: expected shape (..., {n}), got {joint_pos.shape}")
    if joint_pos.shape[-1] != n:
        raise InputError(f"joint_pos: expected {n} joints, got {joint_pos.shape[-1]}")
    if root_pos.shape[-1:] != (3,):
        raise InputError(f"root_pos: expected shape (..., 3), got {root_pos.shape}")
    if root_quat.shape[-1:] != (4,):
        raise InputError(f"root_quat: expected shape (..., 4), got {root_quat.shape}")
    if not (
        np.isfinite(joint_pos).all() and np.isfinite(root_pos).all() and np.isfinite(root_quat).all()
    ):
        raise InputError("forward_kinematics_arrays: non-finite input")
    single = joint_pos.ndim == 1 and root_pos.ndim == 1 and root_quat.ndim == 1
    return joint_pos, root_pos, root_quat, single


def _fk_walk(model: HumanoidModel, joint_pos, root_pos, root_quat) -> tuple[list, list]:
    """One configuration's link positions and quaternions, per link in link
    order, as lists of Python floats: a walk over model.fk_links."""
    # numpy's sin/cos, not math's, whose bits may differ
    half = joint_pos / 2.0
    sin = np.sin(half).tolist()
    cos = np.cos(half).tolist()
    pos_l = [None] * len(model.links)
    quat_l = [None] * len(model.links)
    pos_l[model.root_index] = root_pos.tolist()
    quat_l[model.root_index] = root_quat.tolist()
    for i, parent, col, (vx, vy, vz), (bw, bx, by, bz), (ux, uy, uz) in model.fk_links:
        px, py, pz = pos_l[parent]
        w, x, y, z = quat_l[parent]
        # quat_rotate(parent, offset_pos)
        tx = y * vz - z * vy
        ty = z * vx - x * vz
        tz = x * vy - y * vx
        pos_l[i] = [
            px + (vx + 2.0 * (w * tx + (y * tz - z * ty))),
            py + (vy + 2.0 * (w * ty + (z * tx - x * tz))),
            pz + (vz + 2.0 * (w * tz + (x * ty - y * tx))),
        ]
        # quat_mul(parent, offset_quat)
        fw = w * bw - x * bx - y * by - z * bz
        fx = w * bx + x * bw + y * bz - z * by
        fy = w * by - x * bz + y * bw + z * bx
        fz = w * bz + x * by - y * bx + z * bw
        if col >= 0:
            # quat_mul(frame, quat_from_axis_angle(axis, joint angle))
            c = cos[col]
            s = sin[col]
            jx = ux * s
            jy = uy * s
            jz = uz * s
            fw, fx, fy, fz = (
                fw * c - fx * jx - fy * jy - fz * jz,
                fw * jx + fx * c + fy * jz - fz * jy,
                fw * jy - fx * jz + fy * c + fz * jx,
                fw * jz + fx * jy - fy * jx + fz * c,
            )
        quat_l[i] = [fw, fx, fy, fz]
    return pos_l, quat_l


def _fk_batch(model: HumanoidModel, joint_pos, root_pos, root_quat) -> tuple[np.ndarray, np.ndarray]:
    """A batch of configurations, level by level over model.fk_levels."""
    n = model.n_joints
    batch = joint_pos.shape[:-1]
    B = math.prod(batch)
    L = len(model.links)
    # component-major, batch innermost: P[c, link, frame], Q[c, link, frame]
    P = np.empty((3, L, B))
    Q = np.empty((4, L, B))
    pos = P.T.reshape(batch + (L, 3))
    quat = Q.T.reshape(batch + (L, 4))
    pos[..., model.root_index, :] = root_pos
    quat[..., model.root_index, :] = root_quat
    half = joint_pos.reshape(B, n).T / 2.0
    trig = np.stack([np.cos(half), np.sin(half)])
    # one tree depth at a time; per link this is the same arithmetic as a
    # link-by-link walk: parent frame * offset, then * joint rotation. A
    # long batch goes in chunks of frames, which bounds the temporaries.
    for start in range(0, B, _FK_CHUNK):
        frames = slice(start, start + _FK_CHUNK)
        Pf, Qf, tf = P[..., frames], Q[..., frames], trig[..., frames]
        for links, parents, rel, cols, v, bt, jt in model.fk_levels:
            q = Qf[:, parents]
            # quat_rotate(q, v) = v + 2 (w t + u x t), t = u x v, u = q[1:]
            u = q[_CROSS_Q]
            x = u * v[3:]
            t = x[:3] - x[3:]
            x = u * t[_CROSS_V]
            np.add(Pf[:, parents], v[:3] + 2.0 * (q[0] * t + (x[:3] - x[3:])), out=Pf[:, links])
            # quat_mul(q, offset quaternion), then quat_mul(that, joint quaternion)
            x = q[:, None] * bt
            f = Qf[:, links]
            np.add(x[0] + x[1] + x[2], x[3], out=f)
            if jt.size:
                x = f[:, rel][:, None] * (jt * tf[_JOINT_TRIG, cols])
                f[:, rel] = x[0] + x[1] + x[2] + x[3]
    return pos, quat


def forward_kinematics_arrays(
    model: HumanoidModel,
    joint_pos: np.ndarray,
    root_pos: np.ndarray,
    root_quat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Core FK on raw arrays. Supports batched inputs.

    joint_pos: (..., n); root_pos: (..., 3); root_quat: (..., 4).
    Returns positions (..., L, 3) and orientations (..., L, 4) in link order.
    Raises InputError for another joint count, a root whose last axis is
    not 3 (position) or 4 (quaternion), or a non-finite joint angle, root
    position or root quaternion component.

    One configuration (joint_pos (n,), root_pos (3,), root_quat (4,)) walks
    the links in order with Python floats. Any other shape walks the levels
    of model.fk_levels, one tree depth at a time, on component-major
    (3, L, B) and (4, L, B) arrays of the B configurations, _FK_CHUNK of
    them at a time; sin and cos of the half-angles are taken once, and each
    cross product and quaternion product is a few numpy calls over the
    whole level. Both do the arithmetic of rotations' quat_rotate, quat_mul
    and quat_from_axis_angle per link, in the same order, so both are
    bit-identical to a link-by-link walk. A batch's outputs are transposed
    views of those arrays, not C-contiguous copies.
    """
    joint_pos, root_pos, root_quat, single = _fk_inputs(model, joint_pos, root_pos, root_quat)
    if single:
        pos_l, quat_l = _fk_walk(model, joint_pos, root_pos, root_quat)
        return np.array(pos_l), np.array(quat_l)
    return _fk_batch(model, joint_pos, root_pos, root_quat)


def key_body_poses(
    model: HumanoidModel,
    joint_pos: np.ndarray,
    root_pos: np.ndarray,
    root_quat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """FK restricted to the key-body set: (..., K, 3), (..., K, 4).

    Takes and checks the inputs of forward_kinematics_arrays, and its
    values bit for bit. One configuration turns only the K key-body rows
    of the walk into arrays; a batch gathers them from the whole batch.
    """
    joint_pos, root_pos, root_quat, single = _fk_inputs(model, joint_pos, root_pos, root_quat)
    if single:
        pos_l, quat_l = _fk_walk(model, joint_pos, root_pos, root_quat)
        rows = model.key_body_rows
        return (
            np.array([pos_l[i] for i in rows]).reshape(len(rows), 3),
            np.array([quat_l[i] for i in rows]).reshape(len(rows), 4),
        )
    pos, quat = _fk_batch(model, joint_pos, root_pos, root_quat)
    idx = model.key_body_index
    return pos[..., idx, :], quat[..., idx, :]


def to_base_point(root: RigidPose, p: np.ndarray) -> np.ndarray:
    """World point -> base frame: R(root)^T (p - root.position)."""
    return quat_rotate_inverse(root.orientation, np.asarray(p, dtype=float) - root.position)


def to_base_vector(root: RigidPose, v: np.ndarray) -> np.ndarray:
    """Free vector (velocity, gravity) into the base frame."""
    return quat_rotate_inverse(root.orientation, v)


def to_base_quat(root: RigidPose, q: np.ndarray) -> np.ndarray:
    """World orientation -> base frame, canonical sign."""
    return quat_canonical(quat_mul(quat_conjugate(root.orientation), q))


def chain_height(model: HumanoidModel, joint_pos: np.ndarray) -> float:
    """Sum of segment lengths along the calibration chain (pose given in rad).

    Segments are Euclidean distances between consecutive chain anchors
    evaluated through FK, so the metric is invariant to the root pose.
    """
    if not model.calibration_chain:
        raise ConfigError("model has an empty calibration_chain")
    pos, _ = forward_kinematics_arrays(
        model, joint_pos, np.zeros(3), IDENTITY_QUAT
    )
    idx = [model.link_index(name) for name in model.calibration_chain]
    anchors = pos[idx]
    height = float(np.sum(np.linalg.norm(np.diff(anchors, axis=0), axis=1)))
    if height <= 0.0:
        raise ConfigError("calibration chain has zero length")
    return height


# ---------------------------------------------------------------------------
# Model file I/O
# ---------------------------------------------------------------------------

def model_to_dict(model: HumanoidModel) -> dict:
    return {
        "joints": [asdict(l) for l in model.links],
        "key_bodies": list(model.key_bodies),
        "calibration_chain": list(model.calibration_chain),
    }


def model_from_dict(doc: Mapping) -> HumanoidModel:
    try:
        joints = doc["joints"]
    except (KeyError, TypeError):
        raise ClipParseError("model document: missing 'joints' array") from None
    links = []
    for i, entry in enumerate(joints):
        try:
            links.append(
                LinkSpec(
                    name=str(entry["name"]),
                    parent=entry["parent"],
                    offset_pos=tuple(float(v) for v in entry["offset_pos"]),
                    offset_quat=tuple(float(v) for v in entry["offset_quat"]),
                    axis=tuple(float(v) for v in entry["axis"]),
                    limits=tuple(float(v) for v in entry["limits"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ClipParseError(f"joints[{i}]: {exc}") from None
    try:
        return HumanoidModel(
            links,
            key_bodies=doc.get("key_bodies", []),
            calibration_chain=doc.get("calibration_chain", []),
        )
    except ConfigError as exc:
        raise ClipParseError(f"model document: {exc}") from None


def load_model(path) -> HumanoidModel:
    return model_from_dict(read_json(path))


_REFERENCE_MODEL: HumanoidModel | None = None


def load_reference_model() -> HumanoidModel:
    """The bundled 29-joint reference humanoid."""
    global _REFERENCE_MODEL
    if _REFERENCE_MODEL is None:
        text = (
            resources.files("omniclone").joinpath("data/reference_model.json").read_text()
        )
        _REFERENCE_MODEL = model_from_dict(json.loads(text))
    return _REFERENCE_MODEL
