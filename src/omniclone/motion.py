"""Motion clips: data model, file format, statistics and training-recipe
composition.

Conventions: all trajectories are world frame, Z-up. Frame timestamps are
seconds on a uniform 1/fps grid. A clip's duration is frame_count / fps
(period counting), so a 90-frame clip at 30 Hz lasts 3.0 s.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ClipParseError, ConfigError, InputError
from .files import read_json
from .kinematics import (
    _QUAT_TOL,
    HumanoidModel,
    RigidPose,
    forward_kinematics_arrays,
    key_body_poses,
)
from .rotations import quat_canonical

CATEGORIES = ("loco_manip", "manip", "squat", "walk", "run", "jump", "other")
HEIGHT_LEVELS = ("high", "medium", "low")
SPEED_LEVELS = ("fast", "medium_speed", "slow")

#: level vocabulary admitted per category ("none" marks unleveled training clips)
CATEGORY_LEVELS: dict[str, tuple[str, ...]] = {
    "loco_manip": HEIGHT_LEVELS + ("none",),
    "manip": HEIGHT_LEVELS + ("none",),
    "squat": HEIGHT_LEVELS + ("none",),
    "jump": HEIGHT_LEVELS + ("none",),
    "walk": SPEED_LEVELS + ("none",),
    "run": SPEED_LEVELS + ("none",),
    "other": ("none",),
}

#: the 18 benchmark strata in canonical report order
BENCH_STRATA: tuple[tuple[str, str], ...] = tuple(
    (cat, lvl)
    for cat in ("loco_manip", "manip", "squat", "walk", "run", "jump")
    for lvl in (SPEED_LEVELS if cat in ("walk", "run") else HEIGHT_LEVELS)
)

_TIME_TOL = 1e-6


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass built without __post_init__, for
    fields the caller has already checked and converted as the constructor
    would."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class Frame:
    """One timestamped sample of a reference trajectory (world frame).

    joint_pos is a 1-D (n,) vector; root_lin_vel and root_ang_vel are (3,);
    joint_vel, if given, is (n,). The key-body group is all or none:
    body_pos (K, 3) and body_quat (K, 4) are given both or neither, and
    body_lin_vel and body_ang_vel (K, 3) only beside them. The constructor
    converts every given array to float64 and checks its shape in one pass
    over a table built once per (n, K), joint_pos first, then checks that
    all of them, and t, are finite; errors name the first failing field.
    """

    t: float
    root: RigidPose
    root_lin_vel: np.ndarray
    root_ang_vel: np.ndarray
    joint_pos: np.ndarray
    joint_vel: np.ndarray | None = None
    body_pos: np.ndarray | None = None
    body_quat: np.ndarray | None = None
    body_lin_vel: np.ndarray | None = None
    body_ang_vel: np.ndarray | None = None

    def __post_init__(self):
        fields = self.__dict__
        jp = fields["joint_pos"] = np.asarray(self.joint_pos, dtype=float)
        if jp.ndim != 1:
            raise InputError(f"joint_pos: expected a 1-D vector, got shape {jp.shape}")
        _check_body_group(fields)
        k = 0
        if self.body_pos is not None:
            bp = fields["body_pos"] = np.asarray(self.body_pos, dtype=float)
            k = bp.shape[0] if bp.ndim else 0
        present = []
        for key, shape in _frame_checks(jp.shape[0], k):
            value = fields[key]
            if value is not None:
                arr = fields[key] = np.asarray(value, dtype=float)
                if arr.shape != shape:
                    raise InputError(f"{key}: expected shape {shape}, got {arr.shape}")
                present.append(arr)
        # one finiteness check over every array; the first non-finite field
        # in field order is looked for only when it fails
        if not np.isfinite(np.concatenate(present, axis=None)).all():
            key = next(
                key for key in _FRAME_ARRAYS if fields[key] is not None and not np.isfinite(fields[key]).all()
            )
            raise InputError(f"{key}: non-finite values")
        if not math.isfinite(self.t):
            raise InputError("t: non-finite")


_REQUIRED = ("t", "root_pos", "root_quat", "root_lin_vel", "root_ang_vel", "joint_pos")
_BODY = ("body_pos", "body_quat", "body_lin_vel", "body_ang_vel")
_OPTIONAL = ("joint_vel",) + _BODY
#: clip columns, in the order of a frame's fields in the clip file
COLUMNS = _REQUIRED + _OPTIONAL
_META = ("name", "fps", "category", "level", "dof_names", "key_bodies")

# a root quaternion within this of unit norm keeps its bits, so a clip
# rebuilt from its own columns does not move them
_UNIT_EPS = 4 * np.finfo(float).eps


def _frame_shapes(n: int, k: int) -> dict[str, tuple[int, ...]]:
    """Per-frame shape of every column for n joints and k key bodies."""
    return dict(
        t=(), root_pos=(3,), root_quat=(4,), root_lin_vel=(3,), root_ang_vel=(3,),
        joint_pos=(n,), joint_vel=(n,),
        body_pos=(k, 3), body_quat=(k, 4), body_lin_vel=(k, 3), body_ang_vel=(k, 3),
    )


#: a Frame's array fields in the order its constructor checks them
_FRAME_ARRAYS = ("joint_pos", "root_lin_vel", "root_ang_vel", "joint_vel") + _BODY


@lru_cache(maxsize=32)
def _frame_checks(n: int, k: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(field, shape) of every Frame array field, in _FRAME_ARRAYS order,
    for n joints and k key bodies."""
    shapes = _frame_shapes(n, k)
    return tuple((key, shapes[key]) for key in _FRAME_ARRAYS)


def _check_body_group(fields: Mapping) -> None:
    """A body group is all or none: body_pos and body_quat are given both or
    neither, and body_lin_vel and body_ang_vel only beside them."""
    if (fields["body_pos"] is None) != (fields["body_quat"] is None):
        raise InputError("body_pos and body_quat: give both or neither")
    if fields["body_pos"] is None:
        for key in ("body_lin_vel", "body_ang_vel"):
            if fields[key] is not None:
                raise InputError(f"{key}: given without body_pos and body_quat")


def _stack_rows(rows: Sequence[Mapping], n: int, k: int) -> dict[str, np.ndarray | None]:
    """Per-frame field mappings, such as a clip file's frames, as columns."""
    shapes = _frame_shapes(n, k)
    return {key: _stack_column(key, [row.get(key) for row in rows], shapes[key]) for key in COLUMNS}


def _stack_column(key: str, values: Sequence, shape: tuple[int, ...]) -> np.ndarray | None:
    """One field's per-frame values as a (T, *shape) array, or None for an
    optional field that no frame carries.

    Errors name the first frame that lacks a required field, that differs
    from frame 0 in carrying an optional one, or whose value has another
    shape.
    """
    present = [v is not None for v in values]
    if not all(present):
        if key in _REQUIRED:
            raise InputError(f"frames[{present.index(False)}]: missing field {key!r}")
        if any(present):
            raise InputError(
                f"frames[{present.index(not present[0])}].{key}: present on some frames"
                " only (an optional field is on every frame or on none)"
            )
        return None
    try:
        column = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        column = None
    if column is not None and column.shape[1:] == shape:
        return column
    for i, value in enumerate(values):
        if np.shape(value) != shape:
            raise InputError(f"frames[{i}].{key}: expected shape {shape}, got {np.shape(value)}")
    raise InputError(f"frames: {key} holds a value that is not a number")


@dataclass(frozen=True, eq=False, init=False)
class MotionClip:
    """A reference trajectory held as one read-only array per field.

    Columns, T frames long: t (T,) seconds on a 1/fps grid; root_pos (T, 3);
    root_quat (T, 4), unit with canonical sign; root_lin_vel and
    root_ang_vel (T, 3); joint_pos (T, n). Optional columns are present for
    every frame or None: joint_vel (T, n); body_pos (T, K, 3); body_quat
    (T, K, 4); body_lin_vel and body_ang_vel (T, K, 3). As on a Frame, the
    body group is all or none: body_pos and body_quat both or neither, and
    the body velocities only beside them.

    The constructor stacks a sequence of Frame once; `from_arrays` takes the
    columns themselves; `replace` copies a clip with some fields changed.
    All three run the same checks, so a copy is checked as a new clip is.
    `frames` views the clip frame by frame.
    """

    name: str
    fps: float
    category: str
    level: str
    dof_names: tuple[str, ...]
    key_bodies: tuple[str, ...]
    t: np.ndarray
    root_pos: np.ndarray
    root_quat: np.ndarray
    root_lin_vel: np.ndarray
    root_ang_vel: np.ndarray
    joint_pos: np.ndarray
    joint_vel: np.ndarray | None
    body_pos: np.ndarray | None
    body_quat: np.ndarray | None
    body_lin_vel: np.ndarray | None
    body_ang_vel: np.ndarray | None

    def __init__(
        self,
        name: str,
        fps: float,
        category: str,
        level: str,
        frames: Sequence[Frame],
        dof_names: Sequence[str] = (),
        key_bodies: Sequence[str] = (),
    ):
        frames = tuple(frames)
        if not frames:
            raise InputError("frames must be non-empty")
        rows = [dict(vars(f), root_pos=f.root.position, root_quat=f.root.orientation) for f in frames]
        k = 0 if frames[0].body_pos is None else frames[0].body_pos.shape[0]
        columns = _stack_rows(rows, frames[0].joint_pos.shape[0], k)
        self._set(name, fps, category, level, dof_names, key_bodies, columns)

    @classmethod
    def from_arrays(
        cls,
        name: str,
        fps: float,
        category: str,
        level: str,
        dof_names: Sequence[str] = (),
        key_bodies: Sequence[str] = (),
        **columns: np.ndarray | None,
    ) -> "MotionClip":
        """A clip from its columns; optional columns may be omitted or None."""
        clip = cls.__new__(cls)
        clip._set(name, fps, category, level, dof_names, key_bodies, columns)
        return clip

    def replace(self, **changes) -> "MotionClip":
        """A copy with metadata fields or columns replaced, checked as a new
        clip is. The columns it keeps are shared, not copied."""
        fields = {key: getattr(self, key) for key in _META + COLUMNS}
        return MotionClip.from_arrays(**{**fields, **changes})

    def _set(self, name, fps, category, level, dof_names, key_bodies, columns) -> None:
        """Check and store the fields. A column that is already a read-only
        float64 array is stored as it is; any other is stored as a read-only
        float64 view."""
        if not 0 < fps < math.inf:
            raise InputError(f"fps must be positive and finite, got {fps}")
        if category not in CATEGORIES:
            raise InputError(f"unknown category {category!r}")
        if level not in CATEGORY_LEVELS[category]:
            raise InputError(f"level {level!r} not allowed for category {category!r}")
        unknown = sorted(set(columns) - set(COLUMNS))
        missing = [key for key in _REQUIRED if columns.get(key) is None]
        if unknown or missing:
            raise InputError(f"clip columns: unknown {unknown}, missing {missing}")
        cols = {key: columns.get(key) for key in COLUMNS}
        _check_body_group(cols)
        for key, column in cols.items():
            if column is not None:
                cols[key] = np.asarray(column, dtype=float)
        t, joint_pos = cols["t"], cols["joint_pos"]
        if t.ndim != 1 or not t.size or joint_pos.ndim != 2:
            raise InputError(f"need t (T,) and joint_pos (T, n), T > 0: {t.shape}, {joint_pos.shape}")
        T, n = joint_pos.shape
        body_pos = cols["body_pos"]
        k = body_pos.shape[1] if body_pos is not None and body_pos.ndim == 3 else 0
        for key, shape in _frame_shapes(n, k).items():
            column = cols[key]
            if column is None:
                continue
            if column.shape != (T,) + shape:
                raise InputError(f"{key}: expected shape {(T,) + shape}, got {column.shape}")
            if not np.isfinite(column).all():
                finite = np.isfinite(column.reshape(T, -1)).all(axis=1)
                raise InputError(f"frames[{np.argmin(finite)}].{key}: non-finite values")
        quat = cols["root_quat"]
        norm = np.linalg.norm(quat, axis=1)
        off = np.abs(norm - 1.0)
        if np.any(off > _QUAT_TOL):
            i = np.argmax(off > _QUAT_TOL)
            raise InputError(
                f"frames[{i}].root_quat: norm {norm[i]:.9f} deviates beyond {_QUAT_TOL}"
            )
        canonical = quat_canonical(np.where((off > _UNIT_EPS)[:, None], quat / norm[:, None], quat))
        # equal values are equal bits here: neither step turns a zero's sign alone
        if not np.array_equal(canonical, quat):
            cols["root_quat"] = canonical
        spacing = np.diff(t)
        if np.any(spacing <= 0.0):
            i = np.argmax(spacing <= 0.0) + 1
            raise InputError(f"frames[{i}].t: timestamps must be strictly increasing")
        period = 1.0 / fps
        off = np.abs(spacing - period) > _TIME_TOL
        if np.any(off):
            i = np.argmax(off)
            raise InputError(
                f"frames[{i + 1}]: timestamp spacing {spacing[i]:.9f}"
                f" deviates from 1/fps={period:.9f}"
            )
        dof_names, key_bodies = tuple(dof_names), tuple(key_bodies)
        if dof_names and len(dof_names) != n:
            raise InputError(f"dof_names: {len(dof_names)} names for {n} joints")
        if key_bodies and body_pos is not None and len(key_bodies) != k:
            raise InputError(f"key_bodies: {len(key_bodies)} names for {k} key bodies")
        for key, value in zip(_META, (name, fps, category, level, dof_names, key_bodies)):
            object.__setattr__(self, key, value)
        for key, column in cols.items():
            if column is not None and column.flags.writeable:
                column = column.view()
                column.flags.writeable = False
            object.__setattr__(self, key, column)

    @property
    def frames(self) -> Sequence[Frame]:
        """The clip frame by frame; each Frame is built when accessed."""
        return _FrameView(self)

    @property
    def n_joints(self) -> int:
        return self.joint_pos.shape[1]

    @property
    def n_key_bodies(self) -> int:
        if self.key_bodies:
            return len(self.key_bodies)
        return 0 if self.body_pos is None else self.body_pos.shape[1]

    def joint_pos_array(self) -> np.ndarray:
        return self.joint_pos

    def root_pos_array(self) -> np.ndarray:
        return self.root_pos

    def root_quat_array(self) -> np.ndarray:
        return self.root_quat

    def body_pos_array(self) -> np.ndarray | None:
        return self.body_pos


class _FrameView(Sequence):
    """A clip's frames, each built from the columns when it is accessed."""

    def __init__(self, clip: MotionClip):
        self._clip = clip

    def __len__(self) -> int:
        return len(self._clip.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        columns = {key: getattr(self._clip, key) for key in COLUMNS}
        row = {key: None if c is None else c[index] for key, c in columns.items()}
        root = RigidPose(row.pop("root_pos"), row.pop("root_quat"))
        return Frame(t=float(row.pop("t")), root=root, **row)


# ---------------------------------------------------------------------------
# Derivation helpers
# ---------------------------------------------------------------------------

def finite_difference(values: np.ndarray, fps: float) -> np.ndarray:
    """Central differences, one-sided at the endpoints."""
    v = np.empty_like(values)
    if len(values) == 1:
        v[:] = 0.0
        return v
    v[1:-1] = (values[2:] - values[:-2]) * (fps / 2.0)
    v[0] = (values[1] - values[0]) * fps
    v[-1] = (values[-1] - values[-2]) * fps
    return v


def derive_body_kinematics(clip: MotionClip, model: HumanoidModel) -> MotionClip:
    """Fill key-body positions/orientations via FK when the clip has none."""
    if clip.body_pos is not None:
        return clip
    body_pos, body_quat = key_body_poses(model, clip.joint_pos, clip.root_pos, clip.root_quat)
    return clip.replace(body_pos=body_pos, body_quat=body_quat, key_bodies=model.key_bodies)


# ---------------------------------------------------------------------------
# Clip file I/O (canonical JSON serialization)
# ---------------------------------------------------------------------------

def clip_to_dict(clip: MotionClip) -> dict:
    """The clip file document: the header, then each present column as
    base64 of its little-endian float64 bytes in C order."""
    return {
        "header": {
            "name": clip.name,
            "fps": clip.fps,
            "category": clip.category,
            "level": clip.level,
            "n": clip.n_joints,
            "K": clip.n_key_bodies,
            "dof_names": list(clip.dof_names),
            "key_bodies": list(clip.key_bodies),
        },
        "columns": {
            key: base64.b64encode(column.astype("<f8", copy=False).tobytes()).decode("ascii")
            for key in COLUMNS
            if (column := getattr(clip, key)) is not None
        },
    }


def _decode_columns(encoded, n: int, k: int) -> dict[str, np.ndarray]:
    """A clip document's base64 columns as (T, *shape) arrays, T from `t`.

    Each array is a read-only view of its decoded bytes, not a copy.
    """
    if not isinstance(encoded, Mapping):
        raise ClipParseError("columns: expected an object of base64 strings")
    for key in encoded:
        if key not in COLUMNS:
            raise ClipParseError(f"columns.{key}: unknown column")
    for key in _REQUIRED:
        if key not in encoded:
            raise ClipParseError(f"columns.{key}: missing")
    raw = {}
    for key, text in encoded.items():
        try:
            raw[key] = base64.b64decode(text, validate=True)
        except (binascii.Error, TypeError, ValueError):
            raise ClipParseError(f"columns.{key}: not base64 text") from None
    T = len(raw["t"]) // 8
    shapes = _frame_shapes(n, k)
    columns = {}
    for key, data in raw.items():
        shape = (T,) + shapes[key]
        if len(data) != 8 * math.prod(shape):
            raise ClipParseError(
                f"columns.{key}: {len(data)} bytes, expected {8 * math.prod(shape)}"
                f" for float64 shape {shape}"
            )
        columns[key] = np.frombuffer(data, "<f8").reshape(shape)
    return columns


def clip_from_dict(doc: Mapping) -> MotionClip:
    """A clip from its file document. Row documents, which hold a "frames"
    list of per-frame objects instead of "columns", are read too."""
    try:
        header = doc["header"]
        has_columns, has_frames = "columns" in doc, "frames" in doc
    except (KeyError, TypeError):
        raise ClipParseError("clip document: missing 'header'") from None
    if has_columns == has_frames:
        which = "has both" if has_columns else "needs one of"
        raise ClipParseError(f"clip document: {which} 'columns' and 'frames'")
    try:
        fps = float(header["fps"])
        name = str(header["name"])
        category = str(header.get("category", "other"))
        level = str(header.get("level", "none"))
        n = int(header["n"])
        k = int(header.get("K", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ClipParseError(f"header: {exc}") from None
    if not 0 < fps < math.inf:
        raise ClipParseError(f"header.fps: fps must be positive and finite, got {fps}")
    if has_frames:
        frames_doc = doc["frames"]
        if not frames_doc:
            raise ClipParseError("clip document: frames must be non-empty")
        if not all(isinstance(fd, Mapping) for fd in frames_doc):
            raise ClipParseError("frames: every frame must be an object")
    try:
        columns = _decode_columns(doc["columns"], n, k) if has_columns else _stack_rows(frames_doc, n, k)
        return MotionClip.from_arrays(
            name,
            fps,
            category,
            level,
            dof_names=tuple(header.get("dof_names", ())),
            key_bodies=tuple(header.get("key_bodies", ())),
            **columns,
        )
    except InputError as exc:
        raise ClipParseError(f"clip document: {exc}") from None


def save_clip(clip: MotionClip, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clip_to_dict(clip), fh, indent=1)
        fh.write("\n")


def load_clip(path) -> MotionClip:
    return clip_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    x = np.sort(np.asarray(values, dtype=float))
    if x.size == 0:
        raise InputError("percentile of empty sample")
    h = (p / 100.0) * (x.size - 1)
    lo = int(np.floor(h))
    hi = min(lo + 1, x.size - 1)
    return float(x[lo] + (h - lo) * (x[hi] - x[lo]))


@dataclass(frozen=True)
class StatsRow:
    """One row of the corpus statistics table.

    For the speed metric, lo/hi are min-P5 and max-P95 across clips;
    for the height metrics they are global min/max.
    """

    category: str
    level: str
    metric: str  # speed | root_height | hand_height
    lo: float
    hi: float
    mean: float


def _planar_speed(clip: MotionClip) -> np.ndarray:
    v = clip.root_lin_vel
    return np.linalg.norm(v[:, :2], axis=1)


def _hand_heights(clip: MotionClip, model: HumanoidModel) -> np.ndarray:
    pos, _ = forward_kinematics_arrays(model, clip.joint_pos, clip.root_pos, clip.root_quat)
    hands = [i for i, name in enumerate(model.link_names) if "wrist_yaw" in name]
    if not hands:
        raise ConfigError("model has no wrist_yaw links for hand-height statistics")
    return pos[:, hands, 2].ravel()


def clip_stats(
    clips: Sequence[MotionClip], model: HumanoidModel
) -> list[StatsRow]:
    """Speed / root-height / hand-height statistics, grouped by (category, level).

    Speed rows report the minimum per-clip P5, the maximum per-clip P95,
    and the mean over all frames, excluding startup/stop transients the
    same way the per-clip percentile trimming does. Height rows report
    global min/max/mean.
    """
    if not clips:
        raise InputError("clip_stats: empty clip list")
    for c in clips:
        if c.n_joints != model.n_joints:
            raise InputError(
                f"clip {c.name!r}: {c.n_joints} joints, model has {model.n_joints}"
            )
    groups: dict[tuple[str, str], list[MotionClip]] = {}
    for c in clips:
        groups.setdefault((c.category, c.level), []).append(c)
    rows: list[StatsRow] = []
    # means use exactly rounded summation so they are input-order invariant
    fmean = lambda values: math.fsum(values) / len(values)
    for (cat, lvl), members in sorted(groups.items()):
        speeds = [_planar_speed(c) for c in members]
        all_speeds = np.concatenate(speeds)
        rows.append(
            StatsRow(
                cat,
                lvl,
                "speed",
                lo=min(percentile(s, 5.0) for s in speeds),
                hi=max(percentile(s, 95.0) for s in speeds),
                mean=fmean(all_speeds),
            )
        )
        root_z = np.concatenate([c.root_pos[:, 2] for c in members])
        rows.append(
            StatsRow(
                cat, lvl, "root_height",
                lo=float(root_z.min()), hi=float(root_z.max()), mean=fmean(root_z),
            )
        )
        hand_z = np.concatenate([_hand_heights(c, model) for c in members])
        rows.append(
            StatsRow(
                cat, lvl, "hand_height",
                lo=float(hand_z.min()), hi=float(hand_z.max()), mean=fmean(hand_z),
            )
        )
    return rows


_DISPLAY_CATEGORY = {
    "loco_manip": "Loco",
    "manip": "Manip",
    "squat": "Squat",
    "walk": "Walk",
    "run": "Run",
    "jump": "Jump",
    "other": "Other",
}
_DISPLAY_LEVEL = {
    "high": "High",
    "medium": "Med",
    "low": "Low",
    "fast": "Fast",
    "medium_speed": "Med",
    "slow": "Slow",
    "none": "",
}


def stats_label(category: str, level: str) -> str:
    lvl = _DISPLAY_LEVEL.get(level, level)
    cat = _DISPLAY_CATEGORY.get(category, category)
    return f"{cat} {lvl}".strip()


def format_stats_markdown(rows: Sequence[StatsRow], metric: str) -> str:
    """Markdown table for one metric, rows like `| Walk Slow | 0.618 | 1.704 | 1.026 |`."""
    header = {
        "speed": "| Motion | Min P5 | Max P95 | Mean |",
        "root_height": "| Motion | Min | Max | Mean |",
        "hand_height": "| Motion | Min | Max | Mean |",
    }[metric]
    lines = [header, "| --- | --- | --- | --- |"]
    for r in rows:
        if r.metric != metric:
            continue
        lines.append(
            f"| {stats_label(r.category, r.level)} | {r.lo:.3f} | {r.hi:.3f} | {r.mean:.3f} |"
        )
    return "\n".join(lines) + "\n"


def stats_to_csv(rows: Sequence[StatsRow]) -> str:
    lines = ["category,level,metric,lo,hi,mean"]
    for r in rows:
        lines.append(f"{r.category},{r.level},{r.metric},{r.lo!r},{r.hi!r},{r.mean!r}")
    return "\n".join(lines) + "\n"


def stats_to_json(rows: Sequence[StatsRow]) -> str:
    doc = [
        {
            "category": r.category,
            "level": r.level,
            "metric": r.metric,
            "lo": r.lo,
            "hi": r.hi,
            "mean": r.mean,
        }
        for r in rows
    ]
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Recipe composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecipeManifest:
    """Deterministic composition of training pools into a dataset selection."""

    pools: Mapping[str, tuple[str, ...]]
    target_fraction: Mapping[str, float]
    total_count: int
    seed: int
    selected: tuple[tuple[str, str, float], ...]  # (label, clip, weight)
    wrapped: tuple[str, ...] = ()


def largest_remainder_counts(
    fractions: Mapping[str, float], total: int
) -> dict[str, int]:
    """Round fraction*total to integers summing to total (largest remainder,
    ties broken by label order)."""
    if total < 0:
        raise ConfigError(f"total must be >= 0, got {total}")
    for label, fraction in fractions.items():
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"fraction of {label!r} must be in [0, 1], got {fraction}")
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        raise ConfigError(f"fractions sum to {sum(fractions.values())}, expected 1")
    labels = sorted(fractions)
    quotas = {lab: fractions[lab] * total for lab in labels}
    counts = {lab: int(np.floor(quotas[lab])) for lab in labels}
    seats = total - sum(counts.values())
    by_remainder = sorted(labels, key=lambda lab: (-(quotas[lab] - counts[lab]), lab))
    for lab in by_remainder[:seats]:
        counts[lab] += 1
    return counts


def compose_recipe(
    pools: Mapping[str, Sequence[str]],
    fractions: Mapping[str, float],
    total_count: int,
    seed: int,
) -> RecipeManifest:
    """Sample clips per pool without replacement (wrapping with replacement,
    flagged, when a pool is exhausted). Deterministic for a given seed."""
    counts = largest_remainder_counts(fractions, total_count)
    for label, count in counts.items():
        if count > 0 and not pools.get(label):
            raise ConfigError(f"pool {label!r} is empty but has fraction {fractions[label]}")
    rng = np.random.default_rng(seed)
    selected: list[tuple[str, str, float]] = []
    wrapped: list[str] = []
    weight = 1.0 / total_count if total_count else 0.0
    for label in sorted(counts):
        count = counts[label]
        if count == 0:
            continue
        pool = list(pools[label])
        order = rng.permutation(len(pool))
        picks = [pool[i] for i in order[:count]]
        if count > len(pool):
            wrapped.append(label)
            extra = rng.integers(0, len(pool), size=count - len(pool))
            picks = [pool[i] for i in order] + [pool[i] for i in extra]
        selected.extend((label, clip, weight) for clip in picks)
    return RecipeManifest(
        pools={k: tuple(v) for k, v in pools.items()},
        target_fraction=dict(fractions),
        total_count=total_count,
        seed=seed,
        selected=tuple(selected),
        wrapped=tuple(wrapped),
    )


def recipe_to_json(manifest: RecipeManifest) -> str:
    doc = {
        "pools": {k: list(v) for k, v in manifest.pools.items()},
        "target_fraction": dict(manifest.target_fraction),
        "total_count": manifest.total_count,
        "seed": manifest.seed,
        "selected": [
            {"label": lab, "clip": clip, "weight": w}
            for lab, clip, w in manifest.selected
        ],
        "wrapped": list(manifest.wrapped),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def recipe_to_csv(manifest: RecipeManifest) -> str:
    lines = ["label,clip,weight"]
    for lab, clip, w in manifest.selected:
        lines.append(f"{lab},{clip},{w!r}")
    return "\n".join(lines) + "\n"
