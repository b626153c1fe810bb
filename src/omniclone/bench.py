"""Diagnostic tracking benchmark: per-episode success/error evaluation and
stratified aggregation over the 6x3 category/level grid.

Episodes are scored in world frame after aligning the episode-initial
root planar pose (yaw + xy), so drift counts against the tracker. A
root-relative error variant is available behind a flag.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .kinematics import HumanoidModel
from .motion import BENCH_STRATA, MotionClip, derive_body_kinematics
from .rotations import quat_from_yaw, quat_rotate, quat_yaw
from .simtrack import TrackerSpec, track_clip


@dataclass(frozen=True)
class FailureThresholds:
    deviation_m: float = 0.5
    fall_root_z_m: float = 0.3
    root_drift_m: float = 1.0

    def __post_init__(self):
        if min(self.deviation_m, self.fall_root_z_m, self.root_drift_m) <= 0:
            raise ConfigError("failure thresholds must be positive")


@dataclass(frozen=True, eq=False)
class EpisodeResult:
    clip_name: str
    category: str
    level: str
    success: bool
    failure_reason: str  # fall | deviation | none
    mpjpe_mm: float
    per_frame_error_mm: np.ndarray
    frames_evaluated: int

    def __post_init__(self):
        if self.success and self.failure_reason != "none":
            raise InputError("successful episodes must have failure_reason 'none'")
        if self.mpjpe_mm < 0:
            raise InputError("mpjpe must be >= 0")


@dataclass(frozen=True)
class StratumRow:
    category: str
    level: str
    sr_percent: float
    mpjpe_mm: float | None
    episodes: int = 0


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[StratumRow, ...]
    method: str = ""
    partial: bool = False

    def row(self, category: str, level: str) -> StratumRow:
        for r in self.rows:
            if r.category == category and r.level == level:
                return r
        raise KeyError((category, level))

    def radar_series(self) -> list[tuple[str, float | None]]:
        return [(f"{r.category}_{r.level}", r.mpjpe_mm) for r in self.rows]


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def mpjpe(pred_bodies: np.ndarray, ref_bodies: np.ndarray) -> float:
    """Mean Euclidean key-body error in millimetres over a (T, K, 3) pair."""
    pred = np.asarray(pred_bodies, dtype=float)
    ref = np.asarray(ref_bodies, dtype=float)
    if pred.shape != ref.shape or pred.ndim != 3 or pred.shape[-1] != 3:
        raise InputError(f"shape mismatch: {pred.shape} vs {ref.shape}")
    if pred.shape[0] < 1:
        raise InputError("need at least one frame")
    return 1000.0 * float(np.mean(np.linalg.norm(pred - ref, axis=-1)))


def planar_alignment(
    pred_root_pos: np.ndarray,
    pred_root_quat: np.ndarray,
    ref_root_pos: np.ndarray,
    ref_root_quat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """SE(2) transform (quat, translation) mapping the predicted initial root
    planar pose onto the reference's."""
    dyaw = float(quat_yaw(ref_root_quat) - quat_yaw(pred_root_quat))
    q = quat_from_yaw(dyaw)
    rotated = quat_rotate(q, pred_root_pos)
    t = np.array(
        [ref_root_pos[0] - rotated[0], ref_root_pos[1] - rotated[1], 0.0]
    )
    return q, t


def first_failure(
    pred_bodies: np.ndarray,
    ref_bodies: np.ndarray,
    pred_roots: np.ndarray,
    ref_roots: np.ndarray,
    thresholds: FailureThresholds = FailureThresholds(),
) -> tuple[int, str] | None:
    """Index and reason of the first failed frame, or None.

    Takes (T, K, 3) key-body positions and (T, 3) root positions. A frame
    fails on key-body deviation beyond deviation_m; on the root below
    fall_root_z_m while the reference root stays above it by 0.1 m (so
    commanded deep squats do not read as falls); or on planar root drift
    beyond root_drift_m. Deviation and drift report "deviation", and a
    frame that both deviates and falls reports "deviation".
    """
    deviation = np.any(
        np.linalg.norm(pred_bodies - ref_bodies, axis=-1) > thresholds.deviation_m, axis=-1
    )
    fall = (pred_roots[:, 2] < thresholds.fall_root_z_m) & (
        ref_roots[:, 2] >= thresholds.fall_root_z_m + 0.1
    )
    drift = np.linalg.norm(pred_roots[:, :2] - ref_roots[:, :2], axis=-1) > thresholds.root_drift_m
    failed = deviation | fall | drift
    if not failed.any():
        return None
    i = int(np.argmax(failed))
    return i, "fall" if fall[i] and not deviation[i] else "deviation"


def run_episode(
    tracker: TrackerSpec,
    clip: MotionClip,
    model: HumanoidModel,
    thresholds: FailureThresholds = FailureThresholds(),
    alignment: str = "global",
) -> EpisodeResult:
    """Track the clip and score the realised motion against it.

    The episode terminates at the first failed frame; MPJPE covers frames
    up to and including termination. alignment="root_relative" measures
    errors on root-relative body positions instead of aligned world frame.
    """
    if alignment not in ("global", "root_relative"):
        raise InputError(f"unknown alignment {alignment!r}")
    ref = derive_body_kinematics(clip, model)
    realised = track_clip(tracker, ref, model)
    ref_bodies, ref_roots = ref.body_pos, ref.root_pos
    pred_bodies, pred_roots = realised.body_pos, realised.root_pos

    if alignment == "global":
        q, t = planar_alignment(
            pred_roots[0], realised.root_quat[0], ref_roots[0], ref.root_quat[0]
        )
        pred_bodies = quat_rotate(q, pred_bodies) + t
        pred_roots = quat_rotate(q, pred_roots) + t
    else:
        pred_bodies = pred_bodies - pred_roots[:, None, :]
        ref_bodies = ref_bodies - ref_roots[:, None, :]

    per_frame = 1000.0 * np.mean(
        np.linalg.norm(pred_bodies - ref_bodies, axis=-1), axis=-1
    )
    first = first_failure(pred_bodies, ref_bodies, pred_roots, ref_roots, thresholds)
    evaluated, failure = (len(per_frame), "none") if first is None else (first[0] + 1, first[1])
    per_frame = per_frame[:evaluated]
    return EpisodeResult(
        clip_name=clip.name,
        category=clip.category,
        level=clip.level,
        success=first is None,
        failure_reason=failure,
        mpjpe_mm=float(np.mean(per_frame)),
        per_frame_error_mm=per_frame,
        frames_evaluated=evaluated,
    )


# ---------------------------------------------------------------------------
# Aggregation and reports
# ---------------------------------------------------------------------------

def aggregate(
    results: Sequence[EpisodeResult],
    method: str = "",
    include_failed: bool = False,
) -> BenchReport:
    """Stratified SR/MPJPE table. MPJPE averages successful episodes only
    (failures already cost SR) unless include_failed is set; strata without
    episodes are absent, not zero."""
    groups: dict[tuple[str, str], list[EpisodeResult]] = {}
    for r in results:
        groups.setdefault((r.category, r.level), []).append(r)
    ordered = [s for s in BENCH_STRATA if s in groups]
    ordered += sorted(s for s in groups if s not in BENCH_STRATA)
    rows = []
    for cat, lvl in ordered:
        episodes = groups[(cat, lvl)]
        successes = [e for e in episodes if e.success]
        scored = episodes if include_failed else successes
        # sort before averaging so aggregation is exactly input-order invariant
        errors = np.sort([e.mpjpe_mm for e in scored]) if scored else None
        rows.append(
            StratumRow(
                category=cat,
                level=lvl,
                sr_percent=100.0 * len(successes) / len(episodes),
                mpjpe_mm=float(np.mean(errors)) if errors is not None else None,
                episodes=len(episodes),
            )
        )
    covered = {(r.category, r.level) for r in rows}
    partial = any(s not in covered for s in BENCH_STRATA)
    return BenchReport(rows=tuple(rows), method=method, partial=partial)


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def report_to_csv(report: BenchReport) -> str:
    lines = ["category,level,sr_percent,mpjpe_mm"]
    for r in report.rows:
        lines.append(f"{r.category},{r.level},{_fmt(r.sr_percent)},{_fmt(r.mpjpe_mm)}")
    return "\n".join(lines) + "\n"


def report_to_json(report: BenchReport) -> str:
    doc = {
        "method": report.method,
        "partial": report.partial,
        "rows": [
            {
                "category": r.category,
                "level": r.level,
                "sr_percent": r.sr_percent,
                "mpjpe_mm": r.mpjpe_mm,
                "episodes": r.episodes,
            }
            for r in report.rows
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def report_to_radar_csv(report: BenchReport) -> str:
    lines = []
    for label, value in report.radar_series():
        lines.append(f"{label},{'' if value is None else repr(float(value))}")
    return "\n".join(lines) + "\n"


_MD_LEVEL = {"high": "High", "medium": "Medium", "low": "Low",
             "fast": "Fast", "medium_speed": "Medium", "slow": "Slow", "none": "-"}
_MD_CATEGORY = {"loco_manip": "Loco-Manip", "manip": "Manip", "squat": "Squat",
                "walk": "Walk", "run": "Run", "jump": "Jump", "other": "Other"}


def _md_num(x: float | None) -> str:
    return "-" if x is None else f"{x:g}"


def report_to_markdown(report: BenchReport) -> str:
    """Two subtables mirroring the benchmark grouping: workspace-height
    categories first, then the agile ones."""
    first = ("loco_manip", "manip", "squat")
    second = ("walk", "run", "jump")
    out = []
    if report.method:
        out.append(f"**Method: {report.method}**\n")
    if report.partial:
        out.append("_Partial run: some strata are missing._\n")
    for title, cats in (
        ("Locomotion and manipulation (by workspace height)", first),
        ("Agile motion (by intensity / jump height)", second),
    ):
        rows = [r for r in report.rows if r.category in cats]
        if not rows:
            continue
        out.append(f"### {title}\n")
        out.append("| Category | Level | SR (%) | MPJPE (mm) |")
        out.append("| --- | --- | --- | --- |")
        for r in rows:
            out.append(
                f"| {_MD_CATEGORY.get(r.category, r.category)} | {_MD_LEVEL.get(r.level, r.level)}"
                f" | {_md_num(r.sr_percent)} | {_md_num(r.mpjpe_mm)} |"
            )
        out.append("")
    extra = [r for r in report.rows if r.category not in first + second]
    for r in extra:
        out.append(
            f"| {r.category} | {r.level} | {_md_num(r.sr_percent)} | {_md_num(r.mpjpe_mm)} |"
        )
    return "\n".join(out) + "\n"


def emit_report(report: BenchReport, fmt: str) -> str:
    emitters = {
        "csv": report_to_csv,
        "json": report_to_json,
        "markdown": report_to_markdown,
        "radar-csv": report_to_radar_csv,
    }
    if fmt not in emitters:
        raise InputError(f"unknown report format {fmt!r} (choose from {sorted(emitters)})")
    return emitters[fmt](report)


def parse_report_json(text: str) -> BenchReport:
    doc = json.loads(text)
    rows = tuple(
        StratumRow(
            category=r["category"],
            level=r["level"],
            sr_percent=float(r["sr_percent"]),
            mpjpe_mm=None if r["mpjpe_mm"] is None else float(r["mpjpe_mm"]),
            episodes=int(r.get("episodes", 0)),
        )
        for r in doc["rows"]
    )
    return BenchReport(rows=rows, method=doc.get("method", ""), partial=bool(doc.get("partial")))


def parse_report_csv(text: str) -> BenchReport:
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


# ---------------------------------------------------------------------------
# Episode result serialization and manifests
# ---------------------------------------------------------------------------

def episode_to_dict(e: EpisodeResult) -> dict:
    return {
        "clip_name": e.clip_name,
        "category": e.category,
        "level": e.level,
        "success": e.success,
        "failure_reason": e.failure_reason,
        "mpjpe_mm": e.mpjpe_mm,
        "per_frame_error_mm": np.asarray(e.per_frame_error_mm).tolist(),
        "frames_evaluated": e.frames_evaluated,
    }


def episode_from_dict(doc: Mapping) -> EpisodeResult:
    return EpisodeResult(
        clip_name=doc["clip_name"],
        category=doc["category"],
        level=doc["level"],
        success=bool(doc["success"]),
        failure_reason=doc["failure_reason"],
        mpjpe_mm=float(doc["mpjpe_mm"]),
        per_frame_error_mm=np.asarray(doc.get("per_frame_error_mm", []), dtype=float),
        frames_evaluated=int(doc["frames_evaluated"]),
    )


def results_to_json(results: Sequence[EpisodeResult], method: str = "") -> str:
    doc = {"method": method, "episodes": [episode_to_dict(e) for e in results]}
    return json.dumps(doc, indent=1) + "\n"


def results_from_json(text: str) -> tuple[list[EpisodeResult], str]:
    doc = json.loads(text)
    return [episode_from_dict(d) for d in doc["episodes"]], doc.get("method", "")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    category: str | None = None
    level: str | None = None


def load_manifest(path) -> list[ManifestEntry]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "clips" not in doc:
        raise InputError(f"{path}: manifest missing 'clips'")
    return [
        ManifestEntry(
            path=str(e["path"]), category=e.get("category"), level=e.get("level")
        )
        for e in doc["clips"]
    ]


def save_manifest(entries: Sequence[ManifestEntry], path) -> None:
    doc = {
        "clips": [
            {"path": e.path, "category": e.category, "level": e.level}
            for e in entries
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
