"""Diagnostic tracking benchmark: per-episode success/error evaluation and
stratified aggregation over the 6x3 category/level grid.

Episodes are scored in world frame: every tracker starts from the
clip's own initial root, so drift counts against the tracker. A root-relative
error variant is available behind a flag.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .files import read_json
from .kinematics import HumanoidModel, key_body_poses
from .motion import BENCH_STRATA, MotionClip
from .simtrack import TrackerSpec, _track_joints


@dataclass(frozen=True)
class FailureThresholds:
    deviation_m: float = 0.5
    fall_root_z_m: float = 0.3
    root_drift_m: float = 1.0

    def __post_init__(self):
        for name in ("deviation_m", "fall_root_z_m", "root_drift_m"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"failure threshold {name} must be positive and finite, got {value}")


FAILURE_REASONS = ("fall", "deviation", "none")


@dataclass(frozen=True, eq=False)
class EpisodeResult:
    clip_name: str
    category: str
    level: str
    success: bool
    failure_reason: str  # one of FAILURE_REASONS
    mpjpe_mm: float
    per_frame_error_mm: np.ndarray
    frames_evaluated: int

    def __post_init__(self):
        if self.success and self.failure_reason != "none":
            raise InputError("successful episodes must have failure_reason 'none'")
        if not 0.0 <= self.mpjpe_mm < math.inf:
            raise InputError(f"mpjpe must be finite and >= 0, got {self.mpjpe_mm}")


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


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def first_failure(
    distances: np.ndarray,
    pred_roots: np.ndarray,
    ref_roots: np.ndarray,
    thresholds: FailureThresholds = FailureThresholds(),
) -> tuple[int, str] | None:
    """Index and reason of the first failed frame, or None.

    Takes the (T, K) distances between realised and reference key-body
    positions, and (T, 3) root positions. A frame fails on a key-body
    distance beyond deviation_m; on the root below fall_root_z_m while the
    reference root stays above it by 0.1 m (so commanded deep squats do not
    read as falls); or on planar root drift beyond root_drift_m. Deviation
    and drift report "deviation", and a frame that both deviates and falls
    reports "deviation".
    """
    deviation = np.any(distances > thresholds.deviation_m, axis=-1)
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
    """Track the clip and score the realised key bodies against its own.

    The reference key bodies are the clip's body_pos, else one
    key_body_poses call on its joints and roots. perfect and lag:k realise
    rows max(0, t - k) of the reference key bodies and roots; noise and pd
    realise the key bodies of the tracked joints at the clip's roots
    (simtrack._track_joints). Scoring reads these arrays and the clip's
    columns, so no clip is built or re-checked, and joint velocities, which
    scoring never reads, are not derived.

    alignment="global" scores world-frame positions. Every tracker realises
    frame 0 of the clip's own roots, so the planar transform that maps the
    realised initial root onto the reference's is the identity and is not
    applied; a tracker that realises other roots must bring that alignment
    back. alignment="root_relative" scores body positions relative to the
    root. The distances between realised and reference key bodies give
    both the per-frame error and the deviation check (first_failure). The
    episode terminates at the first failed frame; MPJPE covers frames up to
    and including termination.
    """
    if alignment not in ("global", "root_relative"):
        raise InputError(f"unknown alignment {alignment!r}")
    ref_roots = clip.root_pos
    ref_bodies = clip.body_pos
    if ref_bodies is None:
        ref_bodies, _ = key_body_poses(model, clip.joint_pos, ref_roots, clip.root_quat)
    if tracker.mode in ("noise", "pd"):
        _, _, pred_bodies, _ = _track_joints(tracker, clip, model)
        pred_roots = ref_roots
    else:
        k = tracker.lag if tracker.mode == "lag" else 0
        rows = np.maximum(np.arange(len(ref_roots)) - k, 0) if k else slice(None)
        pred_bodies, pred_roots = ref_bodies[rows], ref_roots[rows]

    if alignment == "root_relative":
        pred_bodies = pred_bodies - pred_roots[:, None, :]
        ref_bodies = ref_bodies - ref_roots[:, None, :]
    distances = np.linalg.norm(pred_bodies - ref_bodies, axis=-1)
    per_frame = 1000.0 * np.mean(distances, axis=-1)
    first = first_failure(distances, pred_roots, ref_roots, thresholds)
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
    for r in report.rows:
        value = "" if r.mpjpe_mm is None else repr(float(r.mpjpe_mm))
        lines.append(f"{r.category}_{r.level},{value}")
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


def episode_from_dict(doc: Mapping, i: int = 0, source: str = "results document") -> EpisodeResult:
    """One results-document episode. success must be a JSON boolean,
    mpjpe_mm a JSON number, finite and >= 0, failure_reason one of
    FAILURE_REASONS and frames_evaluated an integer >= 1; errors name
    `source`, episodes[i] and the key."""
    try:
        success, reason = doc["success"], doc["failure_reason"]
        mpjpe, frames = doc["mpjpe_mm"], doc["frames_evaluated"]
        if not isinstance(success, bool):
            raise InputError(f"'success' must be true or false, got {success!r}")
        if reason not in FAILURE_REASONS:
            raise InputError(f"'failure_reason' must be one of {FAILURE_REASONS}, got {reason!r}")
        number = isinstance(mpjpe, (int, float)) and not isinstance(mpjpe, bool)
        if not number or not 0.0 <= mpjpe <= sys.float_info.max:
            raise InputError(f"'mpjpe_mm' must be a finite number >= 0, got {mpjpe!r}")
        if isinstance(frames, bool) or not isinstance(frames, int) or frames < 1:
            raise InputError(f"'frames_evaluated' must be an integer >= 1, got {frames!r}")
        return EpisodeResult(
            clip_name=doc["clip_name"],
            category=doc["category"],
            level=doc["level"],
            success=success,
            failure_reason=reason,
            mpjpe_mm=float(mpjpe),
            per_frame_error_mm=np.asarray(doc.get("per_frame_error_mm", []), dtype=float),
            frames_evaluated=frames,
        )
    except KeyError as exc:
        raise InputError(f"{source}: episodes[{i}]: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # a wrong type or value, InputError included
        raise InputError(f"{source}: episodes[{i}]: {exc}") from None


def results_to_json(results: Sequence[EpisodeResult], method: str = "") -> str:
    doc = {"method": method, "episodes": [episode_to_dict(e) for e in results]}
    return json.dumps(doc, indent=1) + "\n"


def results_from_dict(doc, source: str = "results document") -> tuple[list[EpisodeResult], str]:
    """Episodes and method label of a results document; errors name `source`."""
    if not isinstance(doc, Mapping):
        raise InputError(f"{source}: expected an object with key 'episodes', got {type(doc).__name__}")
    if "episodes" not in doc:
        raise InputError(f"{source}: missing key 'episodes'")
    if not isinstance(doc["episodes"], list):
        raise InputError(f"{source}: 'episodes' is {type(doc['episodes']).__name__}, not a list")
    episodes = [episode_from_dict(d, i, source) for i, d in enumerate(doc["episodes"])]
    return episodes, doc.get("method", "")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    category: str | None = None
    level: str | None = None


def load_manifest(path) -> list[ManifestEntry]:
    doc = read_json(path)
    if not isinstance(doc, Mapping):
        raise InputError(f"{path}: manifest is {type(doc).__name__}, not an object with key 'clips'")
    if "clips" not in doc:
        raise InputError(f"{path}: manifest missing 'clips'")
    if not isinstance(doc["clips"], list):
        raise InputError(f"{path}: manifest 'clips' is {type(doc['clips']).__name__}, not a list")
    for i, e in enumerate(doc["clips"]):
        if not isinstance(e, Mapping):
            raise InputError(f"{path}: manifest clips[{i}] is not an object")
        if "path" not in e:
            raise InputError(f"{path}: manifest clips[{i}] missing 'path'")
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
