import collections
import json
import math

import numpy as np
import pytest

from conftest import write_moving_suite
from oracles import double_loop_mpjpe, episode_oracle, first_failure_loop, parse_report_csv, stratum_row

from omniclone.bench import (
    BenchReport,
    EpisodeResult,
    FailureThresholds,
    ManifestEntry,
    StratumRow,
    aggregate,
    emit_report,
    episode_from_dict,
    episode_to_dict,
    first_failure,
    load_manifest,
    parse_report_json,
    results_from_dict,
    results_to_json,
    run_episode,
    save_manifest,
)
from omniclone.errors import ConfigError, InputError
from omniclone.kinematics import RigidPose
from omniclone.motion import (
    BENCH_STRATA,
    Frame,
    MotionClip,
    derive_body_kinematics,
    load_clip,
    save_clip,
)
from omniclone.simtrack import RobotState, TrackerSpec, parse_tracker, track_clip
from omniclone.synthetic import constant_velocity_clip, static_clip


def episode(category, level, mpjpe_mm, success=True, name="ep"):
    return EpisodeResult(
        clip_name=name,
        category=category,
        level=level,
        success=success,
        failure_reason="none" if success else "deviation",
        mpjpe_mm=mpjpe_mm,
        per_frame_error_mm=np.array([mpjpe_mm]),
        frames_evaluated=1,
    )


class TestMpjpe:
    """run_episode's MPJPE on noise episodes: the tracker's joints go through
    FK, while the reference keeps the key bodies its clip carries."""

    NOISE_FREE = TrackerSpec(mode="noise", noise_std=0.0)

    def test_identical_zero(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=10)
        result = run_episode(self.NOISE_FREE, clip, ref_model)
        assert result.mpjpe_mm == pytest.approx(0.0, abs=1e-9)

    def test_uniform_offset(self, ref_model):
        # recorded key bodies 10 mm above the pose's FK: every frame reads 10 mm
        clip = derive_body_kinematics(constant_velocity_clip(ref_model, 1.0, n_frames=10), ref_model)
        clip = clip.replace(body_pos=clip.body_pos + np.array([0.0, 0.0, 0.010]))
        result = run_episode(self.NOISE_FREE, clip, ref_model)
        assert result.frames_evaluated == 10
        assert np.allclose(result.per_frame_error_mm, 10.0, atol=1e-9)
        assert result.mpjpe_mm == pytest.approx(10.0, abs=1e-9)

    def test_matches_double_loop_oracle(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=12)
        spec = TrackerSpec(mode="noise", noise_std=0.05, seed=3)
        result = run_episode(spec, clip, ref_model)
        pred = track_clip(spec, clip, ref_model).body_pos
        ref = derive_body_kinematics(clip, ref_model).body_pos
        assert result.success and result.frames_evaluated == 12
        assert result.mpjpe_mm > 1.0
        assert result.mpjpe_mm == pytest.approx(double_loop_mpjpe(pred, ref), abs=1e-9)
        per_frame = [double_loop_mpjpe(pred[t : t + 1], ref[t : t + 1]) for t in range(12)]
        assert np.allclose(result.per_frame_error_mm, per_frame, atol=1e-9)


def _static_kinematics(model, root_z):
    """(T=1, K, 3) key bodies and (1, 3) root of a static pose at root_z."""
    clip = derive_body_kinematics(static_clip(model, n_frames=1, root_z=root_z), model)
    return np.array(clip.body_pos), np.array(clip.root_pos)


def distances(pred_bodies, ref_bodies):
    """(T, K) key-body distances, as run_episode passes them to first_failure."""
    return np.linalg.norm(pred_bodies - ref_bodies, axis=-1)


class TestFirstFailure:
    @pytest.mark.parametrize(
        "pred_z, ref_z, body_shift, rigid_shift, thresholds, expected",
        [
            # perfect tracking
            (0.75, 0.75, 0.0, 0.0, FailureThresholds(), None),
            # one key body 0.6 m away
            (0.75, 0.75, 0.6, 0.0, FailureThresholds(), "deviation"),
            # root at 0.25 m while the reference squats to 0.26 m: not a fall
            (0.25, 0.26, 0.0, 0.0, FailureThresholds(), None),
            # whole state dropped rigidly to 0.28 m under a standing reference
            (0.28, 0.75, 0.0, 0.0, FailureThresholds(), "fall"),
            # planar drift beyond root_drift_m reports deviation
            (0.75, 0.75, 0.0, 1.2, FailureThresholds(deviation_m=5.0, root_drift_m=1.0), "deviation"),
        ],
        ids=["perfect", "deviation", "squat_guard", "fall", "drift"],
    )
    def test_cases(self, ref_model, pred_z, ref_z, body_shift, rigid_shift, thresholds, expected):
        pred_bodies, pred_roots = _static_kinematics(ref_model, pred_z)
        ref_bodies, ref_roots = _static_kinematics(ref_model, ref_z)
        pred_bodies[0, 3, 0] += body_shift
        pred_bodies[..., 0] += rigid_shift
        pred_roots[..., 0] += rigid_shift
        got = first_failure(distances(pred_bodies, ref_bodies), pred_roots, ref_roots, thresholds)
        assert got == (None if expected is None else (0, expected))

    @pytest.mark.parametrize("field", ["deviation_m", "fall_root_z_m", "root_drift_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_thresholds_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ConfigError, match=f"failure threshold {field} must be positive and finite, got {value}"):
            FailureThresholds(**{field: value})

    def test_reports_first_failed_frame(self, ref_model):
        bodies, roots = _static_kinematics(ref_model, 0.75)
        ref_bodies, ref_roots = np.repeat(bodies, 8, axis=0), np.repeat(roots, 8, axis=0)
        pred_bodies, pred_roots = ref_bodies.copy(), ref_roots.copy()
        pred_roots[6:, 2] = 0.2  # falls from frame 6 on
        pred_bodies[5:, 2, 0] += 0.6  # deviates from frame 5 on
        assert first_failure(distances(pred_bodies, ref_bodies), pred_roots, ref_roots) == (5, "deviation")
        assert first_failure(distances(pred_bodies[6:], ref_bodies[6:]), pred_roots[6:], ref_roots[6:]) == (
            0, "deviation")
        pred_bodies[5:, 2, 0] -= 0.6
        assert first_failure(distances(pred_bodies, ref_bodies), pred_roots, ref_roots) == (6, "fall")

    def test_matches_frame_by_frame_oracle(self, rng):
        thresholds = FailureThresholds(deviation_m=0.5, fall_root_z_m=0.3, root_drift_m=0.8)
        for _ in range(300):
            T, K = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            ref_bodies = rng.uniform(-1, 1, (T, K, 3))
            ref_roots = rng.uniform([-1, -1, 0.2], [1, 1, 0.9], (T, 3))
            pred_bodies = ref_bodies + rng.normal(0, 0.15, (T, K, 3))
            pred_roots = ref_roots + rng.normal(0, [0.3, 0.3, 0.1], (T, 3))
            expected = first_failure_loop(
                pred_bodies, ref_bodies, pred_roots, ref_roots, 0.5, 0.3, 0.8
            )
            got = first_failure(distances(pred_bodies, ref_bodies), pred_roots, ref_roots, thresholds)
            assert got == expected


class TestRunEpisode:
    def test_perfect_tracker_zero_error(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=30)
        result = run_episode(TrackerSpec(mode="perfect"), clip, ref_model)
        assert result.success
        assert result.failure_reason == "none"
        assert result.mpjpe_mm == pytest.approx(0.0, abs=1e-9)
        assert result.frames_evaluated == 30

    def test_lag_tracker_closed_form(self, ref_model):
        # walking reference at the corpus' slow-walk mean speed
        v, k, fps, T = 1.026, 3, 30.0, 90
        clip = constant_velocity_clip(ref_model, v, n_frames=T, fps=fps, name="walk")
        result = run_episode(TrackerSpec(mode="lag", lag=k), clip, ref_model)
        assert result.success
        predicted = 1000.0 * v * k / fps  # ~102.6 mm
        assert result.mpjpe_mm == pytest.approx(predicted, rel=0.05)

    def test_frozen_tracker_fails_on_deviation(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.2, n_frames=60, name="walk1.2")
        frozen = TrackerSpec(mode="lag", lag=10_000)
        result = run_episode(frozen, clip, ref_model)
        assert not result.success
        assert result.failure_reason == "deviation"
        assert result.frames_evaluated < 60
        # failure once the root has moved past the threshold
        expected_frame = int(np.ceil(0.5 / (1.2 / 30.0)))
        assert abs(result.frames_evaluated - (expected_frame + 1)) <= 1

    def test_first_failure_mid_clip_ends_scoring(self, ref_model):
        # a frozen tracker on a 1.2 m/s walk falls 0.04 m further behind each
        # frame: 0.48 m at frame 12, 0.52 m (> 0.5 m) at frame 13
        clip = constant_velocity_clip(ref_model, 1.2, n_frames=60, name="walk1.2")
        result = run_episode(TrackerSpec(mode="lag", lag=10_000), clip, ref_model)
        assert result.failure_reason == "deviation"
        assert result.frames_evaluated == 14
        expected = 40.0 * np.arange(14)  # mm, frames 0..13 inclusive
        assert np.allclose(result.per_frame_error_mm, expected, atol=1e-6)
        assert result.mpjpe_mm == pytest.approx(float(np.mean(expected)), abs=1e-6)

    def test_root_relative_variant_ignores_drift(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.2, n_frames=30)
        frozen = TrackerSpec(mode="lag", lag=10_000)
        result = run_episode(frozen, clip, ref_model, alignment="root_relative")
        # frozen tracker keeps the same pose, so root-relative error is zero
        assert result.mpjpe_mm == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("tracker", ["perfect", "pd:400,40"])
    def test_no_per_frame_objects(self, ref_model, tmp_path, monkeypatch, tracker):
        # Frame, RigidPose and RobotState constructions while loading and
        # scoring a clip do not grow with the clip's length
        counts = collections.Counter()
        for cls in (Frame, RigidPose, RobotState):
            def counted(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
                counts[name] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

        def constructions(n_frames):
            path = tmp_path / f"walk{n_frames}.json"
            save_clip(constant_velocity_clip(ref_model, 1.0, n_frames=n_frames, with_bodies=False), path)
            counts.clear()
            run_episode(parse_tracker(tracker), load_clip(path), ref_model)
            return dict(counts)

        assert constructions(30) == constructions(90)

    def test_empty_clip_rejected(self, ref_model):
        # MotionClip refuses T = 0, so run_episode never sees an empty clip
        with pytest.raises(InputError):
            run_episode(TrackerSpec(mode="perfect"), MotionClip("empty", 30.0, "walk", "slow", ()),
                        ref_model)


def moving_clip(model, with_bodies, speed=1.0, n_frames=40):
    """A walk at a 0.7 rad heading whose joints all swing, without joint
    velocities; with recorded key bodies 5 mm above their FK, or none."""
    clip = constant_velocity_clip(model, speed, n_frames=n_frames, heading=0.7, with_bodies=False)
    swing = 0.3 * np.sin(2.0 * np.pi * 1.5 * clip.t[:, None] + np.arange(model.n_joints))
    clip = clip.replace(joint_pos=swing, joint_vel=None)
    if with_bodies:
        clip = derive_body_kinematics(clip, model)
        clip = clip.replace(body_pos=clip.body_pos + np.array([0.0, 0.0, 0.005]))
    return clip


EPISODE_TRACKERS = {
    "perfect": TrackerSpec(mode="perfect"),
    "lag:2": TrackerSpec(mode="lag", lag=2),
    "lag:10000": TrackerSpec(mode="lag", lag=10_000),
    "noise:0.05": TrackerSpec(mode="noise", noise_std=0.05, seed=7),
    "pd:400,40": parse_tracker("pd:400,40"),
    "pd:400,40,0.005": parse_tracker("pd:400,40,0.005"),
}

EPISODE_CLIPS = {
    "bodies": lambda model: moving_clip(model, with_bodies=True),
    "bodiless": lambda model: moving_clip(model, with_bodies=False),
    # 1.2 m/s for 60 frames: a frozen tracker deviates well before the end
    "failing": lambda model: moving_clip(model, with_bodies=False, speed=1.2, n_frames=60),
}


class TestEpisodeOracle:
    """run_episode scores the clip's own columns and builds no clip; it must
    give the bits of the composition through clips (oracles.episode_oracle)."""

    @pytest.mark.parametrize("alignment", ["global", "root_relative"])
    @pytest.mark.parametrize("tracker", list(EPISODE_TRACKERS))
    @pytest.mark.parametrize("clip_kind", list(EPISODE_CLIPS))
    def test_bit_identical_to_oracle(self, ref_model, clip_kind, tracker, alignment):
        clip, spec = EPISODE_CLIPS[clip_kind](ref_model), EPISODE_TRACKERS[tracker]
        got = run_episode(spec, clip, ref_model, alignment=alignment)
        want = episode_oracle(spec, clip, ref_model, alignment=alignment)
        assert got.per_frame_error_mm.tobytes() == want.per_frame_error_mm.tobytes()
        assert got.mpjpe_mm.hex() == want.mpjpe_mm.hex()
        assert (got.success, got.failure_reason, got.frames_evaluated) == (
            want.success, want.failure_reason, want.frames_evaluated)

    def test_failing_clip_ends_mid_episode(self, ref_model):
        clip = EPISODE_CLIPS["failing"](ref_model)
        result = run_episode(EPISODE_TRACKERS["lag:10000"], clip, ref_model)
        assert (result.success, result.failure_reason) == (False, "deviation")
        assert 1 < result.frames_evaluated < len(clip.t)

    def test_no_clip_built(self, ref_model, monkeypatch):
        # run_episode builds no MotionClip for any tracker; track_clip one at most
        clips = [make(ref_model) for make in EPISODE_CLIPS.values()]
        built = []
        set_fields = MotionClip._set

        def counted(self, *args, **kwargs):
            built.append(self)
            set_fields(self, *args, **kwargs)

        monkeypatch.setattr(MotionClip, "_set", counted)
        for spec in EPISODE_TRACKERS.values():
            for clip in clips:
                built.clear()
                run_episode(spec, clip, ref_model)
                assert built == []
                track_clip(spec, clip, ref_model)
                assert len(built) <= 1


def suite_clips(manifest):
    return [load_clip(manifest.parent / entry.path) for entry in load_manifest(manifest)]


class TestMovingSuite:
    """run_episode against episode_oracle on the moving suite (conftest),
    whose joints move, so pd and noise differ from perfect, and whose clips
    start at nonzero headings, 30% without key bodies, with -0.0 root and
    body entries and one clip that lagged trackers fail mid-episode: the
    world-frame scoring without the identity alignment, and the one set of
    key-body distances, must give the oracle's bits."""

    TRACKERS = {**EPISODE_TRACKERS, "pd:50,5": parse_tracker("pd:50,5")}

    @pytest.mark.parametrize("alignment", ["global", "root_relative"])
    @pytest.mark.parametrize("tracker", list(TRACKERS))
    def test_bit_identical_to_oracle(self, ref_model, moving_suite, tracker, alignment):
        spec = self.TRACKERS[tracker]
        for clip in suite_clips(moving_suite):
            got = run_episode(spec, clip, ref_model, alignment=alignment)
            want = episode_oracle(spec, clip, ref_model, alignment=alignment)
            assert got.per_frame_error_mm.tobytes() == want.per_frame_error_mm.tobytes(), clip.name
            assert got.mpjpe_mm.hex() == want.mpjpe_mm.hex(), clip.name
            assert (got.success, got.failure_reason, got.frames_evaluated) == (
                want.success, want.failure_reason, want.frames_evaluated), clip.name

    def test_suite_has_the_cases(self, ref_model, moving_suite):
        clips = suite_clips(moving_suite)
        assert [(c.category, c.level) for c in clips] == list(BENCH_STRATA)
        assert sum(c.body_pos is None for c in clips) == round(0.3 * len(clips))
        lo, hi = ref_model.joint_limits[:, 0], ref_model.joint_limits[:, 1]
        for clip in clips:
            assert np.all(np.ptp(clip.joint_pos, axis=0) > 0.0), clip.name
            assert np.all((lo <= clip.joint_pos) & (clip.joint_pos <= hi)), clip.name
            assert abs(clip.root_quat[0, 3]) > 0.05, clip.name  # a nonzero heading
            assert np.signbit(clip.root_pos[0, :2]).all() and not clip.root_pos[0, :2].any()
        assert any(np.signbit(c.body_pos[0, 0, :2]).all() for c in clips if c.body_pos is not None)
        lagged = [run_episode(parse_tracker("lag:2"), clip, ref_model) for clip in clips]
        failed = [(r.clip_name, r.frames_evaluated) for r in lagged if not r.success]
        assert len(failed) == 1 and 1 < failed[0][1] < len(clips[0].t) // 2 + 1

    def test_suite_is_deterministic(self, ref_model, tmp_path):
        def files(seed, where):
            manifest = write_moving_suite(ref_model, tmp_path / where, seed=seed)
            return {p.relative_to(manifest.parent): p.read_bytes() for p in sorted(manifest.parent.rglob("*"))
                    if p.is_file()}

        first = files(0, "a")
        assert len(first) == len(BENCH_STRATA) + 1
        assert files(0, "b") == first
        assert files(1, "c") != first


class TestAggregate:
    def test_sr_ratio(self):
        results = [episode("manip", "high", 10.0, success=i < 19) for i in range(20)]
        report = aggregate(results)
        assert stratum_row(report, "manip", "high").sr_percent == pytest.approx(95.0)

    def test_manip_medium_fixture_row(self):
        # synthetic per-episode errors averaging to the published 20.4 mm
        results = [episode("manip", "medium", 20.0), episode("manip", "medium", 20.8)]
        report = aggregate(results, method="tracker")
        row = stratum_row(report, "manip", "medium")
        assert row.sr_percent == 100.0
        assert row.mpjpe_mm == pytest.approx(20.4, abs=0)
        md = emit_report(report, "markdown")
        assert "| Manip | Medium | 100 | 20.4 |" in md

    def test_permutation_invariance(self, rng):
        results = [
            episode(cat, lvl, float(rng.uniform(10, 50)), success=bool(rng.random() > 0.2))
            for cat, lvl in BENCH_STRATA
            for _ in range(4)
        ]
        shuffled = list(results)
        rng.shuffle(shuffled)
        assert emit_report(aggregate(results), "csv") == emit_report(aggregate(shuffled), "csv")

    def test_split_merge_associativity(self, rng):
        results = [
            episode(cat, lvl, float(rng.uniform(10, 50)))
            for cat, lvl in BENCH_STRATA[:4]
            for _ in range(6)
        ]
        whole = aggregate(results)
        parts = aggregate(results[:10] + results[10:])
        assert emit_report(whole, "csv") == emit_report(parts, "csv")

    def test_failed_episodes_excluded_from_mpjpe(self):
        results = [
            episode("walk", "fast", 10.0, success=True),
            episode("walk", "fast", 500.0, success=False),
        ]
        report = aggregate(results)
        row = stratum_row(report, "walk", "fast")
        assert row.sr_percent == 50.0
        assert row.mpjpe_mm == pytest.approx(10.0)
        included = aggregate(results, include_failed=True)
        assert stratum_row(included, "walk", "fast").mpjpe_mm == pytest.approx(255.0)

    def test_empty_strata_absent(self):
        report = aggregate([episode("walk", "fast", 12.0)])
        assert len(report.rows) == 1
        assert report.partial


class TestEmitParse:
    def full_report(self):
        rows = []
        for i, (cat, lvl) in enumerate(BENCH_STRATA):
            rows.append(StratumRow(cat, lvl, 100.0, 20.0 + i, episodes=10))
        return BenchReport(rows=tuple(rows), method="tracker", partial=False)

    def test_csv_has_18_rows_and_header(self):
        text = emit_report(self.full_report(), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "category,level,sr_percent,mpjpe_mm"
        assert len(lines) == 19

    def test_json_round_trip(self):
        report = self.full_report()
        again = parse_report_json(emit_report(report, "json"))
        assert again == report

    def test_csv_round_trip_rows(self):
        report = self.full_report()
        again = parse_report_csv(emit_report(report, "csv"))
        for a, b in zip(again.rows, report.rows):
            assert (a.category, a.level, a.sr_percent, a.mpjpe_mm) == (
                b.category, b.level, b.sr_percent, b.mpjpe_mm,
            )

    def test_radar_csv_fixture(self):
        # baseline-style value set: 180.5 mm in the low loco-manip stratum
        results = [episode("loco_manip", "low", 180.5, success=i < 19) for i in range(20)]
        report = aggregate(results)
        text = emit_report(report, "radar-csv")
        assert "loco_manip_low,180.5" in text.splitlines()

    def test_radar_18_lines(self):
        text = emit_report(self.full_report(), "radar-csv")
        assert len(text.strip().split("\n")) == 18

    def test_markdown_two_subtables(self):
        md = emit_report(self.full_report(), "markdown")
        assert md.index("Loco-Manip") < md.index("Squat") < md.index("Walk") < md.index("Jump")
        assert md.count("| Category | Level | SR (%) | MPJPE (mm) |") == 2

    def test_unknown_format(self):
        with pytest.raises(InputError):
            emit_report(self.full_report(), "xml")


class TestSerialization:
    def test_episode_dict_round_trip(self):
        e = episode("squat", "low", 33.25, success=False)
        again = episode_from_dict(episode_to_dict(e))
        assert again.clip_name == e.clip_name
        assert again.mpjpe_mm == e.mpjpe_mm
        assert again.success == e.success
        assert np.array_equal(again.per_frame_error_mm, e.per_frame_error_mm)

    def test_results_json_round_trip(self):
        results = [episode("run", "slow", 12.5), episode("jump", "high", 48.0, success=False)]
        text = results_to_json(results, method="m1")
        again, method = results_from_dict(json.loads(text))
        assert method == "m1"
        assert [e.mpjpe_mm for e in again] == [12.5, 48.0]

    @pytest.mark.parametrize("key, value, message", [
        ("success", "false", "'success' must be true or false, got 'false'"),
        ("success", 1, "'success' must be true or false, got 1"),
        ("mpjpe_mm", math.nan, "'mpjpe_mm' must be a finite number >= 0, got nan"),
        ("mpjpe_mm", math.inf, "'mpjpe_mm' must be a finite number >= 0, got inf"),
        ("mpjpe_mm", "1e400", "'mpjpe_mm' must be a finite number >= 0, got '1e400'"),
        ("mpjpe_mm", -0.5, "'mpjpe_mm' must be a finite number >= 0, got -0.5"),
        ("mpjpe_mm", " 3 ", "'mpjpe_mm' must be a finite number >= 0, got ' 3 '"),
        ("mpjpe_mm", True, "'mpjpe_mm' must be a finite number >= 0, got True"),
        ("mpjpe_mm", 10**400, f"'mpjpe_mm' must be a finite number >= 0, got {10**400}"),
        ("failure_reason", "timeout",
         "'failure_reason' must be one of ('fall', 'deviation', 'none'), got 'timeout'"),
        ("frames_evaluated", 2.7, "'frames_evaluated' must be an integer >= 1, got 2.7"),
        ("frames_evaluated", -5, "'frames_evaluated' must be an integer >= 1, got -5"),
        ("frames_evaluated", 0, "'frames_evaluated' must be an integer >= 1, got 0"),
    ])
    def test_malformed_episode_rejected(self, key, value, message):
        good = episode_to_dict(episode("walk", "slow", 12.5))
        # through JSON text, where NaN and Infinity parse as floats
        doc = json.loads(json.dumps({"episodes": [good, {**good, key: value}]}))
        with pytest.raises(InputError) as info:
            results_from_dict(doc)
        assert str(info.value) == f"results document: episodes[1]: {message}"

    @pytest.mark.parametrize("mpjpe_mm", [math.nan, math.inf, -1.0])
    def test_episode_mpjpe_must_be_finite_and_non_negative(self, mpjpe_mm):
        with pytest.raises(InputError, match="mpjpe must be finite and >= 0"):
            episode("walk", "slow", mpjpe_mm)

    def test_manifest_round_trip(self, tmp_path):
        entries = [
            ManifestEntry(path="clips/a.json", category="walk", level="fast"),
            ManifestEntry(path="clips/b.json"),
        ]
        path = tmp_path / "manifest.json"
        save_manifest(entries, path)
        again = load_manifest(path)
        assert again == entries
