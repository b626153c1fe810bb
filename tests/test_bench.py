import collections

import numpy as np
import pytest

from oracles import double_loop_mpjpe, first_failure_loop

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
    mpjpe,
    parse_report_csv,
    parse_report_json,
    results_from_json,
    results_to_json,
    run_episode,
    save_manifest,
)
from omniclone.errors import InputError
from omniclone.kinematics import RigidPose
from omniclone.motion import (
    BENCH_STRATA,
    Frame,
    MotionClip,
    derive_body_kinematics,
    load_clip,
    save_clip,
)
from omniclone.simtrack import RobotState, TrackerSpec, parse_tracker
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
    def test_identical_zero(self, rng):
        x = rng.normal(size=(10, 7, 3))
        assert mpjpe(x, x) == 0.0

    def test_uniform_offset(self, rng):
        ref = rng.normal(size=(5, 7, 3))
        pred = ref + np.array([0.0, 0.0, 0.010])
        assert mpjpe(pred, ref) == pytest.approx(10.0, abs=1e-9)

    def test_matches_double_loop_oracle(self, rng):
        pred = rng.normal(size=(8, 5, 3))
        ref = rng.normal(size=(8, 5, 3))
        assert mpjpe(pred, ref) == pytest.approx(double_loop_mpjpe(pred, ref), abs=1e-9)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InputError):
            mpjpe(rng.normal(size=(3, 7, 3)), rng.normal(size=(4, 7, 3)))

    def test_body_permutation_invariance(self, rng):
        pred = rng.normal(size=(6, 7, 3))
        ref = rng.normal(size=(6, 7, 3))
        perm = rng.permutation(7)
        assert mpjpe(pred[:, perm], ref[:, perm]) == pytest.approx(mpjpe(pred, ref))

    def test_concatenation_additivity(self, rng):
        a_pred, a_ref = rng.normal(size=(4, 3, 3)), rng.normal(size=(4, 3, 3))
        b_pred, b_ref = rng.normal(size=(6, 3, 3)), rng.normal(size=(6, 3, 3))
        joined = mpjpe(np.concatenate([a_pred, b_pred]), np.concatenate([a_ref, b_ref]))
        expected = (4 * mpjpe(a_pred, a_ref) + 6 * mpjpe(b_pred, b_ref)) / 10
        assert joined == pytest.approx(expected, abs=1e-9)


def _static_kinematics(model, root_z):
    """(T=1, K, 3) key bodies and (1, 3) root of a static pose at root_z."""
    clip = derive_body_kinematics(static_clip(model, n_frames=1, root_z=root_z), model)
    return np.array(clip.body_pos), np.array(clip.root_pos)


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
        got = first_failure(pred_bodies, ref_bodies, pred_roots, ref_roots, thresholds)
        assert got == (None if expected is None else (0, expected))

    def test_reports_first_failed_frame(self, ref_model):
        bodies, roots = _static_kinematics(ref_model, 0.75)
        ref_bodies, ref_roots = np.repeat(bodies, 8, axis=0), np.repeat(roots, 8, axis=0)
        pred_bodies, pred_roots = ref_bodies.copy(), ref_roots.copy()
        pred_roots[6:, 2] = 0.2  # falls from frame 6 on
        pred_bodies[5:, 2, 0] += 0.6  # deviates from frame 5 on
        assert first_failure(pred_bodies, ref_bodies, pred_roots, ref_roots) == (5, "deviation")
        assert first_failure(pred_bodies[6:], ref_bodies[6:], pred_roots[6:], ref_roots[6:]) == (
            0, "deviation")
        pred_bodies[5:, 2, 0] -= 0.6
        assert first_failure(pred_bodies, ref_bodies, pred_roots, ref_roots) == (6, "fall")

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
            got = first_failure(pred_bodies, ref_bodies, pred_roots, ref_roots, thresholds)
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
            def counted(self, post=cls.__post_init__, name=cls.__name__):
                counts[name] += 1
                post(self)

            monkeypatch.setattr(cls, "__post_init__", counted)

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


class TestAggregate:
    def test_sr_ratio(self):
        results = [episode("manip", "high", 10.0, success=i < 19) for i in range(20)]
        report = aggregate(results)
        assert report.row("manip", "high").sr_percent == pytest.approx(95.0)

    def test_manip_medium_fixture_row(self):
        # synthetic per-episode errors averaging to the published 20.4 mm
        results = [episode("manip", "medium", 20.0), episode("manip", "medium", 20.8)]
        report = aggregate(results, method="tracker")
        row = report.row("manip", "medium")
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
        row = report.row("walk", "fast")
        assert row.sr_percent == 50.0
        assert row.mpjpe_mm == pytest.approx(10.0)
        included = aggregate(results, include_failed=True)
        assert included.row("walk", "fast").mpjpe_mm == pytest.approx(255.0)

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
        again, method = results_from_json(text)
        assert method == "m1"
        assert [e.mpjpe_mm for e in again] == [12.5, 48.0]

    def test_manifest_round_trip(self, tmp_path):
        entries = [
            ManifestEntry(path="clips/a.json", category="walk", level="fast"),
            ManifestEntry(path="clips/b.json"),
        ]
        path = tmp_path / "manifest.json"
        save_manifest(entries, path)
        again = load_manifest(path)
        assert again == entries
