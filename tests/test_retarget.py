from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    retarget_frame_per_marker,
    save_mapping,
    save_subject_stream,
    student_obs_blocks,
    subject_frame_to_dict,
)

from omniclone.errors import CalibrationError, ClipParseError, InputError
from omniclone.retarget import (
    CalibrationResult,
    SubjectFrame,
    calibrate,
    discrepancy_report,
    load_mapping,
    load_subject_stream,
    retarget_frame,
    retarget_stream,
    subject_frame_from_dict,
)
from omniclone.kinematics import RigidPose
from omniclone.simtrack import build_student_obs, state_from_frame
from omniclone.synthetic import constant_velocity_clip

MARKERS = {
    "m_pelvis": "pelvis",
    "m_chest": "torso",
    "m_lhand": "left_wrist_yaw_link",
    "m_rhand": "right_wrist_yaw_link",
    "m_lfoot": "left_ankle_roll_link",
    "m_rfoot": "right_ankle_roll_link",
    "m_head": "head",
}


def humanoid_as_subject(clip, scale, offsets=None):
    """Subject stream obtained by uniformly scaling a humanoid clip's
    world geometry by `scale` (marker offsets optional, per body name)."""
    offsets = offsets or {}
    body_index = {b: i for i, b in enumerate(clip.key_bodies)}
    frames = []
    for f in clip.frames:
        markers = {}
        quats = {}
        for marker, body in MARKERS.items():
            pos = f.body_pos[body_index[body]] + np.asarray(offsets.get(body, (0, 0, 0)))
            markers[marker] = scale * pos
            quats[marker] = f.body_quat[body_index[body]]
        frames.append(
            SubjectFrame(
                t=f.t,
                root=RigidPose(scale * f.root.position, f.root.orientation),
                markers=markers,
                marker_quats=quats,
                root_lin_vel=scale * f.root_lin_vel,
                root_ang_vel=f.root_ang_vel,
                joint_pos=f.joint_pos,
            )
        )
    return frames


@pytest.fixture
def walk_clip(ref_model):
    return constant_velocity_clip(ref_model, 0.9, n_frames=30, name="walk")


class TestCalibrate:
    def test_identical_subject_scale_one(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.0)
        cal = calibrate(subject[0], ref_model, MARKERS)
        assert cal.scale == pytest.approx(1.0, abs=1e-12)

    def test_uniformly_larger_subject(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.25)
        cal = calibrate(subject[0], ref_model, MARKERS)
        assert cal.scale == pytest.approx(0.8, abs=1e-12)

    def test_two_subject_scale_ratio(self, ref_model, walk_clip):
        # subjects in 1.94 : 1.47 proportion produce scales in the inverse
        # proportion (operator heights span that range)
        cal_tall = calibrate(humanoid_as_subject(walk_clip, 1.94)[0], ref_model, MARKERS)
        cal_short = calibrate(humanoid_as_subject(walk_clip, 1.47)[0], ref_model, MARKERS)
        assert cal_short.scale / cal_tall.scale == pytest.approx(1.94 / 1.47, rel=1e-12)
        assert cal_short.scale / cal_tall.scale == pytest.approx(1.3197, abs=1e-4)

    def test_missing_marker_named(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.0)
        markers = dict(subject[0].markers)
        del markers["m_chest"]
        broken = SubjectFrame(t=0.0, root=subject[0].root, markers=markers)
        with pytest.raises(CalibrationError, match="m_chest"):
            calibrate(broken, ref_model, MARKERS)

    def test_degenerate_subject_metric(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.0)[0]
        collapsed = SubjectFrame(t=0.0, root=subject.root, markers={m: np.ones(3) for m in subject.markers})
        with pytest.raises(CalibrationError, match="degenerate"):
            calibrate(collapsed, ref_model, MARKERS)

    def test_scale_sanity_band(self, ref_model, walk_clip):
        with pytest.raises(CalibrationError, match="sanity band"):
            calibrate(humanoid_as_subject(walk_clip, 100.0)[0], ref_model, MARKERS)

    def test_mapping_must_cover_key_bodies(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.0)
        partial = {k: v for k, v in MARKERS.items() if v != "head"}
        with pytest.raises(CalibrationError, match="head"):
            calibrate(subject[0], ref_model, partial)

    def test_no_per_operator_parameters(self, ref_model, walk_clip):
        # the calibration frame is the only subject-specific input: two
        # sessions with the same geometry yield identical calibrations
        s1 = humanoid_as_subject(walk_clip, 1.1)
        s2 = humanoid_as_subject(walk_clip, 1.1)
        c1 = calibrate(s1[0], ref_model, MARKERS)
        c2 = calibrate(s2[0], ref_model, MARKERS)
        assert c1.scale == c2.scale
        assert c1.session_origin == c2.session_origin


class TestRetargetFrame:
    def test_identity_scale_rezeroing_only(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.0)
        cal = calibrate(subject[0], ref_model, MARKERS)
        frames, held = retarget_stream(subject, cal, ref_model)
        assert not held
        # clip starts at planar origin, so re-zeroing is a no-op here
        for out, src in zip(frames, walk_clip.frames):
            assert np.allclose(out.root.position, src.root.position, atol=1e-12)
            assert np.allclose(out.body_pos, src.body_pos, atol=1e-12)

    def test_componentwise_scaling(self, ref_model):
        cal = CalibrationResult(
            scale=0.8,
            subject_height_metric=1.0,
            humanoid_height_metric=0.8,
            key_body_mapping=MARKERS,
            session_origin=(0.0, 0.0, 0.0),
        )
        markers = {m: np.array([0.5, 0.0, 1.0]) for m in MARKERS}
        raw = SubjectFrame(
            t=0.0,
            root=RigidPose(np.array([0.5, 0.0, 1.0]), np.array([1.0, 0, 0, 0])),
            markers=markers,
        )
        frame, was_held = retarget_frame(raw, cal, ref_model)
        assert not was_held
        assert np.allclose(frame.root.position, [0.4, 0.0, 0.8])
        assert np.allclose(frame.body_pos, np.tile([0.4, 0.0, 0.8], (7, 1)))

    def test_orientation_passthrough_exact(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.3)
        cal = calibrate(subject[0], ref_model, MARKERS)
        frames, _ = retarget_stream(subject, cal, ref_model)
        for out, src in zip(frames, walk_clip.frames):
            assert np.array_equal(out.body_quat, src.body_quat)
            assert np.array_equal(out.root.orientation, src.root.orientation)

    def test_angular_velocity_unchanged_linear_scaled(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.25)
        cal = calibrate(subject[0], ref_model, MARKERS)
        frames, _ = retarget_stream(subject, cal, ref_model)
        for out, raw in zip(frames, subject):
            assert np.allclose(out.root_lin_vel, cal.scale * raw.root_lin_vel)
            assert np.array_equal(out.root_ang_vel, raw.root_ang_vel)

    def test_marker_dropout_holds_previous(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.0)
        gap = SubjectFrame(
            t=subject[5].t, root=subject[5].root,
            markers={k: v for k, v in subject[5].markers.items() if k != "m_lhand"},
        )
        subject[5] = gap
        cal = calibrate(subject[0], ref_model, MARKERS)
        frames, held = retarget_stream(subject, cal, ref_model)
        assert held == [5]
        assert np.array_equal(frames[5].body_pos, frames[4].body_pos)
        assert frames[5].t == gap.t

    def test_dropout_on_first_frame_is_an_error(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.0)
        cal = calibrate(subject[0], ref_model, MARKERS)
        broken = SubjectFrame(t=0.0, root=subject[0].root, markers={})
        with pytest.raises(InputError):
            retarget_frame(broken, cal, ref_model, previous=None)

    @settings(max_examples=20, deadline=None)
    @given(s=st.floats(0.75, 1.35))
    def test_scale_inversion_property(self, ref_model, s):
        clip = constant_velocity_clip(ref_model, 0.8, n_frames=12)
        subject = humanoid_as_subject(clip, s)
        cal = calibrate(subject[0], ref_model, MARKERS)
        assert cal.scale == pytest.approx(1.0 / s, abs=1e-12)
        frames, _ = retarget_stream(subject, cal, ref_model)
        for out, src in zip(frames, clip.frames):
            assert np.allclose(out.body_pos, src.body_pos, atol=1e-9)
            assert np.allclose(out.root.position, src.root.position, atol=1e-9)


def frame_bytes(frame):
    """Every field of a frame as (dtype, shape, bytes), None kept as None."""
    fields = {"t": np.asarray(frame.t), "root_pos": frame.root.position, "root_quat": frame.root.orientation}
    for key in ("root_lin_vel", "root_ang_vel", "joint_pos", "joint_vel",
                "body_pos", "body_quat", "body_lin_vel", "body_ang_vel"):
        fields[key] = getattr(frame, key)
    return {k: None if v is None else (v.dtype, v.shape, v.tobytes()) for k, v in fields.items()}


def noisy_subject(rng, n_frames, n_joints, quat_share=0.6, drop_at=()):
    """Operator samples with random markers, quaternions on a random subset
    of the markers, and the marker m_lhand missing at the frames in drop_at."""

    def unit(q):
        return q / np.linalg.norm(q)

    frames = []
    for i in range(n_frames):
        markers = {m: rng.uniform(-1.0, 1.0, 3) + [0.0, 0.0, 1.0] for m in MARKERS}
        quats = {m: unit(rng.normal(size=4)) for m in MARKERS if rng.random() < quat_share}
        if i in drop_at:
            del markers["m_lhand"]
        frames.append(SubjectFrame(
            t=i / 50.0,
            root=RigidPose(rng.uniform(-1.0, 1.0, 3), unit(rng.normal(size=4))),
            markers=markers,
            marker_quats=quats,
            root_lin_vel=rng.normal(size=3),
            root_ang_vel=rng.normal(size=3),
            joint_pos=rng.uniform(-0.5, 0.5, n_joints),
        ))
    return frames


class TestPerMarkerOracle:
    """retarget_frame fills its key bodies in one array expression; it must
    return the bytes of the marker-by-marker write, held frames included."""

    def test_stream_with_partial_quats_and_dropouts(self, ref_model, rng):
        subject = noisy_subject(rng, 40, ref_model.n_joints, drop_at=(5, 6, 21))
        cal = CalibrationResult(0.9, 1.0, 0.9, MARKERS, session_origin=(0.3, -0.2, 0.0))
        prev = prev_oracle = None
        held = []
        for raw in subject:
            frame, was_held = retarget_frame(raw, cal, ref_model, previous=prev)
            expected, expected_held = retarget_frame_per_marker(raw, cal, ref_model, previous=prev_oracle)
            assert frame_bytes(frame) == frame_bytes(expected)
            assert was_held == expected_held
            held.append(was_held)
            prev, prev_oracle = frame, expected
        assert [i for i, h in enumerate(held) if h] == [5, 6, 21]

    def test_first_frame_dropout_names_the_same_marker(self, ref_model, rng):
        raw = noisy_subject(rng, 1, ref_model.n_joints, drop_at=(0,))[0]
        raw = SubjectFrame(raw.t, raw.root, {m: p for m, p in raw.markers.items() if m != "m_head"})
        cal = CalibrationResult(1.0, 1.0, 1.0, MARKERS, session_origin=(0.0, 0.0, 0.0))
        with pytest.raises(InputError) as got:
            retarget_frame(raw, cal, ref_model)
        with pytest.raises(InputError) as expected:
            retarget_frame_per_marker(raw, cal, ref_model)
        assert str(got.value) == str(expected.value)
        assert "'m_lhand'" in str(got.value)

    def test_unmapped_key_bodies_stay_zero_and_identity(self, ref_model, rng):
        mapping = {m: b for m, b in MARKERS.items() if m in ("m_pelvis", "m_lhand", "m_rfoot")}
        cal = CalibrationResult(1.1, 1.0, 1.1, mapping, session_origin=(0.5, -0.25, 0.0))
        raw = noisy_subject(rng, 1, ref_model.n_joints, quat_share=1.0)[0]
        frame, _ = retarget_frame(raw, cal, ref_model)
        expected, _ = retarget_frame_per_marker(raw, cal, ref_model)
        assert frame_bytes(frame) == frame_bytes(expected)
        unmapped = [i for i, b in enumerate(ref_model.key_bodies) if b not in mapping.values()]
        assert unmapped
        assert frame.body_pos[unmapped].tobytes() == np.zeros((len(unmapped), 3)).tobytes()
        identity = np.tile([1.0, 0.0, 0.0, 0.0], (len(unmapped), 1))
        assert frame.body_quat[unmapped].tobytes() == identity.tobytes()

    def test_tick_chain_matches_oracles(self, ref_model, rng):
        # retarget -> five-frame window padded by zero-order hold -> state of
        # the last command -> student observation, as one teleop tick runs it
        subject = noisy_subject(rng, 12, ref_model.n_joints, drop_at=(4, 9))
        cal = CalibrationResult(1.05, 1.0, 1.05, MARKERS, session_origin=(0.0, 0.0, 0.0))
        prev, window, command = None, [], np.zeros(ref_model.n_joints)
        for raw in subject:
            frame, _ = retarget_frame(raw, cal, ref_model, previous=prev)
            prev = frame
            window = (window or [frame] * 5)[1:] + [frame]
            current = replace(frame, joint_pos=command, body_pos=None, body_quat=None)
            state = state_from_frame(current, ref_model, last_action=command)
            obs = build_student_obs(state, window, ref_model)
            values, layout = student_obs_blocks(state, window, ref_model, 5)
            assert obs.values.tobytes() == values.tobytes() and obs.layout == layout
            command = frame.joint_pos


class TestDiscrepancyReport:
    def test_identical_clips_zero(self, ref_model, walk_clip):
        report = discrepancy_report(walk_clip.frames, walk_clip.frames)
        assert report["max_keybody_deviation_m"] == 0.0
        assert report["mean_deviation_m"] == 0.0

    def test_constructed_offset(self, ref_model, walk_clip):
        from dataclasses import replace

        shifted = []
        for f in walk_clip.frames:
            bp = f.body_pos.copy()
            bp[2] += np.array([0.0, 0.0, 0.20])
            shifted.append(replace(f, body_pos=bp))
        report = discrepancy_report(shifted, walk_clip.frames)
        assert report["max_keybody_deviation_m"] == pytest.approx(0.20)

    def test_calibrated_vs_uncalibrated(self, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.25)
        cal = calibrate(subject[0], ref_model, MARKERS)
        calibrated, _ = retarget_stream(subject, cal, ref_model)
        uncal = CalibrationResult(
            scale=1.0,
            subject_height_metric=1.0,
            humanoid_height_metric=1.0,
            key_body_mapping=MARKERS,
            session_origin=(0.0, 0.0, 0.0),
        )
        uncalibrated, _ = retarget_stream(subject, uncal, ref_model)
        ref_frames = walk_clip.frames
        rep_cal = discrepancy_report(calibrated, ref_frames)
        rep_uncal = discrepancy_report(uncalibrated, ref_frames)
        assert rep_cal["max_keybody_deviation_m"] < 1e-6
        assert rep_uncal["max_keybody_deviation_m"] > 0.1

    def test_length_mismatch(self, walk_clip):
        with pytest.raises(InputError):
            discrepancy_report(walk_clip.frames[:-1], walk_clip.frames)


class TestFiles:
    def test_mapping_round_trip(self, tmp_path):
        path = tmp_path / "map.txt"
        save_mapping(MARKERS, path)
        assert load_mapping(path) == MARKERS

    def test_mapping_comments_and_commas(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# comment\nm_pelvis, pelvis\n\nm_head head\n", encoding="utf-8")
        assert load_mapping(path) == {"m_pelvis": "pelvis", "m_head": "head"}

    def test_subject_stream_round_trip(self, tmp_path, ref_model, walk_clip):
        subject = humanoid_as_subject(walk_clip, 1.1)[:4]
        path = tmp_path / "stream.json"
        save_subject_stream(subject, path)
        again = load_subject_stream(path)
        assert len(again) == 4
        for a, b in zip(again, subject):
            assert np.allclose(a.root.position, b.root.position)
            for m in MARKERS:
                assert np.allclose(a.markers[m], b.markers[m])

    def test_subject_frame_dict_round_trip(self, ref_model, walk_clip):
        frame = humanoid_as_subject(walk_clip, 1.0)[0]
        again = subject_frame_from_dict(subject_frame_to_dict(frame))
        assert np.allclose(again.root.position, frame.root.position)
        assert np.allclose(again.joint_pos, frame.joint_pos)

    @pytest.mark.parametrize("quat", [
        [1.0, 0.0, 0.0],
        [2.0, 0.0, 0.0, 0.0],
        [float("nan"), 0.0, 0.0, 0.0],
        [float("inf"), 0.0, 0.0, 0.0],
    ], ids=["short", "norm-2", "nan", "inf"])
    def test_bad_marker_quat_rejected(self, walk_clip, quat):
        doc = subject_frame_to_dict(humanoid_as_subject(walk_clip, 1.0)[0])
        doc["marker_quats"]["m_head"] = quat
        with pytest.raises(InputError, match="marker quaternion 'm_head'"):
            subject_frame_from_dict(doc)

    def test_marker_quat_keeps_its_bits(self, walk_clip):
        q = np.array([1.0 + 4e-7, 0.0, 0.0, 0.0])  # within tolerance, not unit
        frame = humanoid_as_subject(walk_clip, 1.0)[0]
        again = SubjectFrame(frame.t, frame.root, frame.markers, {"m_head": q})
        assert np.array_equal(again.marker_quats["m_head"], q)

    def test_nan_root_quat_rejected(self, walk_clip):
        doc = subject_frame_to_dict(humanoid_as_subject(walk_clip, 1.0)[0])
        doc["root_quat"] = [float("nan"), 0.0, 0.0, 0.0]
        with pytest.raises(ClipParseError, match=r"frames\[3\]: orientation"):
            subject_frame_from_dict(doc, 3)
