import math
import re
from dataclasses import replace

import numpy as np
import pytest
from omniclone import kinematics
from omniclone.errors import ConfigError, InputError
from omniclone.kinematics import GRAVITY, RigidPose, key_body_poses, to_base_point, to_base_quat, to_base_vector
from omniclone.motion import COLUMNS, Frame, MotionClip, derive_body_kinematics, derive_joint_velocities
from omniclone.rotations import quat_from_yaw, quat_mul, quat_rotate
from omniclone.simtrack import (
    RobotState,
    Tracker,
    TrackerSpec,
    _frame_key_bodies,
    build_student_obs,
    build_teacher_obs,
    parse_tracker,
    state_from_frame,
    student_obs_length,
    track_clip,
)
from omniclone.synthetic import constant_velocity_clip, static_clip
from oracles import per_field_dr, quat_normalize, sine_joint_clip, student_obs_blocks, teacher_obs_length
from tables import (
    DEFAULT_REWARD_WEIGHTS,
    DRConfig,
    DRRanges,
    RewardConfig,
    TRACKING_TERMS,
    default_system_config,
    reward,
    sample_dr,
)


def random_state(rng, model):
    n, k = model.n_joints, model.n_key_bodies
    return RobotState(
        root=RigidPose(rng.uniform(-1, 1, 3) + [0, 0, 1], quat_normalize(rng.normal(size=4))),
        root_ang_vel=rng.normal(size=3),
        joint_pos=rng.uniform(-0.5, 0.5, n),
        joint_vel=rng.normal(size=n),
        body_pos=rng.uniform(-1, 1, (k, 3)),
        body_quat=quat_normalize(rng.normal(size=(k, 4))),
        body_lin_vel=rng.normal(size=(k, 3)),
        body_ang_vel=rng.normal(size=(k, 3)),
        last_action=rng.uniform(-0.5, 0.5, n),
    )


def random_ref(rng, model):
    n, k = model.n_joints, model.n_key_bodies
    return Frame(
        t=0.0,
        root=RigidPose(rng.uniform(-1, 1, 3) + [0, 0, 1], quat_normalize(rng.normal(size=4))),
        root_lin_vel=rng.normal(size=3),
        root_ang_vel=rng.normal(size=3),
        joint_pos=rng.uniform(-0.5, 0.5, n),
        joint_vel=rng.normal(size=n),
        body_pos=rng.uniform(-1, 1, (k, 3)),
        body_quat=quat_normalize(rng.normal(size=(k, 4))),
        body_lin_vel=rng.normal(size=(k, 3)),
        body_ang_vel=rng.normal(size=(k, 3)),
    )


def bodyless(frame):
    """The frame without its key-body group."""
    return replace(frame, body_pos=None, body_quat=None, body_lin_vel=None, body_ang_vel=None)


def se2_state(state, q_g, d):
    return replace(
        state,
        root=RigidPose(quat_rotate(q_g, state.root.position) + d,
                       quat_mul(q_g, state.root.orientation)),
        body_pos=quat_rotate(q_g, state.body_pos) + d,
        body_quat=quat_mul(q_g, state.body_quat),
        body_lin_vel=quat_rotate(q_g, state.body_lin_vel),
        body_ang_vel=quat_rotate(q_g, state.body_ang_vel),
    )


def se2_frame(ref, q_g, d):
    return replace(
        ref,
        root=RigidPose(quat_rotate(q_g, ref.root.position) + d,
                       quat_mul(q_g, ref.root.orientation)),
        root_lin_vel=quat_rotate(q_g, ref.root_lin_vel),
        root_ang_vel=quat_rotate(q_g, ref.root_ang_vel),
        body_pos=quat_rotate(q_g, ref.body_pos) + d,
        body_quat=quat_mul(q_g, ref.body_quat),
        body_lin_vel=quat_rotate(q_g, ref.body_lin_vel),
        body_ang_vel=quat_rotate(q_g, ref.body_ang_vel),
    )


class TestObservationLayout:
    def test_student_length_arithmetic(self, ref_model, rng):
        # K=7, f=5, n=29: reference slice 5*(7*7+3)=260, total 324
        state = random_state(rng, ref_model)
        window = [random_ref(rng, ref_model) for _ in range(5)]
        obs = build_student_obs(state, window, ref_model, 5)
        assert obs.values.shape == (324,)
        ref_len = sum(l for n_, _, l in obs.layout if n_.startswith("ref"))
        assert ref_len == 260
        assert student_obs_length(ref_model, 5) == 324

    def test_teacher_longer_than_student_at_f1(self, ref_model, rng):
        state = random_state(rng, ref_model)
        ref = random_ref(rng, ref_model)
        teacher = build_teacher_obs(state, ref, ref_model)
        student = build_student_obs(state, [ref], ref_model, 1)
        assert teacher.values.shape[0] > student.values.shape[0]
        assert teacher.values.shape[0] == teacher_obs_length(ref_model)
        assert student.values.shape[0] == student_obs_length(ref_model, 1)

    def test_layout_covers_vector(self, ref_model, rng):
        state = random_state(rng, ref_model)
        obs = build_teacher_obs(state, random_ref(rng, ref_model), ref_model)
        total = sum(l for _, _, l in obs.layout)
        assert total == obs.values.shape[0]
        offsets = [o for _, o, _ in obs.layout]
        assert offsets == sorted(offsets)

    def test_student_excludes_body_angular_velocity(self, ref_model, rng):
        state = random_state(rng, ref_model)
        obs = build_student_obs(state, [random_ref(rng, ref_model)], ref_model, 1)
        names = [n for n, _, _ in obs.layout]
        assert not any("ang_vel" in n and "root" not in n for n in names)

    def test_short_window_rejected(self, ref_model, rng):
        state = random_state(rng, ref_model)
        with pytest.raises(InputError):
            build_student_obs(state, [random_ref(rng, ref_model)] * 3, ref_model, 5)

    def test_window_frame_with_other_body_count_rejected(self, ref_model, rng):
        state = random_state(rng, ref_model)
        ref = random_ref(rng, ref_model)
        short = replace(ref, body_pos=ref.body_pos[:3], body_quat=ref.body_quat[:3],
                        body_lin_vel=None, body_ang_vel=None)
        with pytest.raises(InputError, match="key bodies"):
            build_student_obs(state, [ref, short], ref_model, 2)


class TestObservationContent:
    def test_gravity_yaw_invariant(self, ref_model, rng):
        state = random_state(rng, ref_model)
        state = replace(
            state, root=RigidPose(state.root.position, quat_from_yaw(1.1))
        )
        obs = build_teacher_obs(state, random_ref(rng, ref_model), ref_model)
        assert np.allclose(obs.slice("gravity"), GRAVITY, atol=1e-12)

    def test_on_reference_coincidence(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=5)
        clip = derive_joint_velocities(clip)
        ref = clip.frames[2]
        state = state_from_frame(ref, ref_model)
        obs = build_teacher_obs(state, ref, ref_model)
        assert np.allclose(obs.slice("ref_joint_pos") - obs.slice("joint_pos"), 0.0)
        assert np.allclose(obs.slice("ref_joint_vel") - obs.slice("joint_vel"), 0.0)
        assert np.allclose(obs.slice("ref_body_pos"), obs.slice("body_pos"), atol=1e-9)
        assert np.allclose(obs.slice("ref_body_quat"), obs.slice("body_quat"), atol=1e-9)

    def test_missing_ref_joint_vel_raises(self, ref_model, rng):
        state = random_state(rng, ref_model)
        ref = replace(random_ref(rng, ref_model), joint_vel=None)
        with pytest.raises(InputError):
            build_teacher_obs(state, ref, ref_model)

    def test_student_window_matches_per_frame_transforms(self, ref_model, rng):
        # the window is transformed in one call per kind; each block must be
        # bit-identical to transforming its frame alone (float32 wire
        # frames, frames without body data and a 0-frame window included)
        state = random_state(rng, ref_model)
        root = state.root
        wire = random_ref(rng, ref_model)
        wire = replace(
            wire, body_pos=wire.body_pos.astype(np.float32),
            body_quat=wire.body_quat.astype(np.float32),
            root_lin_vel=wire.root_lin_vel.astype(np.float32),
        )
        no_bodies = bodyless(random_ref(rng, ref_model))
        window = [random_ref(rng, ref_model), wire, no_bodies, wire, random_ref(rng, ref_model)]
        obs = build_student_obs(state, window, ref_model, 5)
        for i, ref in enumerate(window):
            body_pos, body_quat = _frame_key_bodies(ref, ref_model)
            assert np.array_equal(obs.slice(f"ref{i}_body_pos"), to_base_point(root, body_pos).ravel())
            assert np.array_equal(obs.slice(f"ref{i}_body_quat"), to_base_quat(root, body_quat).ravel())
            assert np.array_equal(
                obs.slice(f"ref{i}_root_lin_vel"), to_base_vector(root, ref.root_lin_vel)
            )
        empty = build_student_obs(state, [], ref_model, 0)
        assert empty.values.shape == (student_obs_length(ref_model, 0),)
        assert np.array_equal(empty.values, obs.values[: empty.values.shape[0]])

    @pytest.mark.parametrize("f", [1, 5])
    def test_student_obs_bits_match_block_oracle(self, ref_model, rng, f):
        # frames with body poses, float32 wire values and frames without body
        # poses (the FK fallback) in every window position
        for trial in range(6):
            state = random_state(rng, ref_model)
            window = []
            for i in range(f):
                ref = random_ref(rng, ref_model)
                kind = (trial + i) % 3
                if kind == 1:
                    ref = replace(ref, body_pos=ref.body_pos.astype(np.float32),
                                  body_quat=ref.body_quat.astype(np.float32),
                                  root_lin_vel=ref.root_lin_vel.astype(np.float32))
                elif kind == 2:
                    ref = bodyless(ref)
                window.append(ref)
            values, layout = student_obs_blocks(state, window, ref_model, f)
            obs = build_student_obs(state, window, ref_model, f)
            assert obs.values.tobytes() == values.tobytes()
            assert obs.layout == layout

    def test_se2_equivariance_both_policies(self, ref_model, rng):
        for _ in range(25):
            state = random_state(rng, ref_model)
            window = [random_ref(rng, ref_model) for _ in range(5)]
            yaw = rng.uniform(-np.pi, np.pi)
            d = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
            q_g = quat_from_yaw(yaw)
            state2 = se2_state(state, q_g, d)
            window2 = [se2_frame(w, q_g, d) for w in window]
            t1 = build_teacher_obs(state, window[0], ref_model)
            t2 = build_teacher_obs(state2, window2[0], ref_model)
            assert np.allclose(t1.values, t2.values, atol=1e-9)
            s1 = build_student_obs(state, window, ref_model, 5)
            s2 = build_student_obs(state2, window2, ref_model, 5)
            assert np.allclose(s1.values, s2.values, atol=1e-9)


class TestStateKeyBodies:
    """A state carries key-body poses only when its frame does; the teacher
    observation derives missing ones, the student observation never reads them."""

    def test_teacher_obs_bits_with_and_without_carried_bodies(self, ref_model, rng):
        for trial in range(6):
            ref = random_ref(rng, ref_model)
            if trial % 2:
                ref = replace(ref, body_lin_vel=None, body_ang_vel=None)
            root = ref.root
            body_pos, body_quat = key_body_poses(ref_model, ref.joint_pos, root.position, root.orientation)
            derived = replace(ref, body_pos=body_pos, body_quat=body_quat)
            action = rng.uniform(-0.5, 0.5, ref_model.n_joints)
            carried = state_from_frame(derived, ref_model, last_action=action)
            if trial % 2:
                state = state_from_frame(bodyless(ref), ref_model, last_action=action)
            else:
                # a frame carries body velocities only beside its body poses,
                # but a state carries them always
                state = replace(carried, body_pos=None, body_quat=None)
            assert state.body_pos is None and state.body_quat is None
            assert state.n_bodies == ref_model.n_key_bodies
            reference = random_ref(rng, ref_model)
            expected = build_teacher_obs(carried, reference, ref_model)
            got = build_teacher_obs(state, reference, ref_model)
            assert got.values.tobytes() == expected.values.tobytes()
            assert got.layout == expected.layout

    def test_student_tick_runs_no_fk(self, ref_model, rng, monkeypatch):
        def no_fk(*args):
            raise AssertionError("FK ran")

        window = [random_ref(rng, ref_model) for _ in range(5)]
        command = rng.uniform(-0.5, 0.5, ref_model.n_joints)
        current = replace(bodyless(window[0]), joint_pos=command)
        expected = student_obs_blocks(state_from_frame(current, ref_model, last_action=command), window, ref_model, 5)
        monkeypatch.setattr(kinematics, "_fk_walk", no_fk)
        monkeypatch.setattr(kinematics, "_fk_batch", no_fk)
        state = state_from_frame(current, ref_model, last_action=command)
        obs = build_student_obs(state, window, ref_model)
        assert state.body_pos is None
        assert obs.values.tobytes() == expected[0].tobytes() and obs.layout == expected[1]
        assert build_student_obs(state, window, ref_model).layout is obs.layout

    @pytest.mark.parametrize("missing", ["body_pos", "body_quat"])
    def test_one_body_pose_without_the_other_rejected(self, ref_model, rng, missing):
        state = random_state(rng, ref_model)
        with pytest.raises(InputError, match="body_pos and body_quat: give both or neither"):
            replace(state, **{missing: None})
        bare = replace(state, body_pos=None, body_quat=None)
        assert bare.n_bodies == ref_model.n_key_bodies

    def test_state_from_frame_checks_what_it_takes(self, ref_model, rng):
        ref = random_ref(rng, ref_model)
        n = ref_model.n_joints
        with pytest.raises(InputError, match=f"joint_pos: expected {n} joints, got {n - 1}"):
            state_from_frame(replace(ref, joint_pos=ref.joint_pos[:-1], joint_vel=None), ref_model)
        with pytest.raises(InputError, match=rf"last_action: expected shape \({n},\)"):
            state_from_frame(ref, ref_model, last_action=np.zeros(n + 1))
        # a body-less frame carries no body velocities, so it gives the
        # model's key-body count zero velocities
        state = state_from_frame(bodyless(ref), ref_model)
        assert np.array_equal(state.body_lin_vel, np.zeros((ref_model.n_key_bodies, 3)))
        with pytest.raises(InputError, match="body_lin_vel: given without body_pos and body_quat"):
            replace(ref, body_pos=None, body_quat=None, body_lin_vel=np.zeros((2, 3)))

# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

def _qmul(a, b):
    return (
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    )


def _qconj(q):
    return (q[0], -q[1], -q[2], -q[3])


def _qrot_inv(q, v):
    qc = _qconj(q)
    vq = (0.0, v[0], v[1], v[2])
    out = _qmul(_qmul(qc, vq), _qconj(qc))
    return np.array(out[1:])


def _qangle(a, b):
    d = _qmul(_qconj(tuple(a)), tuple(b))
    vec = math.sqrt(d[1] ** 2 + d[2] ** 2 + d[3] ** 2)
    return 2.0 * math.atan2(vec, abs(d[0]))


def oracle_reward(state, ref, action, prev_action, model, config, joint_acc):
    """Term-by-term reference implementation with scalar loops."""
    slots = {b: i for i, b in enumerate(model.key_bodies)}
    torso = slots[config.torso_body]
    ee = [slots[b] for b in config.end_effectors]
    feet = [slots[b] for b in config.feet]
    k = model.n_key_bodies
    ref_lin = ref.body_lin_vel if ref.body_lin_vel is not None else np.zeros((k, 3))
    ref_ang = ref.body_ang_vel if ref.body_ang_vel is not None else np.zeros((k, 3))
    rq, sq = ref.root.orientation, state.root.orientation

    def base_point(q, origin, p):
        return _qrot_inv(q, np.asarray(p) - np.asarray(origin))

    e2 = {}
    e2["torso_global_pos"] = float(
        sum((state.body_pos[torso][c] - ref.body_pos[torso][c]) ** 2 for c in range(3))
    )
    e2["torso_global_rot"] = _qangle(state.body_quat[torso], ref.body_quat[torso]) ** 2
    e2["fullbody_global_lin_vel"] = float(
        np.mean([sum((state.body_lin_vel[i][c] - ref_lin[i][c]) ** 2 for c in range(3)) for i in range(k)])
    )
    e2["fullbody_global_ang_vel"] = float(
        np.mean([sum((state.body_ang_vel[i][c] - ref_ang[i][c]) ** 2 for c in range(3)) for i in range(k)])
    )
    rel_pos_err = []
    rel_rot_err = []
    for i in range(k):
        a = base_point(sq, state.root.position, state.body_pos[i])
        b = base_point(rq, ref.root.position, ref.body_pos[i])
        rel_pos_err.append(float(np.sum((a - b) ** 2)))
        qa = _qmul(_qconj(tuple(sq)), tuple(state.body_quat[i]))
        qb = _qmul(_qconj(tuple(rq)), tuple(ref.body_quat[i]))
        rel_rot_err.append(_qangle(qa, qb) ** 2)
    e2["fullbody_relative_pos"] = float(np.mean(rel_pos_err))
    e2["fullbody_relative_rot"] = float(np.mean(rel_rot_err))
    e2["ee_relative_pos"] = float(np.mean([rel_pos_err[i] for i in ee]))
    e2["ee_relative_rot"] = float(np.mean([rel_rot_err[i] for i in ee]))
    lin_err = [
        float(np.sum((_qrot_inv(sq, state.body_lin_vel[i]) - _qrot_inv(rq, ref_lin[i])) ** 2))
        for i in ee
    ]
    ang_err = [
        float(np.sum((_qrot_inv(sq, state.body_ang_vel[i]) - _qrot_inv(rq, ref_ang[i])) ** 2))
        for i in ee
    ]
    e2["ee_relative_lin_vel"] = float(np.mean(lin_err))
    e2["ee_relative_ang_vel"] = float(np.mean(ang_err))

    total = 0.0
    for term in TRACKING_TERMS:
        total += config.weights[term] * math.exp(-config.sigmas[term] * e2[term])
    lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
    total += config.weights["action_rate"] * float(np.sum((action - prev_action) ** 2))
    total += config.weights["joint_acceleration"] * float(np.sum(joint_acc**2))
    total += config.weights["joint_position_limits"] * float(
        np.sum(np.maximum(0, state.joint_pos - hi) + np.maximum(0, lo - state.joint_pos))
    )
    total += config.weights["velocity_action_limits"] * (
        float(np.sum(np.maximum(0, np.abs(state.joint_vel) - config.joint_vel_limit)))
        + float(np.sum(np.maximum(0, action - hi) + np.maximum(0, lo - action)))
    )
    air = any(
        abs(state.body_pos[i][2] - ref.body_pos[i][2]) > config.air_time_height_tol
        for i in feet
    )
    total += config.weights["contact_air_time"] * (1.0 if air else 0.0)
    return total


def on_reference_pair(ref_model):
    clip = static_clip(ref_model, n_frames=3)
    clip = derive_joint_velocities(clip)
    ref = clip.frames[0]
    state = state_from_frame(ref, ref_model)
    return state, ref


class TestReward:
    def test_zero_error_totals_seven(self, ref_model):
        # kernel(0) = 1 per tracking term: 2*0.5 + 2*1 + 2*1 + 4*0.5 = 7
        state, ref = on_reference_pair(ref_model)
        action = ref.joint_pos.copy()
        result = reward(state, ref, action, action, ref_model)
        assert result.total == pytest.approx(7.0, abs=1e-12)
        for term in TRACKING_TERMS:
            weight = DEFAULT_REWARD_WEIGHTS[term]
            assert result.terms[term] == pytest.approx(weight, abs=1e-12)

    def test_action_rate_composition(self, ref_model):
        state, ref = on_reference_pair(ref_model)
        prev = ref.joint_pos.copy()
        action = prev.copy()
        action[0] += 0.1  # ||a - a_prev||^2 = 0.01
        result = reward(state, ref, action, prev, ref_model)
        assert result.total == pytest.approx(7.0 - 8.0 * 0.01, abs=1e-12)

    def test_matches_term_by_term_oracle(self, ref_model, rng):
        config = RewardConfig()
        for _ in range(20):
            state = random_state(rng, ref_model)
            ref = random_ref(rng, ref_model)
            action = rng.uniform(-1, 1, ref_model.n_joints)
            prev = rng.uniform(-1, 1, ref_model.n_joints)
            acc = rng.normal(0.0, 100.0, ref_model.n_joints)
            mine = reward(state, ref, action, prev, ref_model, config, joint_acc=acc)
            expected = oracle_reward(state, ref, action, prev, ref_model, config, acc)
            assert mine.total == pytest.approx(expected, abs=1e-12)

    def test_tracking_monotonicity(self, ref_model):
        state, ref = on_reference_pair(ref_model)
        action = ref.joint_pos.copy()
        base = reward(state, ref, action, action, ref_model)
        for magnitude in (0.05, 0.1, 0.2, 0.4):
            moved = replace(
                state, body_pos=state.body_pos + np.array([magnitude, 0.0, 0.0])
            )
            worse = reward(moved, ref, action, action, ref_model)
            assert worse.total < base.total
            base = worse

    def test_limit_overshoot_penalty(self, ref_model):
        state, ref = on_reference_pair(ref_model)
        action = ref.joint_pos.copy()
        hi = ref_model.joint_limits[0, 1]
        over = replace(state, joint_pos=state.joint_pos.copy())
        over.joint_pos[0] = hi + 0.25
        result = reward(over, ref, action, action, ref_model)
        penalized = result.terms["joint_position_limits"]
        assert penalized == pytest.approx(-10.0 * 0.25, abs=1e-9)

    def test_unknown_end_effector_config_error(self, ref_model):
        state, ref = on_reference_pair(ref_model)
        config = RewardConfig(end_effectors=("left_wrist_yaw_link", "ghost_link"))
        with pytest.raises(ConfigError, match="ghost_link"):
            reward(state, ref, ref.joint_pos, ref.joint_pos, ref_model, config)

    def test_air_time_indicator(self, ref_model):
        state, ref = on_reference_pair(ref_model)
        action = ref.joint_pos.copy()
        lifted = state.body_pos.copy()
        foot = ref_model.key_bodies.index("left_ankle_roll_link")
        lifted[foot, 2] += 0.3
        moved = replace(state, body_pos=lifted)
        result = reward(moved, ref, action, action, ref_model)
        assert result.terms["contact_air_time"] == pytest.approx(-100.0)


class TestDomainRandomization:
    def test_samples_inside_closed_ranges(self):
        r = DRRanges()
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            cfg = sample_dr(rng)
            assert 0.0 <= cfg.action_delay_s <= 0.02
            assert 0.0 <= cfg.action_noise_rad <= 0.02
            for mu in (*cfg.static_friction.values(), *cfg.dynamic_friction.values()):
                assert 0.3 <= mu <= 2.0
            cfg.validate(r)

    def test_seeded_replay_oracle(self):
        cfg = sample_dr(314)
        rng = np.random.default_rng(314)
        assert cfg.action_delay_s == rng.uniform(0.0, 0.02)
        assert cfg.action_noise_rad == rng.uniform(0.0, 0.02)
        assert cfg.link_mass_scale["torso"] == rng.uniform(0.9, 1.1)
        assert cfg.link_mass_scale["shoulder_yaw"] == rng.uniform(0.9, 1.1)
        assert cfg.torso_com_offset_m[0] == rng.uniform(-0.075, 0.075)
        assert cfg.torso_com_offset_m[1] == rng.uniform(-0.1, 0.1)
        assert cfg.torso_com_offset_m[2] == rng.uniform(-0.1, 0.1)
        for joint in ("ankle_roll", "pelvis", "hip_roll", "knee", "elbow"):
            assert cfg.static_friction[joint] == rng.uniform(0.3, 2.0)
        for joint in ("ankle_roll", "pelvis", "hip_roll", "knee", "elbow"):
            assert cfg.dynamic_friction[joint] == rng.uniform(0.3, 2.0)
        assert cfg.stiffness_scale == rng.uniform(0.95, 1.05)
        assert cfg.damping_scale == rng.uniform(0.95, 1.05)
        assert cfg.armature_scale == rng.uniform(0.995, 1.015)
        assert cfg.torque_rfi_fraction == 0.02

    def test_one_draw_matches_per_field_oracle(self):
        # same values, and the generator is left in the same state
        r = DRRanges()
        for seed in range(200):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sample_dr(rng) == per_field_dr(ref_rng, r)
            assert rng.random() == ref_rng.random()

    def test_field_means_near_midpoints(self):
        rng = np.random.default_rng(7)
        samples = [sample_dr(rng) for _ in range(4000)]
        delays = np.array([s.action_delay_s for s in samples])
        # uniform(0, 0.02): mean 0.01, SE = range/sqrt(12)/sqrt(n)
        se = 0.02 / np.sqrt(12) / np.sqrt(len(samples))
        assert abs(delays.mean() - 0.01) < 3 * se

    def test_out_of_range_config_rejected(self):
        cfg = sample_dr(0)
        bad = DRConfig(
            action_delay_s=0.5,
            action_noise_rad=cfg.action_noise_rad,
            link_mass_scale=cfg.link_mass_scale,
            torso_com_offset_m=cfg.torso_com_offset_m,
            torque_rfi_fraction=cfg.torque_rfi_fraction,
            static_friction=cfg.static_friction,
            dynamic_friction=cfg.dynamic_friction,
            stiffness_scale=cfg.stiffness_scale,
            damping_scale=cfg.damping_scale,
            armature_scale=cfg.armature_scale,
        )
        with pytest.raises(ConfigError):
            bad.validate()


# tracker specs that parse_tracker rejects, with the message it gives
BAD_TRACKERS = {
    "lag:abc": "tracker 'lag:abc': 'abc' is not an integer",
    "lag:1.5": "tracker 'lag:1.5': '1.5' is not an integer",
    "noise:zz": "tracker 'noise:zz': 'zz' is not a number",
    "pd:100,x": "tracker 'pd:100,x': 'x' is not a number",
    "noise:nan": "noise std, kp and kd must be finite",
    "pd:inf,20": "noise std, kp and kd must be finite",
    "pd:100,nan": "noise std, kp and kd must be finite",
    "pd:100,20,0": "dt must be positive and finite",
    "pd:100,20,-0.01": "dt must be positive and finite",
    "pd:100,20,inf": "dt must be positive and finite",
    "pd:100,20,nan": "dt must be positive and finite",
}


class TestTrackers:
    def test_parse_tracker(self):
        assert parse_tracker("perfect").mode == "perfect"
        assert parse_tracker("oracle").mode == "perfect"
        assert parse_tracker("lag:3") == TrackerSpec(mode="lag", lag=3)
        assert parse_tracker("noise:0.05").noise_std == pytest.approx(0.05)
        pd = parse_tracker("pd:100,20,0.005")
        assert (pd.kp, pd.kd, pd.dt) == (100.0, 20.0, 0.005)
        with pytest.raises(ConfigError):
            parse_tracker("warp:9")

    @pytest.mark.parametrize("text", BAD_TRACKERS)
    def test_bad_tracker_spec_rejected(self, text):
        with pytest.raises(ConfigError, match=re.escape(BAD_TRACKERS[text])):
            parse_tracker(text)

    def test_pd_requires_positive_kp(self):
        with pytest.raises(ConfigError):
            TrackerSpec(mode="pd", kp=0.0, kd=1.0)

    def test_perfect_replays_reference(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.2, n_frames=10)
        out = track_clip(TrackerSpec(mode="perfect"), clip, ref_model)
        assert np.allclose(out.body_pos, clip.body_pos, atol=1e-12)
        assert np.allclose(out.joint_pos, clip.joint_pos)
        assert np.array_equal(out.t, clip.t)

    @pytest.mark.parametrize("tracker", ["perfect", "lag:0"])
    @pytest.mark.parametrize("with_bodies", [True, False])
    def test_zero_lag_replay_bytes_equal_a_regathered_copy(self, ref_model, tracker, with_bodies):
        clip = sine_joint_clip(ref_model, joint=4, n_frames=12, with_joint_vel=False)
        clip = clip.replace(root_pos=clip.root_pos + np.arange(12)[:, None] * [0.03, 0.01, 0.0])
        if with_bodies:
            clip = derive_body_kinematics(clip, ref_model)
        out = track_clip(parse_tracker(tracker), clip, ref_model)
        ref = derive_body_kinematics(derive_joint_velocities(clip), ref_model)
        src = np.arange(12)
        for key in COLUMNS:
            want, got = getattr(ref, key), getattr(out, key)
            assert (got is None) == (want is None), key
            if want is not None:
                assert got.shape == want.shape and got.tobytes() == want[src].tobytes(), key
        assert (out.name, out.fps, out.category, out.level) == (clip.name, clip.fps, clip.category, clip.level)

    def test_lag_replays_shifted_frames(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=12)
        k = 3
        out = track_clip(TrackerSpec(mode="lag", lag=k), clip, ref_model)
        src = np.maximum(np.arange(12) - k, 0)
        assert np.allclose(out.body_pos, clip.body_pos[src], atol=1e-12)
        assert np.allclose(out.root_pos, clip.root_pos[src], atol=1e-12)
        assert np.array_equal(out.t, clip.t)

    def test_lag_error_closed_form(self, ref_model):
        v, fps, k = 1.2, 30.0, 4
        clip = constant_velocity_clip(ref_model, v, n_frames=40, fps=fps)
        out = track_clip(TrackerSpec(mode="lag", lag=k), clip, ref_model)
        err = np.linalg.norm(out.body_pos[k:] - clip.body_pos[k:], axis=-1)
        assert np.allclose(err, v * k / fps, atol=1e-9)

    def test_noise_deterministic_per_seed(self, ref_model):
        clip = constant_velocity_clip(ref_model, 0.5, n_frames=8)
        a = track_clip(TrackerSpec(mode="noise", noise_std=0.05, seed=3), clip, ref_model)
        b = track_clip(TrackerSpec(mode="noise", noise_std=0.05, seed=3), clip, ref_model)
        c = track_clip(TrackerSpec(mode="noise", noise_std=0.05, seed=4), clip, ref_model)
        assert np.allclose(a.joint_pos[5], b.joint_pos[5])
        assert not np.allclose(a.joint_pos[5], c.joint_pos[5])

    def test_pd_critical_damping_step(self, ref_model):
        # step target on one joint; critically damped double integrator must
        # converge monotonically with no overshoot beyond 1e-6
        fps = 30.0
        n_frames = 60
        target = 0.5
        frames = []
        for i in range(n_frames):
            q = np.zeros(ref_model.n_joints)
            if i > 0:
                q[0] = target
            frames.append(
                Frame(
                    t=i / fps,
                    root=RigidPose(np.array([0, 0, 0.75]), np.array([1.0, 0, 0, 0])),
                    root_lin_vel=np.zeros(3),
                    root_ang_vel=np.zeros(3),
                    joint_pos=q,
                )
            )
        clip = MotionClip("step", fps, "other", "none", tuple(frames),
                          dof_names=ref_model.joint_names, key_bodies=ref_model.key_bodies)
        kp = 400.0
        kd = 2.0 * math.sqrt(kp)  # critical damping
        dt = 1.0 / 600.0
        out = track_clip(TrackerSpec(mode="pd", kp=kp, kd=kd, dt=dt), clip, ref_model)
        q0 = out.joint_pos[:, 0]
        assert np.all(np.diff(q0) >= -1e-12)
        assert q0.max() <= target + 1e-6
        assert q0[-1] == pytest.approx(target, abs=1e-3)
        # compare against the continuous critically damped solution; the step
        # drives ticks 1..t_idx, so state t_idx has integrated t_idx periods
        omega = math.sqrt(kp)
        for t_idx in (5, 10, 20, 40):
            t = t_idx / fps
            expected = target * (1.0 - (1.0 + omega * t) * math.exp(-omega * t))
            assert q0[t_idx] == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("text", ["lag:0", "lag:3", "noise:0.05", "pd:400,40", "pd:100,20,0.005"])
    def test_stepped_tracker_equals_track_clip(self, ref_model, text):
        # stepped over float32-rounded joints, as serve-policy steps it on wire frames
        clip = sine_joint_clip(ref_model, joint=4, amplitude=0.5, n_frames=24, with_joint_vel=False)
        clip = clip.replace(joint_pos=clip.joint_pos.astype(np.float32).astype(float))
        spec = replace(parse_tracker(text), seed=7)
        out = track_clip(spec, clip, ref_model)
        tracker = Tracker(spec, 1.0 / clip.fps)
        for t, target in enumerate(clip.joint_pos.astype(np.float32)):
            assert tracker.step(target.astype(float)).tobytes() == out.joint_pos[t].tobytes()
            if spec.mode == "pd":
                assert tracker.v.tobytes() == out.joint_vel[t].tobytes()

    def test_pd_step_cap(self, ref_model):
        # 1000 steps per 30 fps frame is the most a spec may ask for
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=2, fps=30.0)
        track_clip(TrackerSpec(mode="pd", kp=100.0, kd=20.0, dt=1.0 / 30000.0), clip, ref_model)
        with pytest.raises(ConfigError, match="1001 steps per 30.0 fps frame"):
            track_clip(TrackerSpec(mode="pd", kp=100.0, kd=20.0, dt=1.0 / 30030.0), clip, ref_model)


class TestSystemConfig:
    def test_default_matches_reward_table(self):
        doc = default_system_config()
        assert doc["reward"]["weights"] == DEFAULT_REWARD_WEIGHTS

    def test_default_matches_dr_table(self):
        dr = default_system_config()["domain_randomization"]
        assert dr["action_delay_s"] == [0.0, 0.02]
        assert dr["friction"] == [0.3, 2.0]
        assert dr["armature_scale"] == [0.995, 1.015]

    def test_arch_defaults(self):
        arch = default_system_config()["arch"]
        assert (arch["teacher"]["d_model"], arch["teacher"]["d_ff"]) == (256, 512)
        assert (arch["student"]["d_model"], arch["student"]["d_ff"]) == (512, 1024)
        assert arch["teacher"]["n_tokens"] == 4
        assert arch["student"]["n_tokens"] == 2
        assert arch["teacher"]["n_heads"] == arch["student"]["n_heads"] == 4
