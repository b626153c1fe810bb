"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints through the terminal-summary hook in conftest.py as a
single PASS/FAIL line.
"""
import json
import math
import time

import numpy as np
import pytest

from conftest import random_tree_model
from oracles import (
    decoded_frames_canonical,
    derive_joint_velocities,
    hold_pipeline_oracle,
    links_from_model,
    matrix_fk,
    matrix_to_quat,
    packets_equal,
    parse_report_csv,
    quat_distance,
    quat_normalize,
    reference_encode,
    sorted_mean,
    sorted_percentile,
    static_clip,
    stratum_row,
)

from omniclone.bench import aggregate, emit_report, parse_report_json, run_episode
from omniclone.bench import EpisodeResult
from omniclone.kinematics import RigidPose, forward_kinematics_arrays
from omniclone.motion import clip_stats, percentile
from omniclone.retarget import CalibrationResult, calibrate, discrepancy_report, retarget_stream
from omniclone.rotations import quat_from_yaw
from omniclone.simtrack import TrackerSpec, build_student_obs, build_teacher_obs
from omniclone.stream import (
    FaultConfig,
    PacketFrame,
    StreamPacket,
    decode_packet,
    encode_packet,
    fault_schedule,
    heartbeat,
    measure_latency,
    simulate_stream,
)
from omniclone.synthetic import SUITE_SPEEDS, benchmark_suite, constant_velocity_clip
from omniclone.vlabridge import ActionChunk, chunk_executor

from tables import DEFAULT_REWARD_WEIGHTS, TRACKING_TERMS, default_system_config, reward, sample_dr
from test_retarget import MARKERS, humanoid_as_subject
from test_simtrack import random_ref, random_state, se2_frame, se2_state


def test_fk_oracle_equivalence(rng):
    """100 random chains x 100 configurations agree with an independent
    matrix-chain oracle within 1e-9 m / 1e-9 quaternion distance, < 10 s."""
    start = time.monotonic()
    worst_pos = worst_quat = 0.0
    for chain_idx in range(100):
        n_joints = int(rng.integers(1, 9))  # up to 8 joints
        model = random_tree_model(rng, n_joints)
        links = links_from_model(model)
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, n_joints)
            root = RigidPose(rng.uniform(-1, 1, 3), quat_normalize(rng.normal(size=4)))
            pos, quat = forward_kinematics_arrays(model, q, root.position, root.orientation)
            oracle = matrix_fk(links, q, root.position, root.orientation)
            for i, name in enumerate(model.link_names):
                T = oracle[name]
                worst_pos = max(worst_pos, float(np.max(np.abs(pos[i] - T[:3, 3]))))
                worst_quat = max(
                    worst_quat, float(quat_distance(quat[i], matrix_to_quat(T[:3, :3])))
                )
    elapsed = time.monotonic() - start
    assert worst_pos < 1e-9
    assert worst_quat < 1e-9
    assert elapsed < 10.0


def test_observation_se2_equivariance(ref_model, rng):
    """1000 random (state, reference, yaw, translation) tuples leave teacher
    and student observation vectors unchanged within 1e-9."""
    worst = 0.0
    for _ in range(1000):
        state = random_state(rng, ref_model)
        window = [random_ref(rng, ref_model) for _ in range(5)]
        q_g = quat_from_yaw(rng.uniform(-np.pi, np.pi))
        d = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0])
        state2 = se2_state(state, q_g, d)
        window2 = [se2_frame(w, q_g, d) for w in window]
        t1 = build_teacher_obs(state, window[0], ref_model).values
        t2 = build_teacher_obs(state2, window2[0], ref_model).values
        s1 = build_student_obs(state, window, ref_model, 5).values
        s2 = build_student_obs(state2, window2, ref_model, 5).values
        worst = max(worst, float(np.max(np.abs(t1 - t2))), float(np.max(np.abs(s1 - s2))))
    assert worst < 1e-9


def test_retargeting_inversion(ref_model):
    """Calibrated retargeting inverts synthetic subject scalings of 0.76,
    1.0, and 1.32 within 1e-9 m; an uncalibrated subject with a 0.2 m arm
    offset reports at least 0.19 m max deviation."""
    clip = constant_velocity_clip(ref_model, 0.9, n_frames=40)
    for s in (0.76, 1.0, 1.32):
        subject = humanoid_as_subject(clip, s)
        cal = calibrate(subject[0], ref_model, MARKERS)
        frames, held = retarget_stream(subject, cal, ref_model)
        assert not held
        for out, src in zip(frames, clip.frames):
            assert np.max(np.abs(out.body_pos - src.body_pos)) < 1e-9
            assert np.max(np.abs(out.root.position - src.root.position)) < 1e-9

    offset_subject = humanoid_as_subject(
        clip, 1.0, offsets={"left_wrist_yaw_link": (0.0, 0.0, 0.20)}
    )
    uncalibrated = CalibrationResult(
        scale=1.0, subject_height_metric=1.0, humanoid_height_metric=1.0,
        key_body_mapping=MARKERS, session_origin=(0.0, 0.0, 0.0),
    )
    frames, _ = retarget_stream(offset_subject, uncalibrated, ref_model)
    report = discrepancy_report(frames, clip.frames)
    assert report["max_keybody_deviation_m"] >= 0.19


def test_streaming_continuity(rng):
    """10,000 packets at 50 Hz through seeded 10% drop + uniform 0-40 ms
    jitter: exactly one frame per tick after warmup, strictly increasing
    fresh sequence numbers, and a trace byte-identical to an independently
    written discrete-event oracle."""
    fault = FaultConfig(drop_prob=0.1, jitter_ms=(0.0, 40.0))
    seed = 2024
    trace = simulate_stream(
        10_000, producer_hz=50.0, consumer_hz=50.0, capacity=5, fault=fault, seed=seed
    )
    assert [e.tick for e in trace.entries] == list(range(10_000))
    fresh = trace.fresh_seqs
    assert all(a < b for a, b in zip(fresh, fresh[1:]))
    arrivals, _, _ = fault_schedule(10_000, 50.0, fault, seed=seed)
    oracle = hold_pipeline_oracle(arrivals, 50.0, 5, 10_000)
    oracle_csv = "tick,seq,held\n" + "\n".join(f"{t},{s},{int(h)}" for t, s, h in oracle) + "\n"
    assert trace.to_csv().encode() == oracle_csv.encode()


def test_streaming_latency_budget():
    """Loopback mean latency sits inside the 80 ms end-to-end budget and an
    injected constant 30 ms delay is measured within +-3 ms."""
    plain = measure_latency(n_samples=150, rate_hz=500.0)
    assert plain.mean_ms < 80.0
    delayed = measure_latency(n_samples=60, rate_hz=200.0, fault=FaultConfig(jitter_ms=(30.0, 30.0)))
    assert abs(delayed.mean_ms - 30.0) <= 3.0


def test_wire_codec(rng):
    """decode(encode(p)) is the identity over 10,000 randomized packets and
    the encoder matches independent golden fixtures byte-for-byte."""
    for _ in range(10_000):
        k = int(rng.integers(0, 5))
        n = int(rng.integers(0, 16))
        frame_count = int(rng.integers(0, 3))
        frames = tuple(
            PacketFrame(
                root_lin_vel=rng.normal(size=3).astype(np.float32),
                body_pos=rng.normal(size=(k, 3)).astype(np.float32),
                body_quat=rng.normal(size=(k, 4)).astype(np.float32),
                joint_pos=rng.normal(size=n).astype(np.float32),
            )
            for _ in range(frame_count)
        )
        packet = StreamPacket(
            msg_type=int(rng.integers(0, 3)),
            seq=int(rng.integers(0, 2**32)),
            send_ts_us=int(rng.integers(0, 2**63)),
            frames=frames,
            flags=int(rng.integers(0, 2**16)),
            n_bodies=k,
            n_joints=n,
        )
        decoded = decode_packet(encode_packet(packet))
        assert packets_equal(decoded, packet)
        assert decoded_frames_canonical(decoded)

    # golden fixtures from the independent reference encoder
    assert encode_packet(heartbeat(1, 1000)) == reference_encode(2, 0, 1, 1000, [])
    frame = PacketFrame(
        root_lin_vel=np.array([1.0, -2.0, 0.5], dtype=np.float32),
        body_pos=np.arange(6, dtype=np.float32).reshape(2, 3),
        body_quat=np.arange(8, dtype=np.float32).reshape(2, 4),
        joint_pos=np.array([0.25, -0.75], dtype=np.float32),
    )
    packet = StreamPacket(msg_type=0, seq=77, send_ts_us=123456789, frames=(frame,))
    golden = reference_encode(
        0, 0, 77, 123456789,
        [{
            "root_lin_vel": [1.0, -2.0, 0.5],
            "bodies": [([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
                       ([3.0, 4.0, 5.0], [4.0, 5.0, 6.0, 7.0])],
            "joint_pos": [0.25, -0.75],
        }],
    )
    assert encode_packet(packet) == golden

    # the largest packet of the bundled model's counts: 4 frames of K=7, n=29
    values = (np.arange(4 * 81, dtype=np.float32) * 0.125 - 20.0).reshape(4, 81)
    frames = tuple(
        PacketFrame(row[:3], row[3:52].reshape(7, 7)[:, :3], row[3:52].reshape(7, 7)[:, 3:], row[52:])
        for row in values
    )
    packet = StreamPacket(msg_type=0, seq=2**32 - 1, send_ts_us=2**64 - 1, frames=frames, flags=3)
    golden = reference_encode(
        0, 3, 2**32 - 1, 2**64 - 1,
        [{
            "root_lin_vel": [float(v) for v in row[:3]],
            "bodies": [([float(v) for v in body[:3]], [float(v) for v in body[3:]])
                       for body in row[3:52].reshape(7, 7)],
            "joint_pos": [float(v) for v in row[52:]],
        } for row in values],
    )
    assert len(golden) == 1326
    assert encode_packet(packet) == golden
    decoded = decode_packet(golden)
    assert packets_equal(decoded, packet)
    assert decoded_frames_canonical(decoded)


def test_benchmark_end_to_end(ref_model):
    """A synthetic 6x3 suite (10 clips per stratum): the perfect tracker
    scores SR 100 / MPJPE 0 in all 18 strata; lagged trackers match the
    1000*v*k/fps closed form within 5% and are nondecreasing in the lag;
    the full run finishes inside 60 s."""
    start = time.monotonic()
    clips = benchmark_suite(ref_model, clips_per_stratum=10, n_frames=150, fps=30.0)
    assert len(clips) == 180

    results = [run_episode(TrackerSpec(mode="perfect"), clip, ref_model) for clip in clips]
    report = aggregate(results, method="perfect")
    assert len(report.rows) == 18
    for row in report.rows:
        assert row.sr_percent == 100.0
        assert row.mpjpe_mm == pytest.approx(0.0, abs=1e-9)

    fps = 30.0
    previous = {stratum: -1.0 for stratum in SUITE_SPEEDS}
    for k in (0, 1, 2, 4, 8):
        tracker = TrackerSpec(mode="lag", lag=k)
        lag_results = [run_episode(tracker, clip, ref_model) for clip in clips]
        lag_report = aggregate(lag_results, method=f"lag:{k}")
        for row in lag_report.rows:
            assert row.sr_percent == 100.0
            v = SUITE_SPEEDS[(row.category, row.level)]
            predicted = 1000.0 * v * k / fps
            if k == 0:
                assert row.mpjpe_mm == pytest.approx(0.0, abs=1e-9)
            else:
                assert row.mpjpe_mm == pytest.approx(predicted, rel=0.05)
            assert row.mpjpe_mm >= previous[(row.category, row.level)]
            previous[(row.category, row.level)] = row.mpjpe_mm
    assert time.monotonic() - start < 60.0


def test_reward_dr_fidelity(ref_model):
    """Default configuration reproduces every reward weight and DR range
    verbatim; zero tracking error totals exactly 7.0 under grouped weights;
    100,000 domain-randomization samples stay inside the closed ranges."""
    doc = default_system_config()
    assert doc["reward"]["weights"] == {
        "action_rate": -8.0,
        "contact_air_time": -100.0,
        "joint_acceleration": -1.0e-7,
        "joint_position_limits": -10.0,
        "velocity_action_limits": -1.0,
        "torso_global_pos": 0.5,
        "torso_global_rot": 0.5,
        "fullbody_global_lin_vel": 1.0,
        "fullbody_global_ang_vel": 1.0,
        "fullbody_relative_pos": 1.0,
        "fullbody_relative_rot": 1.0,
        "ee_relative_pos": 0.5,
        "ee_relative_rot": 0.5,
        "ee_relative_lin_vel": 0.5,
        "ee_relative_ang_vel": 0.5,
    }
    dr = doc["domain_randomization"]
    assert dr["action_delay_s"] == [0.0, 0.02]
    assert dr["action_noise_rad"] == [0.0, 0.02]
    assert dr["link_mass_scale"] == [0.9, 1.1]
    assert dr["mass_links"] == ["torso", "shoulder_yaw"]
    assert dr["torso_com_x_m"] == [-0.075, 0.075]
    assert dr["torso_com_yz_m"] == [-0.1, 0.1]
    assert dr["torque_rfi_fraction"] == 0.02
    assert dr["friction"] == [0.3, 2.0]
    assert dr["friction_joints"] == ["ankle_roll", "pelvis", "hip_roll", "knee", "elbow"]
    assert dr["stiffness_scale"] == [0.95, 1.05]
    assert dr["damping_scale"] == [0.95, 1.05]
    assert dr["armature_scale"] == [0.995, 1.015]
    arch = doc["arch"]
    assert (arch["teacher"]["d_model"], arch["teacher"]["d_ff"],
            arch["teacher"]["n_tokens"], arch["teacher"]["n_heads"]) == (256, 512, 4, 4)
    assert (arch["student"]["d_model"], arch["student"]["d_ff"],
            arch["student"]["n_tokens"], arch["student"]["n_heads"]) == (512, 1024, 2, 4)

    from omniclone.simtrack import state_from_frame

    clip = derive_joint_velocities(static_clip(ref_model, n_frames=2))
    ref = clip.frames[0]
    state = state_from_frame(ref, ref_model)
    result = reward(state, ref, ref.joint_pos, ref.joint_pos, ref_model)
    assert result.total == pytest.approx(7.0, abs=1e-12)
    assert sum(DEFAULT_REWARD_WEIGHTS[t] for t in TRACKING_TERMS) == 7.0

    rng = np.random.default_rng(8)
    n = 100_000
    sums = {"delay": 0.0, "noise": 0.0, "mass": 0.0, "com_x": 0.0,
            "friction": 0.0, "stiffness": 0.0, "armature": 0.0}
    for _ in range(n):
        cfg = sample_dr(rng)
        assert 0.0 <= cfg.action_delay_s <= 0.02
        assert 0.0 <= cfg.action_noise_rad <= 0.02
        assert all(0.9 <= v <= 1.1 for v in cfg.link_mass_scale.values())
        assert -0.075 <= cfg.torso_com_offset_m[0] <= 0.075
        assert -0.1 <= cfg.torso_com_offset_m[1] <= 0.1
        assert -0.1 <= cfg.torso_com_offset_m[2] <= 0.1
        assert all(0.3 <= v <= 2.0 for v in cfg.static_friction.values())
        assert all(0.3 <= v <= 2.0 for v in cfg.dynamic_friction.values())
        assert 0.95 <= cfg.stiffness_scale <= 1.05
        assert 0.95 <= cfg.damping_scale <= 1.05
        assert 0.995 <= cfg.armature_scale <= 1.015
        sums["delay"] += cfg.action_delay_s
        sums["noise"] += cfg.action_noise_rad
        sums["mass"] += cfg.link_mass_scale["torso"]
        sums["com_x"] += cfg.torso_com_offset_m[0]
        sums["friction"] += cfg.static_friction["knee"]
        sums["stiffness"] += cfg.stiffness_scale
        sums["armature"] += cfg.armature_scale

    def near_midpoint(total, lo, hi):
        se = (hi - lo) / math.sqrt(12) / math.sqrt(n)
        assert abs(total / n - (lo + hi) / 2) < 3 * se

    near_midpoint(sums["delay"], 0.0, 0.02)
    near_midpoint(sums["noise"], 0.0, 0.02)
    near_midpoint(sums["mass"], 0.9, 1.1)
    near_midpoint(sums["com_x"], -0.075, 0.075)
    near_midpoint(sums["friction"], 0.3, 2.0)
    near_midpoint(sums["stiffness"], 0.95, 1.05)
    near_midpoint(sums["armature"], 0.995, 1.015)


def test_stats_oracle(ref_model, rng):
    """Percentiles and means equal the sort-based oracle exactly on 1000
    random samples; degenerate static and constant-velocity clips force
    their rows analytically."""
    values = rng.uniform(0.0, 5.0, 1000)
    assert percentile(values, 5.0) == sorted_percentile(values, 5.0)
    assert percentile(values, 95.0) == sorted_percentile(values, 95.0)
    assert math.fsum(values) / len(values) == sorted_mean(values)

    static = static_clip(ref_model, n_frames=30, root_z=0.75)
    rows = clip_stats([static], ref_model)
    speed = next(r for r in rows if r.metric == "speed")
    assert (speed.lo, speed.hi, speed.mean) == (0.0, 0.0, 0.0)
    height = next(r for r in rows if r.metric == "root_height")
    assert (height.lo, height.hi, height.mean) == (0.75, 0.75, 0.75)

    const = constant_velocity_clip(ref_model, 1.25, n_frames=30)  # exact binary speed
    rows = clip_stats([const], ref_model)
    speed = next(r for r in rows if r.metric == "speed")
    assert (speed.lo, speed.hi, speed.mean) == (1.25, 1.25, 1.25)


def test_chunk_executor_schedule(rng):
    """With 16-step chunks executing 8 actions, planner calls land exactly
    on ticks {0, 8, 16, ...} and the executed index is t mod 8; randomized
    geometries match a step-by-step schedule oracle."""
    from oracles import chunk_schedule_oracle

    calls = []

    def planner(state):
        calls.append(state)
        return ActionChunk(np.zeros((16, 4)))

    trace = chunk_executor(planner, ticks=41, execute_len=8)
    assert list(trace.refresh_ticks) == [0, 8, 16, 24, 32, 40]
    assert list(trace.chunk_step) == [t % 8 for t in range(41)]

    for _ in range(50):
        h = int(rng.integers(1, 25))
        execute_len = int(rng.integers(1, h + 1))
        ticks = int(rng.integers(0, 90))

        def stub(state, h=h):
            return ActionChunk(np.zeros((h, 2)))

        trace = chunk_executor(stub, ticks=ticks, execute_len=execute_len)
        expected_calls, expected_served = chunk_schedule_oracle(ticks, execute_len)
        assert list(trace.refresh_ticks) == expected_calls
        assert [(c, s) for c, s in zip(trace.chunk_index, trace.chunk_step)] == expected_served


def test_report_fixtures():
    """Episode sets constructed to average to published stratum values
    (20.4 mm manipulation/medium at SR 100; 180.5 mm loco-manip/low at SR
    95) survive aggregate -> emit -> parse round trips bit-exactly."""

    def episode(category, level, value, success=True):
        return EpisodeResult(
            clip_name=f"{category}_{level}",
            category=category,
            level=level,
            success=success,
            failure_reason="none" if success else "deviation",
            mpjpe_mm=value,
            per_frame_error_mm=np.array([value]),
            frames_evaluated=1,
        )

    # counts chosen so the means are exact in binary floating point:
    # 16 copies sum by exponent shifts, and 180.5 is exactly representable
    results = [episode("manip", "medium", 20.4) for _ in range(16)]
    results += [episode("loco_manip", "low", 180.5, success=i < 19) for i in range(20)]
    report = aggregate(results, method="fixture")

    manip = stratum_row(report, "manip", "medium")
    assert manip.sr_percent == 100.0
    assert manip.mpjpe_mm == 20.4
    loco = stratum_row(report, "loco_manip", "low")
    assert loco.sr_percent == 95.0
    assert loco.mpjpe_mm == 180.5

    via_json = parse_report_json(emit_report(report, "json"))
    assert stratum_row(via_json, "manip", "medium").mpjpe_mm == 20.4
    assert stratum_row(via_json, "loco_manip", "low").mpjpe_mm == 180.5
    assert stratum_row(via_json, "loco_manip", "low").sr_percent == 95.0

    via_csv = parse_report_csv(emit_report(report, "csv"))
    assert stratum_row(via_csv, "manip", "medium").mpjpe_mm == 20.4
    assert stratum_row(via_csv, "loco_manip", "low").mpjpe_mm == 180.5

    radar = emit_report(report, "radar-csv")
    assert "loco_manip_low,180.5" in radar.splitlines()
    markdown = emit_report(report, "markdown")
    assert "| Manip | Medium | 100 | 20.4 |" in markdown
