import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chunk_schedule_oracle, links_from_model, matrix_fk, obs_block, save_chunks

from omniclone.errors import InputError, PlannerContractError, PlannerTimeout
from omniclone.kinematics import RigidPose
from omniclone.motion import Frame
from omniclone.simtrack import build_student_obs, state_from_frame
from omniclone.vlabridge import (
    ActionChunk,
    chunk_executor,
    joints_to_command,
    load_chunks,
    scripted_planner,
)


def counting_planner(h, n, record):
    def planner(state):
        call = len(record)
        record.append(state)
        # encode (call, step) into the action values for trace audits
        actions = np.array([[call + step / 100.0] * n for step in range(h)])
        return ActionChunk(actions, source_step=call)

    return planner


class TestChunkExecutor:
    def test_24_ticks_three_planner_calls(self):
        record = []
        trace = chunk_executor(counting_planner(16, 4, record), ticks=24, execute_len=8)
        assert trace.refresh_ticks == (0, 8, 16)
        assert len(record) == 3
        assert trace.actions.shape == (24, 4)

    def test_executed_indices_modulo(self):
        record = []
        trace = chunk_executor(counting_planner(16, 2, record), ticks=24, execute_len=8)
        assert list(trace.chunk_step) == [t % 8 for t in range(24)]
        assert list(trace.chunk_index) == [t // 8 for t in range(24)]

    def test_no_overlap_case(self):
        record = []
        trace = chunk_executor(counting_planner(16, 2, record), ticks=33, execute_len=16)
        assert len(record) == int(np.ceil(33 / 16))
        assert trace.refresh_ticks == (0, 16, 32)

    def test_actions_beyond_execute_len_never_run(self):
        record = []
        trace = chunk_executor(counting_planner(16, 1, record), ticks=40, execute_len=8)
        assert trace.actions.shape[0] == 40
        assert np.max(trace.chunk_step) == 7  # indices >= 8 never executed
        fractional = np.round((trace.actions[:, 0] % 1.0) * 100).astype(int)
        assert fractional.max() <= 7

    def test_each_tick_served_once(self):
        record = []
        trace = chunk_executor(counting_planner(12, 1, record), ticks=30, execute_len=5)
        assert len(trace.chunk_index) == 30
        for t in range(30):
            assert trace.chunk_index[t] == t // 5

    def test_short_chunk_contract_error(self):
        def tiny_planner(state):
            return ActionChunk(np.zeros((3, 2)))

        with pytest.raises(PlannerContractError):
            chunk_executor(tiny_planner, ticks=10, execute_len=8)

    def test_timeout_holds_last_action(self):
        calls = {"n": 0}

        def flaky(state):
            calls["n"] += 1
            if calls["n"] == 2:
                raise PlannerTimeout("budget exceeded")
            base = calls["n"] * 10.0
            return ActionChunk(np.full((8, 2), base) + np.arange(8)[:, None])

        trace = chunk_executor(flaky, ticks=24, execute_len=8)
        assert trace.failed_refreshes == (8,)
        held_window = trace.actions[8:16]
        assert np.allclose(held_window, trace.actions[7])  # zero-order hold
        assert list(trace.chunk_index[8:16]) == [-1] * 8
        # third window re-plans successfully
        assert np.allclose(trace.actions[16, :], 30.0)

    def test_timeout_before_first_action_fatal(self):
        def dead(state):
            raise PlannerTimeout("no chunk")

        with pytest.raises(PlannerContractError):
            chunk_executor(dead, ticks=8, execute_len=4)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 24),
        execute_len=st.integers(1, 24),
        ticks=st.integers(0, 100),
    )
    def test_schedule_matches_oracle(self, h, execute_len, ticks):
        if execute_len > h:
            return  # contract error covered elsewhere
        record = []
        trace = chunk_executor(counting_planner(h, 1, record), ticks=ticks, execute_len=execute_len)
        calls, served = chunk_schedule_oracle(ticks, execute_len)
        assert list(trace.refresh_ticks) == calls
        assert len(record) == (0 if ticks == 0 else int(np.ceil(ticks / execute_len)))
        assert [(c, s) for c, s in zip(trace.chunk_index, trace.chunk_step)] == served

    def test_replans_from_measured_state(self):
        seen = []

        def planner(state):
            seen.append(None if state is None else np.asarray(state).copy())
            return ActionChunk(np.full((8, 2), len(seen)))

        chunk_executor(planner, ticks=16, execute_len=8, initial_state=np.zeros(2))
        assert np.allclose(seen[0], 0.0)
        assert np.allclose(seen[1], 1.0)  # last executed action of chunk 0


class TestJointsToCommand:
    def test_zero_configuration_matches_zero_pose_fk(self, ref_model):
        root = RigidPose(np.array([0.0, 0.0, 0.75]), np.array([1.0, 0, 0, 0]))
        frame = joints_to_command(np.zeros(29), ref_model, root)
        links = links_from_model(ref_model)
        oracle = matrix_fk(links, np.zeros(29), root.position, root.orientation)
        for slot, body in enumerate(ref_model.key_bodies):
            assert np.allclose(frame.body_pos[slot], oracle[body][:3, 3], atol=1e-9)

    def test_randomized_targets_match_fk_oracle(self, ref_model, rng):
        root = RigidPose(rng.uniform(-1, 1, 3), np.array([1.0, 0, 0, 0]))
        links = links_from_model(ref_model)
        for _ in range(5):
            q = rng.uniform(-0.8, 0.8, 29)
            frame = joints_to_command(q, ref_model, root)
            oracle = matrix_fk(links, q, root.position, root.orientation)
            for slot, body in enumerate(ref_model.key_bodies):
                assert np.allclose(frame.body_pos[slot], oracle[body][:3, 3], atol=1e-9)

    def test_closed_loop_zero_reference_error(self, ref_model):
        # feeding the bridge output as both state and reference zeroes the
        # error slices: the bridge is indistinguishable from teleoperation
        root = RigidPose(np.array([0.0, 0.0, 0.75]), np.array([1.0, 0, 0, 0]))
        q = np.full(29, 0.1)
        frame = joints_to_command(q, ref_model, root)
        state = state_from_frame(frame, ref_model)
        obs = build_student_obs(state, [frame] * 5, ref_model, 5)
        local_body = obs_block(obs, "ref0_body_pos").reshape(7, 3)
        from omniclone.kinematics import to_base_point

        assert np.allclose(local_body, to_base_point(root, frame.body_pos), atol=1e-12)
        for i in range(5):
            assert np.allclose(
                obs_block(obs, f"ref{i}_body_pos"), obs_block(obs, "ref0_body_pos"), atol=1e-12
            )

    def test_command_satisfies_frame_invariants(self, ref_model):
        root = RigidPose(np.zeros(3), np.array([1.0, 0, 0, 0]))
        frame = joints_to_command(np.zeros(29), ref_model, root)
        assert frame.body_pos.shape == (7, 3)
        assert frame.body_quat.shape == (7, 4)
        assert np.all(np.isfinite(frame.body_pos))


class TestJointsToCommandChecks:
    """joints_to_command checks its inputs once and builds its Frame from the
    checked parts, without the constructor's second pass."""

    ROOT = RigidPose(np.array([0.1, -0.2, 0.75]), np.array([0.6, 0.0, 0.0, 0.8]))

    @pytest.mark.parametrize("joints", ["array", "list", "float32"])
    def test_frame_equals_checked_frame(self, ref_model, rng, joints):
        q = rng.uniform(-np.pi, np.pi, 29)
        q[:3] = [-0.0, np.pi, -np.pi]
        given = {"array": q, "list": q.tolist(), "float32": q.astype(np.float32)}[joints]
        frame = joints_to_command(given, ref_model, self.ROOT, t=0.5)
        checked = Frame(
            t=0.5,
            root=self.ROOT,
            root_lin_vel=np.zeros(3),
            root_ang_vel=np.zeros(3),
            joint_pos=given,
            joint_vel=np.zeros(29),
            body_pos=frame.body_pos.copy(),
            body_quat=frame.body_quat.copy(),
        )
        for name, want in vars(checked).items():
            got = getattr(frame, name)
            if want is None or not isinstance(want, np.ndarray):
                assert got is want or got == want, name
            else:
                assert got.dtype == want.dtype == np.float64, name
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert vars(frame).keys() == vars(checked).keys()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("2-D joints", "joint_pos: expected a 1-D vector, got shape (2, 29)"),
            ("joint count", "joint_pos: expected 29 joints, got 28"),
            ("NaN joint", "forward_kinematics_arrays: non-finite input"),
            ("NaN t", "t: non-finite"),
            ("infinite t", "t: non-finite"),
        ],
    )
    def test_bad_input_rejected(self, ref_model, fault, message):
        q, t = np.zeros(29), 0.0
        if fault == "2-D joints":
            q = np.zeros((2, 29))
        elif fault == "joint count":
            q = np.zeros(28)
        elif fault == "NaN joint":
            q[4] = np.nan
        else:
            t = np.nan if fault == "NaN t" else np.inf
        with pytest.raises(InputError) as err:
            joints_to_command(q, ref_model, self.ROOT, t=t)
        assert str(err.value) == message


class TestChunkFiles:
    def test_round_trip(self, tmp_path):
        chunks = [ActionChunk(np.random.default_rng(i).normal(size=(16, 29))) for i in range(3)]
        path = tmp_path / "chunks.json"
        save_chunks(chunks, path)
        again = load_chunks(path)
        assert len(again) == 3
        for a, b in zip(again, chunks):
            assert np.allclose(a.actions, b.actions)

    def test_scripted_planner_replays_and_holds(self):
        chunks = [ActionChunk(np.full((8, 2), float(i))) for i in range(2)]
        planner = scripted_planner(chunks)
        assert planner(None).actions[0, 0] == 0.0
        assert planner(None).actions[0, 0] == 1.0
        assert planner(None).actions[0, 0] == 1.0  # exhausted: holds last

    def test_empty_chunks_rejected(self):
        with pytest.raises(InputError):
            scripted_planner([])
