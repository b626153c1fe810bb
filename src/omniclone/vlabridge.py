"""Receding-horizon execution of planner action chunks, plus FK conversion
of joint-space outputs into the key-body command frames the rest of the
system consumes.

The planner is a pure callback (the real high-level model is out of
scope); a scripted stub replaying recorded chunks ships for tests and the
vla-replay workflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, PlannerContractError, PlannerTimeout
from .files import read_json
from .kinematics import HumanoidModel, RigidPose, key_body_poses
from .motion import Frame, _unchecked

DEFAULT_EXECUTE_LEN = 8


@dataclass(frozen=True, eq=False)
class ActionChunk:
    """A horizon of joint-space targets predicted in one planner call."""

    actions: np.ndarray  # (H, n)
    source_step: int = 0

    def __post_init__(self):
        arr = np.asarray(self.actions, dtype=float)
        if arr.ndim != 2:
            raise InputError(f"actions must be (H, n), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("actions contain non-finite values")
        object.__setattr__(self, "actions", arr)

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]


@dataclass(frozen=True)
class ExecutionTrace:
    actions: np.ndarray  # (ticks, n)
    chunk_index: np.ndarray  # (ticks,) planner call serving each tick (-1 = held)
    chunk_step: np.ndarray  # (ticks,) index within the chunk (-1 = held)
    refresh_ticks: tuple[int, ...]  # tick of every planner invocation
    failed_refreshes: tuple[int, ...]  # ticks where the planner timed out


def chunk_executor(
    planner: Callable[[np.ndarray], ActionChunk],
    ticks: int,
    execute_len: int = DEFAULT_EXECUTE_LEN,
    initial_state: np.ndarray | None = None,
) -> ExecutionTrace:
    """Execute the first execute_len actions of each chunk, re-planning at
    every chunk boundary from the last executed action (initial_state
    before the first).

    At tick t the executed action is chunk floor(t/execute_len) at index
    t mod execute_len, so the planner runs exactly ceil(ticks/execute_len)
    times. A PlannerTimeout holds the last executed action for the whole
    window and is logged; any other planner exception propagates.
    """
    if ticks < 0:
        raise InputError("ticks must be >= 0")
    if execute_len < 1:
        raise InputError("execute_len must be >= 1")
    actions: list[np.ndarray] = []
    chunk_index: list[int] = []
    chunk_step: list[int] = []
    refresh_ticks: list[int] = []
    failed: list[int] = []
    chunk: ActionChunk | None = None
    call = -1
    last_action = initial_state
    for t in range(ticks):
        if t % execute_len == 0:
            refresh_ticks.append(t)
            try:
                chunk = planner(last_action)
            except PlannerTimeout:
                failed.append(t)
                if last_action is None:
                    raise PlannerContractError(
                        "planner timed out before producing any action"
                    ) from None
                chunk = None
            else:
                if chunk.horizon < execute_len:
                    raise PlannerContractError(
                        f"chunk horizon {chunk.horizon} < execute_len {execute_len}"
                    )
                call += 1
        if chunk is None:
            actions.append(np.asarray(last_action, dtype=float))
            chunk_index.append(-1)
            chunk_step.append(-1)
        else:
            step = t % execute_len
            actions.append(chunk.actions[step])
            chunk_index.append(call)
            chunk_step.append(step)
            last_action = chunk.actions[step]
    return ExecutionTrace(
        actions=np.asarray(actions, dtype=float) if actions else np.zeros((0, 0)),
        chunk_index=np.asarray(chunk_index, dtype=int),
        chunk_step=np.asarray(chunk_step, dtype=int),
        refresh_ticks=tuple(refresh_ticks),
        failed_refreshes=tuple(failed),
    )


def joints_to_command(
    joint_targets: np.ndarray,
    model: HumanoidModel,
    assumed_root: RigidPose,
    t: float = 0.0,
) -> Frame:
    """FK the planner's joint-space output into a key-body command frame.

    The result satisfies the same schema as a teleoperation reference
    frame, so downstream observation building and benchmarking treat the
    two sources identically. The root pose comes from the runtime since
    planner outputs are joint-space only.

    joint_targets must be a finite (n,) vector for the model's n joints and
    t finite, or InputError is raised. The Frame is built from these
    checked parts without re-running its constructor's checks; its fields
    are those the constructor would store: float64 arrays, zero root and
    joint velocities, no body velocities.
    """
    joint_targets = np.asarray(joint_targets, dtype=float)
    if joint_targets.ndim != 1:
        raise InputError(f"joint_pos: expected a 1-D vector, got shape {joint_targets.shape}")
    # key_body_poses checks the joint count and that the joints are finite
    body_pos, body_quat = key_body_poses(
        model, joint_targets, assumed_root.position, assumed_root.orientation
    )
    if not np.isfinite(t):
        raise InputError("t: non-finite")
    return _unchecked(
        Frame,
        t=t,
        root=assumed_root,
        root_lin_vel=np.zeros(3),
        root_ang_vel=np.zeros(3),
        joint_pos=joint_targets,
        joint_vel=np.zeros(model.n_joints),
        body_pos=body_pos,
        body_quat=body_quat,
        body_lin_vel=None,
        body_ang_vel=None,
    )


# ---------------------------------------------------------------------------
# Recorded-chunk stubs and files
# ---------------------------------------------------------------------------

def scripted_planner(chunks: Sequence[ActionChunk]) -> Callable[[np.ndarray], ActionChunk]:
    """Planner stub replaying a recorded chunk sequence (holds on the last
    chunk once exhausted)."""
    chunks = list(chunks)
    if not chunks:
        raise InputError("need at least one recorded chunk")
    state = {"i": 0}

    def planner(_state) -> ActionChunk:
        chunk = chunks[min(state["i"], len(chunks) - 1)]
        state["i"] += 1
        return chunk

    return planner


def load_chunks(path) -> list[ActionChunk]:
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("chunks"), list):
        raise InputError(f"{path}: expected an object with a 'chunks' list")
    chunks = []
    for i, c in enumerate(doc["chunks"]):
        # ValueError covers a non-numeric or ragged chunk and ActionChunk's InputError
        try:
            chunks.append(ActionChunk(c, source_step=i))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: chunks[{i}]: {exc}") from None
    return chunks
