import pathlib

import numpy as np
import pytest

from omniclone.bench import ManifestEntry, save_manifest
from omniclone.kinematics import HumanoidModel, LinkSpec, load_reference_model
from omniclone.motion import BENCH_STRATA, MotionClip, derive_body_kinematics, save_clip
from omniclone.rotations import quat_from_yaw
from omniclone.synthetic import DEFAULT_ROOT_Z, SUITE_SPEEDS


@pytest.fixture(scope="session")
def ref_model() -> HumanoidModel:
    return load_reference_model()


#: the stratum whose clip accelerates, so that lagged trackers fail on it mid-episode
FAILING_STRATUM = ("run", "fast")


def write_moving_suite(model: HumanoidModel, out_dir, seed: int = 0, n_frames: int = 30,
                       fps: float = 30.0) -> pathlib.Path:
    """Write one clip per stratum of BENCH_STRATA under out_dir/clips and a
    manifest, and return the manifest's path. Each clip walks at its
    stratum's SUITE_SPEEDS speed on a seeded nonzero heading while every
    joint swings inside model.joint_limits at a seeded amplitude, frequency
    and phase; the FAILING_STRATUM clip's root accelerates at 20 m/s^2
    instead. 30% of the clips carry no key bodies and none carries joint
    velocities. The root angular velocities and, at frame 0, the planar
    position of the root and of key body 0 are -0.0. The same seed writes
    the same bytes."""
    rng = np.random.default_rng(seed)
    out_dir = pathlib.Path(out_dir)
    (out_dir / "clips").mkdir(parents=True, exist_ok=True)
    bodiless = set(rng.choice(len(BENCH_STRATA), size=round(0.3 * len(BENCH_STRATA)), replace=False).tolist())
    lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
    t = np.arange(n_frames) / fps
    entries = []
    for i, (category, level) in enumerate(BENCH_STRATA):
        heading = rng.uniform(0.2, 2.0 * np.pi - 0.2)
        amplitude = rng.uniform(0.05, 0.15, model.n_joints) * (hi - lo) / 2.0
        freq, phase = rng.uniform(0.3, 1.0, model.n_joints), rng.uniform(0.0, 2.0 * np.pi, model.n_joints)
        joint_pos = (lo + hi) / 2.0 + amplitude * np.sin(2.0 * np.pi * freq * t[:, None] + phase)
        if (category, level) == FAILING_STRATUM:
            distance, speed = 10.0 * t**2, 20.0 * t
        else:
            speed = np.full(n_frames, SUITE_SPEEDS[(category, level)])
            distance = speed * t
        direction = np.array([np.cos(heading), np.sin(heading), 0.0])
        root_pos = np.array([0.0, 0.0, DEFAULT_ROOT_Z]) + distance[:, None] * direction
        root_pos[0, :2] = -0.0
        clip = MotionClip.from_arrays(
            f"{category}_{level}", fps, category, level,
            dof_names=model.joint_names, key_bodies=model.key_bodies,
            t=t, root_pos=root_pos, root_quat=np.tile(quat_from_yaw(heading), (n_frames, 1)),
            root_lin_vel=speed[:, None] * direction, root_ang_vel=np.full((n_frames, 3), -0.0),
            joint_pos=joint_pos,
        )
        if i not in bodiless:
            clip = derive_body_kinematics(clip, model)
            body_pos = clip.body_pos.copy()
            body_pos[0, 0, :2] = -0.0
            clip = clip.replace(body_pos=body_pos)
        path = out_dir / "clips" / f"{clip.name}.json"
        save_clip(clip, path)
        entries.append(ManifestEntry(path=str(path.relative_to(out_dir)), category=category, level=level))
    manifest = out_dir / "manifest.json"
    save_manifest(entries, manifest)
    return manifest


@pytest.fixture(scope="session")
def moving_suite(ref_model, tmp_path_factory) -> pathlib.Path:
    """Manifest of write_moving_suite's seed-0 suite, written once per session."""
    return write_moving_suite(ref_model, tmp_path_factory.mktemp("moving_suite"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_chain_model(
    segment_lengths,
    axes=None,
    key_bodies=None,
    chain=None,
) -> HumanoidModel:
    """Serial chain: root plus one actuated link per segment along +Z offsets
    unless axes/offsets say otherwise. segment_lengths entries may be floats
    (offset along +X) or 3-vectors."""
    links = [LinkSpec(name="root", parent=None)]
    prev = "root"
    for i, seg in enumerate(segment_lengths):
        offset = (float(seg), 0.0, 0.0) if np.isscalar(seg) else tuple(float(v) for v in seg)
        axis = (0.0, 0.0, 1.0) if axes is None else tuple(float(v) for v in axes[i])
        name = f"link{i}"
        links.append(
            LinkSpec(
                name=name,
                parent=prev,
                offset_pos=offset,
                axis=axis,
                limits=(-np.pi, np.pi),
            )
        )
        prev = name
    names = [l.name for l in links]
    return HumanoidModel(
        links,
        key_bodies=key_bodies if key_bodies is not None else names,
        calibration_chain=chain if chain is not None else names,
    )


def random_tree_model(rng: np.random.Generator, n_joints: int, fixed_share: float = 0.0) -> HumanoidModel:
    """Random kinematic tree with unit-normalized random axes and offsets:
    n_joints links below the root, each a fixed attachment (limits [0, 0])
    with probability fixed_share."""
    links = [LinkSpec(name="root", parent=None)]
    for i in range(n_joints):
        parent = links[int(rng.integers(0, len(links)))].name
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        quat = rng.normal(size=4)
        quat /= np.linalg.norm(quat)
        fixed = fixed_share and rng.random() < fixed_share
        links.append(
            LinkSpec(
                name=f"link{i}",
                parent=parent,
                offset_pos=tuple(rng.uniform(-0.4, 0.4, 3)),
                offset_quat=tuple(quat),
                axis=tuple(axis),
                limits=(0.0, 0.0) if fixed else (-np.pi, np.pi),
            )
        )
    names = [l.name for l in links]
    return HumanoidModel(links, key_bodies=names, calibration_chain=[])


ACCEPTANCE_PREFIX = "tests/test_acceptance.py"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, outcome in sorted(set(lines)):
        status = "PASS" if outcome == "PASSED" else "FAIL"
        terminalreporter.write_line(f"[{status}] {name}")
