import numpy as np
import pytest

from omniclone.kinematics import HumanoidModel, LinkSpec, load_reference_model


@pytest.fixture(scope="session")
def ref_model() -> HumanoidModel:
    return load_reference_model()


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
