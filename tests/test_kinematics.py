import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_chain_model, random_tree_model
from oracles import (
    cross_quat_rotate,
    identity_pose,
    links_from_model,
    matrix_fk,
    matrix_to_quat,
    per_link_fk,
    quat_distance,
    quat_normalize,
    save_model,
    stack_quat_mul,
)
from test_motion import EDGE_FLOATS

from omniclone.errors import ClipParseError, ConfigError, InputError
from omniclone.kinematics import (
    HumanoidModel,
    LinkSpec,
    RigidPose,
    chain_height,
    forward_kinematics_arrays,
    key_body_poses,
    load_model,
    model_from_dict,
    model_to_dict,
    to_base_point,
    to_base_quat,
    to_base_vector,
)
from omniclone.rotations import (
    IDENTITY_QUAT,
    quat_canonical,
    quat_conjugate,
    quat_from_axis_angle,
    quat_from_yaw,
    quat_mul,
    quat_rotate,
    quat_rotate_inverse,
)


def random_pose(rng):
    q = rng.normal(size=4)
    return RigidPose(rng.uniform(-2, 2, 3), q / np.linalg.norm(q))


def fk_at_root(model, q, root):
    return forward_kinematics_arrays(model, q, root.position, root.orientation)


def world_point(root, p):
    """Base-frame point -> world: the inverse of to_base_point."""
    return root.position + quat_rotate(root.orientation, p)


class TestRigidPose:
    def test_normalizes_and_canonicalizes(self):
        pose = RigidPose(np.zeros(3), np.array([-1.0, 0.0, 0.0, 0.0]))
        assert pose.orientation[0] == 1.0

    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(InputError):
            RigidPose(np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_nan_quaternion(self):
        with pytest.raises(InputError, match="orientation"):
            RigidPose(np.zeros(3), np.array([np.nan, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("quat", [
        [-1.0, -0.0, 0.0, -0.0],
        [-0.0, -0.6, 0.8, 0.0],
        [0.0, -0.0, -1.0, 0.0],
        [-0.0, 0.0, -0.0, -1.0],
        [0.0, 0.6, -0.0, -0.8],
        [0.6, -0.0, 0.0, -0.8],
        [-0.5, -0.5, 0.5, -0.5],
        [-0.5000001, 0.5, -0.5, 0.5],
    ])
    def test_sign_fix_bytes_match_quat_canonical(self, quat):
        # -0.0 counts as zero when finding the first nonzero component, and a
        # negation flips the sign of every zero with the rest
        q = np.array(quat)
        expected = quat_canonical(q / np.linalg.norm(q))
        assert RigidPose(np.zeros(3), q).orientation.tobytes() == expected.tobytes()

    def test_compose_inverse_roundtrip(self, rng):
        # a^-1 (a b) == b, composing with quat_rotate/quat_mul directly and
        # taking a^-1 through the base-frame transforms
        for _ in range(20):
            a = random_pose(rng)
            b = random_pose(rng)
            ab_pos = world_point(a, b.position)
            ab_quat = quat_mul(a.orientation, b.orientation)
            back_pos = to_base_point(a, ab_pos)
            back_quat = to_base_quat(a, ab_quat)
            assert np.allclose(back_pos, b.position, atol=1e-12)
            assert quat_distance(back_quat, b.orientation) < 1e-12


class TestForwardKinematics:
    def test_zero_angles_pure_offset(self):
        model = make_chain_model([(0.0, 0.0, 0.5)])
        pos, quat = fk_at_root(model, np.zeros(1), identity_pose())
        link0 = model.link_index("link0")
        assert np.allclose(pos[link0], [0.0, 0.0, 0.5])
        assert np.allclose(quat[link0], [1.0, 0.0, 0.0, 0.0])

    def test_two_link_planar_arm(self):
        # unit segments along +X, joint1 = 90 deg about +Z: elbow reaches
        # (0, 1, 0) relative to the root
        model = make_chain_model([1.0, 1.0])
        pos, _ = fk_at_root(model, np.array([np.pi / 2, 0.0]), identity_pose())
        assert np.allclose(pos[model.link_index("link0")], [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(pos[model.link_index("link1")], [1.0, 1.0, 0.0], atol=1e-12)

    def test_rejects_bad_dimensions(self):
        model = make_chain_model([1.0, 1.0])
        with pytest.raises(InputError):
            forward_kinematics_arrays(model, np.zeros(3), np.zeros(3), IDENTITY_QUAT)
        with pytest.raises(InputError):
            forward_kinematics_arrays(model, np.array([np.nan, 0.0]), np.zeros(3), IDENTITY_QUAT)

    def test_matches_matrix_chain_oracle(self, rng):
        for _ in range(10):
            model = random_tree_model(rng, 5)
            links = links_from_model(model)
            for _ in range(10):
                q = rng.uniform(-np.pi, np.pi, model.n_joints)
                root = random_pose(rng)
                pos, quat = fk_at_root(model, q, root)
                oracle = matrix_fk(links, q, root.position, root.orientation)
                for i, name in enumerate(model.link_names):
                    T = oracle[name]
                    assert np.allclose(pos[i], T[:3, 3], atol=1e-9)
                    assert quat_distance(quat[i], matrix_to_quat(T[:3, :3])) < 1e-9

    def test_root_equivariance(self, rng):
        # FK with root g equals g composed with identity-root FK
        model = random_tree_model(rng, 6)
        q = rng.uniform(-np.pi, np.pi, model.n_joints)
        g = random_pose(rng)
        pos_id, quat_id = fk_at_root(model, q, identity_pose())
        pos_g, quat_g = fk_at_root(model, q, g)
        assert np.allclose(pos_g, world_point(g, pos_id), atol=1e-9)
        assert np.all(quat_distance(quat_g, quat_mul(g.orientation, quat_id)) < 1e-9)

    def test_batched_fk_matches_loop(self, ref_model, rng):
        # every row of a batch is bit-identical to the single-configuration call
        for model, T in ((random_tree_model(rng, 4), 7), (ref_model, 90)):
            qs, root_pos, root_quat = random_batch(rng, model, (T,))
            pos, quat = forward_kinematics_arrays(model, qs, root_pos, root_quat)
            for t in range(T):
                p1, q1 = forward_kinematics_arrays(model, qs[t], root_pos[t], root_quat[t])
                assert same_bits(pos[t], p1)
                assert same_bits(quat[t], q1)

    def test_batched_fk_matches_loop_on_exact_zeros(self, ref_model, rng):
        # the batch sums its product terms in the walk's order, so a sum of
        # -0.0 terms stays -0.0 in both
        negative_zeros = 0
        for model in (random_tree_model(rng, 4), ref_model):
            configs = list(zero_configurations(model))
            pos, quat = forward_kinematics_arrays(model, *(np.stack(parts) for parts in zip(*configs)))
            for b, config in enumerate(configs):
                p1, q1 = forward_kinematics_arrays(model, *config)
                assert same_bits(pos[b], p1)
                assert same_bits(quat[b], q1)
                negative_zeros += np.count_nonzero((p1 == 0.0) & np.signbit(p1))
                negative_zeros += np.count_nonzero((q1 == 0.0) & np.signbit(q1))
        assert negative_zeros > 0


def random_batch(rng, model, batch):
    """Joint angles, root positions and unit root quaternions of shape batch."""
    return (
        rng.uniform(-np.pi, np.pi, batch + (model.n_joints,)),
        rng.uniform(-1, 1, batch + (3,)),
        quat_normalize(rng.normal(size=batch + (4,))),
    )


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bits, sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_per_link(model, joint_pos, root_pos, root_quat):
    pos, quat = forward_kinematics_arrays(model, joint_pos, root_pos, root_quat)
    ref_pos, ref_quat = per_link_fk(model, joint_pos, root_pos, root_quat)
    assert same_bits(pos, ref_pos)
    assert same_bits(quat, ref_quat)


def zero_configurations(model):
    """All +0.0 and all -0.0 joints at a +0.0 or -0.0 root position, with
    the identity root or a root turned by a half or quarter turn about each
    axis, their zero components +0.0 or -0.0: inputs whose FK holds exact
    zeros, some of them negative, some the sum of four -0.0 products."""
    h = math.sqrt(0.5)
    roots = [
        [1.0, 0.0, 0.0, 0.0], [1.0, -0.0, -0.0, -0.0],
        [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
        [-0.0, 1.0, 0.0, 0.0], [-0.0, 0.0, 1.0, 0.0], [-0.0, 0.0, 0.0, 1.0],
        [h, h, 0.0, 0.0], [h, 0.0, h, 0.0], [h, 0.0, 0.0, h], [h, 0.0, 0.0, -h],
    ]
    for root_quat in roots:
        for zero in (0.0, -0.0):
            for joint_pos in (np.zeros(model.n_joints), np.full(model.n_joints, -0.0)):
                yield joint_pos, np.full(3, zero), np.array(root_quat)


class TestLevelwiseFK:
    """FK goes one tree depth at a time; the link-by-link walk is the oracle."""

    @pytest.mark.parametrize("batch", [(), (1,), (90,), (1024,), (300,), (3, 4), (0,)])
    def test_reference_model_bit_identical(self, ref_model, rng, batch):
        assert_matches_per_link(ref_model, *random_batch(rng, ref_model, batch))

    def test_random_trees_bit_identical(self, rng):
        for _ in range(100):
            model = random_tree_model(rng, int(rng.integers(1, 13)))
            for batch in ((), (5,)):
                assert_matches_per_link(model, *random_batch(rng, model, batch))

    def test_random_trees_with_fixed_links_bit_identical(self, rng):
        # fixed links between a level's actuated ones: the actuated links are
        # no one run of the level, so the level indexes them with an array
        split = 0
        for _ in range(60):
            model = random_tree_model(rng, int(rng.integers(2, 13)), fixed_share=0.4)
            split += any(isinstance(rel, np.ndarray) and rel.size for _, _, rel, *_ in model.fk_levels)
            for batch in ((), (5,), (2, 3)):
                assert_matches_per_link(model, *random_batch(rng, model, batch))
        assert split >= 10

    def test_exact_zeros_bit_identical(self, ref_model, rng):
        for model in (ref_model, random_tree_model(rng, 6, fixed_share=0.3)):
            configs = list(zero_configurations(model))
            for config in configs:
                assert_matches_per_link(model, *config)
            assert_matches_per_link(model, *(np.stack(parts) for parts in zip(*configs)))

    def test_batched_joints_with_one_root(self, ref_model, rng):
        joint_pos, _, _ = random_batch(rng, ref_model, (6,))
        _, root_pos, root_quat = random_batch(rng, ref_model, ())
        assert_matches_per_link(ref_model, joint_pos, root_pos, root_quat)
        # and a root per column of a 2-D batch, broadcast over its rows
        joint_pos, _, _ = random_batch(rng, ref_model, (2, 3))
        _, root_pos, root_quat = random_batch(rng, ref_model, (3,))
        assert_matches_per_link(ref_model, joint_pos, root_pos, root_quat)

    def test_reference_model_levels(self, ref_model):
        levels = ref_model.fk_levels
        assert len(levels) == 10
        link = np.arange(len(ref_model.links))
        covered = [i for links, *_ in levels for i in link[links]]
        assert covered == [i for i in link if i != ref_model.root_index]
        head = ref_model.link_index("head")
        for links, parents, rel, cols, vt, bt, jt in levels:
            assert list(ref_model.parent_index[links]) == list(link[parents])
            assert np.all(link[parents] < link[links][0])
            actuated = link[links][rel]
            assert list(ref_model.joint_index[actuated]) == list(np.arange(29)[cols])
            assert list(actuated) == [i for i in link[links] if ref_model.joint_index[i] >= 0]
            assert head not in actuated
            # the terms are the offsets and axes, permuted and signed so that
            # sum_i a[i] * term[i] is quat_mul(a, b)
            v = ref_model.offsets_pos[links]
            assert vt.shape == (9, len(v), 1)
            assert np.array_equal(vt[..., 0].T, v[:, [0, 1, 2, 2, 0, 1, 1, 2, 0]])
            a = quat_normalize(np.random.default_rng(0).normal(size=(len(v), 4)))
            b = ref_model.offsets_quat[links]
            assert bt.shape == (4, 4, len(b), 1)
            got = sum(a[:, i] * bt[i, ..., 0] for i in range(4)).T
            assert np.array_equal(got, stack_quat_mul(a, b))
            axes = ref_model.axes[actuated]
            jq = np.concatenate([np.ones((len(axes), 1)), axes], axis=1)
            assert jt.shape == (4, 4, len(axes), 1)
            got = sum(a[rel, i] * jt[i, ..., 0] for i in range(4)).T
            assert np.array_equal(got, stack_quat_mul(a[rel], jq))

    def test_children_listed_before_parents_siblings(self, tmp_path, rng):
        # the file lists a deep branch first, a fixed link mid-tree and the
        # root last; link order is breadth-first whatever the file order
        def joint(name, parent, limits=(-1.0, 1.0)):
            axis = rng.normal(size=3)
            quat = rng.normal(size=4)
            return {
                "name": name, "parent": parent,
                "offset_pos": list(rng.uniform(-0.3, 0.3, 3)),
                "offset_quat": list(quat / np.linalg.norm(quat)),
                "axis": list(axis / np.linalg.norm(axis)), "limits": list(limits),
            }

        doc = {
            "joints": [
                joint("a", "root"), joint("a1", "a"), joint("a2", "a1"), joint("a3", "a2"),
                joint("b", "root"), joint("b1", "b", limits=(0.0, 0.0)), joint("b2", "b1"),
                joint("c", "root"), joint("c1", "c"), joint("root", None),
            ],
            "key_bodies": ["a3", "b2"],
            "calibration_chain": [],
        }
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        model = load_model(path)
        assert model.link_names == ("root", "a", "b", "c", "a1", "b1", "c1", "a2", "b2", "a3")
        assert model.n_joints == 8
        for batch in ((), (4,)):
            assert_matches_per_link(model, *random_batch(rng, model, batch))

    def test_single_chain(self, rng):
        model = make_chain_model(
            rng.uniform(-0.3, 0.3, (11, 3)), axes=quat_normalize(rng.normal(size=(11, 3)))
        )
        assert len(model.links) == 12 and len(model.fk_levels) == 11
        for batch in ((), (6,)):
            assert_matches_per_link(model, *random_batch(rng, model, batch))

    def test_root_only_model(self, rng):
        model = HumanoidModel([LinkSpec("base", None)], ["base"], [])
        assert model.fk_levels == () and model.n_joints == 0
        for batch in ((), (3,)):
            joint_pos, root_pos, root_quat = random_batch(rng, model, batch)
            assert_matches_per_link(model, joint_pos, root_pos, root_quat)
            pos, quat = forward_kinematics_arrays(model, joint_pos, root_pos, root_quat)
            assert np.array_equal(pos[..., 0, :], root_pos)
            assert np.array_equal(quat[..., 0, :], root_quat)

    def test_single_float32_wire_input(self, ref_model, rng):
        # joint angles and the root pose arrive as float32 off the wire
        for model in (ref_model, HumanoidModel([LinkSpec("base", None)], ["base"], [])):
            for _ in range(20):
                inputs = [a.astype(np.float32) for a in random_batch(rng, model, ())]
                assert_matches_per_link(model, *inputs)
                pos, quat = forward_kinematics_arrays(model, *inputs)
                assert pos.dtype == quat.dtype == np.float64

    def test_single_joints_with_batched_root(self, ref_model, rng):
        # an unbatched joint vector with a batched root is no single
        # configuration: it goes level-wise and behaves as the oracle does
        joint_pos, _, _ = random_batch(rng, ref_model, ())
        _, root_pos, root_quat = random_batch(rng, ref_model, (1,))
        assert_matches_per_link(ref_model, joint_pos, root_pos, root_quat)
        _, root_pos, root_quat = random_batch(rng, ref_model, (5,))
        with pytest.raises(ValueError) as want:
            per_link_fk(ref_model, joint_pos, root_pos, root_quat)
        with pytest.raises(ValueError) as got:
            forward_kinematics_arrays(ref_model, joint_pos, root_pos, root_quat)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "fault", ["joint_count", "nan_joint", "nan_root_pos", "nan_root_quat", "inf_root_quat"]
    )
    def test_single_and_batched_errors_match(self, ref_model, rng, fault):
        messages = []
        for fk, batch in itertools.product((forward_kinematics_arrays, key_body_poses), ((), (4,))):
            joint_pos, root_pos, root_quat = random_batch(rng, ref_model, batch)
            if fault == "joint_count":
                joint_pos = joint_pos[..., 1:]
            elif fault == "nan_joint":
                joint_pos[..., 3] = np.nan
            elif fault == "nan_root_pos":
                root_pos[..., 1] = np.nan
            else:
                root_quat[..., 0] = np.nan if fault == "nan_root_quat" else np.inf
            with pytest.raises(InputError) as err:
                fk(ref_model, joint_pos, root_pos, root_quat)
            messages.append(str(err.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("fk", [forward_kinematics_arrays, key_body_poses])
    @pytest.mark.parametrize("batch", [(), (4,)])
    def test_root_of_another_width_rejected(self, ref_model, rng, batch, fk):
        joint_pos, root_pos, root_quat = random_batch(rng, ref_model, batch)
        with pytest.raises(InputError, match=r"root_pos: expected shape \(\.\.\., 3\)"):
            fk(ref_model, joint_pos, root_pos[..., :2], root_quat)
        with pytest.raises(InputError, match=r"root_quat: expected shape \(\.\.\., 4\)"):
            fk(ref_model, joint_pos, root_pos, root_quat[..., :3])

    @pytest.mark.parametrize("fk", [forward_kinematics_arrays, key_body_poses])
    def test_scalar_joint_pos_rejected(self, ref_model, fk):
        with pytest.raises(InputError, match=r"joint_pos: expected shape \(\.\.\., 29\), got \(\)"):
            fk(ref_model, 0.0, np.zeros(3), [1.0, 0.0, 0.0, 0.0])


class TestKeyBodyPoses:
    """key_body_poses on one configuration turns only the key-body rows of
    the walk into arrays; it must give the bits of a full FK gather."""

    @staticmethod
    def shuffled_key_model(rng):
        # key bodies listed out of link order, a fixed link among them
        model = random_tree_model(rng, 6, fixed_share=0.3)
        names = list(model.link_names)
        keys = [names[i] for i in (5, 0, 3, 6)]
        return HumanoidModel(model.links, keys, [])

    @staticmethod
    def configurations(rng, model):
        """Random joints and roots, then -0.0 and +-pi joints with roots
        holding -0.0 components."""
        n = model.n_joints
        yield random_batch(rng, model, ())
        edge = np.resize(np.array([-0.0, np.pi, -np.pi, 0.0]), n)
        yield edge, np.array([-0.0, 0.25, -0.0]), np.array([1.0, -0.0, 0.0, -0.0])
        quat = quat_normalize(np.array([-0.0, 0.6, -0.0, 0.8]))
        yield -edge, np.array([-0.0, -0.0, -0.0]), quat

    def test_single_matches_full_fk_and_batch_row(self, ref_model, rng):
        for model in (ref_model, self.shuffled_key_model(rng)):
            assert model.key_body_rows == tuple(model.key_body_index.tolist())
            configs = list(self.configurations(rng, model))
            batch = [np.stack(parts) for parts in zip(*configs)]
            batch_pos, batch_quat = key_body_poses(model, *batch)
            for b, (joint_pos, root_pos, root_quat) in enumerate(configs):
                pos, quat = key_body_poses(model, joint_pos, root_pos, root_quat)
                full_pos, full_quat = forward_kinematics_arrays(model, joint_pos, root_pos, root_quat)
                assert same_bits(pos, full_pos[model.key_body_index])
                assert same_bits(quat, full_quat[model.key_body_index])
                assert same_bits(pos, batch_pos[b]) and same_bits(quat, batch_quat[b])

    def test_model_without_key_bodies(self, rng):
        model = HumanoidModel(random_tree_model(rng, 3).links, [], [])
        for batch in ((), (2,)):
            pos, quat = key_body_poses(model, *random_batch(rng, model, batch))
            assert pos.shape == batch + (0, 3) and quat.shape == batch + (0, 4)


class TestQuaternionCore:
    """quat_rotate and quat_mul against numpy's cross product and stacking."""

    @staticmethod
    def shape_pairs(rng, width):
        n, k = (int(v) for v in rng.integers(1, 9, 2))
        return [((4,), (width,)), ((4,), (k, width)), ((n, 1, 4), (k, width)), ((n, k, 4), (n, k, width))]

    def test_rotate_bit_identical_to_np_cross(self, rng):
        for _ in range(50):
            for q_shape, v_shape in self.shape_pairs(rng, 3):
                q = quat_normalize(rng.normal(size=q_shape))
                v = rng.normal(size=v_shape)
                got, want = quat_rotate(q, v), cross_quat_rotate(q, v)
                assert got.shape == want.shape and np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        v=arrays(np.float64, 3, elements=EDGE_FLOATS),
        position=arrays(np.float64, 3, elements=EDGE_FLOATS),
        edge_q=arrays(np.float64, 4, elements=EDGE_FLOATS),
        unit_q=arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)).filter(
            lambda q: np.linalg.norm(q) > 0.1
        ),
    )
    def test_one_vector_float_path_matches_array_path(self, v, position, edge_q, unit_q):
        # one quaternion (4,) and one vector (3,) run on Python floats; the
        # same call on (1, 4) and (1, 3) runs the array path
        unit_q = quat_normalize(unit_q)
        root = RigidPose(position, unit_q)
        with np.errstate(over="ignore", invalid="ignore"):
            for q in (edge_q, unit_q):
                for rotate in (quat_rotate, quat_rotate_inverse):
                    assert rotate(q, v).tobytes() == rotate(q[None], v[None]).tobytes()
            for to_base in (to_base_vector, to_base_point):
                assert to_base(root, v).tobytes() == to_base(root, v[None]).tobytes()

    def test_inverse_one_vector_matches_conjugate_then_array_path(self, rng):
        # quat_rotate_inverse conjugates one (4,) quaternion on Python floats;
        # the bytes must be those of quat_conjugate and the array path, for
        # random quaternions, signed zeros and a NaN component alike
        signed = [np.array(q) for q in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=4)]
        randoms = [quat_normalize(rng.normal(size=4)) for _ in range(100)]
        quats = randoms + signed + [np.array([1.0, np.nan, -0.0, 0.0])]
        vectors = [rng.normal(size=3), np.array([0.0, -0.0, 1.0]), np.array([-0.0, -0.0, -0.0])]
        with np.errstate(invalid="ignore"):
            for q in quats:
                for v in vectors:
                    want = quat_rotate(quat_conjugate(q)[None], v[None])[0]
                    assert quat_rotate_inverse(q, v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("q_shape, v_shape, out_shape", [
        ((4,), (3,), (3,)),
        ((1, 4), (1, 3), (1, 3)),
        ((4,), (1, 3), (1, 3)),
        ((1, 4), (3,), (1, 3)),
        ((4,), (5, 3), (5, 3)),
        ((5, 1, 4), (2, 3), (5, 2, 3)),
    ])
    def test_rotate_output_shapes(self, rng, q_shape, v_shape, out_shape):
        q = quat_normalize(rng.normal(size=q_shape))
        v = rng.normal(size=v_shape)
        for rotate in (quat_rotate, quat_rotate_inverse):
            out = rotate(q, v)
            assert out.shape == out_shape and out.dtype == np.float64
        root = RigidPose(np.zeros(3), quat_normalize(rng.normal(size=4)))
        if q_shape == (4,):
            assert to_base_vector(root, v).shape == to_base_point(root, v).shape == out_shape

    def test_mul_bit_identical_to_np_stack(self, rng):
        for _ in range(50):
            for a_shape, b_shape in self.shape_pairs(rng, 4):
                a = rng.normal(size=a_shape)
                b = rng.normal(size=b_shape)
                for x, y in ((a, b), (b, a)):
                    got, want = quat_mul(x, y), stack_quat_mul(x, y)
                    assert got.shape == want.shape and np.array_equal(got, want)


class TestBaseFrame:
    def test_identity_root_unchanged(self, rng):
        root = identity_pose()
        v = rng.normal(size=3)
        assert np.allclose(to_base_point(root, v), v)
        assert np.allclose(to_base_vector(root, v), v)

    def test_root_position_maps_to_zero(self, rng):
        root = random_pose(rng)
        assert np.allclose(to_base_point(root, root.position), np.zeros(3), atol=1e-12)

    def test_yaw_rotation_oracle(self):
        # yaw 90 deg: world +X reads as -Y in the base frame
        root = RigidPose(np.zeros(3), quat_from_yaw(np.pi / 2))
        local = to_base_vector(root, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(local, [0.0, -1.0, 0.0], atol=1e-12)

    def test_round_trip_identity(self, rng):
        for _ in range(20):
            root = random_pose(rng)
            p = rng.normal(size=3)
            v = rng.normal(size=3)
            q = quat_normalize(rng.normal(size=4))
            assert np.allclose(world_point(root, to_base_point(root, p)), p, atol=1e-9)
            assert np.allclose(quat_rotate(root.orientation, to_base_vector(root, v)), v, atol=1e-9)
            assert quat_distance(quat_mul(root.orientation, to_base_quat(root, q)), q) < 1e-9

    def test_free_vectors_preserve_norm(self, rng):
        for _ in range(20):
            root = random_pose(rng)
            v = rng.normal(size=3)
            assert np.isclose(
                np.linalg.norm(to_base_vector(root, v)), np.linalg.norm(v), atol=1e-9
            )


class TestChainHeight:
    def test_two_segment_sum(self):
        model = make_chain_model([0.4, 0.6])
        assert np.isclose(chain_height(model, np.zeros(2)), 1.0)

    def test_bent_joint_same_height(self):
        # segment lengths, not end-to-end distance
        model = make_chain_model([0.4, 0.6])
        assert np.isclose(chain_height(model, np.array([0.0, np.pi / 2])), 1.0)

    def test_single_segment_offset_norm(self):
        model = make_chain_model([(0.3, 0.4, 0.0)])
        assert np.isclose(chain_height(model, np.zeros(1)), 0.5)

    def test_invariant_to_root_pose_by_construction(self, ref_model, rng):
        # chain_height is defined through identity-root FK; verify the
        # underlying anchor distances are rigid under any root
        q = rng.uniform(-0.3, 0.3, ref_model.n_joints)
        h = chain_height(ref_model, q)
        root = random_pose(rng)
        pos, _ = forward_kinematics_arrays(ref_model, q, root.position, root.orientation)
        idx = [ref_model.link_index(n) for n in ref_model.calibration_chain]
        h_moved = np.sum(np.linalg.norm(np.diff(pos[idx], axis=0), axis=1))
        assert np.isclose(h, h_moved, atol=1e-9)

    def test_empty_chain_error(self):
        model = random_tree_model(np.random.default_rng(0), 3)
        with pytest.raises(ConfigError):
            chain_height(model, np.zeros(3))


class TestModelValidation:
    def test_two_roots_rejected(self):
        links = [LinkSpec("a", None), LinkSpec("b", None)]
        with pytest.raises(ConfigError):
            HumanoidModel(links, [], [])

    def test_cycle_rejected(self):
        links = [
            LinkSpec("root", None),
            LinkSpec("a", "b", limits=(-1, 1)),
            LinkSpec("b", "a", limits=(-1, 1)),
        ]
        with pytest.raises(ConfigError):
            HumanoidModel(links, [], [])

    def test_non_unit_axis_rejected(self):
        links = [
            LinkSpec("root", None),
            LinkSpec("a", "root", axis=(0.0, 0.0, 2.0), limits=(-1, 1)),
        ]
        with pytest.raises(ConfigError):
            HumanoidModel(links, [], [])

    def test_unknown_key_body_rejected(self):
        links = [LinkSpec("root", None)]
        with pytest.raises(ConfigError):
            HumanoidModel(links, ["ghost"], [])

    def test_chain_must_descend(self):
        model_links = [
            LinkSpec("root", None),
            LinkSpec("a", "root", limits=(-1, 1)),
            LinkSpec("b", "root", limits=(-1, 1)),
        ]
        with pytest.raises(ConfigError):
            HumanoidModel(model_links, [], ["root", "a", "b"])  # b not under a

    def test_reference_model_shape(self, ref_model):
        assert ref_model.n_joints == 29
        assert ref_model.n_key_bodies == 7
        assert ref_model.root_name == "pelvis"
        assert "torso" in ref_model.link_names
        for name in ("left_wrist_yaw_link", "right_ankle_roll_link", "head"):
            assert name in ref_model.key_bodies
        assert ref_model.calibration_chain[0] == "pelvis"


class TestModelFile:
    def test_round_trip(self, tmp_path, ref_model):
        path = tmp_path / "model.json"
        save_model(ref_model, path)
        again = load_model(path)
        assert again.link_names == ref_model.link_names
        assert again.joint_names == ref_model.joint_names
        assert np.allclose(again.offsets_pos, ref_model.offsets_pos)
        assert np.allclose(again.joint_limits, ref_model.joint_limits)
        assert again.key_bodies == ref_model.key_bodies
        # canonical serialization is byte-stable
        path2 = tmp_path / "model2.json"
        save_model(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ClipParseError):
            load_model(path)

    def test_missing_field_context(self):
        with pytest.raises(ClipParseError, match=r"joints\[0\]"):
            model_from_dict({"joints": [{"name": "root"}]})

    def test_dict_round_trip(self, ref_model):
        doc = model_to_dict(ref_model)
        again = model_from_dict(json.loads(json.dumps(doc)))
        assert again.joint_names == ref_model.joint_names


@settings(max_examples=50, deadline=None)
@given(
    yaw=st.floats(-np.pi, np.pi, allow_nan=False),
    px=st.floats(-3, 3, allow_nan=False),
    py=st.floats(-3, 3, allow_nan=False),
)
def test_base_frame_round_trip_property(yaw, px, py):
    root = RigidPose(np.array([px, py, 0.6]), quat_from_yaw(yaw))
    p = np.array([0.3, -0.7, 1.1])
    assert np.allclose(world_point(root, to_base_point(root, p)), p, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(angle=st.floats(-np.pi, np.pi, allow_nan=False))
def test_axis_angle_rotation_matches_rodrigues(angle):
    axis = np.array([0.0, 1.0, 0.0])
    q = quat_from_axis_angle(axis, angle)
    v = np.array([1.0, 2.0, 3.0])
    from oracles import rodrigues

    assert np.allclose(quat_rotate(q, v), rodrigues(axis, angle) @ v, atol=1e-9)
