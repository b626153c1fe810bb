import base64
import json
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import rows_clip_doc, sine_joint_clip, sorted_mean, sorted_percentile

from omniclone.errors import ClipParseError, ConfigError, InputError
from omniclone.kinematics import RigidPose
from omniclone.motion import (
    BENCH_STRATA,
    COLUMNS,
    Frame,
    MotionClip,
    StatsRow,
    clip_from_dict,
    clip_stats,
    clip_to_dict,
    compose_recipe,
    derive_body_kinematics,
    derive_joint_velocities,
    format_stats_markdown,
    largest_remainder_counts,
    load_clip,
    percentile,
    recipe_to_json,
    save_clip,
    stats_label,
)
from omniclone.rotations import IDENTITY_QUAT
from omniclone.synthetic import constant_velocity_clip, static_clip


def simple_clip(n_frames=3, fps=30.0, n=2, category="other", level="none", **kwargs):
    frames = []
    grid_fps = fps if 0 < fps < float("inf") else 30.0  # an invalid fps reaches the clip's check
    for i in range(n_frames):
        t = i / grid_fps
        frames.append(
            Frame(
                t=t,
                root=RigidPose(np.array([0.1 * i, 0.0, 0.8]), IDENTITY_QUAT.copy()),
                root_lin_vel=np.array([0.1 * grid_fps, 0.0, 0.0]),
                root_ang_vel=np.zeros(3),
                joint_pos=np.linspace(0, 0.1 * i, n),
                **kwargs,
            )
        )
    return MotionClip(
        name="simple", fps=fps, category=category, level=level, frames=tuple(frames)
    )


def speed_clip(root_speeds, fps=30.0, name="speeds"):
    """Clip whose per-frame planar speed follows root_speeds exactly."""
    frames = []
    for i, s in enumerate(root_speeds):
        frames.append(
            Frame(
                t=i / fps,
                root=RigidPose(np.array([0.0, 0.0, 0.8]), IDENTITY_QUAT.copy()),
                root_lin_vel=np.array([s, 0.0, 0.0]),
                root_ang_vel=np.zeros(3),
                joint_pos=np.zeros(29),
            )
        )
    return MotionClip(
        name=name, fps=fps, category="walk", level="slow", frames=tuple(frames)
    )


class TestClipModel:
    def test_fps_positive(self):
        for fps in (0.0, -30.0, float("nan"), float("inf")):
            with pytest.raises(InputError, match="fps must be positive"):
                simple_clip(fps=fps)

    def test_bad_spacing_rejected(self):
        good = simple_clip(n_frames=3)
        frames = list(good.frames)
        bad = Frame(
            t=frames[2].t + 0.01,
            root=frames[2].root,
            root_lin_vel=frames[2].root_lin_vel,
            root_ang_vel=frames[2].root_ang_vel,
            joint_pos=frames[2].joint_pos,
        )
        with pytest.raises(InputError, match="spacing"):
            MotionClip("x", 30.0, "other", "none", (frames[0], frames[1], bad))

    def test_category_level_pairing(self):
        with pytest.raises(InputError):
            simple_clip(category="walk", level="high")
        with pytest.raises(InputError):
            simple_clip(category="squat", level="fast")
        # speed levels for gaits, height levels for workspace categories
        simple_clip(category="walk", level="medium_speed")
        simple_clip(category="squat", level="low")

    def test_strata_grid(self):
        assert len(BENCH_STRATA) == 18
        assert ("walk", "fast") in BENCH_STRATA
        assert ("jump", "low") in BENCH_STRATA


class TestFrameChecks:
    FIELDS = (
        "joint_pos", "root_lin_vel", "root_ang_vel", "joint_vel",
        "body_pos", "body_quat", "body_lin_vel", "body_ang_vel",
    )

    @staticmethod
    def fields(n=4, k=3):
        return dict(
            root_lin_vel=np.zeros(3), root_ang_vel=np.zeros(3),
            joint_pos=np.zeros(n), joint_vel=np.zeros(n),
            body_pos=np.zeros((k, 3)), body_quat=np.tile([1.0, 0.0, 0.0, 0.0], (k, 1)),
            body_lin_vel=np.zeros((k, 3)), body_ang_vel=np.zeros((k, 3)),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key", FIELDS)
    def test_one_non_finite_value_names_its_field(self, key, bad):
        fields = self.fields()
        fields[key].flat[-1] = bad
        with pytest.raises(InputError) as err:
            Frame(t=0.0, root=RigidPose(np.zeros(3), IDENTITY_QUAT), **fields)
        assert str(err.value) == f"{key}: non-finite values"

    def test_first_non_finite_field_in_field_order(self):
        fields = self.fields()
        for key in reversed(self.FIELDS):
            fields[key].flat[0] = np.nan
            with pytest.raises(InputError) as err:
                Frame(t=0.0, root=RigidPose(np.zeros(3), IDENTITY_QUAT), **fields)
            assert str(err.value) == f"{key}: non-finite values"

    @pytest.mark.parametrize("given, message", [
        (dict(body_quat=[[1, 2]], body_lin_vel=[[np.nan] * 3]), "body_pos and body_quat: give both or neither"),
        (dict(body_pos=np.zeros((3, 3))), "body_pos and body_quat: give both or neither"),
        (dict(body_lin_vel=[[np.nan] * 3]), "body_lin_vel: given without body_pos and body_quat"),
        (dict(body_ang_vel=np.zeros((3, 3))), "body_ang_vel: given without body_pos and body_quat"),
    ])
    def test_body_group_is_all_or_none(self, given, message):
        body = dict.fromkeys(("body_pos", "body_quat", "body_lin_vel", "body_ang_vel"))
        fields = {**self.fields(), **body, **given}
        with pytest.raises(InputError) as err:
            Frame(t=0.0, root=RigidPose(np.zeros(3), IDENTITY_QUAT), **fields)
        assert str(err.value) == message

    def test_finite_extremes_accepted(self):
        # values whose sum overflows are finite all the same
        fields = self.fields()
        fields["body_pos"][:] = np.finfo(float).max
        fields["joint_pos"][:] = -np.finfo(float).max
        frame = Frame(t=0.0, root=RigidPose(np.zeros(3), IDENTITY_QUAT), **fields)
        assert np.array_equal(frame.body_pos, fields["body_pos"])


class TestColumns:
    def test_array_accessors_return_stored_read_only_column(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=5)
        for accessor in ("joint_pos_array", "root_pos_array", "root_quat_array", "body_pos_array"):
            column = getattr(clip, accessor)()
            assert getattr(clip, accessor)() is column
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0.0
        assert constant_velocity_clip(ref_model, 1.0, n_frames=5, with_bodies=False).body_pos_array() is None

    def test_partial_optional_field_rejected_from_frames(self):
        frames = list(simple_clip(n_frames=4, joint_vel=np.array([0.05, -0.01])).frames)
        frames[2] = replace(frames[2], joint_vel=None)
        with pytest.raises(InputError, match=r"frames\[2\]\.joint_vel: present on some frames only"):
            MotionClip("x", 30.0, "other", "none", frames)

    def test_partial_optional_field_rejected_from_file(self):
        doc = rows_clip_doc(simple_clip(n_frames=4))
        doc["frames"][3]["joint_vel"] = [0.0, 0.0]
        with pytest.raises(ClipParseError, match=r"frames\[3\]\.joint_vel: present on some frames only"):
            clip_from_dict(doc)

    def test_frames_view(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=6)
        frames = clip.frames
        assert len(frames) == 6
        assert frames[-1].t == clip.t[5]
        assert [f.t for f in frames[1:5:2]] == [clip.t[1], clip.t[3]]
        assert np.array_equal(np.stack([f.joint_pos for f in frames]), clip.joint_pos)
        assert np.array_equal(frames[2].body_pos, clip.body_pos[2])
        with pytest.raises(IndexError):
            frames[6]


class TestReplace:
    """replace checks what it changes; the columns it keeps were checked when
    the clip was built."""

    @pytest.fixture
    def clip(self, ref_model):
        return constant_velocity_clip(ref_model, 1.0, n_frames=6, with_bodies=False)

    def test_kept_columns_are_shared(self, clip):
        out = clip.replace(name="renamed")
        assert out.name == "renamed"
        for key in COLUMNS:
            assert getattr(out, key) is getattr(clip, key)

    @pytest.mark.parametrize("key, frame", [("joint_vel", 3), ("body_pos", 0), ("body_quat", 5)])
    def test_non_finite_new_column_rejected(self, clip, ref_model, key, frame):
        k = ref_model.n_key_bodies
        changes = {"joint_vel": np.zeros((6, ref_model.n_joints))} if key == "joint_vel" else {
            "body_pos": np.zeros((6, k, 3)), "body_quat": np.tile(IDENTITY_QUAT, (6, k, 1))}
        changes[key][frame].flat[1] = np.nan
        with pytest.raises(InputError, match=re.escape(f"frames[{frame}].{key}: non-finite values")):
            clip.replace(**changes)

    @pytest.mark.parametrize("key, value, message", [
        ("joint_vel", np.zeros((6, 30)), "joint_vel: expected shape (6, 29), got (6, 30)"),
        ("joint_vel", np.zeros((5, 29)), "joint_vel: expected shape (6, 29), got (5, 29)"),
        ("body_pos", np.zeros((6, 7, 4)), "body_pos: expected shape (6, 7, 3), got (6, 7, 4)"),
        ("joint_pos", np.zeros((6, 28)), "joint_vel: expected shape (6, 28), got (6, 29)"),
    ])
    def test_wrong_shape_rejected(self, ref_model, key, value, message):
        # with key bodies, so that a new body_pos comes beside a body_quat
        clip = derive_joint_velocities(constant_velocity_clip(ref_model, 1.0, n_frames=6))
        with pytest.raises(InputError, match=re.escape(message)):
            clip.replace(**{key: value})

    @pytest.mark.parametrize("changes, message", [
        ({"t": np.arange(6) / 29.0}, "frames[1]: timestamp spacing 0.034482759 deviates from 1/fps=0.033333333"),
        ({"t": np.arange(6)[::-1] / 30.0}, "frames[1].t: timestamps must be strictly increasing"),
        ({"fps": 60.0}, "frames[1]: timestamp spacing 0.033333333 deviates from 1/fps=0.016666667"),
        ({"fps": 0.0}, "fps must be positive"),
        ({"root_quat": np.tile([0.0, 0.0, 0.0, 2.0], (6, 1))}, "frames[0].root_quat: norm 2.000000000 deviates"),
        ({"category": "dance"}, "unknown category 'dance'"),
        ({"category": "squat"}, "level 'slow' not allowed for category 'squat'"),
        ({"level": "high"}, "level 'high' not allowed for category 'walk'"),
        ({"fps": float("nan")}, "fps must be positive and finite, got nan"),
        ({"fps": float("inf")}, "fps must be positive and finite, got inf"),
    ])
    def test_changed_metadata_and_root_columns_checked(self, clip, changes, message):
        assert (clip.category, clip.level) == ("walk", "slow")
        with pytest.raises(InputError, match=re.escape(message)):
            clip.replace(**changes)

    def test_new_root_quaternions_normalised_and_canonical(self, clip):
        flipped = -1.0000001 * clip.root_quat
        out = clip.replace(root_quat=flipped)
        assert np.allclose(out.root_quat, clip.root_quat, atol=1e-15)
        assert np.all(out.root_quat[:, 0] > 0)
        assert not out.root_quat.flags.writeable


class TestClipFile:
    def test_round_trip_byte_identical(self, tmp_path):
        clip = simple_clip(joint_vel=np.array([0.05, -0.01]))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_clip(clip, p1)
        save_clip(load_clip(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_structural_round_trip(self, tmp_path, ref_model):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=5)
        path = tmp_path / "clip.json"
        save_clip(clip, path)
        again = load_clip(path)
        assert again.name == clip.name
        assert again.fps == clip.fps
        assert again.category == clip.category
        assert len(again.frames) == len(clip.frames)
        for a, b in zip(again.frames, clip.frames):
            assert np.array_equal(a.joint_pos, b.joint_pos)
            assert np.array_equal(a.root.position, b.root.position)
            assert np.array_equal(a.body_pos, b.body_pos)

    def test_fps_zero_parse_error(self):
        doc = clip_to_dict(simple_clip())
        for fps in (0, float("nan"), float("inf")):
            doc["header"]["fps"] = fps
            with pytest.raises(ClipParseError, match="fps must be positive"):
                clip_from_dict(doc)

    def test_dimension_mismatch_context(self):
        doc = rows_clip_doc(simple_clip(n=2))
        doc["frames"][1]["joint_pos"] = [0.0, 0.0, 0.0]
        with pytest.raises(ClipParseError, match=r"frames\[1\].joint_pos"):
            clip_from_dict(doc)

    def test_non_monotone_timestamps(self):
        doc = rows_clip_doc(simple_clip())
        doc["frames"][2]["t"] = doc["frames"][0]["t"]
        with pytest.raises(ClipParseError, match="strictly increasing"):
            clip_from_dict(doc)


def b64_column(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def column_doc():
    return clip_to_dict(simple_clip(n_frames=4, joint_vel=np.array([0.05, -0.01])))


# finite floats, with signed zeros, subnormals and the extremes drawn often
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestColumnFile:
    def test_columns_are_little_endian_float64_in_c_order(self, ref_model):
        clip = sine_joint_clip(ref_model, n_frames=7)
        doc = clip_to_dict(clip)
        assert set(doc) == {"header", "columns"}
        assert list(doc["columns"]) == ["t", "root_pos", "root_quat", "root_lin_vel", "root_ang_vel",
                                        "joint_pos", "joint_vel"]
        values = clip.joint_pos.ravel().tolist()
        assert base64.b64decode(doc["columns"]["joint_pos"]) == struct.pack(f"<{len(values)}d", *values)

    def test_row_and_column_documents_load_equal(self, ref_model):
        clip = derive_body_kinematics(sine_joint_clip(ref_model, n_frames=12), ref_model)
        from_rows = clip_from_dict(json.loads(json.dumps(rows_clip_doc(clip))))
        from_columns = clip_from_dict(json.loads(json.dumps(clip_to_dict(clip))))
        for key in COLUMNS:
            rows, columns = getattr(from_rows, key), getattr(from_columns, key)
            assert (rows is None) == (columns is None) == (getattr(clip, key) is None), key
            assert rows is None or np.array_equal(rows, columns), key
        assert from_rows.body_pos is not None and from_rows.joint_vel is not None
        assert clip_to_dict(from_rows) == clip_to_dict(from_columns) == clip_to_dict(clip)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), T=st.integers(1, 4), n=st.integers(1, 3), k=st.integers(0, 2))
    def test_round_trip_keeps_every_bit(self, data, T, n, k):
        def draw(*shape):
            return data.draw(arrays(np.float64, (T,) + shape, elements=EDGE_FLOATS))

        columns = dict(
            t=np.arange(T) / 30.0, root_pos=draw(3), root_quat=np.tile([1.0, 0.0, 0.0, 0.0], (T, 1)),
            root_lin_vel=draw(3), root_ang_vel=draw(3), joint_pos=draw(n), joint_vel=draw(n),
        )
        if k:
            columns.update(body_pos=draw(k, 3), body_quat=draw(k, 4), body_lin_vel=draw(k, 3),
                           body_ang_vel=draw(k, 3))
        clip = MotionClip.from_arrays("edge", 30.0, "other", "none", **columns)
        doc = json.loads(json.dumps(clip_to_dict(clip)))
        for again in (clip_from_dict(doc), clip_from_dict(json.loads(json.dumps(rows_clip_doc(clip))))):
            for key in COLUMNS:
                column = getattr(clip, key)
                assert (column is None) == (getattr(again, key) is None)
                assert column is None or getattr(again, key).tobytes() == column.tobytes(), key
            assert clip_to_dict(again) == doc

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["columns"].update(root_pos="*" + doc["columns"]["root_pos"]),
             r"columns\.root_pos: not base64"),
            (lambda doc: doc["columns"].update(root_pos="AAAAAAAAAAA"), r"columns\.root_pos: not base64"),
            (lambda doc: doc["columns"].update(joint_vel=doc["columns"]["joint_vel"][:-4]),
             r"columns\.joint_vel: 63 bytes, expected 64"),
            (lambda doc: doc["columns"].update(t=doc["columns"]["t"][:-4]), r"columns\.t: 30 bytes, expected 24"),
            (lambda doc: doc["columns"].update(joint_acc=doc["columns"]["joint_vel"]),
             r"columns\.joint_acc: unknown column"),
            (lambda doc: doc["columns"].pop("t"), r"columns\.t: missing"),
            (lambda doc: doc["columns"].pop("joint_pos"), r"columns\.joint_pos: missing"),
            (lambda doc: doc["columns"].update(dict.fromkeys(doc["columns"], "")),
             r"clip document: need t \(T,\) .*T > 0"),
            (lambda doc: doc.update(frames=rows_clip_doc(simple_clip())["frames"]),
             r"clip document: has both 'columns' and 'frames'"),
        ],
        ids=["non-base64", "bad-padding", "truncated", "truncated-t", "unknown", "missing-t",
             "missing-joint_pos", "no-frames", "both-layouts"],
    )
    def test_bad_column_document_rejected(self, edit, message):
        doc = column_doc()
        clip_from_dict(doc)
        edit(doc)
        with pytest.raises(ClipParseError, match=message):
            clip_from_dict(doc)

    @pytest.mark.parametrize("drop, message", [
        (("body_quat",), "body_pos and body_quat: give both or neither"),
        (("body_pos", "body_quat", "body_lin_vel"), "body_ang_vel: given without body_pos and body_quat"),
    ])
    def test_partial_body_group_rejected(self, ref_model, drop, message):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=4)
        vel = np.zeros((4, ref_model.n_key_bodies, 3))
        doc = clip_to_dict(clip.replace(body_lin_vel=vel, body_ang_vel=vel))
        for key in drop:
            del doc["columns"][key]
        with pytest.raises(ClipParseError, match=f"clip document: {message}"):
            clip_from_dict(doc)

    def test_non_finite_column_rejected_naming_the_frame(self):
        doc = column_doc()
        vel = np.zeros((4, 3))
        vel[2, 1] = np.nan
        doc["columns"]["root_lin_vel"] = b64_column(vel)
        with pytest.raises(ClipParseError, match=r"frames\[2\]\.root_lin_vel: non-finite values"):
            clip_from_dict(doc)


class TestClipStats:
    def test_static_clip_degenerate(self, ref_model):
        clip = static_clip(ref_model, n_frames=10, root_z=0.8)
        rows = clip_stats([clip], ref_model)
        speed = next(r for r in rows if r.metric == "speed")
        assert speed.lo == speed.hi == speed.mean == 0.0
        height = next(r for r in rows if r.metric == "root_height")
        assert height.lo == height.hi == height.mean == pytest.approx(0.8)

    def test_constant_velocity(self, ref_model):
        clip = constant_velocity_clip(ref_model, 1.2, n_frames=20, category="walk", level="slow")
        rows = clip_stats([clip], ref_model)
        speed = next(r for r in rows if r.metric == "speed")
        assert speed.lo == pytest.approx(1.2)
        assert speed.hi == pytest.approx(1.2)
        assert speed.mean == pytest.approx(1.2)

    def test_percentiles_match_sort_oracle(self, rng):
        clips = [speed_clip(rng.uniform(0, 3, int(rng.integers(5, 40)))) for _ in range(50)]
        from omniclone.kinematics import load_reference_model

        rows = clip_stats(clips, load_reference_model())
        speed = next(r for r in rows if r.metric == "speed")
        per_clip = [np.linalg.norm(np.stack([f.root_lin_vel for f in c.frames])[:, :2], axis=1)
                    for c in clips]
        assert speed.lo == min(sorted_percentile(s, 5) for s in per_clip)
        assert speed.hi == max(sorted_percentile(s, 95) for s in per_clip)
        assert speed.mean == sorted_mean(np.concatenate(per_clip))

    def test_empty_input_error(self, ref_model):
        with pytest.raises(InputError):
            clip_stats([], ref_model)

    def test_walk_slow_row_format_fixture(self):
        row = StatsRow("walk", "slow", "speed", 0.618, 1.704, 1.026)
        text = format_stats_markdown([row], "speed")
        assert "| Walk Slow | 0.618 | 1.704 | 1.026 |" in text
        assert stats_label("manip", "medium") == "Manip Med"
        assert stats_label("loco_manip", "low") == "Loco Low"

    def test_percentile_linear_interpolation(self, rng):
        values = rng.normal(size=101)
        for p in (5.0, 50.0, 95.0):
            assert percentile(values, p) == sorted_percentile(values, p)


def test_velocity_derivation_fills_missing(ref_model):
    # q(t) = sin(2 pi t) at 30 Hz for 3 s: central differences inside,
    # one-sided at either end
    clip = sine_joint_clip(
        ref_model, joint=0, amplitude=1.0, frequency_hz=1.0,
        n_frames=90, fps=30.0, with_joint_vel=False,
    )
    assert clip.frames[0].joint_vel is None
    q = np.array([f.joint_pos[0] for f in clip.frames])
    fd = np.empty_like(q)
    fd[1:-1] = (q[2:] - q[:-2]) * 30.0 / 2.0
    fd[0] = (q[1] - q[0]) * 30.0
    fd[-1] = (q[-1] - q[-2]) * 30.0
    assert np.array_equal(derive_joint_velocities(clip).joint_vel[:, 0], fd)


class TestRecipe:
    def test_manipulation_heavy_recipe_counts(self):
        pools = {
            "manip": [f"m{i}" for i in range(10)],
            "dynamic": [f"d{i}" for i in range(10)],
            "stable": [f"s{i}" for i in range(10)],
        }
        manifest = compose_recipe(
            pools, {"manip": 0.6, "dynamic": 0.2, "stable": 0.2}, 10, seed=0
        )
        assert manifest.counts() == {"manip": 6, "dynamic": 2, "stable": 2}

    def test_single_pool(self):
        pools = {"only": [f"c{i}" for i in range(20)]}
        manifest = compose_recipe(pools, {"only": 1.0}, 5, seed=3)
        assert len(manifest.selected) == 5
        assert len(set(clip for _, clip, _ in manifest.selected)) == 5

    def test_largest_remainder_tie_break(self):
        counts = largest_remainder_counts({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}, 10)
        assert counts == {"a": 4, "b": 3, "c": 3}
        assert sum(counts.values()) == 10

    def test_empty_pool_error(self):
        with pytest.raises(ConfigError):
            compose_recipe({"a": [], "b": ["x"]}, {"a": 0.5, "b": 0.5}, 4, seed=0)

    def test_negative_total_rejected(self):
        with pytest.raises(ConfigError, match="total must be >= 0, got -2"):
            compose_recipe({"a": ["x"], "b": ["y"]}, {"a": 0.5, "b": 0.5}, -2, seed=0)

    @pytest.mark.parametrize("fractions, label", [
        ({"a": 1.5, "b": -0.5}, "a"),
        ({"a": -0.5, "b": 1.5}, "a"),
        ({"a": 1.0, "b": float("nan")}, "b"),
    ])
    def test_fraction_outside_unit_interval_rejected(self, fractions, label):
        with pytest.raises(ConfigError, match=f"fraction of '{label}' must be in \\[0, 1\\]"):
            compose_recipe({"a": ["x"], "b": ["y"]}, fractions, 4, seed=0)

    def test_wrap_with_replacement_flagged(self):
        manifest = compose_recipe({"a": ["x", "y"]}, {"a": 1.0}, 5, seed=1)
        assert manifest.wrapped == ("a",)
        assert len(manifest.selected) == 5

    def test_deterministic_given_seed(self):
        pools = {"a": [f"a{i}" for i in range(30)], "b": [f"b{i}" for i in range(30)]}
        fr = {"a": 0.5, "b": 0.5}
        m1 = compose_recipe(pools, fr, 12, seed=42)
        m2 = compose_recipe(pools, fr, 12, seed=42)
        assert recipe_to_json(m1) == recipe_to_json(m2)
        m3 = compose_recipe(pools, fr, 12, seed=43)
        assert recipe_to_json(m1) != recipe_to_json(m3)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 5),
        total=st.integers(0, 40),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_counts_always_sum_to_total(self, k, total, seed, data):
        raw = [data.draw(st.floats(0.01, 1.0)) for _ in range(k)]
        s = sum(raw)
        fractions = {f"p{i}": raw[i] / s for i in range(k)}
        pools = {f"p{i}": [f"p{i}_{j}" for j in range(8)] for i in range(k)}
        manifest = compose_recipe(pools, fractions, total, seed=seed)
        assert len(manifest.selected) == total
        counts = manifest.counts()
        assert sum(counts.values()) == total
