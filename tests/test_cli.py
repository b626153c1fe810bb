import io
import json
import logging
import os
import pathlib
import re
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from omniclone import cli, simtrack
from omniclone.bench import ManifestEntry, save_manifest
from omniclone.motion import load_clip, save_clip
from omniclone.stream import PacketFrame, Stamped, fault_schedule
from omniclone.synthetic import benchmark_suite, constant_velocity_clip
from omniclone.vlabridge import ActionChunk

from oracles import (
    save_chunks,
    save_mapping,
    save_subject_stream,
    sine_joint_clip,
    subject_frame_to_dict,
    teacher_obs_length,
)
from test_retarget import MARKERS, humanoid_as_subject

# every documented flag, per subcommand, for the help doc-sync test
DOCUMENTED_FLAGS = {
    ("retarget",): ["--calibration", "--mapping", "--in", "--out", "--model", "--fps", "--name"],
    ("relay",): ["--listen", "--forward", "--clip", "--stdin", "--model", "--rate", "--duration"],
    ("serve-policy",): ["--listen", "--tracker", "--rate", "--window", "--duration", "--trace", "--seed",
                         "--model"],
    ("stream-test",): ["--packets", "--rate", "--drop", "--jitter", "--reorder",
                        "--duplicate", "--seed", "--window", "--live", "--samples", "--out"],
    ("bench", "run"): ["--manifest", "--tracker", "--out", "--model", "--method",
                        "--deviation", "--fall", "--drift", "--alignment"],
    ("bench", "report"): ["--in", "--format", "--out", "--method", "--include-failed"],
    ("stats",): ["--in", "--group-by", "--format", "--model", "--out"],
    ("recipe",): ["--pools", "--fractions", "--total", "--seed", "--format", "--out"],
    ("vla-replay",): ["--chunks", "--execute-len", "--rate", "--forward", "--ticks", "--model", "--out"],
    ("print-layout",): ["--policy", "--model", "--window", "--out"],
}


def write_suite(tmp_path, model, clips_per_stratum=1, n_frames=20):
    clips_dir = tmp_path / "clips"
    clips_dir.mkdir(exist_ok=True)
    entries = []
    for clip in benchmark_suite(model, clips_per_stratum=clips_per_stratum, n_frames=n_frames):
        path = clips_dir / f"{clip.name}.json"
        save_clip(clip, path)
        entries.append(ManifestEntry(path=str(path), category=clip.category, level=clip.level))
    manifest = tmp_path / "manifest.json"
    save_manifest(entries, manifest)
    return manifest


class TestDispatch:
    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_bench_run_missing_manifest_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "run", "--out", "x.json"])
        assert exc.value.code == 2

    def test_help_on_every_subcommand(self, capsys):
        for parts, flags in DOCUMENTED_FLAGS.items():
            with pytest.raises(SystemExit) as exc:
                cli.main([*parts, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, f"{parts}: {flag} missing from --help"

    def test_module_entry_point_without_runtime_warning(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "omniclone.cli", "--help"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code = cli.main(
            ["bench", "report", "--in", str(tmp_path / "nope.json"), "--format", "csv"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--run-config", "{bad}", "print-layout"],
        ["recipe", "--pools", "{bad}", "--fractions", "a=1", "--total", "1"],
        ["bench", "run", "--manifest", "{bad}", "--out", "out.json"],
        ["bench", "report", "--in", "{bad}"],
        ["vla-replay", "--chunks", "{bad}"],
        ["relay", "--forward", "127.0.0.1:9", "--stdin"],
    ])
    def test_malformed_json_exit_1(self, argv, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{bad", encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO("{bad"))
        monkeypatch.chdir(tmp_path)
        assert cli.main([str(bad) if a == "{bad}" else a for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error: malformed JSON:")


class TestBenchWorkflow:
    def test_full_suite_exit_zero(self, tmp_path, ref_model):
        manifest = write_suite(tmp_path, ref_model)
        out = tmp_path / "results.json"
        code = cli.main(
            ["bench", "run", "--manifest", str(manifest), "--tracker", "perfect",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        report_path = tmp_path / "report.csv"
        code = cli.main(
            ["bench", "report", "--in", str(out), "--format", "csv", "--out", str(report_path)]
        )
        assert code == 0
        lines = report_path.read_text().strip().split("\n")
        assert lines[0] == "category,level,sr_percent,mpjpe_mm"
        assert len(lines) == 19

    def test_stage_times_logged(self, tmp_path, ref_model, caplog):
        manifest = write_suite(tmp_path, ref_model)
        caplog.set_level(logging.INFO, logger="omniclone")
        argv = ["bench", "run", "--manifest", str(manifest), "--tracker", "perfect",
                "--out", str(tmp_path / "results.json")]
        assert cli.main(argv) == 0
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("bench run:")]
        assert re.fullmatch(
            r"bench run: 18 episodes; \d+\.\d{3} s loading clips, \d+\.\d{3} s running episodes,"
            r" \d+\.\d{3} s writing results",
            line,
        )

    @pytest.mark.parametrize("flags, config, message", [
        (["--deviation", "nan"], None, "deviation_m must be positive and finite, got nan"),
        (["--fall", "inf"], None, "fall_root_z_m must be positive and finite, got inf"),
        (["--drift", "nan"], None, "root_drift_m must be positive and finite, got nan"),
        ([], '{"deviation_m": NaN}', "deviation_m must be positive and finite, got nan"),
    ], ids=["deviation-flag", "fall-flag", "drift-flag", "deviation-run-config"])
    def test_thresholds_must_be_positive_and_finite(self, tmp_path, ref_model, capsys, flags, config, message):
        path = tmp_path / "one.json"
        save_clip(constant_velocity_clip(ref_model, 1.0, n_frames=10, category="walk", level="fast"), path)
        manifest = tmp_path / "manifest.json"
        save_manifest([ManifestEntry(path=str(path))], manifest)
        argv = ["bench", "run", "--manifest", str(manifest), "--tracker", "lag:1000",
                "--out", str(tmp_path / "results.json"), *flags]
        if config is not None:
            (tmp_path / "run.json").write_text(config, encoding="utf-8")
            argv = ["--run-config", str(tmp_path / "run.json"), *argv]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: failure threshold {message}\n"

    def test_partial_manifest_exit_nonzero(self, tmp_path, ref_model, capsys):
        clip = constant_velocity_clip(ref_model, 1.0, n_frames=10, category="walk", level="fast")
        path = tmp_path / "one.json"
        save_clip(clip, path)
        manifest = tmp_path / "manifest.json"
        save_manifest([ManifestEntry(path=str(path))], manifest)
        out = tmp_path / "results.json"
        code = cli.main(
            ["bench", "run", "--manifest", str(manifest), "--tracker", "perfect",
             "--out", str(out)]
        )
        assert code == 1
        assert out.exists()  # results are still written
        assert "empty strata" in capsys.readouterr().err

    def test_bad_tracker_spec_is_an_error(self, tmp_path, ref_model, capsys):
        manifest = write_suite(tmp_path, ref_model)
        argv = ["bench", "run", "--manifest", str(manifest), "--tracker", "lag:abc",
                "--out", str(tmp_path / "results.json")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'lag:abc'" in err

    def test_manifest_entry_without_path_is_an_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"clips": [{"category": "walk"}]}), encoding="utf-8")
        argv = ["bench", "run", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "clips[0] missing 'path'" in err

    @pytest.mark.parametrize("doc, key", [
        ({"method": "m"}, "'episodes'"),
        ({"episodes": [{"clip_name": "a", "category": "walk", "level": "slow", "success": True,
                        "failure_reason": None, "frames_evaluated": 10}]}, "'mpjpe_mm'"),
    ])
    def test_malformed_results_document_is_an_error(self, tmp_path, capsys, doc, key):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["bench", "report", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"missing key {key}" in err

    def test_manifest_entry_not_an_object_is_an_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"clips": [1]}), encoding="utf-8")
        argv = ["bench", "run", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "clips[0] is not an object" in err

    @pytest.mark.parametrize("doc, message", [
        ({"episodes": 3}, "'episodes' is int, not a list"),
        (7, "expected an object with key 'episodes', got int"),
    ], ids=["episodes-not-a-list", "not-an-object"])
    def test_results_document_of_the_wrong_shape_is_an_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["bench", "report", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        ({"clips": 5}, "manifest 'clips' is int, not a list"),
        (3, "manifest is int, not an object with key 'clips'"),
    ], ids=["clips-not-a-list", "not-an-object"])
    def test_manifest_of_the_wrong_shape_is_an_error(self, tmp_path, capsys, doc, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["bench", "run", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("episode, message", [
        (1, "episodes[1]: 'int' object is not subscriptable"),
        ({"clip_name": "a", "category": "walk", "level": "slow", "success": True,
          "failure_reason": "none", "frames_evaluated": 10, "mpjpe_mm": "x"},
         "episodes[1]: 'mpjpe_mm' must be a finite number >= 0, got 'x'"),
        ({"clip_name": "a", "category": "walk", "level": "slow", "success": True,
          "failure_reason": "none", "frames_evaluated": 10, "mpjpe_mm": "12.5"},
         "episodes[1]: 'mpjpe_mm' must be a finite number >= 0, got '12.5'"),
    ], ids=["not-an-object", "non-numeric", "numeric-string"])
    def test_malformed_results_episode_is_an_error(self, tmp_path, capsys, episode, message):
        good = {"clip_name": "a", "category": "walk", "level": "slow", "success": True,
                "failure_reason": "none", "frames_evaluated": 10, "mpjpe_mm": 1.0}
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"episodes": [good, episode]}), encoding="utf-8")
        assert cli.main(["bench", "report", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_results_episode_out_of_range_is_an_error(self, tmp_path, capsys):
        episode = {"clip_name": "a", "category": "walk", "level": "slow", "success": "false",
                   "failure_reason": "deviation", "frames_evaluated": 10, "mpjpe_mm": 1.0}
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"episodes": [episode]}), encoding="utf-8")
        assert cli.main(["bench", "report", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "episodes[0]: 'success' must be true or false, got 'false'" in err

    def test_pd_step_count_over_the_cap_is_an_error(self, tmp_path, ref_model, capsys):
        # about 33 million integrator steps per frame: refused before any integration
        manifest = write_suite(tmp_path, ref_model)
        argv = ["bench", "run", "--manifest", str(manifest), "--tracker", "pd:100,20,1e-9",
                "--out", str(tmp_path / "results.json")]
        start = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "steps per" in err

    @pytest.mark.parametrize("fps", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["bench", "relay"])
    def test_non_finite_clip_fps_is_one_error_line(self, tmp_path, ref_model, capsys, fps, command):
        path = tmp_path / "clip.json"
        save_clip(constant_velocity_clip(ref_model, 1.0, n_frames=10), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(r'"fps": [0-9.]+', f'"fps": {fps}', text, count=1), encoding="utf-8")
        if command == "bench":
            manifest = tmp_path / "manifest.json"
            save_manifest([ManifestEntry(path=str(path))], manifest)
            argv = ["bench", "run", "--manifest", str(manifest), "--tracker", "pd:400,40",
                    "--out", str(tmp_path / "results.json")]
        else:
            argv = ["relay", "--forward", "127.0.0.1:9", "--clip", str(path)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "fps must be positive and finite" in captured.err

    def test_relay_clip_with_a_partial_body_group_is_one_error_line(self, tmp_path, ref_model, capsys):
        path = tmp_path / "clip.json"
        save_clip(constant_velocity_clip(ref_model, 1.0, n_frames=10), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["columns"]["body_quat"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["relay", "--forward", "127.0.0.1:9", "--clip", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "body_pos and body_quat: give both or neither" in captured.err

    def test_deterministic_outputs(self, tmp_path, ref_model):
        manifest = write_suite(tmp_path, ref_model)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"results_{tag}.json"
            cli.main(
                ["bench", "run", "--manifest", str(manifest), "--tracker", "lag:2",
                 "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_noise_seed_from_run_config(self, tmp_path, ref_model):
        manifest = write_suite(tmp_path, ref_model)

        def results(config):
            out = tmp_path / "results.json"
            argv = ["bench", "run", "--manifest", str(manifest), "--tracker", "noise:0.05", "--out", str(out)]
            if config is not None:
                (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
                argv = ["--run-config", str(tmp_path / "run.json"), *argv]
            assert cli.main(argv) == 0
            return out.read_bytes()

        default = results(None)
        assert results({"seed": 0}) == default
        assert results({"seed": 5}) != default


def seed_argv(tmp_path, ref_model, command):
    """A run of `command` that uses a seed, before its --seed flag."""
    if command == "recipe":
        (tmp_path / "pools.json").write_text(json.dumps({"a": ["x", "y"]}), encoding="utf-8")
        return ["recipe", "--pools", str(tmp_path / "pools.json"), "--fractions", "a=1", "--total", "1"]
    if command == "bench-run":
        manifest = write_suite(tmp_path, ref_model, n_frames=5)
        return ["bench", "run", "--manifest", str(manifest), "--tracker", "noise:0.01",
                "--out", str(tmp_path / "results.json")]
    return {
        "stream-test": ["stream-test", "--packets", "20"],
        "stream-test-live": ["stream-test", "--live", "--samples", "20", "--rate", "400"],
        "serve-policy": ["serve-policy", "--listen", "127.0.0.1:0", "--tracker", "noise:0.1",
                         "--duration", "0"],
    }[command]


class TestSeed:
    """Every seed, from --seed or the run config, is checked in one place."""

    @pytest.mark.parametrize("command, source", [
        ("stream-test", "flag"),
        ("stream-test", "config"),
        ("stream-test-live", "flag"),
        ("serve-policy", "flag"),
        ("serve-policy", "config"),
        ("recipe", "flag"),
        ("recipe", "config"),
        ("bench-run", "config"),
    ])
    def test_negative_seed_is_one_error_line(self, tmp_path, ref_model, capsys, command, source):
        argv = seed_argv(tmp_path, ref_model, command)
        if source == "flag":
            argv += ["--seed", "-1"]
            message = "error: --seed must be >= 0, got -1\n"
        else:
            (tmp_path / "run.json").write_text(json.dumps({"seed": -1}), encoding="utf-8")
            argv = ["--run-config", str(tmp_path / "run.json"), *argv]
            message = "error: run config: 'seed' must be >= 0, got -1\n"
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    def test_flag_overrides_a_negative_config_seed(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text(json.dumps({"seed": -1}), encoding="utf-8")
        argv = ["stream-test", "--packets", "20", "--drop", "0.2", "--seed", "3"]
        assert cli.main(["--run-config", str(tmp_path / "run.json"), *argv]) == 0
        from_flag = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == from_flag


class TestStreamTestCommand:
    def test_virtual_mode_deterministic(self, tmp_path, capsys):
        argv = ["stream-test", "--packets", "500", "--drop", "0.1", "--jitter", "0:40",
                "--seed", "5", "--out", str(tmp_path / "trace.csv")]
        assert cli.main(argv) == 0
        first_out = capsys.readouterr().out
        first_trace = (tmp_path / "trace.csv").read_bytes()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first_out
        assert (tmp_path / "trace.csv").read_bytes() == first_trace
        assert first_out.startswith("ticks,fresh,held,")

    def test_live_mode_prints_latency(self, capsys):
        assert cli.main(["stream-test", "--live", "--samples", "40", "--rate", "400"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mean_ms,p95_ms,sent,received")

    @pytest.mark.parametrize("live", [[], ["--live"]])
    def test_non_positive_rate_is_an_error(self, live, capsys):
        assert cli.main(["stream-test", "--rate", "0", *live]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rate must be positive" in err

    @pytest.mark.parametrize("live", [[], ["--live"]])
    @pytest.mark.parametrize("rate", ["0", "-50", "nan", "inf"])
    def test_rate_must_be_positive_and_finite(self, live, rate, capsys):
        assert cli.main(["stream-test", "--rate", rate, "--packets", "20", "--samples", "20", *live]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "rate must be positive and finite" in captured.err

    @pytest.mark.parametrize("argv", [["--packets", "-3"], ["--live", "--samples", "-1"]])
    def test_negative_count_is_an_error(self, argv, capsys):
        assert cli.main(["stream-test", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "count must be >= 0" in captured.err

    def test_rate_from_run_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rate_hz": 10, "window": 1}), encoding="utf-8")
        argv = ["stream-test", "--packets", "300", "--jitter", "0:150", "--seed", "2"]
        assert cli.main(["--run-config", str(cfg), *argv]) == 0
        from_config = capsys.readouterr().out
        assert cli.main([*argv, "--rate", "10", "--window", "1"]) == 0
        assert from_config == capsys.readouterr().out
        assert cli.main([*argv, "--window", "1"]) == 0
        assert from_config != capsys.readouterr().out

    @pytest.mark.parametrize("drop", ["0", "1"])
    def test_window_below_one_is_an_error_even_when_nothing_arrives(self, drop, capsys):
        assert cli.main(["stream-test", "--packets", "20", "--window", "0", "--drop", drop]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --window must be >= 1, got 0\n")

    @pytest.mark.parametrize("jitter", ["abc", "0:x"])
    def test_non_numeric_jitter_is_an_error(self, jitter, capsys):
        assert cli.main(["stream-test", "--jitter", jitter]) == 1
        assert capsys.readouterr().err.startswith("error: --jitter:")

    def test_virtual_mode_draws_the_fault_schedule_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(*args):
            calls.append(args)
            return fault_schedule(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("omniclone") and getattr(module, "fault_schedule", None) is fault_schedule:
                monkeypatch.setattr(module, "fault_schedule", counted)
        argv = ["stream-test", "--packets", "200", "--drop", "0.1", "--jitter", "0:40", "--seed", "1",
                "--out", str(tmp_path / "trace.csv")]
        assert cli.main(argv) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith("ticks,fresh,held,")

    @pytest.mark.parametrize("flag, value", [("--window", "0"), ("--window", "3"), ("--out", "x.csv")])
    def test_live_mode_refuses_virtual_flags(self, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        argv = ["stream-test", "--live", "--samples", "20", "--rate", "400", flag, value]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: stream-test --live takes no {flag}\n")
        assert list(tmp_path.iterdir()) == []

    def test_live_mode_ignores_the_config_window(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text(json.dumps({"window": 0}), encoding="utf-8")
        argv = ["stream-test", "--live", "--samples", "20", "--rate", "400"]
        assert cli.main(["--run-config", str(tmp_path / "run.json"), *argv]) == 0
        assert capsys.readouterr().out.startswith("mean_ms,p95_ms,sent,received\n")


class TestStatsCommand:
    def test_csv_schema(self, tmp_path, ref_model, capsys):
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        for lvl, speed in (("slow", 0.8), ("fast", 1.4)):
            save_clip(
                constant_velocity_clip(ref_model, speed, n_frames=15, category="walk", level=lvl),
                clips_dir / f"walk_{lvl}.json",
            )
        code = cli.main(["stats", "--in", str(clips_dir), "--group-by", "category,level"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "category,level,metric,lo,hi,mean"
        assert any(ln.startswith("walk,slow,speed,") for ln in lines)
        # three metric rows per group
        assert len(lines) == 1 + 2 * 3

    def test_markdown_table_layout(self, tmp_path, ref_model, capsys):
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        save_clip(
            constant_velocity_clip(ref_model, 1.0, n_frames=15, category="walk", level="slow"),
            clips_dir / "w.json",
        )
        cli.main(["stats", "--in", str(clips_dir), "--format", "markdown"])
        out = capsys.readouterr().out
        assert "| Motion | Min P5 | Max P95 | Mean |" in out
        assert "| Walk Slow |" in out


class TestRecipeCommand:
    def test_deterministic_given_seed(self, tmp_path):
        pools_path = tmp_path / "pools.json"
        pools_path.write_text(
            json.dumps({"manip": [f"m{i}" for i in range(20)],
                        "dynamic": [f"d{i}" for i in range(20)],
                        "stable": [f"s{i}" for i in range(20)]}),
            encoding="utf-8",
        )
        argv = ["recipe", "--pools", str(pools_path),
                "--fractions", "manip=0.6,dynamic=0.2,stable=0.2",
                "--total", "10", "--seed", "11", "--out", str(tmp_path / "recipe.json")]
        assert cli.main(argv) == 0
        first = (tmp_path / "recipe.json").read_bytes()
        assert cli.main(argv) == 0
        assert (tmp_path / "recipe.json").read_bytes() == first
        doc = json.loads(first)
        counts = {}
        for row in doc["selected"]:
            counts[row["label"]] = counts.get(row["label"], 0) + 1
        assert counts == {"manip": 6, "dynamic": 2, "stable": 2}

    @pytest.mark.parametrize("fractions, total, message", [
        ("a=0.5,b=0.5", "-2", "total must be >= 0, got -2"),
        ("a=1.5,b=-0.5", "4", "fraction of 'a' must be in [0, 1], got 1.5"),
    ])
    def test_negative_total_or_fraction_outside_unit_interval_is_an_error(
        self, tmp_path, capsys, fractions, total, message
    ):
        pools_path = tmp_path / "pools.json"
        pools_path.write_text(json.dumps({"a": ["x", "y"], "b": ["z"]}), encoding="utf-8")
        argv = ["recipe", "--pools", str(pools_path), "--fractions", fractions, "--total", total]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_numeric_fraction_is_an_error(self, tmp_path, capsys):
        pools_path = tmp_path / "pools.json"
        pools_path.write_text(json.dumps({"a": ["x"]}), encoding="utf-8")
        argv = ["recipe", "--pools", str(pools_path), "--fractions", "a=x", "--total", "1"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: --fractions:")


class TestRetargetCommand:
    def test_end_to_end(self, tmp_path, ref_model, capsys):
        clip = constant_velocity_clip(ref_model, 0.9, n_frames=12, fps=30.0)
        subject = humanoid_as_subject(clip, 1.25)
        cal_path = tmp_path / "calibration.json"
        cal_path.write_text(json.dumps(subject_frame_to_dict(subject[0])), encoding="utf-8")
        stream_path = tmp_path / "stream.json"
        save_subject_stream(subject, stream_path)
        map_path = tmp_path / "mapping.txt"
        save_mapping(MARKERS, map_path)
        out_path = tmp_path / "retargeted.json"
        code = cli.main(
            ["retarget", "--calibration", str(cal_path), "--mapping", str(map_path),
             "--in", str(stream_path), "--out", str(out_path), "--fps", "30"]
        )
        assert code == 0
        assert "scale,0.8" in capsys.readouterr().out
        out_clip = load_clip(out_path)
        assert len(out_clip.frames) == 12
        for a, b in zip(out_clip.frames, clip.frames):
            assert np.allclose(a.body_pos, b.body_pos, atol=1e-9)

    def test_short_marker_quaternion_is_an_error(self, tmp_path, ref_model, capsys):
        subject = humanoid_as_subject(constant_velocity_clip(ref_model, 0.9, n_frames=3), 1.0)
        cal_path = tmp_path / "calibration.json"
        cal_path.write_text(json.dumps(subject_frame_to_dict(subject[0])), encoding="utf-8")
        doc = {"frames": [subject_frame_to_dict(f) for f in subject]}
        doc["frames"][1]["marker_quats"]["m_lhand"] = [1.0, 0.0, 0.0]
        stream_path = tmp_path / "stream.json"
        stream_path.write_text(json.dumps(doc), encoding="utf-8")
        map_path = tmp_path / "mapping.txt"
        save_mapping(MARKERS, map_path)
        code = cli.main(
            ["retarget", "--calibration", str(cal_path), "--mapping", str(map_path),
             "--in", str(stream_path), "--out", str(tmp_path / "out.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'m_lhand'" in err


    @pytest.mark.parametrize("field, value", [
        ("markers", "x"),
        ("marker_quats", "x"),
        ("markers", ["x", 0.0, 1.0]),
        ("marker_quats", [1.0, "x", 0.0, 0.0]),
    ])
    def test_non_numeric_marker_value_is_an_error(self, tmp_path, ref_model, capsys, field, value):
        subject = humanoid_as_subject(constant_velocity_clip(ref_model, 0.9, n_frames=3), 1.0)
        cal_path = tmp_path / "calibration.json"
        cal_path.write_text(json.dumps(subject_frame_to_dict(subject[0])), encoding="utf-8")
        doc = {"frames": [subject_frame_to_dict(f) for f in subject]}
        doc["frames"][2][field]["m_head"] = value
        stream_path = tmp_path / "stream.json"
        stream_path.write_text(json.dumps(doc), encoding="utf-8")
        map_path = tmp_path / "mapping.txt"
        save_mapping(MARKERS, map_path)
        code = cli.main(
            ["retarget", "--calibration", str(cal_path), "--mapping", str(map_path),
             "--in", str(stream_path), "--out", str(tmp_path / "out.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "frames[2]" in err
        assert len(err.strip().splitlines()) == 1


class TestVlaReplayCommand:
    def test_writes_deterministic_clip(self, tmp_path, ref_model):
        rng = np.random.default_rng(4)
        chunks = [ActionChunk(rng.uniform(-0.3, 0.3, (16, 29))) for _ in range(3)]
        chunk_path = tmp_path / "chunks.json"
        save_chunks(chunks, chunk_path)
        argv = ["vla-replay", "--chunks", str(chunk_path), "--execute-len", "8",
                "--out", str(tmp_path / "commands.json")]
        assert cli.main(argv) == 0
        first = (tmp_path / "commands.json").read_bytes()
        assert cli.main(argv) == 0
        assert (tmp_path / "commands.json").read_bytes() == first
        clip = load_clip(tmp_path / "commands.json")
        assert len(clip.frames) == 24
        assert clip.fps == 50.0

    @pytest.mark.parametrize("rate", ["0", "-50", "nan", "inf"])
    def test_rate_must_be_positive_and_finite(self, tmp_path, capsys, rate):
        save_chunks([ActionChunk(np.zeros((8, 29)))], tmp_path / "chunks.json")
        code = cli.main(["vla-replay", "--chunks", str(tmp_path / "chunks.json"), "--rate", rate,
                         "--out", str(tmp_path / "commands.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--rate must be positive and finite" in err
        assert not (tmp_path / "commands.json").exists()

    @pytest.mark.parametrize("ticks", ["0", "-3"])
    def test_ticks_below_one_is_an_error(self, tmp_path, capsys, ticks):
        save_chunks([ActionChunk(np.zeros((8, 29)))], tmp_path / "chunks.json")
        code = cli.main(["vla-replay", "--chunks", str(tmp_path / "chunks.json"), "--ticks", ticks,
                         "--out", str(tmp_path / "commands.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --ticks must be >= 1, got {ticks}\n"
        assert not (tmp_path / "commands.json").exists()

    @pytest.mark.parametrize("ticks", [[], ["--ticks", "5"]])
    @pytest.mark.parametrize("execute_len", ["0", "-2"])
    def test_execute_len_below_one_is_an_error(self, tmp_path, capsys, execute_len, ticks):
        # refused by name before the default tick count (chunks x execute-len) is taken
        save_chunks([ActionChunk(np.zeros((8, 29)))], tmp_path / "chunks.json")
        code = cli.main(["vla-replay", "--chunks", str(tmp_path / "chunks.json"),
                         "--execute-len", execute_len, *ticks, "--out", str(tmp_path / "commands.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --execute-len must be >= 1, got {execute_len}\n"
        assert not (tmp_path / "commands.json").exists()

    def test_denoise_steps_key_replays_identically(self, tmp_path, capsys):
        # older chunk files carry a denoise_steps key; it is read and ignored
        rng = np.random.default_rng(4)
        chunks = [ActionChunk(rng.uniform(-0.3, 0.3, (16, 29))) for _ in range(3)]
        save_chunks(chunks, tmp_path / "plain.json")
        doc = json.loads((tmp_path / "plain.json").read_text(encoding="utf-8"))
        (tmp_path / "keyed.json").write_text(json.dumps({"denoise_steps": 4, **doc}), encoding="utf-8")
        outputs = []
        for name in ("plain", "keyed"):
            argv = ["vla-replay", "--chunks", str(tmp_path / f"{name}.json"),
                    "--out", str(tmp_path / f"{name}.out.json")]
            assert cli.main(argv) == 0
            outputs.append((capsys.readouterr().out, (tmp_path / f"{name}.out.json").read_bytes()))
        assert outputs[0] == outputs[1]


def teacher_blocks(n, k):
    """print-layout's teacher blocks, (name, length), in order."""
    return [
        ("joint_pos", n), ("joint_vel", n), ("body_pos", 3 * k), ("body_quat", 4 * k),
        ("body_lin_vel", 3 * k), ("body_ang_vel", 3 * k), ("gravity", 3),
        ("root_ang_vel", 3), ("last_action", n), ("ref_joint_pos", n),
        ("ref_joint_vel", n), ("ref_body_pos", 3 * k), ("ref_body_quat", 4 * k),
    ]


class TestPrintLayout:
    def test_layout_tables(self, capsys):
        assert cli.main(["print-layout", "--policy", "both"]) == 0
        out = capsys.readouterr().out
        assert "# teacher" in out and "# student" in out
        assert "name,offset,length" in out

    def test_teacher_blocks_in_order(self, capsys, ref_model):
        assert cli.main(["print-layout", "--policy", "teacher"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["# teacher", "name,offset,length"]
        blocks = teacher_blocks(ref_model.n_joints, ref_model.n_key_bodies)
        offsets = np.cumsum([0] + [length for _, length in blocks])
        assert lines[2:] == [f"{name},{offset},{length}"
                             for (name, length), offset in zip(blocks, offsets)]
        assert offsets[-1] == teacher_obs_length(ref_model)

    def test_both_policies_byte_for_byte(self, capsys, ref_model):
        # the whole output, spelled out from the two layout rules
        assert cli.main(["print-layout", "--policy", "both"]) == 0
        n, k = ref_model.n_joints, ref_model.n_key_bodies
        student = [("joint_pos", n), ("gravity", 3), ("root_ang_vel", 3), ("last_action", n)]
        for i in range(simtrack.DEFAULT_WINDOW):
            student += [(f"ref{i}_body_pos", 3 * k), (f"ref{i}_body_quat", 4 * k), (f"ref{i}_root_lin_vel", 3)]

        def table(title, blocks):
            offsets = np.cumsum([0] + [length for _, length in blocks])
            rows = [f"{name},{offset},{length}\n" for (name, length), offset in zip(blocks, offsets)]
            return f"# {title}\nname,offset,length\n" + "".join(rows)

        assert capsys.readouterr().out == table("teacher", teacher_blocks(n, k)) + table("student", student)

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_window_below_one_is_an_error(self, capsys, window):
        assert cli.main(["print-layout", "--policy", "student", "--window", window]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --window must be >= 1, got {window}\n"

    def test_deterministic(self, capsys):
        cli.main(["print-layout", "--policy", "student", "--window", "3"])
        first = capsys.readouterr().out
        cli.main(["print-layout", "--policy", "student", "--window", "3"])
        assert capsys.readouterr().out == first


class TestServeRelayLive:
    def test_serve_policy_and_relay(self, tmp_path, ref_model, capsys):
        clip = constant_velocity_clip(ref_model, 0.8, n_frames=25, fps=50.0)
        clip_path = tmp_path / "clip.json"
        save_clip(clip, clip_path)
        port = 39121
        trace_path = tmp_path / "trace.jsonl"
        serve = threading.Thread(
            target=cli.main,
            args=(["serve-policy", "--listen", f"127.0.0.1:{port}", "--tracker", "oracle",
                   "--rate", "50", "--duration", "1.4", "--trace", str(trace_path)],),
            daemon=True,
        )
        serve.start()
        time.sleep(0.3)
        code = cli.main(["relay", "--forward", f"127.0.0.1:{port}", "--clip", str(clip_path)])
        assert code == 0
        serve.join(5.0)
        assert not serve.is_alive()
        out = capsys.readouterr().out
        assert "sent,25" in out
        assert "received,decode_errors,heartbeats,ticks,fresh,held,overruns" in out
        records = [json.loads(ln) for ln in trace_path.read_text().splitlines()]
        assert len(records) >= 15
        assert any(not r["held"] for r in records)

    def test_relay_listen_zero_duration_returns(self, capsys):
        start = time.monotonic()
        code = cli.main(["relay", "--listen", "127.0.0.1:0", "--forward", "127.0.0.1:9",
                         "--duration", "0"])
        assert code == 0
        assert time.monotonic() - start < 0.5
        assert "forwarded,0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["relay", "--listen", "127.0.0.1:0", "--forward", "127.0.0.1:9"],
        ["serve-policy", "--listen", "127.0.0.1:0"],
    ], ids=["relay", "serve-policy"])
    @pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
    def test_duration_must_be_finite_and_non_negative(self, monkeypatch, capsys, command, duration):
        def no_run(*args):  # an infinite serve-policy run must not start
            raise AssertionError("the server ran")

        monkeypatch.setattr(cli.PolicyServer, "run", no_run)
        assert cli.main([*command, "--duration", duration]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --duration must be finite and >= 0, got {float(duration)}\n"

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_serve_policy_window_below_one_is_an_error(self, monkeypatch, capsys, window):
        def no_run(*args):
            raise AssertionError("the server ran")

        monkeypatch.setattr(cli.PolicyServer, "run", no_run)
        assert cli.main(["serve-policy", "--listen", "127.0.0.1:0", "--window", window]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --window must be >= 1, got {window}\n")

    def test_relay_listen_forwards_datagrams(self, capsys):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", 0))
            listen_port = probe.getsockname()[1]
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sink.bind(("127.0.0.1", 0))
            sink.settimeout(5.0)
            relay = threading.Thread(target=cli.main, args=(
                ["relay", "--listen", f"127.0.0.1:{listen_port}",
                 "--forward", f"127.0.0.1:{sink.getsockname()[1]}", "--duration", "2"],), daemon=True)
            relay.start()
            time.sleep(0.5)
            datagrams = [bytes([i]) * (1 + 100 * i) for i in range(5)]
            for data in datagrams:
                sender.sendto(data, ("127.0.0.1", listen_port))
            received = [sink.recvfrom(65536)[0] for _ in datagrams]
            relay.join(5.0)
        assert not relay.is_alive()
        assert received == datagrams
        assert capsys.readouterr().out == "forwarded,5\n"

    def test_serve_policy_bad_tracker_spec_is_an_error(self, capsys):
        code = cli.main(["serve-policy", "--listen", "127.0.0.1:0", "--tracker", "noise:zz",
                         "--duration", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'noise:zz'" in err

    def test_serve_policy_pd_step_cap_is_an_error(self, capsys):
        # 2000 integrator steps per 50 Hz tick: refused before the server binds
        code = cli.main(["serve-policy", "--listen", "127.0.0.1:0", "--tracker", "pd:100,20,0.00001",
                         "--rate", "50", "--duration", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2000 steps per 50.0 fps frame" in err

    @pytest.mark.parametrize("config, flag, seed", [
        (None, None, 0),
        ({"seed": 5}, None, 5),
        (None, "7", 7),
        ({"seed": 5}, "7", 7),
    ])
    def test_serve_policy_seed_from_run_config(self, tmp_path, monkeypatch, capsys, config, flag, seed):
        seeds = []
        tracker = simtrack.Tracker

        def recorded(spec, frame_period):
            seeds.append(spec.seed)
            return tracker(spec, frame_period)

        monkeypatch.setattr(simtrack, "Tracker", recorded)
        argv = ["serve-policy", "--listen", "127.0.0.1:0", "--tracker", "noise:0.1", "--duration", "0"]
        if flag is not None:
            argv += ["--seed", flag]
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
            argv = ["--run-config", str(tmp_path / "run.json"), *argv]
        assert cli.main(argv) == 0
        assert seeds == [seed]

    @pytest.mark.parametrize("rate", ["0", "-50", "nan", "inf"])
    def test_serve_policy_rate_must_be_positive_and_finite(self, capsys, rate):
        code = cli.main(["serve-policy", "--listen", "127.0.0.1:0", "--tracker", "pd:400,40",
                         "--rate", rate, "--duration", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--rate must be positive and finite" in err

    @pytest.mark.parametrize("rate", ["0", "-50", "nan", "inf"])
    def test_relay_rate_must_be_positive_and_finite(self, tmp_path, ref_model, capsys, rate):
        save_clip(constant_velocity_clip(ref_model, 0.9, n_frames=5), tmp_path / "clip.json")
        code = cli.main(["relay", "--forward", "127.0.0.1:9", "--clip", str(tmp_path / "clip.json"),
                         "--rate", rate])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--rate must be positive and finite" in captured.err

    @pytest.mark.parametrize("tracker", ["pd:400,40", "pd:100,20,0.005"])
    def test_pd_trace_equals_track_clip(self, tmp_path, ref_model, tracker):
        clip = sine_joint_clip(ref_model, joint=4, amplitude=0.5, n_frames=30, fps=50.0,
                               with_joint_vel=False)
        clip = clip.replace(joint_pos=clip.joint_pos.astype(np.float32).astype(float))
        spec = simtrack.parse_tracker(tracker)
        trace_path = tmp_path / "trace.jsonl"
        sink = cli._LiveTrackerSink(simtrack.Tracker(spec, 1.0 / 50.0), str(trace_path))
        try:
            for tick, joint in enumerate(clip.joint_pos):
                frame = PacketFrame(np.zeros(3), np.zeros((0, 3)), np.zeros((0, 4)), joint)
                sink(Stamped(tick + 1, (frame,)), False)
        finally:
            sink.close()
        commands = [json.loads(ln)["command"] for ln in trace_path.read_text().splitlines()]
        want = simtrack.track_clip(spec, clip, ref_model).joint_pos
        assert commands == np.round(want, 6).tolist()

    def test_lag_trace_written_per_tick(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        sink = cli._LiveTrackerSink(simtrack.Tracker(simtrack.parse_tracker("lag:2"), 1 / 50), str(trace_path))
        joints = [np.array([0.1 * i, -0.1 * i]) for i in range(6)]
        try:
            for tick, joint in enumerate(joints):
                frame = PacketFrame(np.zeros(3), np.zeros((0, 3)), np.zeros((0, 4)), joint)
                sink(Stamped(tick + 1, (frame,)), False)
                lines = trace_path.read_text().splitlines()
                assert len(lines) == tick + 1
                record = json.loads(lines[-1])
                assert (record["tick"], record["seq"], record["held"]) == (tick, tick + 1, False)
                expected = joints[max(0, tick - 2)].astype(np.float32).astype(float)
                assert record["command"] == np.round(expected, 6).tolist()
        finally:
            sink.close()


class TestRunConfig:
    def test_config_file_overridden_by_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"window": 2, "seed": 9}), encoding="utf-8")
        cli.main(["--run-config", str(cfg), "print-layout", "--policy", "student"])
        out_cfg = capsys.readouterr().out
        assert "ref1_body_pos" in out_cfg and "ref2_body_pos" not in out_cfg
        cli.main(["--run-config", str(cfg), "print-layout", "--policy", "student", "--window", "4"])
        out_flag = capsys.readouterr().out
        assert "ref3_body_pos" in out_flag

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        code = cli.main(["--run-config", str(cfg), "print-layout"])
        assert code == 1

    @pytest.mark.parametrize("doc", [{"window": "5"}, {"window": True}, {"rate_hz": "50"},
                                     {"log_level": 3}, {"model_path": 1}])
    def test_wrong_value_type_rejected(self, tmp_path, capsys, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["--run-config", str(cfg), "print-layout"]) == 1
        (key,) = doc
        assert capsys.readouterr().err.startswith(f"error: run config: {key!r}")

    @pytest.mark.parametrize("command, key", [
        ("stream-test", "rate_hz"),
        ("stream-test", "window"),
        ("serve-policy", "rate_hz"),
        ("serve-policy", "window"),
        ("vla-replay", "rate_hz"),
        ("print-layout", "window"),
    ])
    def test_bad_rate_or_window_names_the_config_key(self, tmp_path, capsys, command, key):
        (tmp_path / "run.json").write_text(json.dumps({key: 0}), encoding="utf-8")
        save_chunks([ActionChunk(np.zeros((8, 29)))], tmp_path / "chunks.json")
        argv = {
            "stream-test": ["stream-test", "--packets", "20"],
            "serve-policy": ["serve-policy", "--listen", "127.0.0.1:0", "--duration", "0"],
            "vla-replay": ["vla-replay", "--chunks", str(tmp_path / "chunks.json")],
            "print-layout": ["print-layout"],
        }[command]
        assert cli.main(["--run-config", str(tmp_path / "run.json"), *argv]) == 1
        rule = "must be positive and finite" if key == "rate_hz" else "must be >= 1"
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: run config: {key!r} {rule}, got 0\n")

    @pytest.mark.parametrize("setting, value, key", [
        ("seed", "-1", "seed"),
        ("rate", "-50", "rate_hz"),
        ("window", "0", "window"),
        ("duration", "-1", None),
        ("execute_len", "0", None),
        ("ticks", "0", None),
    ])
    def test_each_rule_names_its_flag_or_key(self, tmp_path, capsys, setting, value, key):
        # one command per rule of the setting table: a bad flag names the
        # flag, and a bad run-config value names the key
        save_chunks([ActionChunk(np.zeros((8, 29)))], tmp_path / "chunks.json")
        flag, rule = {
            "seed": ("--seed", ">= 0"),
            "rate": ("--rate", "positive and finite"),
            "window": ("--window", ">= 1"),
            "duration": ("--duration", "finite and >= 0"),
            "execute_len": ("--execute-len", ">= 1"),
            "ticks": ("--ticks", ">= 1"),
        }[setting]
        argv = {
            "seed": ["stream-test", "--packets", "20"],
            "rate": ["vla-replay", "--chunks", str(tmp_path / "chunks.json")],
            "window": ["print-layout"],
            "duration": ["relay", "--listen", "127.0.0.1:0", "--forward", "127.0.0.1:9"],
            "execute_len": ["vla-replay", "--chunks", str(tmp_path / "chunks.json")],
            "ticks": ["vla-replay", "--chunks", str(tmp_path / "chunks.json")],
        }[setting]
        got = float(value) if setting in ("rate", "duration") else value
        runs = [(argv + [flag, value], f"error: {flag} must be {rule}, got {got}\n")]
        if key is not None:
            (tmp_path / "run.json").write_text(json.dumps({key: int(value)}), encoding="utf-8")
            runs.append((["--run-config", str(tmp_path / "run.json"), *argv],
                         f"error: run config: {key!r} must be {rule}, got {value}\n"))
        for run, message in runs:
            assert cli.main(run) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message)

    def test_int_for_float_and_null_for_default_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"rate_hz": 40, "window": None, "log_level": None}),
                        encoding="utf-8")
        cfg = cli.RunConfig.load(path)
        assert (cfg.rate_hz, cfg.window, cfg.log_level) == (40, cli.RunConfig().window, "WARNING")


# The input matrix: every flag that reads a file, run on a file that is
# missing, a directory, not UTF-8, or malformed JSON. INPUT marks the file
# under test; the other names are valid inputs that `write_valid_inputs`
# writes beside it.
INPUT = "input.json"
RETARGET = ["retarget", "--calibration", "calibration.json", "--mapping", "mapping.txt",
            "--in", "stream.json", "--out", "out.json"]
READERS = {
    "run-config": ["--run-config", INPUT, "print-layout"],
    "model": ["print-layout", "--model", INPUT],
    "retarget-calibration": [INPUT if a == "calibration.json" else a for a in RETARGET],
    "retarget-mapping": [INPUT if a == "mapping.txt" else a for a in RETARGET],
    "retarget-in": [INPUT if a == "stream.json" else a for a in RETARGET],
    "relay-clip": ["relay", "--forward", "127.0.0.1:9", "--clip", INPUT],
    "relay-stdin": ["relay", "--forward", "127.0.0.1:9", "--stdin"],
    "bench-run-manifest": ["bench", "run", "--manifest", INPUT, "--out", "results.json"],
    "bench-run-manifest-entry": ["bench", "run", "--manifest", "entry_manifest.json",
                                 "--out", "results.json"],
    "bench-report-in": ["bench", "report", "--in", INPUT],
    "stats-in": ["stats", "--in", INPUT],
    "recipe-pools": ["recipe", "--pools", INPUT, "--fractions", "a=1", "--total", "1"],
    "vla-replay-chunks": ["vla-replay", "--chunks", INPUT],
}
BAD_INPUTS = {
    "missing": None,
    "directory": None,
    "not-utf8": b'{"name": "\xff\xfe"}',
    "malformed": b"{bad",
}
NOT_APPLICABLE = {
    ("relay-stdin", "missing"), ("relay-stdin", "directory"),
    ("retarget-mapping", "malformed"),  # a two-column table, not JSON
}
# outputs that cannot be written: INPUT is a directory here
WRITERS = {
    "bench-run-out": ["bench", "run", "--manifest", "clip_manifest.json", "--out", INPUT],
    "serve-policy-trace": ["serve-policy", "--listen", "127.0.0.1:0", "--duration", "0",
                           "--trace", INPUT],
}
INPUT_MATRIX = [
    pytest.param(READERS[flag], case, id=f"{flag}-{case}")
    for flag in READERS
    for case in BAD_INPUTS
    if (flag, case) not in NOT_APPLICABLE
] + [pytest.param(argv, "directory", id=f"{flag}-directory") for flag, argv in WRITERS.items()]


def write_valid_inputs(tmp_path, model):
    subject = humanoid_as_subject(constant_velocity_clip(model, 0.9, n_frames=3), 1.0)
    (tmp_path / "calibration.json").write_text(
        json.dumps(subject_frame_to_dict(subject[0])), encoding="utf-8"
    )
    save_subject_stream(subject, tmp_path / "stream.json")
    save_mapping(MARKERS, tmp_path / "mapping.txt")
    save_clip(constant_velocity_clip(model, 0.9, n_frames=5), tmp_path / "clip.json")
    save_manifest([ManifestEntry(path="clip.json")], tmp_path / "clip_manifest.json")
    save_manifest([ManifestEntry(path=INPUT)], tmp_path / "entry_manifest.json")


class TestInputErrors:
    @pytest.mark.parametrize("argv, case", INPUT_MATRIX)
    def test_one_error_line_naming_the_source(self, argv, case, tmp_path, ref_model,
                                             monkeypatch, capsys):
        write_valid_inputs(tmp_path, ref_model)
        content = BAD_INPUTS[case]
        if case == "directory":
            (tmp_path / INPUT).mkdir()
        elif content is not None:
            (tmp_path / INPUT).write_bytes(content)
        stdin = io.TextIOWrapper(io.BytesIO(content or b""), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.chdir(tmp_path)

        def no_episode(*args, **kwargs):  # every case, an unwritable --out too, fails first
            raise AssertionError("an episode ran before the error")

        monkeypatch.setattr(cli.bench_mod, "run_episode", no_episode)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert ("<stdin>" if "--stdin" in argv else INPUT) in err, err

    @pytest.mark.parametrize("argv, doc, message", [
        (READERS["vla-replay-chunks"], 5, "'chunks' list"),
        (READERS["vla-replay-chunks"], {"chunks": 3}, "'chunks' list"),
        (READERS["vla-replay-chunks"], {"chunks": [[0.1, "a"]]}, "chunks[0]"),
        (READERS["vla-replay-chunks"], {"chunks": [[[0.1, 0.2], [0.3]]]}, "chunks[0]"),
        (READERS["recipe-pools"], [1, 2], "pools must map"),
        (READERS["recipe-pools"], {"a": 3}, "pools must map"),
        (READERS["retarget-in"], 5, "'frames' list"),
        (READERS["retarget-in"], {"frames": 3}, "'frames' list"),
        (READERS["run-config"], [1], "run config must be a JSON object"),
        (READERS["bench-report-in"], [1], "expected an object with key 'episodes'"),
    ], ids=["chunks-number", "chunks-not-a-list", "chunk-non-numeric", "chunk-ragged",
            "pools-list", "pool-not-a-list", "stream-number",
            "stream-frames-not-a-list", "run-config-list", "results-list"])
    def test_document_of_the_wrong_shape(self, argv, doc, message, tmp_path, ref_model,
                                         monkeypatch, capsys):
        write_valid_inputs(tmp_path, ref_model)
        (tmp_path / INPUT).write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert INPUT in err and message in err, err
