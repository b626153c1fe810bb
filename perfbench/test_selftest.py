"""Self-test of the benchmark at tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/test_selftest.py
"""
from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import paths  # noqa: E402
from omniclone.stream import PacketFrame, StreamPacket  # noqa: E402


@pytest.fixture(autouse=True)
def tiny_inputs(monkeypatch):
    for key, value in {
        "clips_per_stratum": (1, 1),
        "clip_frames": (6, 10),
        "operator_frames": 64,
        "stream_packets": 60,
        "chunks": (2, 2),
    }.items():
        monkeypatch.setitem(run.SIZES, key, value)


def _run(capsys, workload: str, trace: int, seed: int = 3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_printed_with_unit(capsys, workload):
    code, summary, result = _run(capsys, workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0, summary["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert summary["ops_failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert summary["env"]["tracing"] is False and summary["env"]["nproc"] >= 1


def test_every_per_layer_metric_printed_with_unit(capsys):
    code, summary, result = _run(capsys, "eval-suite", trace=1)
    assert code == 0 and result["correct"], summary["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert summary["env"]["tracing"] is True


def test_corrupted_decoded_frame_is_a_failed_operation(capsys, monkeypatch):
    corrupted = []

    def decode_and_corrupt_once(data):
        packet = paths.decode_packet(data)
        if corrupted:
            return packet
        corrupted.append(packet.seq)
        f = packet.frames[0]
        bad = PacketFrame(f.root_lin_vel, f.body_pos, f.body_quat, f.joint_pos + 1.0)
        return StreamPacket(packet.msg_type, packet.seq, packet.send_ts_us, (bad,))

    class CorruptingTeleop(paths.TeleopPath):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.decode = decode_and_corrupt_once

    monkeypatch.setattr(paths, "TeleopPath", CorruptingTeleop)
    code, summary, result = _run(capsys, "teleop-live", trace=0)
    assert len(corrupted) == 1
    assert code != 0 and result["correct"] is False and result["failed"] == 1
    assert summary["ops_failed_ratio"]["value"] > 0
    assert any("decoded wire frame differs" in f for f in summary["failures"])
