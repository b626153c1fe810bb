import importlib.util
import pathlib

import pytest

from omniclone.bench import load_manifest
from omniclone.motion import BENCH_STRATA, load_clip

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_benchmark_suite.py"
spec = importlib.util.spec_from_file_location("make_benchmark_suite", SCRIPT)
make_benchmark_suite = importlib.util.module_from_spec(spec)
spec.loader.exec_module(make_benchmark_suite)


def test_writes_one_clip_per_stratum(tmp_path, capsys):
    assert make_benchmark_suite.main([str(tmp_path), "1", "10"]) == 0
    assert "wrote 18 clips" in capsys.readouterr().out
    entries = load_manifest(tmp_path / "manifest.json")
    assert [(e.category, e.level) for e in entries] == list(BENCH_STRATA)
    for e in entries:
        clip = load_clip(tmp_path / e.path)
        assert (clip.category, clip.level, len(clip.t)) == (e.category, e.level, 10)


@pytest.mark.parametrize("argv", [["1", "0"], ["abc"], ["0", "90"]], ids=["no-frames", "not-a-number", "no-clips"])
def test_refuses_counts_that_are_not_positive_integers(tmp_path, capsys, argv):
    out_dir = tmp_path / "suite"
    assert make_benchmark_suite.main([str(out_dir), *argv]) == 2
    assert capsys.readouterr().err == make_benchmark_suite.USAGE + "\n"
    assert not out_dir.exists()
