import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))
import bench_ab  # noqa: E402


def fake_result(rate, p99, failed=0):
    return {"attempted": 10, "failed": failed, "metrics": {
        "packets_per_s": {"value": rate, "unit": "datagrams/s"},
        "cmd_latency_p99_ms": {"value": p99, "unit": "ms"},
    }}


def test_compare_counts_wins_in_the_better_direction():
    better = {"packets_per_s": "higher", "cmd_latency_p99_ms": "lower"}
    parent = [fake_result(r, 1.0) for r in (100, 110, 90, 100, 105)]
    change = [fake_result(r, p) for r, p in ((150, 1.2), (140, 0.9), (160, 1.0), (99, 1.3), (155, 1.1))]
    rows = {r["metric"]: r for r in bench_ab.compare(list(zip(parent, change)), better)}
    rate = rows["packets_per_s"]
    assert rate["parent"] == (100, 100, 105) and rate["change"] == (140, 150, 155)
    assert rate["ratio"] == 1.5 and (rate["wins"], rate["pairs"]) == (4, 5)
    assert not rate["gain"]  # 4/5 pairs is under nine tenths
    p99 = rows["cmd_latency_p99_ms"]
    assert p99["wins"] == 1  # the 1.0 tie counts for neither side
    assert p99["ratio"] == 1.1 and not p99["gain"]
    rows = bench_ab.compare([(fake_result(100, 1.0), fake_result(120, 0.5))] * 10, better)
    assert all(r["gain"] for r in rows)


def test_main_alternates_sides_and_reports_failures(monkeypatch, capsys, tmp_path):
    calls = []

    def run_once(workload, seed, seconds, trace, root):
        calls.append((root == tmp_path.resolve(), seed))
        side_failed = int(root == bench_ab.ROOT and seed == 22)
        return {}, fake_result(200.0 if root == bench_ab.ROOT else 100.0, 1.0, side_failed)

    monkeypatch.setattr(bench_ab.bench_record, "run_once", run_once)
    code = bench_ab.main([str(tmp_path), "--workload", "stream-faults", "--pairs", "3"])
    assert calls == [(True, 21), (False, 21), (False, 22), (True, 22), (True, 23), (False, 23)]
    assert code == 1
    out = capsys.readouterr().out
    assert "failed: parent 0, change 1" in out
    line = next(ln for ln in out.splitlines() if ln.startswith("packets_per_s"))
    assert "2.000" in line and "3/3" in line and line.endswith("yes")


@pytest.mark.parametrize("parent, change, expected", [
    ([100, 100, 100], [70, 70, 70], "worse"),  # median 30% below a 25% bound
    ([60, 100, 140], [90, 95, 100], "unresolved"),  # parent spread 40% of its median
    ([60, 100, 140], [150, 160, 170], "ok"),  # as wide, but every change run wins
    ([99, 100, 101], [80, 80, 80], "ok"),  # 20% worse, within the bound
])
def test_verdict_against_the_bound(parent, change, expected):
    better = {"packets_per_s": "higher", "cmd_latency_p99_ms": "lower"}
    pairs = [(fake_result(p, 1.0), fake_result(c, 1.0)) for p, c in zip(parent, change)]
    rows = {r["metric"]: r for r in bench_ab.compare(pairs, better, {"packets_per_s": 0.25})}
    assert rows["packets_per_s"]["verdict"] == expected
    assert rows["cmd_latency_p99_ms"]["verdict"] == "-"  # no bound given, as for a per-layer metric
    line = bench_ab.format_rows(list(rows.values())).splitlines()[1]
    assert line.split()[-2] == expected


def test_verdict_of_a_lower_is_better_metric():
    better = {"packets_per_s": "higher", "cmd_latency_p99_ms": "lower"}
    bounds = {"packets_per_s": 0.25, "cmd_latency_p99_ms": 0.25}
    pairs = [(fake_result(100, 1.0), fake_result(100, p99)) for p99 in (1.3, 1.3, 1.3)]
    rows = {r["metric"]: r["verdict"] for r in bench_ab.compare(pairs, better, bounds)}
    assert rows == {"packets_per_s": "ok", "cmd_latency_p99_ms": "worse"}
