import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def fake_run(seed, value, failed=0):
    env = {"python": "3.11", "numpy": "2.0", "nproc": 2, "loadavg_1min": float(seed), "tracing": False}
    result = {"attempted": 10, "failed": failed, "metrics": {"m": {"value": value, "unit": "frames/s"}}}
    traced = {"attempted": 10, "failed": 0, "metrics": {"layer_us": {"value": 2 * value, "unit": "us"}}}
    return seed, {"env": env}, result, traced


def test_summarise_takes_medians_per_workload():
    doc = bench_record.summarise(
        {"eval-suite": [fake_run(3, 5.0), fake_run(4, 1.0, failed=2), fake_run(5, 3.0)],
         "vla-replay": [fake_run(3, 7.0)]}
    )
    assert doc["env"] == {"python": "3.11", "numpy": "2.0", "nproc": 2}
    ev = doc["workloads"]["eval-suite"]
    assert ev["seeds"] == [3, 4, 5] and ev["loadavg_1min"] == [3.0, 4.0, 5.0]
    assert (ev["attempted"], ev["failed"]) == (60, 2)
    assert ev["end_to_end"] == {"m": {"median": 3.0, "unit": "frames/s", "runs": [5.0, 1.0, 3.0]}}
    assert ev["per_layer"]["layer_us"]["median"] == 6.0
    assert doc["workloads"]["vla-replay"]["end_to_end"]["m"]["median"] == 7.0
