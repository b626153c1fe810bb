"""Benchmark of omniclone's two user paths: the 50 Hz teleop command path
(mocap -> retarget -> UDP wire -> jitter buffer -> policy tick) and the
tracking-evaluation path (clip load -> tracker -> 18-stratum report), plus
the fault-injected stream and VLA chunk replay.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval-suite --seed 1 --seconds 25 --trace 0

Every run measures all four paths so that every end-to-end metric is
reported on every workload. A run is 34 short rounds; each round runs one
small fixed slice of the other three paths, then the workload's own path
(with its full-size input) for the rest of the round. Timings are on the
wall clock, taken to the host's nominal speed (hostspeed.py). `--trace 1`
wraps every call into the program in a span and reports per-layer metrics
instead. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it stamps
the environment and the failure ratio. The exit code is non-zero when any
output check failed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "omniclone" / "__init__.py").is_file():
    sys.exit(f"perfbench: no omniclone sources under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import omniclone  # noqa: E402
from omniclone.kinematics import load_model  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import paths  # noqa: E402
from spans import NullTracer, Tracer, span_cost_s  # noqa: E402

WORKLOADS = {
    "eval-suite": "eval",
    "teleop-live": "teleop",
    "stream-faults": "stream",
    "vla-replay": "vla",
}
#: a run is this many rounds; each round runs a small slice of every other path, then the workload's own
#: path, so every path's blocks are spread over the whole run
ROUNDS = 34
#: teleop ticks per second of --seconds (open-loop on teleop-live, back to back elsewhere):
#: 25 s gives 30 ticks a round, 1020 samples, so at least 10 lie beyond p99
TELEOP_TICKS_PER_S = 40.8
STREAM_SESSIONS = 48
SETUP_REPEATS = 3
WORK = ROOT / ".perfbench"

#: input sizes; a pair is (the workload's own path, its slice on the other workloads)
SIZES = {
    "clips_per_stratum": (3, 1),
    # frames per clip at 30 Hz, spread evenly over this range: a mean of 90, the
    # canonical clip of scripts/make_benchmark_suite.py
    "clip_frames": (75, 105),
    "operator_frames": 1024,
    "stream_packets": 500,  # per session
    "chunks": (8, 1),
}

#: metric name -> unit, as declared in BENCHMARK.json
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _DECLARED = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

# ---------------------------------------------------------------------------
# set-up: imports, model load, seeded inputs
# ---------------------------------------------------------------------------

def set_up(main: str, seed: int, work: pathlib.Path):
    """Import (in a fresh interpreter), model load and seeded inputs;
    returns them with the wall-clock seconds they took."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import omniclone"], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, timeout=60, check=True,
    )
    model = load_model(pathlib.Path(omniclone.__file__).parent / "data" / "reference_model.json")
    data = {
        "eval": inputs.make_suite(
            model, seed, work / "suite", SIZES["clips_per_stratum"][main != "eval"], SIZES["clip_frames"]
        ),
        "teleop": inputs.make_operator(model, seed, SIZES["operator_frames"]),
        "stream": inputs.make_stream(seed, STREAM_SESSIONS, SIZES["stream_packets"], model.n_key_bodies, model.n_joints),
        "vla": inputs.make_chunks(model, seed, SIZES["chunks"][main != "vla"]),
    }
    return model, data, time.perf_counter() - start


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def make_paths(main: str, model, data, reference, seconds: float, tr) -> dict:
    ticks = max(1, round(TELEOP_TICKS_PER_S * seconds / ROUNDS))
    return {
        "teleop": paths.TeleopPath(data["teleop"], model, tr, realtime=main == "teleop", ticks_per_step=ticks),
        "eval": paths.EvalPath(data["eval"], reference, model, tr),
        "stream": paths.StreamPath(data["stream"], tr),
        "vla": paths.VlaPath(data["vla"], model, tr),
    }


def per_layer(results: dict, tr: Tracer, measured_s: float) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for res in results.values():
        for name, values in res.samples.items():
            samples.setdefault(name, []).extend(values)
        for name, n in res.counts.items():
            counts[name] = counts.get(name, 0) + n
    for span, metric in (
        ("stream.encode_packet", "stream.encode_us"),
        ("stream.decode_packet", "stream.decode_us"),
        ("stream.queue_push", "stream.queue_push_us"),
        ("stream.queue_pop", "stream.queue_pop_us"),
    ):
        samples[metric] = [1e6 * d for d in tr.durations(span)]
    out = {name: statistics.median(v) for name, v in samples.items() if v}
    for name in PER_LAYER:
        if PER_LAYER[name] == "count":
            out[name] = float(counts.get(name, 0))
    out["stream.fresh_over_accepted"] = counts["stream.fresh_pops"] / counts["stream.push_accepted"]
    spans = sum(1 for s in tr.spans if s is not None)
    out["trace.overhead_ratio"] = spans * span_cost_s() / measured_s
    missing = [name for name in PER_LAYER if name not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return {name: out[name] for name in PER_LAYER}


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            load1 = float(fh.read().split()[0])
    except OSError:
        load1 = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_1min": load1,
        "run_seconds": args.seconds,
        "tracing": bool(args.trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment(args)
    main_path = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        host = hostspeed.HOST = hostspeed.HostSpeed()
        setups = []
        for k in range(SETUP_REPEATS):
            host.measure()
            model, data, seconds = set_up(main_path, args.seed, work / f"setup{k}")
            setups.append(host.scale * seconds)
        reference = paths.pd_reference(data["eval"].clips, model)
        # keep the cyclic collector off the inputs the benchmark holds, so its
        # pauses scale with what the program allocates, not with input size
        gc.collect()
        gc.freeze()

        tr = Tracer() if args.trace else NullTracer()
        start = time.perf_counter()
        active = make_paths(main_path, model, data, reference, args.seconds, tr)
        for r in range(ROUNDS):
            for name, path in active.items():
                if name != main_path:
                    path.step()
            round_end = start + args.seconds * (r + 1) / ROUNDS
            active[main_path].step(round_end - time.perf_counter())
        results = {name: path.finish() for name, path in active.items()}
        measured = time.perf_counter() - start
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    failures = [f"{p}: {msg}" for p, r in results.items() for msg in r.failures]
    if args.trace:
        values = per_layer(results, tr, measured)
        units = PER_LAYER
    else:
        values = {name: v for r in results.values() for name, v in r.metrics.items()}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "measured_s": measured,
        "host": host.summary(),
        "latency_samples": results["teleop"].counts["teleop.latency_samples"],
        "ops_failed_ratio": {"value": failed / max(attempted, 1), "unit": "ratio"},
        "failures": failures,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        blocks = {p: r.blocks for p, r in results.items()}
        json.dump({"summary": summary, "result": result, "blocks": blocks, "probe_s": host.probe_s}, fh)
    if args.trace:
        tr.write(out_dir / f"{tag}.spans.jsonl.gz")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
