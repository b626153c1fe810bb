"""Run the benchmark for some workloads and seeds and record the medians.

Each (workload, seed) is two `perfbench/run.py` runs in subprocesses, one
untraced for the end-to-end metrics and one traced for the per-layer ones,
at the run length BENCHMARK.json sets. BENCH_<n>.json gets, per workload,
the median of every metric over its seeds (with each run's value and the
operation counts), the environment block of the runs and a digest of the
`src/` tree that was measured. A run that fails an output check counts
in "failed" and makes the exit code 1; a run that prints no result stops
the script.

Usage: python3 scripts/bench_record.py N [--workloads a,b] [--seeds 3,4,5]
"""
import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: float, trace: int,
             root: pathlib.Path = ROOT) -> tuple[dict, dict]:
    """One benchmark run of the checkout at root: its summary line and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def src_digest() -> str:
    """sha256 over the paths and bytes of every file under src/."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def medians(results: list[dict]) -> dict:
    """Each metric's median over the results of one workload's runs."""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        out[name] = {"median": statistics.median(values), "unit": first["unit"], "runs": values}
    return out


def summarise(runs: dict[str, list[tuple[int, dict, dict, dict]]]) -> dict:
    """Per workload, over its (seed, summary, result, traced result) runs:
    the medians of the end-to-end and of the per-layer metrics, and the
    operation counts of both. env is the first run's, minus the load
    average, which is kept per run."""
    first_env = next(iter(runs.values()))[0][1]["env"]
    env = {k: v for k, v in first_env.items() if k not in ("loadavg_1min", "tracing")}
    workloads = {}
    for workload, seeded in runs.items():
        results = [r for _, _, result, traced in seeded for r in (result, traced)]
        workloads[workload] = {
            "seeds": [seed for seed, *_ in seeded],
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "loadavg_1min": [summary["env"]["loadavg_1min"] for _, summary, _, _ in seeded],
            "end_to_end": medians([result for _, _, result, _ in seeded]),
            "per_layer": medians([traced for *_, traced in seeded]),
        }
    return {"env": env, "workloads": workloads}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="3,4,5")
    args = parser.parse_args(argv)
    seconds = declared["run_seconds"]
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in map(int, args.seeds.split(",")):
            summary, result = run_once(workload, seed, seconds, trace=0)
            _, traced = run_once(workload, seed, seconds, trace=1)
            runs[workload].append((seed, summary, result, traced))
            print(f"{workload} seed {seed}: {result['failed'] + traced['failed']} failed", file=sys.stderr)
    doc = {"src_sha256": src_digest(), "command": declared["command"], "run_seconds": seconds,
           **summarise(runs)}
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
