"""Run alternating benchmark pairs of a parent checkout and this one.

Each pair runs `perfbench/run.py` once on each side, with the pair's seed
and the run length BENCHMARK.json sets, through bench_record.run_once; the
side that runs first alternates from pair to pair. For every metric of the
runs (the end-to-end ones, or the per-layer ones with --trace 1) it prints
each side's median and quartiles, the ratio of the medians (change over
parent), the pairs the change won in the metric's better direction (ties
count for neither), and whether a gain may be claimed: the change wins at
least nine tenths of the pairs and the medians differ, in the better
direction, by more than the distance between the parent's quartiles.
Each end-to-end metric also gets a regression verdict against its bound in
BENCHMARK.json: `worse` when the change's median is worse than the
parent's by more than the bound, `unresolved` when the parent's spread
(upper minus lower quartile) exceeds the bound times its median and not
every change run beats every parent run, and `ok` otherwise. Per-layer
metrics, which have no bound, show `-`. A run that fails an output check
makes the exit code 1.

Usage: python3 scripts/bench_ab.py PARENT_DIR --workload W --pairs N
           [--first-seed 21] [--trace 0|1]
"""
import argparse
import json
import pathlib
import statistics
import sys

import bench_record

ROOT = bench_record.ROOT


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], sign: float, bound: float | None) -> str:
    """worse, unresolved or ok for a metric with a bound (a fraction of the
    parent's median); - for one without. sign is 1.0 when higher is better."""
    if bound is None:
        return "-"
    q1, parent_median, q3 = quartiles(parent)
    margin = bound * abs(parent_median)
    if sign * (quartiles(change)[1] - parent_median) < -margin:
        return "worse"
    every_run_wins = all(sign * (c - p) > 0 for c in change for p in parent)
    if q3 - q1 > margin and not every_run_wins:
        return "unresolved"
    return "ok"


def compare(pairs: list[tuple[dict, dict]], better: dict[str, str],
            bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric over (parent result, change result) pairs; bounds
    holds the end-to-end metrics' regression bounds."""
    bounds = bounds or {}
    rows = []
    for name, first in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        direction = better.get(name, "higher")
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, parent_median, q3 = quartiles(parent)
        change_q = quartiles(change)
        rows.append({
            "metric": name,
            "unit": first["unit"],
            "better": direction,
            "parent": (q1, parent_median, q3),
            "change": change_q,
            "ratio": change_q[1] / parent_median if parent_median else float("nan"),
            "wins": wins,
            "pairs": len(pairs),
            "verdict": verdict(parent, change, sign, bounds.get(name)),
            "gain": wins >= 0.9 * len(pairs) and sign * (change_q[1] - parent_median) > q3 - q1,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':46s} {'parent q1/median/q3':>26s} {'change q1/median/q3':>26s} {'ratio':>7s} wins  {'verdict':10s} gain"]
    for r in rows:
        sides = ["/".join(f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}" for v in r[side])
                 for side in ("parent", "change")]
        lines.append(
            f"{r['metric'] + ' (' + r['unit'] + ', ' + r['better'] + ')':46s} {sides[0]:>26s} "
            f"{sides[1]:>26s} {r['ratio']:7.3f} {r['wins']:2d}/{r['pairs']:<2d} {r['verdict']:10s} {'yes' if r['gain'] else 'no'}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=21, help="pair i runs seed first-seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    pairs, failed = [], {"parent": 0, "change": 0}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            _, results[side] = bench_record.run_once(args.workload, seed, seconds, args.trace, root=sides[side])
            failed[side] += results[side]["failed"]
        pairs.append((results["parent"], results["change"]))
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): failed "
              f"parent {results['parent']['failed']}, change {results['change']['failed']}", file=sys.stderr)
    print(f"{args.workload}, {args.pairs} pairs, trace {args.trace}, {seconds} s runs; "
          f"failed: parent {failed['parent']}, change {failed['change']}")
    print(format_rows(compare(pairs, better, bounds)))
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
