"""Unified command surface.

Subcommands: retarget, relay, serve-policy, stream-test, bench run,
bench report, stats, recipe, vla-replay, print-layout. Configuration
precedence: built-in defaults < --run-config file < explicit flags.
OMNICLONE_LOG controls verbosity. All file outputs are deterministic for
a fixed --seed and newline-terminated.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import pathlib
import sys
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import bench as bench_mod
from . import motion, retarget, simtrack, synthetic, vlabridge
from .errors import OmniCloneError
from .kinematics import HumanoidModel, RigidPose, load_model, load_reference_model
from .stream import (
    DEFAULT_WINDOW,
    FaultConfig,
    PolicyServer,
    Stamped,
    fault_schedule,
    measure_latency,
    parse_addr,
    send_clip,
    simulate_stream,
)

log = logging.getLogger("omniclone")


@dataclass
class RunConfig:
    """Shared run parameters loadable from a JSON file."""

    model_path: str | None = None
    window: int = DEFAULT_WINDOW
    rate_hz: float = 50.0
    deviation_m: float = 0.5
    fall_root_z_m: float = 0.3
    root_drift_m: float = 1.0
    seed: int = 0
    log_level: str = "WARNING"

    @staticmethod
    def load(path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        cfg = RunConfig()
        for key, value in doc.items():
            if not hasattr(cfg, key):
                raise OmniCloneError(f"run config: unknown key {key!r}")
            setattr(cfg, key, value)
        return cfg


def _resolve(flag_value, config_value, default):
    if flag_value is not None:
        return flag_value
    if config_value is not None:
        return config_value
    return default


def _load_model_arg(path: str | None) -> HumanoidModel:
    return load_model(path) if path else load_reference_model()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        pathlib.Path(path).write_text(text, encoding="utf-8")


def _thresholds(args, cfg: RunConfig) -> bench_mod.FailureThresholds:
    return bench_mod.FailureThresholds(
        deviation_m=_resolve(args.deviation, cfg.deviation_m, 0.5),
        fall_root_z_m=_resolve(args.fall, cfg.fall_root_z_m, 0.3),
        root_drift_m=_resolve(args.drift, cfg.root_drift_m, 1.0),
    )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_retarget(args, cfg: RunConfig) -> int:
    model = _load_model_arg(args.model or cfg.model_path)
    mapping = retarget.load_mapping(args.mapping)
    cal_frame = retarget.load_subject_frame(args.calibration)
    cal = retarget.calibrate(cal_frame, model, mapping)
    stream_frames = retarget.load_subject_stream(args.infile)
    frames, held = retarget.retarget_stream(stream_frames, cal, model)
    fps = args.fps
    clip = retarget.retargeted_clip(frames, model, fps=fps, name=args.name)
    motion.save_clip(clip, args.out)
    log.info("retargeted %d frames (scale %.6f, %d held)", len(frames), cal.scale, len(held))
    print(f"scale,{cal.scale!r}\nframes,{len(frames)}\nheld,{len(held)}")
    return 0


def cmd_relay(args, cfg: RunConfig) -> int:
    model = _load_model_arg(args.model or cfg.model_path)
    forward = parse_addr(args.forward)
    if args.stdin:
        clip = motion.clip_from_dict(json.load(sys.stdin))
    elif args.clip:
        clip = motion.load_clip(args.clip)
    else:
        if not args.listen:
            raise OmniCloneError("relay needs --clip, --stdin, or --listen")
        return _relay_passthrough(args, forward)
    sent = send_clip(clip, model, forward, rate_hz=args.rate)
    print(f"sent,{sent}")
    return 0


def _relay_passthrough(args, forward) -> int:
    import socket

    listen = parse_addr(args.listen)
    deadline = time.monotonic() + args.duration if args.duration else None
    forwarded = 0
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
        sock.bind(listen)
        sock.settimeout(0.1)
        try:
            while deadline is None or time.monotonic() < deadline:
                try:
                    data, _ = sock.recvfrom(65536)
                except socket.timeout:
                    continue
                out.sendto(data, forward)
                forwarded += 1
        except KeyboardInterrupt:
            pass
    print(f"forwarded,{forwarded}")
    return 0


class _LiveTrackerSink:
    """Applies an oracle tracker to the popped command stream and, given a
    trace path, writes one JSONL line per tick as the tick happens."""

    def __init__(self, spec: simtrack.TrackerSpec, trace_path: str | None):
        if spec.mode == "pd":
            raise OmniCloneError(
                "serve-policy supports the perfect|oracle, lag:k and noise:sigma trackers, not pd"
            )
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        # the lagged command is the oldest of the last lag + 1 joint vectors
        self.history: deque[np.ndarray] = deque(maxlen=spec.lag + 1)
        self.trace_file = open(trace_path, "w", encoding="utf-8", buffering=1) if trace_path else None
        self.tick = 0

    def __call__(self, frame: Stamped, held: bool) -> None:
        if frame.data:
            self.history.append(np.asarray(frame.data[0].joint_pos, dtype=float))
        command = None
        if self.history:
            command = self.history[0]
            if self.spec.mode == "noise":
                command = command + self.rng.normal(0.0, self.spec.noise_std, command.shape)
        if self.trace_file is not None:
            record = {
                "tick": self.tick,
                "seq": frame.seq,
                "held": held,
                "command": None if command is None else np.round(command, 6).tolist(),
            }
            self.trace_file.write(json.dumps(record) + "\n")
        self.tick += 1

    def close(self) -> None:
        if self.trace_file is not None:
            self.trace_file.close()


def cmd_serve_policy(args, cfg: RunConfig) -> int:
    model = _load_model_arg(args.model or cfg.model_path)
    spec = simtrack.parse_tracker(args.tracker)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    sink = _LiveTrackerSink(spec, args.trace)
    try:
        server = PolicyServer(
            listen=parse_addr(args.listen),
            rate_hz=_resolve(args.rate, cfg.rate_hz, 50.0),
            capacity=_resolve(args.window, cfg.window, DEFAULT_WINDOW),
            sink=sink,
            model=model,
        ).start()
        log.info("policy server on %s", server.addr)
        try:
            if args.duration:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    finally:
        sink.close()
    sys.stdout.write(server.summary_csv())
    return 0


def cmd_stream_test(args, cfg: RunConfig) -> int:
    lo, _, hi = args.jitter.partition(":")
    fault = FaultConfig(
        drop_prob=args.drop,
        jitter_ms=(float(lo), float(hi or lo)),
        reorder_prob=args.reorder,
        duplicate_prob=args.duplicate,
    )
    seed = _resolve(args.seed, cfg.seed, 0)
    if args.live:
        stats = measure_latency(
            n_samples=args.samples, rate_hz=args.rate, fault=fault, seed=seed
        )
        print("mean_ms,p95_ms,sent,received")
        print(f"{stats.mean_ms:.3f},{stats.p95_ms:.3f},{stats.sent},{stats.received}")
        return 0
    trace = simulate_stream(
        n_packets=args.packets,
        producer_hz=args.rate,
        consumer_hz=args.rate,
        capacity=_resolve(args.window, cfg.window, DEFAULT_WINDOW),
        fault=fault,
        seed=seed,
    )
    arrivals, _, _ = fault_schedule(args.packets, args.rate, fault, seed)
    delays_ms = [1000.0 * (t - (seq - 1) / args.rate) for t, _, seq in arrivals]
    mean_ms = sum(delays_ms) / len(delays_ms) if delays_ms else 0.0
    p95_ms = motion.percentile(delays_ms, 95.0) if delays_ms else 0.0
    print(
        "ticks,fresh,held,max_consecutive_held,sent,delivered,dropped,"
        "mean_delay_ms,p95_delay_ms"
    )
    print(
        f"{len(trace.entries)},{len(trace.fresh_seqs)},{trace.held_count},"
        f"{trace.max_consecutive_held()},{trace.sent},{trace.delivered},{trace.dropped},"
        f"{mean_ms:.3f},{p95_ms:.3f}"
    )
    if args.out:
        _write_text(args.out, trace.to_csv())
    return 0


def cmd_bench_run(args, cfg: RunConfig) -> int:
    model = _load_model_arg(args.model or cfg.model_path)
    tracker = simtrack.parse_tracker(args.tracker)
    thresholds = _thresholds(args, cfg)
    load_s = episodes_s = 0.0
    start = time.perf_counter()
    entries = bench_mod.load_manifest(args.manifest)
    base = pathlib.Path(args.manifest).parent
    results = []
    for entry in entries:
        path = pathlib.Path(entry.path)
        if not path.is_absolute():
            path = base / path
        clip = motion.load_clip(path)
        if entry.category or entry.level:
            clip = clip.replace(
                category=entry.category or clip.category, level=entry.level or clip.level
            )
        loaded = time.perf_counter()
        load_s += loaded - start
        results.append(
            bench_mod.run_episode(tracker, clip, model, thresholds, alignment=args.alignment)
        )
        start = time.perf_counter()
        episodes_s += start - loaded
    _write_text(args.out, bench_mod.results_to_json(results, method=args.method))
    log.info(
        "bench run: %d episodes; %.3f s loading clips, %.3f s running episodes,"
        " %.3f s writing results",
        len(results), load_s, episodes_s, time.perf_counter() - start,
    )
    covered = {(r.category, r.level) for r in results}
    missing = [s for s in motion.BENCH_STRATA if s not in covered]
    if missing:
        print(f"warning: {len(missing)} empty strata: {missing}", file=sys.stderr)
        return 1
    return 0


def cmd_bench_report(args, cfg: RunConfig) -> int:
    text = pathlib.Path(args.infile).read_text(encoding="utf-8")
    results, method = bench_mod.results_from_json(text)
    report = bench_mod.aggregate(
        results, method=args.method or method, include_failed=args.include_failed
    )
    _write_text(args.out, bench_mod.emit_report(report, args.format))
    return 0


def _collect_clip_paths(spec: str) -> list[pathlib.Path]:
    p = pathlib.Path(spec)
    if p.is_dir():
        return sorted(p.glob("*.json"))
    return [pathlib.Path(part) for part in spec.split(",")]


def cmd_stats(args, cfg: RunConfig) -> int:
    if args.group_by != "category,level":
        raise OmniCloneError("only --group-by category,level is supported")
    model = _load_model_arg(args.model or cfg.model_path)
    paths = _collect_clip_paths(args.infile)
    clips = [motion.load_clip(p) for p in paths]
    rows = motion.clip_stats(clips, model)
    if args.format == "csv":
        _write_text(args.out, motion.stats_to_csv(rows))
    elif args.format == "json":
        _write_text(args.out, motion.stats_to_json(rows))
    else:
        parts = [
            motion.format_stats_markdown(rows, metric)
            for metric in ("speed", "root_height", "hand_height")
        ]
        _write_text(args.out, "\n".join(parts))
    return 0


def cmd_recipe(args, cfg: RunConfig) -> int:
    with open(args.pools, "r", encoding="utf-8") as fh:
        pools = json.load(fh)
    fractions = {}
    for part in args.fractions.split(","):
        label, _, value = part.partition("=")
        if not value:
            raise OmniCloneError(f"fraction {part!r} must be label=value")
        fractions[label.strip()] = float(value)
    manifest = motion.compose_recipe(
        pools, fractions, args.total, seed=_resolve(args.seed, cfg.seed, 0)
    )
    text = (
        motion.recipe_to_csv(manifest)
        if args.format == "csv"
        else motion.recipe_to_json(manifest)
    )
    _write_text(args.out, text)
    return 0


def cmd_vla_replay(args, cfg: RunConfig) -> int:
    model = _load_model_arg(args.model or cfg.model_path)
    chunks = vlabridge.load_chunks(args.chunks)
    for chunk in chunks:
        if chunk.actions.shape[1] != model.n_joints:
            raise OmniCloneError(
                f"chunk has {chunk.actions.shape[1]} joints, model has {model.n_joints}"
            )
    ticks = args.ticks or len(chunks) * args.execute_len
    planner = vlabridge.scripted_planner(chunks)
    trace = vlabridge.chunk_executor(planner, ticks=ticks, execute_len=args.execute_len)
    root = RigidPose(np.array([0.0, 0.0, synthetic.DEFAULT_ROOT_Z]), np.array([1.0, 0, 0, 0]))
    rate = _resolve(args.rate, cfg.rate_hz, 50.0)
    frames = [
        vlabridge.joints_to_command(trace.actions[t], model, root, t=t / rate)
        for t in range(trace.actions.shape[0])
    ]
    clip = retarget.retargeted_clip(frames, model, fps=rate, name="vla-replay")
    if args.out:
        motion.save_clip(clip, args.out)
    if args.forward:
        send_clip(clip, model, parse_addr(args.forward), rate_hz=rate)
    print(f"ticks,{trace.actions.shape[0]}\nrefreshes,{len(trace.refresh_ticks)}")
    return 0


def cmd_print_layout(args, cfg: RunConfig) -> int:
    model = _load_model_arg(args.model or cfg.model_path)
    window = _resolve(args.window, cfg.window, DEFAULT_WINDOW)
    zero = synthetic.static_clip(model, n_frames=max(2, window), fps=30.0)
    zero = motion.derive_joint_velocities(zero)
    state = simtrack.state_from_frame(zero.frames[0], model)
    sections = []
    if args.policy in ("teacher", "both"):
        obs = simtrack.build_teacher_obs(state, zero.frames[0], model)
        sections.append("# teacher\n" + obs.layout_csv())
    if args.policy in ("student", "both"):
        obs = simtrack.build_student_obs(state, zero.frames[:window], model, window)
        sections.append("# student\n" + obs.layout_csv())
    _write_text(args.out, "".join(sections))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omniclone",
        description="Whole-body teleoperation infrastructure and tracking benchmark.",
    )
    parser.add_argument("--run-config", help="JSON file with shared run parameters")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("retarget", help="calibrate and rescale a subject stream")
    p.add_argument("--calibration", required=True, help="subject calibration frame (JSON)")
    p.add_argument("--mapping", required=True, help="marker-to-key-body name table")
    p.add_argument("--in", dest="infile", required=True, help="subject stream (JSON)")
    p.add_argument("--out", required=True, help="output clip file")
    p.add_argument("--model", help="humanoid model file (default: bundled)")
    p.add_argument("--fps", type=float, default=30.0, help="output clip rate")
    p.add_argument("--name", default="retargeted", help="output clip name")
    p.set_defaults(func=cmd_retarget)

    p = sub.add_parser("relay", help="stream a clip (or forward datagrams) over UDP")
    p.add_argument("--listen", help="bind address host:port for passthrough mode")
    p.add_argument("--forward", required=True, help="destination host:port")
    p.add_argument("--clip", help="clip file to stream")
    p.add_argument("--stdin", action="store_true", help="read the clip JSON from stdin")
    p.add_argument("--model", help="humanoid model file")
    p.add_argument("--rate", type=float, default=None, help="send rate (default: clip fps)")
    p.add_argument("--duration", type=float, default=None, help="passthrough run time (s)")
    p.set_defaults(func=cmd_relay)

    p = sub.add_parser("serve-policy", help="receive a command stream and track it")
    p.add_argument("--listen", required=True, help="bind address host:port")
    p.add_argument("--tracker", default="oracle", help="oracle|lag:k|noise:sigma")
    p.add_argument("--rate", type=float, default=None, help="consumer rate Hz (default 50)")
    p.add_argument("--window", type=int, default=None, help="jitter-buffer depth f")
    p.add_argument("--duration", type=float, default=None, help="run time (s); default: until interrupt")
    p.add_argument("--trace", help="write per-tick JSONL trace here")
    p.add_argument("--seed", type=int, default=None, help="tracker noise seed")
    p.add_argument("--model", help="humanoid model file (default: bundled)")
    p.set_defaults(func=cmd_serve_policy)

    p = sub.add_parser("stream-test", help="fault-injection and latency diagnostics")
    p.add_argument("--packets", type=int, default=1000, help="packets to simulate")
    p.add_argument("--rate", type=float, default=50.0, help="producer/consumer rate Hz")
    p.add_argument("--drop", type=float, default=0.0, help="drop probability")
    p.add_argument("--jitter", default="0:0", help="uniform delay range ms, LO:HI")
    p.add_argument("--reorder", type=float, default=0.0, help="reorder probability")
    p.add_argument("--duplicate", type=float, default=0.0, help="duplicate probability")
    p.add_argument("--seed", type=int, default=None, help="fault seed")
    p.add_argument("--window", type=int, default=None, help="jitter-buffer depth f")
    p.add_argument("--live", action="store_true", help="measure real loopback latency instead of simulating")
    p.add_argument("--samples", type=int, default=200, help="live-mode probe packets")
    p.add_argument("--out", help="write the emitted trace CSV here (virtual mode)")
    p.set_defaults(func=cmd_stream_test)

    bench_parser = sub.add_parser("bench", help="benchmark running and reporting")
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    p = bench_sub.add_parser("run", help="evaluate a tracker over a clip manifest")
    p.add_argument("--manifest", required=True, help="clip manifest JSON")
    p.add_argument("--tracker", default="perfect", help="perfect|lag:k|noise:sigma|pd:kp,kd")
    p.add_argument("--out", required=True, help="results JSON path")
    p.add_argument("--model", help="humanoid model file")
    p.add_argument("--method", default="", help="method label for reports")
    p.add_argument("--deviation", type=float, default=None, help="key-body deviation threshold m")
    p.add_argument("--fall", type=float, default=None, help="fall root height threshold m")
    p.add_argument("--drift", type=float, default=None, help="planar drift threshold m")
    p.add_argument("--alignment", choices=("global", "root_relative"), default="global")
    p.set_defaults(func=cmd_bench_run)

    p = bench_sub.add_parser("report", help="aggregate results into a report")
    p.add_argument("--in", dest="infile", required=True, help="results JSON from bench run")
    p.add_argument("--format", choices=("csv", "json", "markdown", "radar-csv"), default="markdown")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--method", default="", help="override the method label")
    p.add_argument("--include-failed", action="store_true", help="average failed episodes into MPJPE")
    p.set_defaults(func=cmd_bench_report)

    p = sub.add_parser("stats", help="corpus statistics over clip files")
    p.add_argument("--in", dest="infile", required=True, help="clip directory or comma-separated files")
    p.add_argument("--group-by", default="category,level", help="grouping (category,level)")
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    p.add_argument("--model", help="humanoid model file")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("recipe", help="compose a training-data recipe")
    p.add_argument("--pools", required=True, help="JSON map label -> clip name list")
    p.add_argument("--fractions", required=True, help="label=frac,label=frac,... summing to 1")
    p.add_argument("--total", type=int, required=True, help="total clips to select")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_recipe)

    p = sub.add_parser("vla-replay", help="execute recorded action chunks receding-horizon")
    p.add_argument("--chunks", required=True, help="recorded chunk file (JSON)")
    p.add_argument("--execute-len", type=int, default=vlabridge.DEFAULT_EXECUTE_LEN,
                   help="actions executed per chunk before re-planning")
    p.add_argument("--rate", type=float, default=None, help="command rate Hz (default 50)")
    p.add_argument("--forward", help="stream commands to host:port")
    p.add_argument("--ticks", type=int, default=None, help="total ticks (default: chunks * execute-len)")
    p.add_argument("--model", help="humanoid model file")
    p.add_argument("--out", help="also write the command stream as a clip file")
    p.set_defaults(func=cmd_vla_replay)

    p = sub.add_parser("print-layout", help="dump observation layout tables as CSV")
    p.add_argument("--policy", choices=("teacher", "student", "both"), default="both")
    p.add_argument("--model", help="humanoid model file")
    p.add_argument("--window", type=int, default=None, help="student future-window length f")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_print_layout)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.run_config) if args.run_config else RunConfig()
        logging.basicConfig(
            level=os.environ.get("OMNICLONE_LOG", cfg.log_level).upper()
        )
        return args.func(args, cfg)
    except OmniCloneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
