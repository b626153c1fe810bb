"""The four measured paths: tracking evaluation, the teleop command tick,
the fault-injected stream, and VLA chunk replay.

Each path calls only the program's public functions, times its own work
in short blocks, checks the program's outputs and reports through a
PathResult. A run interleaves the paths in rounds: step() does the path's
share of one round, finish() closes the path and returns its result.

Under a traced run every call goes through `tracer.wrap`, and functions
that call other public functions are called again on the same input as
their own spans (shadow calls, outside the timed region), so self time can
be derived without instrumenting the program.
"""
from __future__ import annotations

import socket
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from omniclone.bench import aggregate, emit_report, load_manifest, parse_report_json, run_episode
from omniclone.errors import CorruptionError, ProtocolError, TruncationError
from omniclone.kinematics import HumanoidModel, RigidPose, forward_kinematics_arrays
from omniclone.motion import Frame, derive_body_kinematics, load_clip
from omniclone.retarget import retarget_frame
from omniclone.simtrack import build_student_obs, parse_tracker, state_from_frame, track_clip
from omniclone.stream import (
    MSG_FRAMES,
    PUSH_STALE,
    FrameQueue,
    Stamped,
    StreamPacket,
    decode_packet,
    encode_packet,
    fault_schedule,
    measure_latency,
    now_us,
    packet_frame_from_motion,
    simulate_stream,
)
from omniclone.stream import net as stream_net
from omniclone.vlabridge import chunk_executor, joints_to_command, scripted_planner

import hostspeed
from inputs import STREAM_CAPACITY, STREAM_FAULT, STREAM_HZ, EvalInputs, StreamSession, TeleopInputs

clock = time.perf_counter  # wall clock: every timing, schedule and due time

TRACKERS = (("perfect", "perfect"), ("pd", "pd:400,40"))
PD_GAINS = (400.0, 40.0)
MPJPE_TOL_MM = 1e-6  # pd report vs the reference: SR exact, MPJPE within this
TELEOP_HZ = 50.0
WARMUP_TICKS = 10
CHUNK_TICKS = 10  # closed-loop ticks per timed block
WINDOW = 5
EXECUTE_LEN = 8
SHADOW_EVERY = 8  # traced runs repeat single-configuration FK on every 8th tick or command
#: the open loop times the host-speed probe before a tick only when this much of its slot is left
PROBE_SLACK_S = 0.008


@dataclass
class PathResult:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counts
    samples: dict[str, list[float]] = field(default_factory=dict)  # per-layer samples (traced run)
    #: timed blocks as (work done: frames, ticks, datagrams or commands;
    #: wall-clock seconds; the host-speed scale measured for the block)
    blocks: list[tuple[int, float, float]] = field(default_factory=list)

    def timed(self, work: int, seconds: float, scale: float | None = None) -> None:
        self.blocks.append((work, seconds, hostspeed.HOST.scale if scale is None else scale))

    @property
    def throughput(self) -> float:
        """Work per second over all blocks, at the host's nominal speed."""
        return sum(w for w, _, _ in self.blocks) / sum(s * k for _, s, k in self.blocks)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def _units(budget_s: float | None):
    """Yield while another unit of work fits in the budget, and at least
    once. No budget means exactly one unit."""
    start = clock()
    n = 0
    while n < 1 or budget_s is not None and (clock() - start) * (n + 1) / n <= budget_s:
        yield n
        n += 1


def _shadow(tr, name: str, fn, *args):
    """Call fn again as its own span (traced run only); return (result, duration)."""
    out = tr.wrap(name, fn)(*args)
    _, start, end, _, _ = tr.spans[-1]
    return out, end - start


# ---------------------------------------------------------------------------
# eval: manifest -> load_clip -> run_episode -> aggregate -> emit_report
# ---------------------------------------------------------------------------

def pd_reference(clips, model: HumanoidModel) -> dict[tuple[str, str], tuple[float, float | None]]:
    """Per-stratum (SR %, MPJPE mm) of the pd tracker, computed here from the
    in-memory clips: the same semi-implicit double integrator, batched FK,
    world-frame key-body error and first-failure cut-off."""
    kp, kd = PD_GAINS
    idx = model.key_body_index
    episodes: dict[tuple[str, str], list[tuple[bool, float]]] = {}
    for clip in clips:
        dt = 1.0 / clip.fps
        targets = clip.joint_pos_array()
        q, v = targets[0].copy(), np.zeros(targets.shape[1])
        joints = np.empty_like(targets)
        for t, target in enumerate(targets):
            v = v + dt * (kp * (target - q) - kd * v)
            q = q + dt * v
            joints[t] = q
        root_pos, root_quat = clip.root_pos_array(), clip.root_quat_array()
        pred = forward_kinematics_arrays(model, joints, root_pos, root_quat)[0][:, idx]
        ref = clip.body_pos_array()
        if ref is None:
            ref = forward_kinematics_arrays(model, targets, root_pos, root_quat)[0][:, idx]
        err = np.linalg.norm(pred - ref, axis=-1)
        bad = np.flatnonzero(np.any(err > 0.5, axis=1))
        evaluated = int(bad[0]) + 1 if bad.size else len(targets)
        mpjpe = float(np.mean(1000.0 * err.mean(axis=1)[:evaluated]))
        episodes.setdefault((clip.category, clip.level), []).append((not bad.size, mpjpe))
    out = {}
    for key, eps in episodes.items():
        ok = [m for s, m in eps if s]
        out[key] = (100.0 * len(ok) / len(eps), float(np.mean(np.sort(ok))) if ok else None)
    return out


class EvalPath:
    """`bench run` for each tracker, over and over. The trackers' passes
    advance in lockstep, one clip each per block, so a block is one clip
    through `load_clip` and `run_episode` under every tracker, and a pass's
    manifest load and its aggregate and report fall in its first and last
    block. frames/s is over all blocks."""

    def __init__(self, inp: EvalInputs, reference, model: HumanoidModel, tr):
        self.inp, self.reference, self.model, self.tr = inp, reference, model, tr
        self.res = PathResult()
        self.specs = [(method, parse_tracker(text)) for method, text in TRACKERS]
        self.f_manifest = tr.wrap("bench.load_manifest", load_manifest)
        self.f_load = tr.wrap("motion.load_clip", load_clip)
        self.f_episode = tr.wrap("bench.run_episode", run_episode)
        self.f_aggregate = tr.wrap("bench.aggregate", aggregate)
        self.f_emit = tr.wrap("bench.emit_report", emit_report)
        self.passes = [self._bench_runs(method, spec) for method, spec in self.specs]
        self.passes_done = 0
        self.mid_pass = False

    def _bench_runs(self, method, spec):
        """One tracker's `bench run` passes, yielding after each clip: its
        frame count, and after a pass's last clip (report, clips, results,
        run_episode seconds per clip), else None."""
        tr, res = self.tr, self.res
        while True:
            entries = self.f_manifest(self.inp.manifest)
            clips, results, episode_s = [], [], []
            for i, entry in enumerate(entries):
                tr.ctx = f"{method}:{i}"
                clip = self.f_load(self.inp.manifest.parent / entry.path)
                clips.append(clip)
                span = len(tr.spans) if tr.enabled else None
                try:
                    results.append(self.f_episode(spec, clip, self.model))
                except Exception as exc:  # an episode that raised is a failed operation
                    res.check(False, f"{method} {entry.path}: {type(exc).__name__}: {exc}")
                if span is not None:
                    _, start, end, _, _ = tr.spans[span]
                    episode_s.append(end - start)
                if i + 1 < len(entries):
                    yield len(clip.frames), None
            tr.ctx = method
            report = self.f_emit(self.f_aggregate(results, method=method), "json")
            yield len(clip.frames), (report, clips, results, episode_s)

    def step(self, budget_s: float | None = None) -> None:
        res = self.res
        for _ in _units(budget_s):
            hostspeed.HOST.measure()
            start = clock()
            outs = [next(p) for p in self.passes]
            res.timed(sum(frames for frames, _ in outs), clock() - start)
            self.mid_pass = outs[0][1] is None
            if self.mid_pass:
                continue
            self.passes_done += 1
            for (method, spec), (_, (report, clips, results, episode_s)) in zip(self.specs, outs):
                res.attempted += len(results)
                res.count("bench.episodes_failed", sum(not r.success for r in results))
                self._check_report(method, report)
                if self.tr.enabled:
                    self._shadows(method, spec, clips, episode_s)

    def _check_report(self, method: str, text: str) -> None:
        res = self.res
        report = parse_report_json(text)
        rows = {(r.category, r.level): r for r in report.rows}
        res.check(len(rows) == 18 and not report.partial, f"{method}: report covers {len(rows)} of 18 strata")
        for key, row in rows.items():
            if method == "perfect":
                ok = row.sr_percent == 100.0 and row.mpjpe_mm is not None and abs(row.mpjpe_mm) <= 1e-9
            else:
                sr, mp = self.reference.get(key, (None, None))
                ok = row.sr_percent == sr and (
                    mp is None and row.mpjpe_mm is None
                    or mp is not None and row.mpjpe_mm is not None and abs(row.mpjpe_mm - mp) <= MPJPE_TOL_MM
                )
            res.check(ok, f"{method} {key}: SR {row.sr_percent} MPJPE {row.mpjpe_mm}")

    def _shadows(self, method, spec, clips, episode_s) -> None:
        tr, res, model = self.tr, self.res, self.model
        for i, clip in enumerate(clips):
            tr.ctx = f"{method}:{i}"
            derived, derive = _shadow(tr, "motion.derive_body_kinematics", derive_body_kinematics, clip, model)
            _, track = _shadow(tr, f"simtrack.track_clip.{method}", track_clip, spec, derived, model)
            res.sample(f"simtrack.track_clip_ms.{method}", 1e3 * track)
            res.sample("bench.run_episode_self_ms", 1e3 * (episode_s[i] - derive - track))
            _, fk = _shadow(
                tr, "kinematics.fk_batch", forward_kinematics_arrays,
                model, clip.joint_pos_array(), clip.root_pos_array(), clip.root_quat_array(),
            )
            res.sample("kinematics.fk_batch_us_per_frame", 1e6 * fk / len(clip.frames))

    def finish(self) -> PathResult:
        # end on a whole pass, so every clip's episode reaches a checked report
        while self.mid_pass or not self.passes_done:
            self.step()
        tr, res = self.tr, self.res
        res.metrics["eval_frames_per_s"] = res.throughput
        if tr.enabled:
            res.sample("motion.load_share", tr.total("motion.load_clip") / sum(s for _, s, _ in res.blocks))
            res.samples["motion.load_clip_ms"] = [1e3 * d for d in tr.durations("motion.load_clip")]
            res.samples["bench.report_ms"] = [
                1e3 * (a + b) for a, b in zip(tr.durations("bench.aggregate"), tr.durations("bench.emit_report"))
            ]
        return res


# ---------------------------------------------------------------------------
# teleop: retarget -> wire -> loopback UDP -> decode -> queue -> state -> obs -> command
# ---------------------------------------------------------------------------

class TeleopPath:
    """The operator's command tick over a real loopback UDP socket pair.

    realtime: each step runs an open-loop segment on a 50 Hz schedule. A
    sample's latency runs from its due time to the end of its tick, so a
    tick that overruns its slot delays the next one and that delay shows;
    it is recorded at the host's nominal speed, like every timing.
    The generator spins to each due time instead of sleeping, so the host's
    wake-up delay stays out. Closed-loop blocks of CHUNK_TICKS ticks fill the
    rest of the step's budget, at least one.

    Otherwise each step runs its ticks back to back and the 50 Hz open-loop
    latency is derived from their service times with the single-server
    queue recursion start_i = max(due_i, end_{i-1}). In both modes the
    closed-loop rate is back-to-back ticks per second.
    """

    def __init__(self, inp: TeleopInputs, model: HumanoidModel, tr, realtime: bool, ticks_per_step: int):
        self.inp, self.model, self.tr = inp, model, tr
        self.realtime, self.ticks_per_step = realtime, ticks_per_step
        self.res = PathResult()
        self.latency: list[float] = []  # at the host's nominal speed
        self.late: list[float] = []
        self.rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.rx.bind(("127.0.0.1", 0))
        self.rx.settimeout(1.0)
        self.addr = self.rx.getsockname()
        self.queue = FrameQueue(WINDOW)
        self.prev: Frame | None = None
        self.command = np.zeros(model.n_joints)
        self.window: deque[Frame] = deque(maxlen=WINDOW)
        self.i = 0
        self.retarget = tr.wrap("retarget.retarget_frame", retarget_frame)
        self.to_wire = tr.wrap("stream.packet_frame_from_motion", packet_frame_from_motion)
        self.encode = tr.wrap("stream.encode_packet", encode_packet)
        self.loopback = tr.wrap("stream.loopback", self._loopback)
        self.decode = tr.wrap("stream.decode_packet", decode_packet)
        self.push = tr.wrap("stream.queue_push", self.queue.push)
        self.pop = tr.wrap("stream.queue_pop", self.queue.pop)
        self.state = tr.wrap("simtrack.state_from_frame", state_from_frame)
        self.obs = tr.wrap("simtrack.build_student_obs", build_student_obs)
        self.tick = tr.wrap("teleop.tick", self._tick)
        for _ in range(WARMUP_TICKS):
            self._checked_tick()

    def _loopback(self, data: bytes) -> bytes:
        self.tx.sendto(data, self.addr)
        return self.rx.recvfrom(2048)[0]

    def _tick(self):
        inp, model = self.inp, self.model
        self.i += 1
        self.tr.ctx = self.i
        raw = inp.frames[(self.i - 1) % len(inp.frames)]
        t = self.i / TELEOP_HZ
        frame, held = self.retarget(raw, inp.cal, model, previous=self.prev)
        self.prev = frame
        packet = StreamPacket(MSG_FRAMES, self.i, now_us(), (self.to_wire(frame, model),))
        decoded = self.decode(self.loopback(self.encode(packet)))
        self.push(Stamped(self.i, decoded.frames[0]))
        wire = self.pop()[0].data
        ref = Frame(
            t=t, root=inp.ref_root, root_lin_vel=wire.root_lin_vel, root_ang_vel=np.zeros(3),
            joint_pos=wire.joint_pos, body_pos=wire.body_pos, body_quat=wire.body_quat,
        )
        if not self.window:
            self.window.extend([ref] * WINDOW)
        self.window.append(ref)
        current = Frame(
            t=t, root=inp.ref_root, root_lin_vel=np.zeros(3), root_ang_vel=np.zeros(3),
            joint_pos=self.command,
        )
        state = self.state(current, model, last_action=self.command)
        obs = self.obs(state, list(self.window), model)
        self.command = ref.joint_pos  # the oracle policy commands the reference joints
        return self.command, obs, frame, held, decoded.frames[0]

    def _check(self, out) -> None:
        command, obs, frame, held, wire = out
        res = self.res
        res.count("retarget.held_frames", int(held))
        res.check(
            command is not None and bool(np.all(np.isfinite(command))) and bool(np.all(np.isfinite(obs.values))),
            f"tick {self.i}: missing or non-finite command",
        )
        expected = (frame.root_lin_vel, frame.body_pos, frame.body_quat, frame.joint_pos)
        got = (wire.root_lin_vel, wire.body_pos, wire.body_quat, wire.joint_pos)
        res.check(
            all(np.array_equal(g, e.astype(np.float32)) for g, e in zip(got, expected)),
            f"tick {self.i}: decoded wire frame differs from the float32 retargeted frame",
        )
        if self.tr.enabled and self.i % SHADOW_EVERY == 0:
            root = self.inp.ref_root
            _, d = _shadow(
                self.tr, "kinematics.fk_single", forward_kinematics_arrays,
                self.model, self.command, root.position, root.orientation,
            )
            res.sample("kinematics.fk_single_us", 1e6 * d)

    def _checked_tick(self) -> tuple[float, float]:
        """Time the host-speed probe, then run and check one tick; return the
        tick's wall-clock time and that time at the host's nominal speed. A
        probe per tick, not per block: the host's speed can change within a
        block, and the p99 latency lies in the ticks where it did."""
        hostspeed.HOST.measure()
        start = clock()
        out = self.tick()
        end = clock()
        self._check(out)
        return end - start, hostspeed.HOST.scale * (end - start)

    def step(self, budget_s: float | None = None) -> None:
        period = 1.0 / TELEOP_HZ
        if self.realtime:
            t0 = clock() + period
            for k in range(self.ticks_per_step):
                due = t0 + k * period
                if due - clock() > PROBE_SLACK_S:
                    hostspeed.HOST.measure()
                while clock() < due:
                    pass
                start = clock()
                out = self.tick()
                self.late.append(start - due)
                self.latency.append(hostspeed.HOST.scale * (clock() - due))
                self._check(out)
            budget_s = None if budget_s is None else budget_s - (clock() - t0 + period)
            for _ in _units(budget_s):
                self._closed_chunk()
        else:
            service = []
            for _ in range(-(-self.ticks_per_step // CHUNK_TICKS)):
                service.extend(self._closed_chunk())
            free = 0.0  # when the single server is next idle, relative to the first due time
            for k, s in enumerate(service[: self.ticks_per_step]):
                start = max(k * period, free)
                free = start + s
                self.latency.append(free - k * period)
                self.late.append(start - k * period)

    def _closed_chunk(self) -> list[float]:
        """Run one timed block of ticks; return their service times at the
        host's nominal speed."""
        raw, service = zip(*(self._checked_tick() for _ in range(CHUNK_TICKS)))
        self.res.timed(CHUNK_TICKS, sum(raw), sum(service) / sum(raw))
        return list(service)

    def finish(self) -> PathResult:
        self.rx.close()
        self.tx.close()
        res, tr = self.res, self.tr
        lat_ms = 1e3 * np.asarray(self.latency)
        res.metrics["cmd_latency_p50_ms"] = float(np.percentile(lat_ms, 50))
        res.metrics["cmd_latency_p99_ms"] = float(np.percentile(lat_ms, 99))
        res.metrics["sustainable_rate_hz"] = res.throughput
        res.counts["teleop.latency_samples"] = len(lat_ms)
        res.sample("loadgen.late_p99_ms", float(np.percentile(1e3 * np.asarray(self.late), 99)))
        if tr.enabled:
            for span, metric in (
                ("retarget.retarget_frame", "retarget.frame_us"),
                ("simtrack.state_from_frame", "simtrack.state_from_frame_us"),
                ("simtrack.build_student_obs", "simtrack.student_obs_us"),
                ("stream.loopback", "stream.loopback_us"),
            ):
                res.samples[metric] = [1e6 * d for d in tr.durations(span)]
            oneway = _oneway_latencies(tr)
            res.sample("stream.loopback_oneway_p50_ms", float(np.percentile(oneway, 50)))
            res.sample("stream.loopback_oneway_p99_ms", float(np.percentile(oneway, 99)))
        return res


def _oneway_latencies(tr, samples: int = 1100, rate_hz: float = 1000.0) -> list[float]:
    """Per-sample one-way loopback latencies (ms) from `measure_latency`,
    which itself reports only mean and p95: its summarize step is
    intercepted for the length of the call."""
    captured: list[float] = []
    summarize = stream_net.summarize_latencies

    def capture(latencies_ms, sent):
        captured.extend(latencies_ms)
        return summarize(latencies_ms, sent)

    stream_net.summarize_latencies = capture
    try:
        tr.wrap("stream.measure_latency", measure_latency)(samples, rate_hz=rate_hz)
    finally:
        stream_net.summarize_latencies = summarize
    return captured


# ---------------------------------------------------------------------------
# stream: encode -> fault_schedule -> decode -> FrameQueue -> 50 Hz virtual ticks
# ---------------------------------------------------------------------------

class StreamPath:
    """A block replays one session; packets/s is over all blocks.

    held_share and max_held_run come from the first pass over all sessions,
    so they depend only on the seed.
    """

    def __init__(self, sessions: list[StreamSession], tr):
        self.sessions, self.tr = sessions, tr
        self.res = PathResult()
        self.next = 0
        self.first_pass: list[list[tuple[int, int, bool]]] = []
        self.expected: dict[int, list[tuple[int, int, bool]]] = {}
        self.f_encode = tr.wrap("stream.encode_packet", encode_packet)
        self.f_decode = tr.wrap("stream.decode_packet", decode_packet)
        self.f_schedule = tr.wrap("stream.fault_schedule", fault_schedule)
        self.f_simulate = tr.wrap("stream.simulate_stream", simulate_stream)

    def _replay(self, session: StreamSession):
        """Sender, lossy network, receiver and 50 Hz consumer in virtual time."""
        res, n = self.res, len(session.packets)
        queue = FrameQueue(STREAM_CAPACITY)
        f_push = self.tr.wrap("stream.queue_push", queue.push)
        f_pop = self.tr.wrap("stream.queue_pop", queue.pop)
        f_decode = self.f_decode
        damaged = dict(session.damaged)  # each damaged copy follows the first intact copy
        trace, bad = [], []
        accepted = stale = 0
        wire = [self.f_encode(p) for p in session.packets]
        arrivals, _, _ = self.f_schedule(n, STREAM_HZ, STREAM_FAULT, session.fault_seed)
        cursor, n_arrivals = 0, len(arrivals)
        t_first = arrivals[0][0]
        for j in range(n):
            t_tick = t_first + j / STREAM_HZ
            while cursor < n_arrivals and arrivals[cursor][0] <= t_tick:
                seq = arrivals[cursor][2]
                cursor += 1
                try:
                    packet = f_decode(wire[seq - 1])
                except ProtocolError as exc:
                    bad.append(f"intact datagram {seq} rejected: {exc}")
                else:
                    if f_push(Stamped(seq, packet)) == PUSH_STALE:
                        stale += 1
                    else:
                        accepted += 1
                copy = damaged.pop(seq, None)
                if copy is not None:
                    try:
                        f_decode(copy[1])
                        bad.append(f"damaged datagram {seq} ({copy[0]}) accepted")
                    except TruncationError:
                        res.count("stream.decode_rejected.truncation")
                    except CorruptionError:
                        res.count("stream.decode_rejected.crc")
                    except ProtocolError:
                        res.count("stream.decode_rejected.other")
            frame, held = f_pop()
            trace.append((j, frame.seq, held))
        decoded = cursor + len(session.damaged) - len(damaged)
        return trace, bad, decoded, accepted, stale

    def step(self, budget_s: float | None = None) -> None:
        res = self.res
        for _ in _units(budget_s):
            s, session = self.next, self.sessions[self.next]
            self.next = (s + 1) % len(self.sessions)
            hostspeed.HOST.measure()
            start = clock()
            trace, bad, decoded, accepted, stale = self._replay(session)
            res.timed(len(session.packets), clock() - start)
            res.attempted += decoded - len(bad)
            for what in bad:
                res.check(False, what)
            res.check(trace == self._expected(s), f"session {s}: trace differs from simulate_stream")
            if len(self.first_pass) < len(self.sessions):
                self.first_pass.append(trace)
            res.count("stream.push_stale", stale)
            res.count("stream.push_accepted", accepted)
            res.count("stream.fresh_pops", sum(not h for _, _, h in trace))

    def _expected(self, s: int) -> list[tuple[int, int, bool]]:
        if s not in self.expected:
            session, n = self.sessions[s], len(self.sessions[s].packets)
            start = clock()
            ref = self.f_simulate(n, STREAM_HZ, STREAM_HZ, STREAM_CAPACITY, STREAM_FAULT, session.fault_seed, n)
            if self.tr.enabled:
                self.res.sample("stream.simulate_ticks_per_s", n / (clock() - start))
            self.expected[s] = [(e.tick, e.seq, e.held) for e in ref.entries]
        return self.expected[s]

    def finish(self) -> PathResult:
        while len(self.first_pass) < len(self.sessions):
            self.step()
        res = self.res
        held = [h for trace in self.first_pass for _, _, h in trace]
        longest = []
        for trace in self.first_pass:
            run = best = 0
            for _, _, h in trace:
                run = run + 1 if h else 0
                best = max(best, run)
            longest.append(best)
        res.metrics["packets_per_s"] = res.throughput
        res.metrics["held_share"] = sum(held) / len(held)
        res.metrics["max_held_run"] = float(np.mean(longest))
        if self.tr.enabled:
            n = len(self.sessions[0].packets)
            res.samples["stream.fault_schedule_us_per_packet"] = [
                1e6 * d / n for d in self.tr.durations("stream.fault_schedule")
            ]
        return res


# ---------------------------------------------------------------------------
# vla: chunk_executor -> joints_to_command -> encode_packet
# ---------------------------------------------------------------------------

class VlaPath:
    """A block executes every recorded chunk once; commands/s is over all blocks."""

    def __init__(self, chunks, model: HumanoidModel, tr):
        self.chunks, self.model, self.tr = chunks, model, tr
        self.res = PathResult()
        self.ticks = len(chunks) * EXECUTE_LEN
        self.expected = np.concatenate([c.actions[:EXECUTE_LEN] for c in chunks])
        self.root = RigidPose(np.array([0.0, 0.0, 0.75]), np.array([1.0, 0.0, 0.0, 0.0]))
        self.f_exec = tr.wrap("vlabridge.chunk_executor", chunk_executor)
        self.f_command = tr.wrap("vlabridge.joints_to_command", joints_to_command)
        self.f_wire = tr.wrap("stream.packet_frame_from_motion", packet_frame_from_motion)
        self.f_encode = tr.wrap("stream.encode_packet", encode_packet)

    def step(self, budget_s: float | None = None) -> None:
        res, tr, model, root, ticks = self.res, self.tr, self.model, self.root, self.ticks
        for _ in _units(budget_s):
            replay = scripted_planner(self.chunks)
            calls = [0]

            def planner(state):
                calls[0] += 1
                return replay(state)

            hostspeed.HOST.measure()
            start = clock()
            trace = self.f_exec(planner, ticks, execute_len=EXECUTE_LEN)
            for t in range(ticks):
                tr.ctx = t
                frame = self.f_command(trace.actions[t], model, root, t / TELEOP_HZ)
                self.f_encode(StreamPacket(MSG_FRAMES, t + 1, t * 20_000, (self.f_wire(frame, model),)))
            res.timed(ticks, clock() - start)
            right = np.all(trace.actions == self.expected, axis=1)
            for t in range(ticks):
                res.check(bool(right[t]), f"tick {t}: action is not chunk {t // EXECUTE_LEN} step {t % EXECUTE_LEN}")
            res.check(calls[0] == -(-ticks // EXECUTE_LEN), f"{calls[0]} planner calls for {ticks} ticks")
            res.count("vlabridge.planner_calls", calls[0])
            if tr.enabled:
                for t in range(0, ticks, SHADOW_EVERY):
                    _, d = _shadow(
                        tr, "kinematics.fk_single", forward_kinematics_arrays,
                        model, trace.actions[t], root.position, root.orientation,
                    )
                    res.sample("kinematics.fk_single_us", 1e6 * d)

    def finish(self) -> PathResult:
        res, tr = self.res, self.tr
        res.metrics["vla_cmds_per_s"] = res.throughput
        if tr.enabled:
            res.samples["vlabridge.chunk_executor_us_per_tick"] = [
                1e6 * d / self.ticks for d in tr.durations("vlabridge.chunk_executor")
            ]
            res.samples["vlabridge.joints_to_command_us"] = [1e6 * d for d in tr.durations("vlabridge.joints_to_command")]
        return res
