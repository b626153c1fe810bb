import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain_model
from oracles import hold_pipeline_oracle, reference_encode, sorted_percentile

from omniclone.errors import (
    CorruptionError,
    InputError,
    InsufficientDataError,
    NeverFedError,
    ProtocolError,
    TruncationError,
)
from omniclone.stream import (
    FaultConfig,
    FaultInjector,
    FrameQueue,
    MSG_FRAMES,
    MSG_HEARTBEAT,
    PacketFrame,
    PolicyServer,
    Stamped,
    StreamPacket,
    decide,
    decode_packet,
    echo_latency,
    encode_packet,
    fault_schedule,
    heartbeat,
    measure_latency,
    packet_bytes,
    packets_equal,
    send_clip,
    simulate_stream,
)
from omniclone.stream import net
from omniclone.synthetic import constant_velocity_clip

# frozen from the independent reference encoder: heartbeat {seq=1, ts=1000}
GOLDEN_HEARTBEAT = bytes.fromhex(
    "4f434c310102000001000000e8030000000000000000000000001a5bacf0"
)


def make_packet(rng, seq=1, frame_count=1, k=7, n=29, msg_type=MSG_FRAMES):
    frames = tuple(
        PacketFrame(
            root_lin_vel=rng.normal(size=3).astype(np.float32),
            body_pos=rng.normal(size=(k, 3)).astype(np.float32),
            body_quat=rng.normal(size=(k, 4)).astype(np.float32),
            joint_pos=rng.normal(size=n).astype(np.float32),
        )
        for _ in range(frame_count)
    )
    return StreamPacket(
        msg_type=msg_type,
        seq=seq,
        send_ts_us=int(rng.integers(0, 2**48)),
        frames=frames,
    )


class TestCodec:
    def test_round_trip_single_frame(self, rng):
        packet = make_packet(rng, k=7, n=29)
        assert packets_equal(decode_packet(encode_packet(packet)), packet)

    def test_heartbeat_round_trip(self):
        packet = heartbeat(seq=9, send_ts_us=123456)
        again = decode_packet(encode_packet(packet))
        assert again.msg_type == MSG_HEARTBEAT
        assert again.seq == 9
        assert again.send_ts_us == 123456

    def test_golden_heartbeat_bytes(self):
        assert encode_packet(heartbeat(1, 1000)) == GOLDEN_HEARTBEAT
        packet = decode_packet(GOLDEN_HEARTBEAT)
        assert (packet.seq, packet.send_ts_us, packet.msg_type) == (1, 1000, MSG_HEARTBEAT)

    def test_matches_reference_encoder(self, rng):
        for _ in range(10):
            packet = make_packet(rng, seq=int(rng.integers(0, 2**32)), k=3, n=5)
            frames = [
                {
                    "root_lin_vel": [float(v) for v in f.root_lin_vel],
                    "bodies": [
                        ([float(v) for v in f.body_pos[i]], [float(v) for v in f.body_quat[i]])
                        for i in range(f.n_bodies)
                    ],
                    "joint_pos": [float(v) for v in f.joint_pos],
                }
                for f in packet.frames
            ]
            expected = reference_encode(
                packet.msg_type, packet.flags, packet.seq, packet.send_ts_us, frames
            )
            assert encode_packet(packet) == expected

    def test_payload_corruption_detected(self, rng):
        data = bytearray(encode_packet(make_packet(rng)))
        data[30] ^= 0x01
        with pytest.raises(CorruptionError):
            decode_packet(bytes(data))

    def test_bad_magic(self):
        data = bytearray(GOLDEN_HEARTBEAT)
        data[0] = 0x58
        with pytest.raises(ProtocolError):
            decode_packet(bytes(data))

    def test_bad_version(self):
        data = bytearray(GOLDEN_HEARTBEAT)
        data[4] = 9
        with pytest.raises(ProtocolError):
            decode_packet(bytes(data))

    def test_truncation(self, rng):
        data = encode_packet(make_packet(rng))
        with pytest.raises(TruncationError):
            decode_packet(data[:-3])
        with pytest.raises(TruncationError):
            decode_packet(data[:10])

    def test_size_budget_enforced(self, rng):
        # 5 frames of K=7, n=29 payload exceed 1400 bytes; 4 fit
        assert packet_bytes(4, 7, 29) <= 1400 < packet_bytes(5, 7, 29)
        with pytest.raises(InputError):
            encode_packet(make_packet(rng, frame_count=5))
        encode_packet(make_packet(rng, frame_count=4))

    @settings(max_examples=200, deadline=None)
    @given(
        seq=st.integers(0, 2**32 - 1),
        ts=st.integers(0, 2**64 - 1),
        msg_type=st.integers(0, 2),
        flags=st.integers(0, 2**16 - 1),
        frame_count=st.integers(0, 2),
        k=st.integers(0, 4),
        n=st.integers(0, 8),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_property(self, seq, ts, msg_type, flags, frame_count, k, n, seed):
        rng = np.random.default_rng(seed)
        frames = tuple(
            PacketFrame(
                root_lin_vel=rng.normal(size=3).astype(np.float32),
                body_pos=rng.normal(size=(k, 3)).astype(np.float32),
                body_quat=rng.normal(size=(k, 4)).astype(np.float32),
                joint_pos=rng.normal(size=n).astype(np.float32),
            )
            for _ in range(frame_count)
        )
        packet = StreamPacket(
            msg_type=msg_type, seq=seq, send_ts_us=ts, frames=frames,
            flags=flags, n_bodies=k, n_joints=n,
        )
        assert packets_equal(decode_packet(encode_packet(packet)), packet)


class TestFrameQueue:
    def test_push_pop(self):
        q = FrameQueue(3)
        assert q.push(Stamped(1, "A")) == "accepted"
        frame, held = q.pop()
        assert (frame.data, held) == ("A", False)

    def test_zero_order_hold(self):
        q = FrameQueue(3)
        q.push(Stamped(1, "A"))
        q.pop()
        frame, held = q.pop()
        assert (frame.data, held) == ("A", True)
        assert q.held_count == 1

    def test_pop_before_feed_raises(self):
        q = FrameQueue(2)
        with pytest.raises(NeverFedError):
            q.pop()

    def test_stale_seq_discarded(self):
        q = FrameQueue(3)
        q.push(Stamped(5))
        q.pop()
        assert q.push(Stamped(4)) == "stale"
        assert q.push(Stamped(5)) == "stale"
        assert q.push(Stamped(6)) == "accepted"

    def test_duplicate_buffered_seq_discarded(self):
        q = FrameQueue(3)
        q.push(Stamped(2))
        assert q.push(Stamped(2)) == "stale"
        assert len(q) == 1

    def test_eviction_newest_wins(self):
        q = FrameQueue(2)
        q.push(Stamped(1))
        q.push(Stamped(2))
        q.push(Stamped(3))  # evicts 1
        assert q.pop()[0].seq == 2
        assert q.pop()[0].seq == 3

    def test_reordered_insert_keeps_fifo(self):
        q = FrameQueue(4)
        q.push(Stamped(2))
        q.push(Stamped(1))
        q.push(Stamped(3))
        seqs = [q.pop()[0].seq for _ in range(3)]
        assert seqs == [1, 2, 3]

    def test_drop_schedule_trace(self):
        # feed 1..10 with {3,4} dropped, popping at equal rate:
        # emitted 1,2,2,2,5,...,10 with holds at positions 3 and 4 (1-based)
        q = FrameQueue(5)
        emitted = []
        for seq in range(1, 11):
            if seq not in (3, 4):
                q.push(Stamped(seq))
            frame, held = q.pop()
            emitted.append((frame.seq, held))
        assert [s for s, _ in emitted] == [1, 2, 2, 2, 5, 6, 7, 8, 9, 10]
        assert [i + 1 for i, (_, h) in enumerate(emitted) if h] == [3, 4]


def wait_until(condition, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestRateLoop:
    """The fixed-rate tick loop of PolicyServer."""

    def test_saturated_queue_50hz(self):
        ticks = []
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0, capacity=64,
                              sink=lambda f, h: ticks.append((f.seq, h)))
        for seq in range(1, 101):
            server.queue.push(Stamped(seq))
        server.start()
        time.sleep(1.0)
        server.stop()
        assert 45 <= len(ticks) <= 55  # 50 +- scheduling slop
        assert not any(h for _, h in ticks[: min(len(ticks), 50)])

    def test_prefilled_then_drained(self):
        ticks = []
        server = PolicyServer(("127.0.0.1", 0), rate_hz=200.0, capacity=5,
                              sink=lambda f, h: ticks.append((f.seq, h)))
        for seq in range(1, 6):
            server.queue.push(Stamped(seq))
        server.start()
        wait_until(lambda: server.ticks >= 12)
        server.stop()
        fresh = [s for s, h in ticks[:12] if not h]
        held = [s for s, h in ticks[:12] if h]
        assert fresh == [1, 2, 3, 4, 5]
        assert held == [5] * 7

    def test_datagrams_sent_before_start_tick_in_order_then_hold(self):
        ticks = []
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0,
                              sink=lambda f, h: ticks.append((f.seq, h)))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for seq in (1, 2, 3):
                sock.sendto(frame_datagram(seq), server.addr)
        server.start()
        wait_until(lambda: server.ticks >= 4)
        server.stop()
        assert ticks[:4] == [(1, False), (2, False), (3, False), (3, True)]

    def test_datagram_waiting_at_a_due_tick_is_ingested_before_it(self):
        ticks = []

        def sink(frame, held):
            ticks.append((frame.seq, held))
            if len(ticks) == 1:
                sock.sendto(frame_datagram(2), server.addr)
                time.sleep(0.03)  # overruns the 20 ms slot: the next tick is due at once

        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0, sink=sink)
        server.queue.push(Stamped(1))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            server.start()
            wait_until(lambda: server.ticks >= 2)
            server.stop()
        assert ticks[:2] == [(1, False), (2, False)]

    def test_producer_pause_produces_consecutive_holds(self):
        records = []
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0, capacity=1,
                              sink=lambda f, h: records.append(h)).start()
        seq = 0
        end = time.monotonic() + 0.5
        pause_at = time.monotonic() + 0.15
        paused_until = pause_at + 0.14  # seven 20 ms periods of silence
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            while time.monotonic() < end:
                now = time.monotonic()
                if not pause_at < now < paused_until:
                    seq += 1
                    sock.sendto(frame_datagram(seq), server.addr)
                time.sleep(0.02)
        server.stop()
        best = run = 0
        for h in records:
            run = run + 1 if h else 0
            best = max(best, run)
        assert best >= 4

    def test_overrun_counted_without_skipping(self):
        overruns_before = []

        def slow_sink(frame, held):
            overruns_before.append(server.overruns)
            time.sleep(0.03)  # exceeds the 10 ms period

        server = PolicyServer(("127.0.0.1", 0), rate_hz=100.0, capacity=8, sink=slow_sink)
        for seq in range(1, 30):
            server.queue.push(Stamped(seq))
        server.start()
        wait_until(lambda: len(overruns_before) > 6, timeout=3.0)
        server.stop()
        assert len(overruns_before) > 6
        assert overruns_before[6] >= 4  # counted over the first 6 ticks

    def test_one_thread_while_running_none_when_stopped(self):
        before = set(threading.enumerate())
        server = PolicyServer(("127.0.0.1", 0), rate_hz=100.0)
        server.queue.push(Stamped(1))
        server.start()
        try:
            wait_until(lambda: server.ticks >= 2)
            assert server.ticks >= 2
            assert len(set(threading.enumerate()) - before) == 1
        finally:
            server.stop()
        assert set(threading.enumerate()) - before == set()


class TestFaultInjector:
    def test_zero_config_passthrough_identity(self):
        out = []
        inj = FaultInjector(out.append, FaultConfig(), seed=0)
        payload = b"\x01\x02\x03"
        inj(payload)
        assert out == [payload]

    def test_drop_all(self):
        out = []
        inj = FaultInjector(out.append, FaultConfig(drop_prob=1.0), seed=0)
        for i in range(50):
            inj(bytes([i]))
        assert out == []
        assert inj.dropped == 50

    def test_delivered_count_matches_replayed_generator(self):
        cfg = FaultConfig(drop_prob=0.1)
        out = []
        inj = FaultInjector(out.append, cfg, seed=77)
        for i in range(1000):
            inj(i.to_bytes(2, "little"))
        inj.drain()
        # replay the identical draw protocol
        rng = np.random.default_rng(77)
        expected = 0
        for _ in range(1000):
            if rng.random() < 0.1:
                continue
            rng.uniform(0.0, 0.0)
            rng.random()
            rng.random()
            expected += 1
        assert len(out) == expected
        assert inj.dropped == 1000 - expected

    def test_duplicates_delivered_twice(self):
        out = []
        inj = FaultInjector(out.append, FaultConfig(duplicate_prob=1.0), seed=0)
        inj(b"x")
        inj.drain()
        assert out == [b"x", b"x"]

    def test_decision_determinism(self):
        cfg = FaultConfig(drop_prob=0.3, jitter_ms=(0, 10), reorder_prob=0.2, duplicate_prob=0.1)
        a = [decide(cfg, np.random.default_rng(5)) for _ in range(20)]
        b = [decide(cfg, np.random.default_rng(5)) for _ in range(20)]
        assert a == b


class TestSimulatedPipeline:
    def test_lossless_stream_all_fresh(self):
        trace = simulate_stream(100, fault=FaultConfig(), seed=0)
        assert len(trace.entries) == 100
        assert trace.fresh_seqs == list(range(1, 101))
        assert trace.held_count == 0

    def test_one_frame_per_tick_under_faults(self):
        trace = simulate_stream(
            500, fault=FaultConfig(drop_prob=0.1, jitter_ms=(0, 40)), seed=3
        )
        assert len(trace.entries) == 500
        ticks = [e.tick for e in trace.entries]
        assert ticks == list(range(500))

    def test_fresh_seq_strictly_increasing(self):
        trace = simulate_stream(
            400, fault=FaultConfig(drop_prob=0.2, jitter_ms=(0, 60), duplicate_prob=0.1),
            seed=11,
        )
        fresh = trace.fresh_seqs
        assert all(a < b for a, b in zip(fresh, fresh[1:]))

    def test_matches_hold_oracle_byte_for_byte(self):
        fault = FaultConfig(drop_prob=0.1, jitter_ms=(0, 40), reorder_prob=0.05, duplicate_prob=0.05)
        trace = simulate_stream(300, fault=fault, seed=21)
        arrivals, _, _ = fault_schedule(300, 50.0, fault, seed=21)
        oracle = hold_pipeline_oracle(arrivals, 50.0, 5, 300)
        oracle_csv = "tick,seq,held\n" + "\n".join(
            f"{t},{s},{int(h)}" for t, s, h in oracle
        ) + "\n"
        assert trace.to_csv() == oracle_csv

    def test_identical_seeds_identical_traces(self):
        fault = FaultConfig(drop_prob=0.15, jitter_ms=(0, 30))
        a = simulate_stream(200, fault=fault, seed=9)
        b = simulate_stream(200, fault=fault, seed=9)
        assert a.to_csv() == b.to_csv()
        c = simulate_stream(200, fault=fault, seed=10)
        assert a.to_csv() != c.to_csv()

    def test_all_dropped_empty_trace(self):
        trace = simulate_stream(50, fault=FaultConfig(drop_prob=1.0), seed=0)
        assert trace.entries == ()
        assert trace.dropped == 50

    def test_staleness_bound(self):
        # a fresh frame's age <= capacity/producer_rate + max network delay
        fault = FaultConfig(drop_prob=0.05, jitter_ms=(0, 40))
        trace = simulate_stream(400, fault=fault, seed=13, capacity=5)
        arrivals, _, _ = fault_schedule(400, 50.0, fault, seed=13)
        send_time = {}
        for t_arr, _, seq in arrivals:
            send_time.setdefault(seq, (seq - 1) / 50.0)
        bound = 5 / 50.0 + 0.040 + 1e-9
        for e in trace.entries:
            if not e.held:
                assert e.t - send_time[e.seq] <= bound


def frame_datagram(seq, n_joints=29, n_bodies=7, joint0=0.0):
    """An encoded one-frame packet; the defaults match the bundled model."""
    joints = np.zeros(n_joints)
    joints[0] = joint0
    frame = PacketFrame(np.zeros(3), np.zeros((n_bodies, 3)),
                        np.tile([1.0, 0.0, 0.0, 0.0], (n_bodies, 1)), joints)
    return encode_packet(StreamPacket(msg_type=MSG_FRAMES, seq=seq, send_ts_us=0, frames=(frame,)))


def serve_datagrams(datagrams, model=None):
    """Send datagrams to a live PolicyServer; return it (stopped) and the
    seqs its sink saw once every datagram was handled and two more ticks ran."""
    seqs = []
    server = PolicyServer(
        ("127.0.0.1", 0), rate_hz=50.0, sink=lambda frame, held: seqs.append(frame.seq),
        model=model,
    ).start()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for data in datagrams:
            sock.sendto(data, server.addr)
        deadline = time.monotonic() + 2.0
        while (
            server.received + server.decode_errors < len(datagrams)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        ticks = server.ticks
        while server.ticks < ticks + 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        server.stop()
        sock.close()
    return server, seqs


class TestLiveEndpoints:
    def test_clip_to_server_end_to_end(self, ref_model):
        clip = constant_velocity_clip(ref_model, 0.8, n_frames=25, fps=50.0)
        ticks = []
        server = PolicyServer(
            ("127.0.0.1", 0), rate_hz=50.0, capacity=5,
            sink=lambda frame, held: ticks.append((frame.seq, held)),
        ).start()
        try:
            sent = send_clip(clip, ref_model, server.addr)
            deadline = time.monotonic() + 3.0
            while server.ticks < 20 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            server.stop()
        assert sent == 25
        assert server.received >= 20  # loopback loss should be rare
        assert server.ticks >= 20
        fresh_seqs = [seq for seq, held in ticks if not held]
        assert all(a < b for a, b in zip(fresh_seqs, fresh_seqs[1:]))
        q = server.queue
        assert server.summary_csv().splitlines()[1].split(",")[3:] == [
            str(v) for v in (server.ticks, server.fresh, q.held_count, server.overruns, q.stale_count)
        ]

    def test_non_finite_payload_never_reaches_sink(self):
        server, seqs = serve_datagrams([frame_datagram(1, joint0=np.nan), frame_datagram(2)])
        assert server.decode_errors == 1
        assert server.received == 1
        assert seqs and set(seqs) == {2}

    def test_wrong_joint_count_never_reaches_sink(self, ref_model):
        # the server checks counts against the bundled model by default
        assert (ref_model.n_key_bodies, ref_model.n_joints) == (7, 29)
        server, seqs = serve_datagrams(
            [frame_datagram(1), frame_datagram(2, n_joints=3), frame_datagram(3)]
        )
        assert server.decode_errors == 1
        assert server.received == 2
        assert set(seqs) == {1, 3}

    def test_wrong_body_count_rejected_for_the_given_model(self):
        model = make_chain_model([1.0, 1.0], key_bodies=["root"])
        server, seqs = serve_datagrams(
            [frame_datagram(1, n_joints=2, n_bodies=1), frame_datagram(2, n_joints=2)],
            model=model,
        )
        assert server.decode_errors == 1
        assert seqs and set(seqs) == {1}

    def test_decode_errors_non_fatal(self):
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0).start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.sendto(b"garbage-data", server.addr)
            sock.sendto(encode_packet(heartbeat(1, 5)), server.addr)
            deadline = time.monotonic() + 2.0
            while server.heartbeats < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            server.stop()
            sock.close()
        assert server.decode_errors == 1
        assert server.heartbeats == 1

    def test_heartbeat_echoed(self):
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0).start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(1.0)
        try:
            payload = encode_packet(heartbeat(3, 777))
            sock.sendto(payload, server.addr)
            data, _ = sock.recvfrom(65536)
            assert data == payload
        finally:
            server.stop()
            sock.close()

    def test_stop_before_any_frame_ends_the_loop(self):
        before = set(threading.enumerate())
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0).start()
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 0.5
        assert set(threading.enumerate()) - before == set()


class TestLatency:
    def test_loopback_under_budget(self):
        stats = measure_latency(n_samples=100, rate_hz=500.0)
        assert stats.mean_ms < 80.0  # end-to-end latency budget
        assert stats.received >= 90

    def test_constant_injected_delay(self):
        stats = measure_latency(n_samples=60, rate_hz=200.0, constant_delay_ms=30.0)
        assert abs(stats.mean_ms - 30.0) <= 3.0

    def test_uniform_jitter_p95_order_statistics(self):
        fault = FaultConfig(jitter_ms=(0.0, 40.0))
        seed = 99
        stats = measure_latency(n_samples=400, rate_hz=400.0, fault=fault, seed=seed)
        rng = np.random.default_rng(seed)
        delays = []
        for _ in range(400):
            rng.random()
            delays.append(rng.uniform(0.0, 40.0))
            rng.random()
            rng.random()
        expected = sorted_percentile(delays, 95.0)
        assert stats.p95_ms >= expected - 0.5
        assert stats.p95_ms <= expected + 4.0
        assert 34.0 <= stats.p95_ms <= 41.0

    def test_echo_matches_seq(self, monkeypatch):
        # the echo server answers each heartbeat with the previous seq at
        # once and with the matching seq 30 ms later
        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        server.settimeout(0.05)
        done = threading.Event()

        def serve():
            while not done.is_set():
                try:
                    data, sender = server.recvfrom(65536)
                except socket.timeout:
                    continue
                server.sendto(encode_packet(heartbeat(decode_packet(data).seq - 1, 0)), sender)
                time.sleep(0.03)
                server.sendto(data, sender)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        reported = []
        monkeypatch.setattr(net, "summarize_latencies", lambda lat, sent: reported.extend(lat))
        try:
            echo_latency(server.getsockname(), n_samples=12, rate_hz=100.0)
        finally:
            done.set()
            thread.join(2.0)
            server.close()
        assert not thread.is_alive()
        assert len(reported) == 12
        assert min(reported) >= 15.0  # RTT/2 of the matching echo

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            measure_latency(n_samples=5, rate_hz=200.0)
