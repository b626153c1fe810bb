import gc
import itertools
import re
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain_model
from oracles import (
    decoded_frames_canonical,
    eager_decode_frames,
    hold_pipeline_oracle,
    packets_equal,
    per_packet_fault_schedule,
    reference_encode,
    sorted_percentile,
)

from omniclone.errors import (
    ConfigError,
    CorruptionError,
    InputError,
    InsufficientDataError,
    NeverFedError,
    ProtocolError,
    TruncationError,
)
from omniclone.stream import (
    MAX_DATAGRAM,
    FaultConfig,
    FrameQueue,
    MSG_FRAMES,
    MSG_HEARTBEAT,
    PacketFrame,
    PolicyServer,
    Stamped,
    StreamPacket,
    decode_packet,
    echo_latency,
    encode_packet,
    fault_schedule,
    heartbeat,
    measure_latency,
    packet_bytes,
    packet_frame_from_motion,
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


def oversize_datagram(frame_count, k=0, n=0, seq=1):
    """A well-formed datagram of finite frames, CRC included, that only the
    size budget rejects."""
    frame = {
        "root_lin_vel": [0.0, 0.0, 0.0],
        "bodies": [([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])] * k,
        "joint_pos": [0.0] * n,
    }
    return reference_encode(MSG_FRAMES, 0, seq, 0, [frame] * frame_count)


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

    def test_every_covered_bit_flip_detected(self, rng):
        # the CRC covers msg_type, flags, seq, timestamp, payload and itself;
        # magic, version and the counts fail their own checks first
        data = encode_packet(make_packet(rng, k=3, n=5))
        for at in [*range(5, 20), *range(26, len(data))]:
            for bit in range(8):
                bad = bytearray(data)
                bad[at] ^= 1 << bit
                with pytest.raises(CorruptionError):
                    decode_packet(bytes(bad))

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
        decoded = decode_packet(encode_packet(packet))
        assert packets_equal(decoded, packet)
        assert decoded_frames_canonical(decoded)

    @pytest.mark.parametrize("k", [0, 7])
    @pytest.mark.parametrize("frame_count", [1, 2, 3, 4])
    def test_frames_match_eager_decode(self, rng, frame_count, k):
        data = encode_packet(make_packet(rng, frame_count=frame_count, k=k))
        packet = decode_packet(data)
        assert len(packet.frames) == frame_count
        for got, want in zip(packet.frames, eager_decode_frames(data), strict=True):
            for name in ("root_lin_vel", "body_pos", "body_quat", "joint_pos"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.flags.c_contiguous and a.flags.writeable == b.flags.writeable, name
                assert a.tobytes() == b.tobytes(), name
        assert decoded_frames_canonical(packet)

    def test_each_frame_built_once(self, rng):
        packet = decode_packet(encode_packet(make_packet(rng, frame_count=3)))
        for i in range(3):
            assert packet.frames[i] is packet.frames[i]
        assert all(a is b for a, b in zip(packet.frames, packet.frames[:], strict=True))

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                             ids=["bytearray", "memoryview"])
    def test_decode_never_shares_the_callers_buffer(self, rng, wrap):
        data = encode_packet(make_packet(rng, frame_count=2, k=3, n=5))
        buf = wrap(data)
        read = decode_packet(buf)
        read.frames[0]
        unread = decode_packet(buf)
        buf[:] = bytes(len(data))
        for packet in (read, unread):
            for got, want in zip(packet.frames, eager_decode_frames(data), strict=True):
                for name in ("root_lin_vel", "body_pos", "body_quat", "joint_pos"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
                assert not got.root_lin_vel.flags.writeable
                assert not got.joint_pos.flags.writeable

    def test_len_and_bool_build_no_frame(self, rng, monkeypatch):
        data = encode_packet(make_packet(rng, frame_count=4))

        def refuse(*args, **kwargs):
            raise AssertionError("a frame was built")

        monkeypatch.setattr(np, "frombuffer", refuse)
        packet = decode_packet(data)
        assert len(packet.frames) == 4
        assert packet.frames

    def test_unknown_msg_type_rejected(self):
        # a well-formed heartbeat layout, CRC included, of msg_type 9
        with pytest.raises(ProtocolError, match="unknown msg_type 9"):
            decode_packet(reference_encode(9, 0, 1, 1000, []))

    @pytest.mark.parametrize("build, message", [
        (lambda f: replace(f, root_lin_vel=np.zeros(4)), "root_lin_vel must be a 3-vector"),
        (lambda f: replace(f, body_quat=f.body_quat[:-1]), "body_pos/body_quat shapes inconsistent"),
        (lambda f: replace(f, joint_pos=f.joint_pos[None]), "joint_pos must be a vector"),
        (lambda f: StreamPacket(MSG_FRAMES, 1, 0, (f, replace(f, joint_pos=f.joint_pos[:-1]))),
         "frames disagree on body/joint counts"),
        (lambda f: StreamPacket(MSG_FRAMES, 2**32, 0, (f,)), "seq out of uint32 range"),
        (lambda f: StreamPacket(MSG_FRAMES, 1, 2**64, (f,)), "send_ts_us out of uint64 range"),
        (lambda f: StreamPacket(9, 1, 0, (f,)), r"msg_type must be one of \(0, 1, 2\), got 9"),
    ], ids=["root_lin_vel", "body_counts", "joint_pos_2d", "frame_counts", "seq", "send_ts_us", "msg_type"])
    def test_wire_rows_rejected(self, rng, build, message):
        frame = make_packet(rng, k=3, n=5).frames[0]
        with pytest.raises(InputError, match=message):
            build(frame)

    def test_packet_frame_from_motion(self, ref_model):
        frame = constant_velocity_clip(ref_model, 0.9, n_frames=3).frames[1]
        frame = replace(frame, body_pos=np.asfortranarray(frame.body_pos))
        wire = packet_frame_from_motion(frame, ref_model)
        expected = PacketFrame(frame.root_lin_vel, frame.body_pos, frame.body_quat, frame.joint_pos)
        for key in ("root_lin_vel", "body_pos", "body_quat", "joint_pos"):
            got = getattr(wire, key)
            assert got.dtype == np.float32 and got.flags.c_contiguous, key
            assert got.tobytes() == getattr(expected, key).tobytes(), key
        bodyless = constant_velocity_clip(ref_model, 0.9, n_frames=3, with_bodies=False).frames[1]
        with pytest.raises(InputError, match="frame lacks body kinematics"):
            packet_frame_from_motion(bodyless, ref_model)

    def test_oversize_datagram_rejected(self):
        # 5,456 empty frames fill a 65,502-byte datagram with a valid CRC
        data = oversize_datagram(5456)
        assert len(data) == 65502
        with pytest.raises(ProtocolError, match="budget"):
            decode_packet(data)
        # the largest datagram a frame can fill (1398 bytes) decodes; 1402 does not
        frame = {"root_lin_vel": [0.0] * 3, "bodies": [], "joint_pos": [0.5] * 339}
        assert len(decode_packet(reference_encode(0, 0, 1, 0, [frame])).frames) == 1
        frame["joint_pos"].append(0.5)
        data = reference_encode(0, 0, 1, 0, [frame])
        assert len(data) == MAX_DATAGRAM + 2
        with pytest.raises(ProtocolError, match="budget"):
            decode_packet(data)


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

    def test_push_older_than_a_full_queue_is_stale(self):
        q = FrameQueue(2)
        q.push(Stamped(5))
        q.push(Stamped(6))
        assert q.push(Stamped(3)) == "stale"
        assert q.stale_count == 1
        assert [q.pop()[0].seq for _ in range(2)] == [5, 6]

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


class TestTickLoop:
    """The fixed-rate tick loop of PolicyServer."""

    def test_saturated_queue_50hz(self):
        ticks = []
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0, capacity=64,
                              sink=lambda f, h: ticks.append((f.seq, h)))
        for seq in range(1, 101):
            server.queue.push(Stamped(seq))
        try:
            server.run(1.0)
        finally:
            server.close()
        assert 45 <= len(ticks) <= 55  # 50 +- scheduling slop
        assert not any(h for _, h in ticks[: min(len(ticks), 50)])

    def test_prefilled_then_drained(self):
        ticks = []
        server = PolicyServer(("127.0.0.1", 0), rate_hz=200.0, capacity=5,
                              sink=lambda f, h: ticks.append((f.seq, h)))
        for seq in range(1, 6):
            server.queue.push(Stamped(seq))
        try:
            server.run(0.2)
        finally:
            server.close()
        assert server.ticks >= 12
        fresh = [s for s, h in ticks[:12] if not h]
        held = [s for s, h in ticks[:12] if h]
        assert fresh == [1, 2, 3, 4, 5]
        assert held == [5] * 7

    def test_datagrams_sent_before_start_tick_in_order_then_hold(self):
        ticks = []
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0,
                              sink=lambda f, h: ticks.append((f.seq, h)))
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                for seq in (1, 2, 3):
                    sock.sendto(frame_datagram(seq), server.addr)
            server.run(0.15)
        finally:
            server.close()
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
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                server.run(0.1)
        finally:
            server.close()
        assert ticks[:2] == [(1, False), (2, False)]

    def test_producer_pause_produces_consecutive_holds(self):
        records = []
        seqs = itertools.count(2)

        def sink(frame, held):
            # the producer sends one frame per tick, except for seven ticks
            records.append(held)
            if not 8 <= len(records) < 15:
                sock.sendto(frame_datagram(next(seqs)), server.addr)

        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0, capacity=1, sink=sink)
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.sendto(frame_datagram(1), server.addr)
                server.run(0.5)
        finally:
            server.close()
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
        try:
            server.run(0.5)
        finally:
            server.close()
        assert len(overruns_before) > 6
        assert overruns_before[6] >= 4  # counted over the first 6 ticks

    def test_run_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("PolicyServer.run started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        server = PolicyServer(("127.0.0.1", 0), rate_hz=100.0)
        server.queue.push(Stamped(1))
        try:
            server.run(0.05)
        finally:
            server.close()
        assert server.ticks >= 2


class TestFaultInjector:
    """The seeded fault model as `fault_schedule` applies it to a stream."""

    def test_zero_config_passthrough_identity(self):
        arrivals, delivered, dropped = fault_schedule(5, 50.0, FaultConfig(), seed=0)
        assert [(t, seq) for t, _, seq in arrivals] == [((seq - 1) / 50.0, seq) for seq in range(1, 6)]
        assert (delivered, dropped) == (5, 0)

    def test_drop_all(self):
        arrivals, delivered, dropped = fault_schedule(50, 50.0, FaultConfig(drop_prob=1.0), seed=0)
        assert arrivals == []
        assert (delivered, dropped) == (0, 50)

    def test_delivered_count_matches_replayed_generator(self):
        cfg = FaultConfig(drop_prob=0.1)
        arrivals, delivered, dropped = fault_schedule(1000, 50.0, cfg, seed=77)
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
        assert len(arrivals) == delivered == expected
        assert dropped == 1000 - expected

    def test_duplicates_delivered_twice(self):
        arrivals, delivered, _ = fault_schedule(3, 50.0, FaultConfig(duplicate_prob=1.0), seed=0)
        assert [seq for _, _, seq in arrivals] == [1, 1, 2, 2, 3, 3]
        assert delivered == 6
        for first, second in zip(arrivals[::2], arrivals[1::2]):
            assert second[0] - first[0] == pytest.approx(0.001)

    @pytest.mark.parametrize("jitter", [(-1.0, 0.0), (5.0, 1.0), (0.0, float("inf")),
                                        (float("nan"), float("nan"))])
    def test_invalid_jitter_range_rejected(self, jitter):
        with pytest.raises(ConfigError):
            FaultConfig(jitter_ms=jitter)

    def test_non_positive_rate_rejected(self):
        for rate in (0.0, -50.0):
            with pytest.raises(InputError):
                fault_schedule(10, rate, FaultConfig(), seed=0)
            with pytest.raises(InputError):
                simulate_stream(10, consumer_hz=rate)
            with pytest.raises(InputError):
                measure_latency(n_samples=20, rate_hz=rate)

    @pytest.mark.parametrize("rate", [0.0, -50.0, float("nan"), float("inf")])
    def test_rate_must_be_positive_and_finite(self, rate):
        for call in (
            lambda: fault_schedule(10, rate, FaultConfig(), seed=0),
            lambda: simulate_stream(10, producer_hz=rate),
            lambda: simulate_stream(10, consumer_hz=rate),
            lambda: measure_latency(n_samples=20, rate_hz=rate),
        ):
            with pytest.raises(InputError, match="rate must be positive and finite"):
                call()

    @pytest.mark.parametrize("fault", [
        FaultConfig(),
        FaultConfig(drop_prob=1.0),
        FaultConfig(jitter_ms=(5, 5)),
        FaultConfig(jitter_ms=(0, 40)),
        FaultConfig(jitter_ms=(0, 40), reorder_prob=1.0),
        FaultConfig(jitter_ms=(0, 40), duplicate_prob=1.0),
        FaultConfig(drop_prob=0.3, jitter_ms=(0.0, 40.0), reorder_prob=0.2, duplicate_prob=0.1),
        FaultConfig(drop_prob=0.05, jitter_ms=(2.5, 7.25), reorder_prob=1.0, duplicate_prob=1.0),
    ])
    def test_one_block_schedule_matches_per_packet_draws(self, fault):
        def bits(schedule):
            arrivals, delivered, dropped = schedule
            return [(t.hex(), order, seq) for t, order, seq in arrivals], delivered, dropped

        for seed in range(200):
            for n in (0, 1, 40):
                expected = per_packet_fault_schedule(n, 50.0, fault, seed)
                assert fault_schedule(n, 50.0, fault, seed) == expected
                assert bits(fault_schedule(n, 50.0, fault, seed)) == bits(expected)


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

    @pytest.mark.parametrize("n_packets, drop", [(0, 0.0), (50, 1.0), (50, 0.0)])
    def test_capacity_checked_when_nothing_arrives(self, n_packets, drop):
        with pytest.raises(InputError, match=re.escape("queue capacity must be >= 1")):
            simulate_stream(n_packets, capacity=0, fault=FaultConfig(drop_prob=drop), seed=0)

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
    """Send datagrams to a PolicyServer, run it for 0.1 s (five ticks at
    50 Hz) and close it; return it and the seqs its sink saw."""
    seqs = []
    server = PolicyServer(
        ("127.0.0.1", 0), rate_hz=50.0, sink=lambda frame, held: seqs.append(frame.seq),
        model=model,
    )
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for data in datagrams:
                sock.sendto(data, server.addr)
        server.run(0.1)
    finally:
        server.close()
    return server, seqs


class TestLiveEndpoints:
    def test_clip_to_server_end_to_end(self, ref_model):
        clip = constant_velocity_clip(ref_model, 0.8, n_frames=25, fps=50.0)
        ticks = []
        server = PolicyServer(
            ("127.0.0.1", 0), rate_hz=50.0, capacity=5,
            sink=lambda frame, held: ticks.append((frame.seq, held)),
        )
        try:
            sent = send_clip(clip, ref_model, server.addr, rate_hz=1000.0)
            server.run(0.6)
        finally:
            server.close()
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

    def test_frameless_frame_packet_counted_as_decode_error(self):
        # the model's counts and no frame: 30 bytes that decode cleanly
        empty = encode_packet(
            StreamPacket(msg_type=MSG_FRAMES, seq=3, send_ts_us=0, n_bodies=7, n_joints=29)
        )
        assert len(empty) == 30
        server, seqs = serve_datagrams([empty, frame_datagram(1)])
        assert server.decode_errors == 1
        assert server.received == 1
        assert seqs and set(seqs) == {1}

    def test_unknown_msg_type_counted_as_decode_error(self):
        server, seqs = serve_datagrams([reference_encode(9, 0, 1, 0, []), frame_datagram(2)])
        assert server.decode_errors == 1
        assert server.received == 1
        assert seqs and set(seqs) == {2}

    def test_decode_errors_non_fatal(self):
        server, seqs = serve_datagrams([b"garbage-data", encode_packet(heartbeat(1, 5))])
        assert server.decode_errors == 1
        assert server.heartbeats == 1
        assert seqs == []

    def test_oversize_datagram_counted_as_decode_error(self):
        # 202 frames with the bundled model's counts: 65,478 bytes, CRC valid
        server, seqs = serve_datagrams([oversize_datagram(202, k=7, n=29, seq=1), frame_datagram(2)])
        assert server.decode_errors == 1
        assert seqs and set(seqs) == {2}

    def test_heartbeat_echoed(self):
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(1.0)
        try:
            payload = encode_packet(heartbeat(3, 777))
            sock.sendto(payload, server.addr)
            server.run(0.05)
            data, _ = sock.recvfrom(65536)
            assert data == payload
        finally:
            server.close()
            sock.close()

    @pytest.mark.parametrize("rate", [0.0, -50.0, float("nan"), float("inf")])
    def test_server_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(InputError, match="rate_hz must be positive and finite"):
            PolicyServer(("127.0.0.1", 0), rate_hz=rate)

    def test_run_without_sender_returns_on_time(self):
        server = PolicyServer(("127.0.0.1", 0), rate_hz=50.0)
        start = time.monotonic()
        try:
            server.run(0.05)
        finally:
            server.close()
        assert time.monotonic() - start < 0.5
        assert server.ticks == 0


class TestLatency:
    def test_loopback_under_budget(self):
        stats = measure_latency(n_samples=100, rate_hz=500.0)
        assert stats.mean_ms < 80.0  # end-to-end latency budget
        assert stats.received >= 90

    def test_constant_injected_delay(self):
        stats = measure_latency(n_samples=60, rate_hz=200.0, fault=FaultConfig(jitter_ms=(30.0, 30.0)))
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

    def test_echo_latency_closes_its_socket_on_error(self):
        # sendto port 0 fails with EINVAL; an unclosed socket would raise a
        # ResourceWarning, which the suite turns into an error
        with pytest.raises(OSError):
            echo_latency(("127.0.0.1", 0), 3)
        gc.collect()

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            measure_latency(n_samples=5, rate_hz=200.0)

    def test_probe_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("measure_latency started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        fault = FaultConfig(jitter_ms=(0.0, 5.0), duplicate_prob=0.2)
        stats = measure_latency(n_samples=40, rate_hz=400.0, fault=fault, seed=3)
        assert stats.received >= 10

    def test_probe_delivers_the_fault_schedule(self, monkeypatch):
        fault = FaultConfig(drop_prob=0.3, duplicate_prob=0.4, jitter_ms=(0.0, 2.0))
        received = []
        monkeypatch.setattr(net, "summarize_latencies", lambda lat, sent: received.extend(lat))
        measure_latency(n_samples=120, rate_hz=400.0, fault=fault, seed=8)
        _, delivered, dropped = fault_schedule(120, 400.0, fault, seed=8)
        assert 0 < dropped < 120 and delivered > 120 - dropped  # both faults drawn
        assert len(received) == delivered
