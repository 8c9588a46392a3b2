"""Finer-grained tests: DWRR with mixed frame sizes, pause-interval
metric, control-queue precedence, port statistics."""

import pytest

from repro.net import Device, DwrrScheduler, Link
from repro.packets import (
    Ipv4Header,
    Packet,
    PfcPauseFrame,
    TcpHeader,
    pause_quanta_to_ns,
)
from repro.sim import Simulator
from repro.sim.units import KB, MS, US, gbps


class Sink(Device):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, port, packet):
        self.received.append((self.sim.now, packet))


def packet(payload, dscp=0):
    return Packet.tcp_segment(
        dst_mac=2,
        src_mac=1,
        ip=Ipv4Header(src=1, dst=2, protocol=6, dscp=dscp),
        tcp=TcpHeader(src_port=7, dst_port=8),
        payload_bytes=payload,
    )


def wire(sim, scheduler=None):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    port_a = a.add_port()
    port_b = b.add_port()
    Link(sim, port_a, port_b, rate_bps=gbps(10), delay_ns=10)
    if scheduler is not None:
        port_a.scheduler = scheduler
    return port_a, b


class TestDwrrMixedSizes:
    def test_byte_fairness_with_unequal_frames(self):
        # Priority 1 sends jumbo-ish frames, priority 2 small ones; with
        # equal weights DWRR must equalize *bytes*, not packets.
        sim = Simulator()
        port, sink = wire(sim, DwrrScheduler(weights={1: 1, 2: 1}))
        for _ in range(100):
            port.enqueue(packet(4000, dscp=1), priority=1)
        for _ in range(400):
            port.enqueue(packet(1000, dscp=2), priority=2)
        sim.run(until=sim.now + 1 * MS)
        got = [p for _, p in sink.received]
        big_bytes = sum(p.payload_bytes for p in got if p.ip.dscp == 1)
        small_bytes = sum(p.payload_bytes for p in got if p.ip.dscp == 2)
        assert big_bytes > 0 and small_bytes > 0
        ratio = big_bytes / small_bytes
        assert 0.6 < ratio < 1.6

    def test_weights_shift_byte_share(self):
        sim = Simulator()
        port, sink = wire(sim, DwrrScheduler(weights={1: 4, 2: 1}))
        for _ in range(300):
            port.enqueue(packet(1000, dscp=1), priority=1)
            port.enqueue(packet(1000, dscp=2), priority=2)
        sim.run(until=sim.now + 1 * MS)
        first_half = [p for _, p in sink.received[: len(sink.received) // 2]]
        share_1 = sum(1 for p in first_half if p.ip.dscp == 1) / len(first_half)
        assert share_1 > 0.65

    def test_idle_queue_does_not_hoard_credit(self):
        sim = Simulator()
        scheduler = DwrrScheduler(weights={1: 1, 2: 1})
        port, sink = wire(sim, scheduler)
        # Queue 2 runs alone for a while...
        for _ in range(50):
            port.enqueue(packet(1000, dscp=2), priority=2)
        sim.run(until=sim.now + 100 * US)
        # ...then queue 1 joins; it must not be starved by banked credit.
        for _ in range(50):
            port.enqueue(packet(1000, dscp=1), priority=1)
            port.enqueue(packet(1000, dscp=2), priority=2)
        sim.run(until=sim.now + 1 * MS)
        tail = [p for _, p in sink.received[-60:]]
        assert any(p.ip.dscp == 1 for p in tail[:10])


class TestPortTelemetry:
    def test_pause_interval_accumulates_across_episodes(self):
        sim = Simulator()
        port, _ = wire(sim)
        port.receive_pause(PfcPauseFrame.pause([3], quanta=100))
        sim.run(until=sim.now + 50 * US)
        first = port.paused_interval_ns()
        assert first > 0
        port.receive_pause(PfcPauseFrame.pause([3], quanta=100))
        sim.run(until=sim.now + 50 * US)
        assert port.paused_interval_ns() > first

    def test_tx_stats_per_priority(self):
        sim = Simulator()
        port, sink = wire(sim)
        port.enqueue(packet(500, dscp=2), priority=2)
        port.enqueue(packet(700, dscp=5), priority=5)
        sim.run(until=sim.now + 100 * US)
        assert port.stats.tx_packets[2] == 1
        assert port.stats.tx_packets[5] == 1
        assert port.stats.tx_bytes[5] > port.stats.tx_bytes[2]
        assert port.stats.total_tx_packets == 2

    def test_control_precedes_queued_data(self):
        sim = Simulator()
        port, sink = wire(sim)
        for _ in range(5):
            port.enqueue(packet(1000), priority=0)
        pause = Packet.pfc_pause(dst_mac=1, src_mac=2, pause=PfcPauseFrame.pause([0]))
        port.enqueue_control(pause)
        sim.run(until=sim.now + 100 * US)
        kinds = [p.is_pause for _, p in sink.received]
        # The pause left ahead of every *queued* data frame (one data
        # frame may already have been in flight).
        assert True in kinds
        assert kinds.index(True) <= 1

    def test_queue_introspection(self):
        sim = Simulator()
        a = Sink(sim, "solo")
        port = a.add_port()  # unconnected: nothing drains
        port.enqueue(packet(1000), priority=3)
        port.enqueue(packet(1000), priority=3)
        assert port.queue_lengths[3] == 2
        assert port.total_queued_packets == 2
        assert port.queued_bytes[3] == 2 * packet(1000).size_bytes
        assert port.head_packet_bytes(3) == packet(1000).size_bytes
        assert port.head_packet_bytes(4) == 0


class TestPerFrameEgress:
    """Egress decisions happen at frame boundaries: the frame on the
    wire always finishes, and the next pick sees the state as of its
    completion."""

    @staticmethod
    def _ser(port, payload):
        return port.link.ser_ns(packet(payload).wire_bytes)

    def test_pause_stops_only_that_priority_at_the_frame_boundary(self):
        sim = Simulator()
        port, sink = wire(sim)
        for _ in range(3):
            port.enqueue(packet(1000, dscp=3), priority=3)
            port.enqueue(packet(1000, dscp=0), priority=0)
        ser = self._ser(port, 1000)
        # Pause priority 3 half-way through its first frame.
        sim.schedule(ser // 2, port.receive_pause, PfcPauseFrame.pause([3]))
        sim.run(until=10 * ser)
        assert [p.ip.dscp for _, p in sink.received] == [3, 0, 0, 0]
        # The wire frame finished; priority 0 took the very next slot.
        assert sink.received[1][0] == 2 * ser + 10
        assert port.queue_lengths[3] == 2
        port.receive_pause(PfcPauseFrame.resume([3]))
        sim.run_until_idle()
        assert [p.ip.dscp for _, p in sink.received[4:]] == [3, 3]

    def test_pause_expiry_resumes_the_priority_without_a_fresh_kick(self):
        sim = Simulator()
        port, sink = wire(sim)
        for _ in range(3):
            port.enqueue(packet(1000, dscp=3), priority=3)
        ser = self._ser(port, 1000)
        pause_ns = pause_quanta_to_ns(100, port.link.rate_bps)
        assert pause_ns > ser
        sim.schedule(ser // 2, port.receive_pause, PfcPauseFrame.pause([3], quanta=100))
        sim.run_until_idle()
        # The wire frame finished; the rest waited out the quanta and
        # left back to back the instant the pause expired.
        expiry = ser // 2 + pause_ns
        assert [t for t, _ in sink.received] == [
            ser + 10,
            expiry + ser + 10,
            expiry + 2 * ser + 10,
        ]
        assert port.stats.pause_rx == 1
        assert port.stats.tx_packets[3] == 3

    def test_pause_on_another_priority_leaves_the_sending_priority_running(self):
        sim = Simulator()
        port, sink = wire(sim)
        for _ in range(3):
            port.enqueue(packet(1000, dscp=3), priority=3)
        ser = self._ser(port, 1000)
        sim.schedule(ser // 2, port.receive_pause, PfcPauseFrame.pause([4]))
        sim.run(until=10 * ser)
        assert port.is_paused(4)
        assert not port.is_paused(3)
        assert [t for t, _ in sink.received] == [k * ser + 10 for k in (1, 2, 3)]
        assert port.total_queued_packets == 0

    def test_control_frame_enqueued_mid_frame_goes_next(self):
        sim = Simulator()
        port, sink = wire(sim)
        for _ in range(3):
            port.enqueue(packet(1000), priority=0)
        ser = self._ser(port, 1000)
        resume = Packet.pfc_pause(
            dst_mac=1, src_mac=2, pause=PfcPauseFrame.resume([3])
        )
        sim.schedule(ser // 2, port.enqueue_control, resume)
        sim.run_until_idle()
        assert [p.is_pause for _, p in sink.received] == [False, True, False, False]
        assert sink.received[1][0] == ser + port.link.ser_ns(resume.wire_bytes) + 10
        assert port.stats.resume_tx == 1
        assert port.stats.total_tx_packets == 3

    def test_higher_priority_enqueue_goes_next_after_the_wire_frame(self):
        sim = Simulator()
        port, sink = wire(sim)
        for _ in range(3):
            port.enqueue(packet(1000, dscp=0), priority=0)
        ser = self._ser(port, 1000)
        sim.schedule(ser // 2, port.enqueue, packet(200, dscp=5), 5)
        sim.run_until_idle()
        assert [p.ip.dscp for _, p in sink.received] == [0, 5, 0, 0]
        assert sink.received[1][0] == ser + self._ser(port, 200) + 10

    def test_frozen_port_finishes_the_wire_frame_then_halts(self):
        sim = Simulator()
        port, sink = wire(sim)
        for _ in range(3):
            port.enqueue(packet(1000), priority=0)

        def freeze():
            port.frozen = True

        sim.schedule(self._ser(port, 1000) // 2, freeze)
        sim.run(until=sim.now + 1 * MS)
        assert len(sink.received) == 1
        assert port.stats.total_tx_packets == 1
        assert port.total_queued_packets == 2
