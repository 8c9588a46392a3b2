"""Integration tests for the switch pipeline: flooding, PFC
backpressure, watchdog, ECMP spreading, TTL."""

import pytest

from repro.faults import install_default_auditors
from repro.faults.invariants import CONSERVATION_INVARIANTS
from repro.rdma import QpConfig, connect_qp_pair, post_send
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.switch.buffer import BufferConfig
from repro.switch.watchdog import SwitchWatchdogConfig
from repro.topo import single_switch, two_tier
from repro.workloads import ClosedLoopSender, RdmaChannel
from tests.strategies import drive_incast


def shallow_buffer():
    return BufferConfig(alpha=None, xoff_static_bytes=48 * KB)


class TestPfcBackpressure:
    def test_incast_pauses_senders_not_drops(self):
        topo = single_switch(n_hosts=4, buffer_config=shallow_buffer()).boot()
        rng = SeededRng(1, "bp")
        victim = topo.hosts[0]
        senders = []
        for src in topo.hosts[1:]:
            qp, _ = connect_qp_pair(src, victim, rng)
            senders.append(ClosedLoopSender(RdmaChannel(qp), 512 * KB).start())
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert topo.tor.pause_frames_sent() > 0
        assert topo.fabric.total_drops() == 0
        # Sender NIC ports saw the pauses.
        paused_hosts = [h for h in topo.hosts[1:] if h.nic.port.stats.pause_rx > 0]
        assert paused_hosts

    def test_headroom_absorbs_in_flight(self):
        # The whole point of headroom: zero lossless loss even at XOFF.
        topo = single_switch(n_hosts=4, buffer_config=shallow_buffer()).boot()
        rng = SeededRng(2, "hr")
        victim = topo.hosts[0]
        for src in topo.hosts[1:]:
            qp, _ = connect_qp_pair(src, victim, rng)
            ClosedLoopSender(RdmaChannel(qp), 1 * MB).start()
        topo.sim.run(until=topo.sim.now + 5 * MS)
        assert topo.tor.counters.drops["buffer-headroom-overflow"] == 0

    def test_buffer_drains_to_zero_after_traffic(self):
        topo = single_switch(n_hosts=2).boot()
        rng = SeededRng(3, "drain")
        qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng)
        post_send(qp, 1 * MB)
        topo.sim.run(until=topo.sim.now + 10 * MS)
        assert topo.tor.buffer.total_occupancy == 0
        assert topo.tor.buffer.shared_in_use == 0


class TestFlooding:
    def _flooded_topo(self):
        topo = single_switch(n_hosts=3, buffer_config=shallow_buffer()).boot()
        rng = SeededRng(4, "flood")
        dead = topo.hosts[1]
        qp, _ = connect_qp_pair(topo.hosts[0], dead, rng)
        dead.die()
        topo.tor.tables.mac_table.expire(dead.mac)
        post_send(qp, 64 * KB)
        topo.sim.run(until=topo.sim.now + 2 * MS)
        return topo

    def test_incomplete_arp_floods_to_other_servers(self):
        topo = self._flooded_topo()
        assert topo.tor.counters.flood_events > 0
        # The innocent third server received (and discarded) copies.
        bystander = topo.hosts[2]
        assert bystander.nic.stats.rx_dropped_mac > 0

    def test_flood_copies_share_one_buffer_claim(self):
        topo = self._flooded_topo()
        assert topo.tor.buffer.total_occupancy == 0  # all claims released

    def test_arp_drop_policy_stops_flooding(self):
        topo = single_switch(
            n_hosts=3,
            buffer_config=shallow_buffer(),
            forwarding_kwargs={"drop_lossless_on_incomplete_arp": True},
        ).boot()
        rng = SeededRng(4, "noflood")
        dead = topo.hosts[1]
        qp, _ = connect_qp_pair(topo.hosts[0], dead, rng)
        dead.die()
        topo.tor.tables.mac_table.expire(dead.mac)
        post_send(qp, 64 * KB)
        topo.sim.run(until=topo.sim.now + 2 * MS)
        assert topo.tor.counters.flood_events == 0
        assert topo.tor.counters.drops["incomplete-arp-lossless"] > 0


class TestSwitchWatchdog:
    def _storming_setup(self):
        topo = single_switch(n_hosts=3, buffer_config=shallow_buffer()).boot()
        topo.tor.enable_storm_watchdog(
            SwitchWatchdogConfig(poll_interval_ns=200 * US, reenable_after_ns=2 * MS)
        )
        rng = SeededRng(5, "wdog")
        victim = topo.hosts[0]
        qp, _ = connect_qp_pair(topo.hosts[1], victim, rng)
        ClosedLoopSender(RdmaChannel(qp), 1 * MB).start()
        return topo, victim

    def test_trips_on_storming_nic(self):
        topo, victim = self._storming_setup()
        victim.nic.config.watchdog_config.enabled = False  # isolate switch side
        victim.nic._watchdog.cancel()
        victim.nic.break_rx_pipeline()
        topo.sim.run(until=topo.sim.now + 10 * MS)
        watchdog = topo.tor._watchdogs[victim.port.peer.index]
        assert watchdog.trips >= 1
        assert topo.tor.counters.drops["watchdog-lossless"] > 0

    def test_trip_disables_lossless_mid_incast_and_conserves_buffer(self):
        topo = single_switch(n_hosts=3, seed=3).boot()
        drive_incast(topo, 2, SeededRng(3, "trip"), message_bytes=128 * KB)
        registry = install_default_auditors(topo.fabric).start()
        victim = topo.hosts[0]
        port = victim.port.peer
        topo.sim.run(until=topo.sim.now + 200 * US)
        assert port.total_queued_packets > 0  # tripped with frames queued
        topo.tor.on_watchdog_trip(port)
        assert topo.tor.lossless_disabled(port)
        assert not port.any_paused  # force_resume_all cleared pause state
        topo.sim.run(until=topo.sim.now + 2 * MS)
        # Lossless traffic to the quarantined NIC is discarded, counted,
        # and buffer/byte conservation survives the trip.
        assert topo.tor.counters.drops["watchdog-lossless"] > 0
        registry.audit_now()
        assert not registry.violations_in_class(CONSERVATION_INVARIANTS)

    def test_reenables_after_pauses_stop(self):
        # "Once the switch detects that the pause frames from the NIC
        # disappear for a period of time ... it will re-enable the
        # lossless mode" -- the switch watchdog re-arms, the NIC's not.
        topo, victim = self._storming_setup()
        victim.nic.config.watchdog_config.enabled = False
        victim.nic._watchdog.cancel()
        victim.nic.break_rx_pipeline()
        topo.sim.run(until=topo.sim.now + 10 * MS)
        victim.nic.repair()
        topo.sim.run(until=topo.sim.now + 10 * MS)
        watchdog = topo.tor._watchdogs[victim.port.peer.index]
        assert watchdog.reenables >= 1
        assert not topo.tor.lossless_disabled(victim.port.peer)

    def test_never_trips_on_healthy_congestion(self):
        # Ordinary incast pause activity must not trip the watchdog: the
        # port keeps draining.
        topo = single_switch(n_hosts=4, buffer_config=shallow_buffer()).boot()
        topo.tor.enable_storm_watchdog(
            SwitchWatchdogConfig(poll_interval_ns=200 * US, reenable_after_ns=2 * MS)
        )
        rng = SeededRng(6, "healthy")
        victim = topo.hosts[0]
        for src in topo.hosts[1:]:
            qp, _ = connect_qp_pair(src, victim, rng)
            ClosedLoopSender(RdmaChannel(qp), 512 * KB).start()
        topo.sim.run(until=topo.sim.now + 10 * MS)
        assert all(w.trips == 0 for w in topo.tor._watchdogs.values())


class TestRoutingBehaviour:
    def test_ecmp_spreads_qps_over_uplinks(self):
        topo = two_tier(n_tors=2, hosts_per_tor=2, n_leaves=4, seed=8).boot()
        rng = SeededRng(8, "ecmp")
        t0_hosts, t1_hosts = topo.hosts_by_tor
        for i in range(16):
            qp, _ = connect_qp_pair(t0_hosts[i % 2], t1_hosts[i % 2], rng)
            post_send(qp, 32 * KB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        tor = topo.tors[0]
        uplink_tx = [
            p.stats.total_tx_packets
            for p in tor.ports
            if not getattr(p, "is_server_facing", False)
        ]
        used = sum(1 for tx in uplink_tx if tx > 0)
        assert used >= 3  # 16 QPs over 4 uplinks: nearly all used

    def test_one_qp_stays_on_one_path(self):
        # In-order delivery: a QP's five-tuple pins it to one uplink.
        topo = two_tier(n_tors=2, hosts_per_tor=1, n_leaves=4, seed=9).boot()
        rng = SeededRng(9, "path")
        qp, _ = connect_qp_pair(topo.hosts_by_tor[0][0], topo.hosts_by_tor[1][0], rng)
        post_send(qp, 256 * KB)
        topo.sim.run(until=topo.sim.now + 5 * MS)
        tor = topo.tors[0]
        data_uplinks = [
            p
            for p in tor.ports
            if not getattr(p, "is_server_facing", False) and p.stats.tx_packets[3] > 0
        ]
        assert len(data_uplinks) == 1
        assert qp.stats.retransmitted_packets == 0  # never reordered

    @staticmethod
    def _raw_packet(src_host, dst_ip, ttl=64):
        from repro.packets import Ipv4Header, Packet, UdpHeader
        from repro.packets.rocev2 import BaseTransportHeader, BthOpcode, ROCEV2_UDP_PORT

        return Packet.rocev2(
            dst_mac=0xDEAD,
            src_mac=src_host.mac,
            ip=Ipv4Header(src=src_host.ip, dst=dst_ip, dscp=3, ttl=ttl),
            udp=UdpHeader(src_port=50000, dst_port=ROCEV2_UDP_PORT),
            bth=BaseTransportHeader(opcode=BthOpcode.SEND_ONLY, dest_qp=1, psn=0),
            payload_bytes=512,
        )

    def test_ttl_expiry_drops(self):
        topo = single_switch(n_hosts=2).boot()
        packet = self._raw_packet(topo.hosts[0], topo.hosts[1].ip, ttl=1)
        topo.hosts[0].nic.port.enqueue(packet, 3)
        topo.sim.run(until=topo.sim.now + 1 * MS)
        assert topo.tor.counters.drops["ttl"] == 1

    def test_no_route_counted(self):
        topo = single_switch(n_hosts=2).boot()
        packet = self._raw_packet(topo.hosts[0], 0x7F000001)  # no route
        topo.hosts[0].nic.port.enqueue(packet, 3)
        topo.sim.run(until=topo.sim.now + 1 * MS)
        assert topo.tor.counters.drops["no-route"] == 1
