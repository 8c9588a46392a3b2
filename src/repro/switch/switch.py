"""The shared-buffer switch device.

Pipeline for a data frame arriving on an ingress port:

1. classify priority (VLAN PCP or IP DSCP per :class:`PfcConfig`);
2. apply the experiment's ingress drop filter, if any (the section 4.1
   livelock experiment drops "any packet with the least significant byte
   of IP ID equals to 0xff" this way);
3. learn the source MAC (server-facing ports);
4. forwarding decision: L3 ECMP route, L2 deliver, flood (incomplete ARP
   entry) or drop;
5. shared-buffer admission against the ingress PG (lossy drop / headroom
   spill per :mod:`repro.switch.buffer`);
6. optional ECN marking against the *egress* queue depth (DCQCN CP);
7. enqueue at the egress port(s); flooded copies share one buffer claim
   (refcounted) and are flagged so routed ports can drop them at the head
   of the queue, exactly as in the paper's figure 4 narrative.

Dequeue (or head-drop) releases the buffer claim and may send XON.
Crossing XOFF sends pause out of the *ingress* port toward the sender.
"""

import zlib

from repro.packets.ip import IPV4_HEADER_BYTES
from repro.packets.packet import Packet, compile_priority_resolver
from repro.net.device import Device
from repro.switch.buffer import BufferConfig, SharedBuffer
from repro.switch.ecmp import ecmp_select
from repro.switch.ecn import EcnConfig
from repro.switch.forwarding import ForwardingTables
from repro.switch.pfc import PauseSignaler, PfcConfig
from repro.switch.watchdog import PortStormWatchdog, SwitchWatchdogConfig
from repro.telemetry.hooks import HUB as _TELEMETRY
from repro.tracing.hooks import HUB as _TRACE


class _BufferClaim:
    """Shared-buffer charge for one admitted packet (refcounted across
    flood copies)."""

    __slots__ = ("port_idx", "priority", "nbytes", "refs")

    def __init__(self, port_idx, priority, nbytes, refs):
        self.port_idx = port_idx
        self.priority = priority
        self.nbytes = nbytes
        self.refs = refs


class _EgressMeta:
    """Per-copy egress queue annotation."""

    __slots__ = ("claim", "flood_copy")

    def __init__(self, claim, flood_copy):
        self.claim = claim
        self.flood_copy = flood_copy


class SwitchCounters:
    """Aggregate per-switch counters for monitoring (section 5.2)."""

    def __init__(self):
        self.rx_packets = 0
        self.tx_enqueued = 0
        self.flood_events = 0
        self.flood_copies = 0
        self.ecn_marked = 0
        self.drops = {
            "filter": 0,  # experiment-injected drops (livelock setup)
            "ttl": 0,
            "no-route": 0,
            "arp-miss": 0,
            "incomplete-arp-lossless": 0,  # the deadlock fix in action
            "buffer-lossy": 0,
            "buffer-headroom-overflow": 0,  # must stay 0: PFC violation
            "watchdog-lossless": 0,  # storm watchdog discarding
            "pause-ignored": 0,
            "vlan-port-mode": 0,  # trunk port dropping untagged (PXE!)
            "egress-lossy": 0,  # lossy egress queue cap (incast drops)
        }

    @property
    def total_drops(self):
        return sum(self.drops.values())


class Switch(Device):
    """A shared-buffer, PFC-capable, L3 ECMP switch."""

    def __init__(
        self,
        sim,
        name,
        buffer_config=None,
        pfc_config=None,
        ecn_config=None,
        local_subnet=None,
        ecmp_seed=None,
        mark_rng=None,
        base_mac=None,
        forwarding_kwargs=None,
    ):
        super().__init__(sim, name)
        self.buffer_config = buffer_config or BufferConfig()
        self.pfc_config = pfc_config or PfcConfig()
        self.ecn_config = ecn_config or EcnConfig(enabled=False)
        self.tables = ForwardingTables(
            sim, local_subnet=local_subnet, **(forwarding_kwargs or {})
        )
        # Name-derived defaults use CRC32, not hash(): string hashes are
        # salted per process, and the same seed must give the same run
        # (same ECMP paths) in every process.
        name_crc = zlib.crc32(name.encode())
        self.ecmp_seed = name_crc if ecmp_seed is None else ecmp_seed
        self._mark_rng = mark_rng
        self.base_mac = base_mac if base_mac is not None else (name_crc & 0xFFFF) << 16
        self.counters = SwitchCounters()
        self.buffer = None  # built lazily once port count is known
        self._signalers = {}
        self._watchdogs = {}
        self._lossless_disabled_ports = set()
        self._server_port_idxs = set()
        # Experiment hook: callable(packet) -> True to drop at ingress.
        self.ingress_drop_filter = None
        # Per-config compiled classification caches.  pfc_config objects
        # are replaced wholesale (deployment steps, fault injection),
        # never mutated in place, so the caches key on object identity
        # and recompile the moment a new config is installed.
        self._classify_for = None
        self._classify = None
        self._lossless_set = frozenset()
        # ECMP choice cache: (five_tuple, n_choices) -> index, valid for
        # one seed (``ecmp_seed`` may be reassigned at any time).
        self._ecmp_cache = {}
        self._ecmp_cache_seed = None

    def _classifier(self):
        """The compiled ``packet -> priority`` function for the current
        pfc_config (recompiled on config replacement)."""
        pfc = self.pfc_config
        if pfc is not self._classify_for:
            self._classify = compile_priority_resolver(
                pfc.priority_mode,
                dscp_to_priority=pfc.dscp_to_priority,
                default_priority=pfc.default_priority,
            )
            self._lossless_set = (
                pfc.lossless_priorities if pfc.enabled else frozenset()
            )
            self._classify_for = pfc
        return self._classify

    def _lossless(self, priority):
        """Live-config lossless check through the identity-keyed cache."""
        if self.pfc_config is not self._classify_for:
            self._classifier()
        return priority in self._lossless_set

    # -- construction --------------------------------------------------------

    def add_server_port(self, vlan_port_mode=None):
        """A server-facing (L2 subnet) port.

        ``vlan_port_mode`` is None (no 802.1Q enforcement), ``"access"``
        (untagged only) or ``"trunk"`` (tagged only -- what VLAN-based
        PFC forces, breaking PXE boot per section 3).
        """
        port = self.add_port()
        port.is_server_facing = True
        port.vlan_port_mode = vlan_port_mode
        self._server_port_idxs.add(port.index)
        return port

    def set_server_port_modes(self, vlan_port_mode):
        """Reconfigure the 802.1Q mode of every server-facing port."""
        for idx in self._server_port_idxs:
            self.ports[idx].vlan_port_mode = vlan_port_mode

    def add_uplink_port(self, drop_flood_at_head=True):
        """A routed uplink port.  ``drop_flood_at_head`` reproduces the
        ASIC behaviour of section 4.2: flood copies reaching the head of a
        routed port's queue are dropped because the destination MAC does
        not match."""
        port = self.add_port(drop_flood_at_head=drop_flood_at_head)
        port.is_server_facing = False
        return port

    def finalize(self):
        """Build the shared buffer once all ports exist.  Idempotent."""
        if self.buffer is None:
            self.buffer = SharedBuffer(
                self.buffer_config,
                n_ports=len(self.ports),
                lossless_priorities=self.pfc_config.lossless_priorities,
            )
            # Telemetry attributes buffer-level signals to this switch.
            self.buffer.owner_name = self.name
        return self

    def enable_storm_watchdog(self, config=None):
        """Arm the section 4.3 switch-side watchdog on server-facing ports."""
        config = config or SwitchWatchdogConfig()
        for idx in self._server_port_idxs:
            port = self.ports[idx]
            if idx not in self._watchdogs:
                self._watchdogs[idx] = PortStormWatchdog(self.sim, self, port, config)
        return self

    def mac_for_port(self, port):
        """The switch's own MAC on ``port`` (pause frame source address)."""
        return self.base_mac + port.index

    def _signaler(self, port, priority):
        key = (port.index, priority)
        signaler = self._signalers.get(key)
        if signaler is None:
            signaler = PauseSignaler(self.sim, self, port, priority)
            self._signalers[key] = signaler
        return signaler

    # -- receive path --------------------------------------------------------

    def handle_packet(self, port, packet):
        """Device entry point for every frame arriving on ``port``.

        Dispatches pause frames to the port's pause state (unless the
        storm watchdog disabled lossless on that port), ARP to the
        forwarding tables, and data frames into the ingress pipeline
        described in the module docstring."""
        if self.buffer is None:
            self.finalize()
        if packet.is_pause:
            if port.index in self._lossless_disabled_ports:
                # Watchdog tripped: the malfunctioning NIC's pauses are
                # ignored so they cannot propagate into the network.
                self.counters.drops["pause-ignored"] += 1
                return
            port.receive_pause(packet.pause)
            return
        if packet.is_arp:
            self._handle_arp(port, packet)
            return
        self._ingress_data(port, packet)

    def _handle_arp(self, port, packet):
        """Switch-CPU ARP processing: learn, then flood within the subnet."""
        arp = packet.arp
        self.tables.learn_arp(arp.sender_ip, arp.sender_mac)
        self.tables.learn_mac(arp.sender_mac, port.index)
        # Broadcast/flood the ARP to the other server-facing ports (ARP is
        # lossy: "broadcast and multicast packets should not be put into
        # lossless classes", section 4.2).
        for idx in self._server_port_idxs:
            if idx == port.index:
                continue
            egress = self.ports[idx]
            if egress.connected:
                egress.enqueue(packet, self.pfc_config.default_priority, meta=None)

    def _ingress_data(self, port, packet):
        self.counters.rx_packets += 1
        mode = port.vlan_port_mode
        if mode is not None:
            if mode == "trunk" and packet.vlan is None:
                # Trunk ports "can only send packets with VLAN tag" -- an
                # untagged PXE-boot exchange dies right here (section 3).
                self.counters.drops["vlan-port-mode"] += 1
                return
            if mode == "access" and packet.vlan is not None:
                self.counters.drops["vlan-port-mode"] += 1
                return
        classify = (
            self._classify
            if self.pfc_config is self._classify_for
            else self._classifier()
        )
        priority = classify(packet)
        port.record_rx(packet, priority)
        lossless = priority in self._lossless_set
        if lossless and port.index in self._lossless_disabled_ports:
            # Storm watchdog: discard lossless packets *from* the NIC.
            self.counters.drops["watchdog-lossless"] += 1
            return
        if self.ingress_drop_filter is not None and self.ingress_drop_filter(packet):
            self.counters.drops["filter"] += 1
            return
        ip = packet.ip
        if ip is not None:
            if ip.ttl <= 1:
                self.counters.drops["ttl"] += 1
                return
            ip.ttl -= 1
        if port.is_server_facing:
            self.tables.learn_mac(packet.src_mac, port.index)
        decision = self.tables.decide(ip.dst if ip is not None else 0, lossless)
        if decision.action == decision.DROP:
            self.counters.drops[decision.reason] = (
                self.counters.drops.get(decision.reason, 0) + 1
            )
            return
        if decision.action == decision.FORWARD:
            self._forward(port, packet, priority, lossless, decision)
        else:
            self._flood(port, packet, priority, lossless)

    # -- forward / flood -----------------------------------------------------

    def _forward(self, port, packet, priority, lossless, decision):
        ports = decision.ports
        n_ports = len(ports)
        if n_ports > 1:
            # Flow-sticky by construction, so the (five_tuple, n) -> index
            # mapping is memoizable; the CRC runs once per flow per path
            # width instead of once per packet.
            seed = self.ecmp_seed
            cache = self._ecmp_cache
            if seed != self._ecmp_cache_seed:
                cache.clear()
                self._ecmp_cache_seed = seed
            key = (packet.five_tuple, n_ports)
            choice = cache.get(key)
            if choice is None:
                choice = ecmp_select(key[0], n_ports, seed)
                cache[key] = choice
            egress_idx = ports[choice]
        else:
            egress_idx = ports[0]
        egress = self.ports[egress_idx]
        if decision.reason == "l2-hit":
            # Local delivery: rewrite the MAC to the ARP-resolved station.
            mac = self.tables.resolve_local_mac(packet.ip.dst)
            if mac is not None:
                packet.dst_mac = mac
        elif (
            decision.reason == "l3-route"
            and packet.vlan is not None
            and not self.pfc_config.vlan_pcp_preserved_across_l3
        ):
            # Crossing a subnet boundary: the 802.1Q tag (and with it the
            # PCP priority) is not regenerated -- the section 3 failure
            # of VLAN-based PFC on an IP-routed fabric.  Note the packet
            # was already *classified at this hop* before the tag is lost.
            packet.vlan = None
        if lossless and egress.index in self._lossless_disabled_ports:
            # Storm watchdog: discard lossless packets *to* the NIC.
            self.counters.drops["watchdog-lossless"] += 1
            return
        if not self._admit(port, priority, packet.size_bytes, lossless):
            return
        claim = _BufferClaim(port.index, priority, packet.size_bytes, refs=1)
        self._enqueue_egress(egress, packet, priority, _EgressMeta(claim, False))

    def _flood(self, port, packet, priority, lossless):
        """Unknown-unicast flooding "to all its ports" except the ingress
        (section 4.2) -- including routed uplinks, whose copies are later
        dropped at the head of the queue."""
        mac = self.tables.resolve_local_mac(packet.ip.dst) if packet.ip else None
        if mac is not None:
            packet.dst_mac = mac
        targets = [
            p
            for p in self.ports
            if p.index != port.index
            and p.connected
            and not (
                lossless and p.index in self._lossless_disabled_ports
            )
        ]
        if not targets:
            return
        if not self._admit(port, priority, packet.size_bytes, lossless):
            return
        self.counters.flood_events += 1
        claim = _BufferClaim(port.index, priority, packet.size_bytes, refs=len(targets))
        for egress in targets:
            copy = packet if egress is targets[-1] else _clone_for_flood(packet)
            self.counters.flood_copies += 1
            self._enqueue_egress(egress, copy, priority, _EgressMeta(claim, True))

    def _admit(self, port, priority, nbytes, lossless):
        admitted = self.buffer.admit(port.index, priority, nbytes, lossless)
        if not admitted:
            if lossless:
                self.counters.drops["buffer-headroom-overflow"] += 1
            else:
                self.counters.drops["buffer-lossy"] += 1
            return False
        if lossless:
            self._signaler(port, priority).evaluate()
        return True

    def _enqueue_egress(self, egress, packet, priority, meta):
        cap = self.buffer_config.lossy_egress_cap_bytes
        if (
            cap is not None
            and not self._lossless(priority)
            and egress._queue_bytes[priority] + packet.size_bytes > cap
        ):
            self.counters.drops["egress-lossy"] += 1
            if meta is not None:
                # Release this copy's share of the buffer claim.
                self._on_port_dequeue(packet, meta, True)
            return
        ecn = self.ecn_config
        if (
            ecn.enabled
            and packet.ip is not None
            and packet.ip.ect_capable
            and self._mark_rng is not None
            and ecn.should_mark(egress._queue_bytes[priority], self._mark_rng)
        ):
            packet.ip.mark_ce()
            self.counters.ecn_marked += 1
        self.counters.tx_enqueued += 1
        egress.enqueue(packet, priority, meta)

    def _on_port_dequeue(self, packet, meta, dropped_at_head):
        if meta is None:
            return  # control/ARP enqueues carry no buffer claim
        claim = meta.claim
        claim.refs -= 1
        if claim.refs == 0:
            self.buffer.release(claim.port_idx, claim.priority, claim.nbytes)
            if self._lossless(claim.priority):
                ingress = self.ports[claim.port_idx]
                self._signaler(ingress, claim.priority).evaluate()

    # -- watchdog callbacks ----------------------------------------------------

    def on_watchdog_trip(self, port):
        """Switch watchdog: disable lossless mode on ``port``."""
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_switch_watchdog(self, port)
        if _TRACE.enabled:
            _TRACE.session.on_switch_watchdog(self, port)
        self._lossless_disabled_ports.add(port.index)
        # Stop honouring the pause state the NIC already imposed.
        port.force_resume_all()
        # Stop pausing the NIC ourselves.
        for priority in self.pfc_config.lossless_priorities:
            key = (port.index, priority)
            if key in self._signalers:
                self._signalers[key].stop()

    def on_watchdog_reenable(self, port):
        """Switch watchdog: pause frames gone; restore lossless mode."""
        self._lossless_disabled_ports.discard(port.index)

    def lossless_disabled(self, port):
        """True while the storm watchdog has lossless mode off on ``port``."""
        return port.index in self._lossless_disabled_ports

    # -- monitoring ------------------------------------------------------------

    def iter_buffer_claims(self):
        """Yield each distinct :class:`_BufferClaim` currently holding
        shared-buffer space (flood copies share one claim).  Used by the
        buffer-conservation auditor."""
        seen = set()
        for port in self.ports:
            for _priority, _packet, meta, _enqueued_ns in port.iter_entries():
                if meta is None:
                    continue
                claim = meta.claim
                if id(claim) not in seen:
                    seen.add(id(claim))
                    yield claim

    def watchdog_trips(self):
        """Total storm-watchdog trips across this switch's ports."""
        return sum(w.trips for w in self._watchdogs.values())

    def pause_frames_sent(self):
        """Total pause frames emitted by this switch (all ports)."""
        return sum(p.stats.pause_tx for p in self.ports)

    def pause_frames_received(self):
        """Total pause frames received by this switch (all ports)."""
        return sum(p.stats.pause_rx for p in self.ports)

    def queued_bytes(self):
        """Bytes currently queued across every egress port."""
        return sum(p.total_queued_bytes for p in self.ports)


def _clone_for_flood(packet):
    """A shallow copy with an independent IP header, so per-copy TTL/ECN
    mutation downstream cannot corrupt sibling copies."""
    from repro.packets.ip import Ipv4Header

    ip = packet.ip
    ip_copy = None
    if ip is not None:
        ip_copy = Ipv4Header(
            src=ip.src,
            dst=ip.dst,
            protocol=ip.protocol,
            dscp=ip.dscp,
            ecn=ip.ecn,
            total_length=ip.total_length,
            identification=ip.identification,
            ttl=ip.ttl,
        )
    return Packet(
        dst_mac=packet.dst_mac,
        src_mac=packet.src_mac,
        vlan=packet.vlan,
        ip=ip_copy,
        udp=packet.udp,
        tcp=packet.tcp,
        bth=packet.bth,
        aeth=packet.aeth,
        payload_bytes=packet.payload_bytes,
        created_ns=packet.created_ns,
        flow=packet.flow,
        context=packet.context,
    )
