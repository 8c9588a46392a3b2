"""The fault injector: perturb a live fabric mid-run.

One :class:`FaultInjector` wraps one :class:`~repro.topo.fabric.Fabric`
and exposes the perturbations the paper's section 4 pathologies (and the
section 5-6 operational incidents) are made of:

* link faults -- down/up/flap, plus per-packet probabilistic rules that
  drop, corrupt or re-order matching frames on a named link;
* host faults -- freeze a NIC receive pipeline (the section 4.3
  pause-storm trigger), degrade its MTT (the section 4.4 slow receiver),
  kill/repair the server outright;
* control-plane faults -- blackhole ARP on a link, expire a host's MAC
  entry from its ToR (half-populated tables are the section 4.2 deadlock
  trigger);
* config drift -- swap a switch onto a wrong DSCP->queue map or a wrong
  buffer alpha (sections 5.1 and 6.2).  Configs are *shared* objects
  across devices, so drift always copies before assigning.

Every probabilistic rule draws from its own named child of the
injector's seeded RNG stream, so a fault schedule is exactly as
deterministic as the traffic it perturbs.
"""

from repro.sim.rng import SeededRng
from repro.sim.units import US


def _match_data(packet):
    return not packet.is_pause and not packet.is_arp


#: Named packet predicates for link fault rules.  "ip-id-ff" is the
#: section 4.1 livelock filter: the NIC numbers IP IDs sequentially, so
#: matching IDs ending 0xff is a deterministic 1/256 loss.
MATCHERS = {
    "any": lambda packet: not packet.is_pause,
    "data": _match_data,
    "rocev2": lambda packet: packet.is_rocev2,
    "tcp": lambda packet: packet.is_tcp,
    "arp": lambda packet: packet.is_arp,
    "pause": lambda packet: packet.is_pause,
    "ip-id-ff": lambda packet: (
        packet.ip is not None and packet.ip.identification & 0xFF == 0xFF
    ),
}


class LinkFaultRule:
    """One persistent per-packet fault on a link."""

    __slots__ = ("kind", "match_name", "match", "probability", "rng",
                 "delay_ns", "remaining", "hits")

    def __init__(self, kind, match_name, probability, rng, delay_ns=0, count=None):
        if kind not in ("drop", "corrupt", "delay"):
            raise ValueError("unknown link fault kind: %r" % (kind,))
        self.kind = kind
        self.match_name = match_name
        self.match = MATCHERS[match_name]
        self.probability = probability
        self.rng = rng
        self.delay_ns = delay_ns
        self.remaining = count  # None: unlimited
        self.hits = 0

    def consider(self, packet):
        if self.remaining is not None and self.remaining <= 0:
            return None
        if not self.match(packet):
            return None
        if self.probability < 1.0 and self.rng.random() >= self.probability:
            return None
        self.hits += 1
        if self.remaining is not None:
            self.remaining -= 1
        if self.kind == "delay":
            return ("delay", self.delay_ns)
        return (self.kind, None)

    def __repr__(self):
        return "LinkFaultRule(%s, match=%s, p=%g, hits=%d)" % (
            self.kind,
            self.match_name,
            self.probability,
            self.hits,
        )


class _LinkFaultHook:
    """The callable installed as ``link.fault_hook``; first matching rule
    wins.  Applies to both directions (the hook sits on the link, not a
    port)."""

    def __init__(self):
        self.rules = []

    def __call__(self, link, packet):
        for rule in self.rules:
            verdict = rule.consider(packet)
            if verdict is not None:
                return verdict
        return None


class FaultInjector:
    """Perturbs one fabric.  All methods are safe to call mid-run."""

    def __init__(self, fabric, rng=None, name="injector"):
        self.fabric = fabric
        self.sim = fabric.sim
        self.rng = rng or SeededRng(0, "faults/%s" % name)
        self._rule_count = 0
        # (time_ns, action, subject) tuples, for post-mortems.
        self.log = []

    def _note(self, action, subject):
        self.log.append((self.sim.now, action, subject))

    # -- target resolution ---------------------------------------------------

    def resolve_host(self, target):
        if isinstance(target, str):
            return self.fabric.host_named(target)
        return target

    def resolve_switch(self, target):
        if isinstance(target, str):
            return self.fabric.switch_named(target)
        return target

    def resolve_link(self, target):
        """A Link, an index into ``fabric.links``, or an
        ``(endpoint_name, endpoint_name)`` pair of device names."""
        if isinstance(target, int):
            return self.fabric.links[target]
        if isinstance(target, tuple):
            names = set(target)
            for link in self.fabric.links:
                ends = set()
                for port in (link.port_a, link.port_b):
                    device_name = port.device.name
                    ends.add(device_name)
                    # A host's port belongs to its NIC ("S1.nic"); accept
                    # the host name too.
                    if device_name.endswith(".nic"):
                        ends.add(device_name[: -len(".nic")])
                if names <= ends:
                    return link
            raise KeyError("no link between %s and %s" % target)
        return target

    def tor_of(self, target):
        """The switch at the far end of a host's server link."""
        host = self.resolve_host(target)
        return host.port.link.other(host.port).device

    # -- link faults ---------------------------------------------------------

    def link_down(self, target):
        link = self.resolve_link(target)
        link.set_down()
        self._note("link_down", link.name)
        return link

    def link_up(self, target):
        link = self.resolve_link(target)
        link.set_up()
        self._note("link_up", link.name)
        return link

    def flap_link(self, target, down_ns=100 * US):
        """Take the link down now; restore it ``down_ns`` later."""
        link = self.link_down(target)
        self.sim.schedule(down_ns, self.link_up, link)
        return link

    def _add_rule(self, target, kind, probability, match, delay_ns=0, count=None):
        if match not in MATCHERS:
            raise ValueError(
                "unknown matcher %r (have: %s)" % (match, ", ".join(sorted(MATCHERS)))
            )
        link = self.resolve_link(target)
        if link.fault_hook is None:
            link.fault_hook = _LinkFaultHook()
        elif not isinstance(link.fault_hook, _LinkFaultHook):
            raise RuntimeError("link %s has a foreign fault hook" % link.name)
        rule = LinkFaultRule(
            kind,
            match,
            probability,
            self.rng.child("rule%d" % self._rule_count),
            delay_ns=delay_ns,
            count=count,
        )
        self._rule_count += 1
        link.fault_hook.rules.append(rule)
        self._note("%s_packets" % kind, "%s p=%g match=%s" % (link.name, probability, match))
        return rule

    def drop_packets(self, target, probability=1.0, match="any", count=None):
        """Silently drop matching frames on a link (switch bugs, the
        section 4.1 lossy-ASIC scenario)."""
        return self._add_rule(target, "drop", probability, match, count=count)

    def corrupt_packets(self, target, probability=1.0, match="any", count=None):
        """Mangle matching frames so the receiver's FCS/ICRC discards
        them (counted separately from silent drops)."""
        return self._add_rule(target, "corrupt", probability, match, count=count)

    def reorder_packets(self, target, delay_ns, probability=1.0, match="data", count=None):
        """Hold matching frames an extra ``delay_ns``, letting later
        frames overtake them."""
        return self._add_rule(
            target, "delay", probability, match, delay_ns=delay_ns, count=count
        )

    def blackhole_arp(self, target):
        """Drop every ARP frame crossing the link: requests go unanswered
        and tables stay incomplete -- the section 4.2 deadlock trigger."""
        return self._add_rule(target, "drop", 1.0, "arp")

    def clear_link_faults(self, target):
        link = self.resolve_link(target)
        link.fault_hook = None
        self._note("clear_link_faults", link.name)
        return link

    # -- host faults ---------------------------------------------------------

    def freeze_nic_rx(self, target):
        """Stop a NIC's receive pipeline (the section 4.3 firmware bug):
        the rx buffer fills and the NIC pauses its ToR continuously."""
        host = self.resolve_host(target)
        host.nic.break_rx_pipeline()
        self._note("freeze_nic_rx", host.name)
        return host

    def repair_nic(self, target):
        """Reboot/reimage the server: pipeline restored, buffer cleared,
        watchdog latch reset."""
        host = self.resolve_host(target)
        host.nic.repair()
        self._note("repair_nic", host.name)
        return host

    def kill_host(self, target):
        """The server goes completely silent (dead host, section 4.2)."""
        host = self.resolve_host(target)
        host.die()
        self._note("kill_host", host.name)
        return host

    def degrade_mtt(self, target, entries=64, page_bytes=4096, miss_penalty_ns=3000):
        """Turn the host into a section 4.4 slow receiver: replace its
        NIC's memory translation cache with an undersized one so receive
        processing thrashes and the NIC back-pressures the fabric."""
        from repro.nic.mtt import MttCache, MttConfig

        host = self.resolve_host(target)
        host.nic.mtt = MttCache(
            MttConfig(
                entries=entries,
                page_bytes=page_bytes,
                miss_penalty_ns=miss_penalty_ns,
            )
        )
        self._note("degrade_mtt", host.name)
        return host

    def expire_mac(self, target):
        """Drop the host's MAC entry from its ToR's table (reboot /
        table-overflow aging): lossless traffic toward it floods."""
        host = self.resolve_host(target)
        tor = self.tor_of(host)
        tor.tables.mac_table.expire(host.mac)
        self._note("expire_mac", "%s@%s" % (host.name, tor.name))
        return host

    # -- config drift --------------------------------------------------------

    def drift_dscp_map(self, target, dscp_to_priority):
        """Swap one switch onto a wrong DSCP->queue map (section 5.1's
        config-drift class): traffic classified lossless fabric-wide lands
        in lossy queues at this hop.  Copies the shared config."""
        switch = self.resolve_switch(target)
        switch.pfc_config = switch.pfc_config.copy(
            dscp_to_priority=dict(dscp_to_priority)
        )
        self._note("drift_dscp_map", switch.name)
        return switch

    def drift_buffer_alpha(self, target, alpha):
        """Ship one switch with a wrong dynamic threshold (the section
        6.2 incident: alpha silently 1/64 instead of 1/16).  The live
        SharedBuffer reads thresholds from its config on every admit, so
        the drift takes effect immediately."""
        switch = self.resolve_switch(target)
        drifted = switch.buffer_config.copy(alpha=alpha)
        switch.buffer_config = drifted
        if switch.buffer is not None:
            switch.buffer.config = drifted
        self._note("drift_buffer_alpha", switch.name)
        return switch
