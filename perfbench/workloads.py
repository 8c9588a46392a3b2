"""The benchmark's three traffic mixes.

Every input is drawn by this module's own generator from the workload
seed: host pairs, arrival times, message and flow sizes, which links
are lossy.  The simulator sees only those inputs, through its public
API (topology builders, ``connect_qp_pair``/``post_send``,
``connect_tcp_pair``, ``enable_dcqcn``, ``FlowSim.add_host_flow``/
``run``), and its own RNG streams are seeded from the same seed.

Each workload offers ``generate(seed)`` (the inputs) and
``rep(seed, inputs, timer, recorder)``, one complete repetition: set up,
run a fixed simulated span (to completion on ``flow_clos``), then check
the end state.  ``timer(block)`` runs each timed phase and returns
``(result, host seconds)``; the caller decides how host time is counted.  A repetition returns a
:class:`Rep` holding host timings, the simulated work done, a digest of
the layer counters and any correctness failures.  Identical seeds give
identical digests; that is what lets a speed-only change show that the
simulation did not move.
"""

import hashlib
import random
import time
import zlib

from repro.dcqcn import enable_dcqcn
from repro.faults import FaultInjector, install_default_auditors
from repro.faults.invariants import CONSERVATION_INVARIANTS
from repro.flowsim import FlowSim, clos_flow
from repro.nic.mtt import MttConfig
from repro.nic.nic import NicConfig
from repro.rdma import connect_qp_pair, post_send
from repro.sim import SeededRng
from repro.sim.units import KB, MB, US
from repro.switch.buffer import BufferConfig
from repro.switch.ecn import EcnConfig
from repro.switch.pfc import PfcConfig
from repro.tcp import connect_tcp_pair
from repro.topo import single_switch, three_tier_clos
from repro.workloads import WEB_CDF, ClosedLoopSender, RdmaChannel, TcpChannel

clock = time.perf_counter

#: Simulated time the fabric runs at boot so switch tables populate.
SETTLE_NS = 100_000

#: DSCP -> PFC priority for the Clos: the default "DSCP mod 8", except
#: that CNPs (the QP's default DSCP 48) ride priority 6, the CNP priority
#: the QP config names.  Under plain mod 8 they land in priority 0 behind
#: the saturating lossless class and never reach a sender, so DCQCN
#: would never cut a rate.
CLOS_DSCP_MAP = {dscp: dscp % 8 for dscp in range(64)}
CLOS_DSCP_MAP[48] = 6


class Rep:
    """One repetition's outcome."""

    __slots__ = (
        "build_s", "boot_s", "wire_s", "run_s", "sim_us", "delivered",
        "counters", "layers", "failures",
    )

    def __init__(self, build_s, boot_s, wire_s, run_s, sim_us, delivered,
                 counters, layers, failures):
        self.build_s = build_s
        self.boot_s = boot_s
        self.wire_s = wire_s
        self.run_s = run_s
        self.sim_us = sim_us
        self.delivered = delivered
        self.counters = counters
        self.layers = layers
        self.failures = failures

    @property
    def setup_s(self):
        return self.build_s + self.boot_s + self.wire_s

    @property
    def digest(self):
        return digest(self.counters)


def digest(counters):
    """A short stable digest of a nested tuple of integers."""
    return hashlib.sha256(repr(counters).encode()).hexdigest()[:16]


def stratified_sizes(rng, n, cdf):
    """``n`` sizes from ``cdf``, one uniform draw inside each of ``n``
    equal probability strata, shuffled.  Each seed still gets its own
    sizes, but the byte volume, and so the offered load, barely moves
    between seeds."""
    sizes = [max(1, cdf.quantile((k + rng.random()) / n)) for k in range(n)]
    rng.shuffle(sizes)
    return sizes


def poisson_times(rng, n, window_ns):
    """``n`` arrival instants of a Poisson process over ``window_ns``,
    conditioned on its count: sorted independent uniforms."""
    return sorted(int(rng.random() * window_ns) for _ in range(n))


def balanced_pairs(rng, n_hosts, n_pairs):
    """``n_pairs`` (src, dst) pairs with src != dst in which every host is
    a source, and a destination, as often as every other to within one.
    Each column runs through the hosts in rounds, shuffled afresh each
    round.  Uniformly random pairs would load some receivers several
    times more than others, and the work per simulated microsecond would
    then move with the seed."""

    def column():
        out = []
        while len(out) < n_pairs:
            hosts = list(range(n_hosts))
            rng.shuffle(hosts)
            out += hosts
        return out[:n_pairs]

    srcs, dsts = column(), column()
    for i in range(n_pairs):
        j = i
        while dsts[j] == srcs[i] or dsts[i] == srcs[j]:
            j = rng.randrange(n_pairs)
        dsts[i], dsts[j] = dsts[j], dsts[i]
    return list(zip(srcs, dsts))


def pin_ecmp_seeds(topo):
    """Give every switch an ECMP seed derived from its name by CRC32.

    The switch constructor defaults to ``hash(name)``, which changes
    with each process's string-hash salt, and the benchmark must give
    the same run for the same seed in every process."""
    for switch in topo.fabric.switches:
        switch.ecmp_seed = zlib.crc32(switch.name.encode())
    return topo


# -- counters ------------------------------------------------------------------


def fabric_counters(fabric):
    """Every integer counter of the fabric's devices and links."""
    switches = tuple(
        (
            sw.counters.rx_packets,
            sw.counters.tx_enqueued,
            sw.counters.total_drops,
            sw.counters.ecn_marked,
            sw.pause_frames_sent(),
            sw.pause_frames_received(),
        )
        for sw in fabric.switches
    )
    links = tuple((link.delivered, link.lost) for link in fabric.links)
    nics = tuple(
        (
            host.nic.stats.tx_packets,
            host.nic.stats.rx_processed,
            host.nic.stats.pause_generated,
            host.nic.mtt.hits if host.nic.mtt else 0,
            host.nic.mtt.misses if host.nic.mtt else 0,
        )
        for host in fabric.hosts
    )
    return switches, links, nics


def qp_counters(qps):
    return tuple(
        (
            qp.stats.data_packets_sent,
            qp.stats.retransmitted_packets,
            qp.stats.bytes_completed,
            qp.stats.messages_completed,
            qp.stats.timeouts,
            qp.stats.cnps_received,
        )
        for qp in qps
    )


def rp_counters(rps):
    return tuple((rp.cnps_handled, rp.rate_decreases, rp.rate_increases) for rp in rps)


def tcp_counters(conns):
    return tuple(
        (c.stats.segments_sent, c.stats.retransmits, c.stats.bytes_delivered)
        for c in conns
    )


def packet_layers(fabrics, qps, rps, conns, events, dispatches, fcts_ns):
    """The exact per-layer counters of a packet-level run over ``fabrics``."""
    switches = [sw for fabric in fabrics for sw in fabric.switches]
    hosts = [host for fabric in fabrics for host in fabric.hosts]
    links = [link for fabric in fabrics for link in fabric.links]
    delivered = sum(link.delivered for link in links)
    hits = sum(h.nic.mtt.hits for h in hosts if h.nic.mtt)
    misses = sum(h.nic.mtt.misses for h in hosts if h.nic.mtt)
    sent = sum(qp.stats.data_packets_sent for qp in qps)
    return {
        "sim.events": events,
        "sim.dispatches": dispatches,
        "net.frames_delivered": delivered,
        "net.frames_lost": sum(link.lost for link in links),
        "switch.pause_sent": sum(sw.pause_frames_sent() for sw in switches),
        "switch.pause_received": sum(sw.pause_frames_received() for sw in switches),
        "switch.ecn_marked": sum(sw.counters.ecn_marked for sw in switches),
        "switch.drops": sum(sw.counters.total_drops for sw in switches),
        "switch.buffer_peak_bytes": max(
            (sw.buffer.peak_shared_in_use for sw in switches if sw.buffer), default=0
        ),
        "nic.pause_generated": sum(h.nic.stats.pause_generated for h in hosts),
        "nic.mtt_hits": hits,
        "nic.mtt_misses": misses,
        "rdma.data_packets_sent": sent,
        "rdma.retransmitted_packets": sum(qp.stats.retransmitted_packets for qp in qps),
        "rdma.messages_completed": sum(qp.stats.messages_completed for qp in qps),
        "rdma.timeouts": sum(qp.stats.timeouts for qp in qps),
        "dcqcn.cnps": sum(rp.cnps_handled for rp in rps),
        "dcqcn.rate_decreases": sum(rp.rate_decreases for rp in rps),
        "tcp.retransmits": sum(c.stats.retransmits for c in conns),
        "fcts_ns": list(fcts_ns),
    }


# -- end-state checks ----------------------------------------------------------


def balance(fabric):
    """The two sides of each conservation identity, per link and per
    switch, as cumulative counters:

    * link: (data and pause frames its two ports clocked out,
      frames it delivered + frames it lost);
    * switch: (frames admitted to an egress queue, frames sent from its
      ports + frames still queued + frames dropped at the head).
    """
    links = []
    for link in fabric.links:
        sent = 0
        for port in (link.port_a, link.port_b):
            stats = port.stats
            sent += stats.total_tx_packets + stats.pause_tx + stats.resume_tx
        links.append((sent, link.delivered + link.lost))
    switches = []
    for switch in fabric.switches:
        out = 0
        for port in switch.ports:
            out += port.stats.total_tx_packets + port.total_queued_packets + port.stats.head_drops
        switches.append((switch.counters.tx_enqueued, out))
    return links, switches


def check_fabric(fabric, balance_before):
    """Conservation on the end state, read once after the timed phase.

    * the conservation auditors of :mod:`repro.faults.invariants`, run
      once by hand (started as a periodic tick they would schedule
      events and change the run);
    * frames sent = delivered + lost on every link, and frames admitted
      = sent + still queued + dropped at the head on every switch, both
      over the timed run (``balance_before`` is :func:`balance` when
      the run began: boot-time ARP floods bypass both counters);
    * no ``buffer-headroom-overflow`` drop, which would mean the
      lossless class lost a frame.
    """
    failures = []
    registry = install_default_auditors(fabric, mode="record")
    registry.audit_now()
    for violation in registry.violations_in_class(CONSERVATION_INVARIANTS):
        failures.append("audit: %r" % (violation,))
    links_after, switches_after = balance(fabric)
    links_before, switches_before = balance_before
    for what, devices, before, after in (
        ("link", fabric.links, links_before, links_after),
        ("switch", fabric.switches, switches_before, switches_after),
    ):
        for device, (in0, out0), (in1, out1) in zip(devices, before, after):
            if in1 - in0 != out1 - out0:
                failures.append(
                    "%s %s: %d frames in but %d accounted for"
                    % (what, device.name, in1 - in0, out1 - out0)
                )
    for switch in fabric.switches:
        overflow = switch.counters.drops["buffer-headroom-overflow"]
        if overflow:
            failures.append("switch %s: %d lossless headroom overflows" % (switch.name, overflow))
    return failures


def check_qps(qps, posted_bytes):
    """Per QP: bytes completed never exceed bytes posted."""
    return [
        "qp %d: %d bytes completed of %d posted" % (qp.qpn, qp.stats.bytes_completed, posted)
        for qp, posted in zip(qps, posted_bytes)
        if qp.stats.bytes_completed > posted
    ]


class Workload:
    """What every workload shares."""

    def setup_only(self, seed, inputs):
        """Build, boot and wire without running: a set-up timing sample."""
        build_s, boot_s, wire_s, _state = self.setup(seed, inputs)
        return Rep(build_s, boot_s, wire_s, 0.0, 0.0, 0, (), {}, [])


# -- clos_lossless --------------------------------------------------------------


class ClosLossless(Workload):
    """The deployed config: 3-tier Clos, DSCP PFC, ECN + DCQCN, closed-loop
    1 MB SENDs between cross-podset pairs at saturation."""

    name = "clos_lossless"
    span_ns = 150 * US
    message_bytes = 1 * MB
    qps_per_host = 4

    @staticmethod
    def build(seed):
        return pin_ecmp_seeds(
            three_tier_clos(
                n_podsets=2,
                tors_per_podset=4,
                hosts_per_tor=4,
                leaves_per_podset=4,
                n_spines=4,
                seed=seed,
                ecn_config=EcnConfig(),
                pfc_config=PfcConfig(dscp_to_priority=CLOS_DSCP_MAP),
            )
        )

    def generate(self, seed):
        """Cross-podset pairs: in each of ``qps_per_host`` rounds, every
        host sends to one host of the other podset and receives from one,
        by two seeded permutations.  Several QPs per host spread the
        pairs over the ECMP paths evenly enough that the work per
        simulated microsecond barely depends on the seed."""
        rng = random.Random("perfbench/clos_lossless/%d" % seed)
        half = 32 // 2
        pairs = []
        for _round in range(self.qps_per_host):
            for offset_src, offset_dst in ((0, half), (half, 0)):
                dsts = list(range(half))
                rng.shuffle(dsts)
                pairs += [(offset_src + i, offset_dst + dsts[i]) for i in range(half)]
        return pairs

    def wire(self, topo, seed, pairs):
        """QPs, DCQCN and one closed-loop sender per pair."""
        hosts = topo.fabric.hosts
        rng = SeededRng(seed, "perfbench/qp")
        qps, rps, senders = [], [], []
        for src, dst in pairs:
            qp, peer = connect_qp_pair(hosts[src], hosts[dst], rng)
            rps.append(enable_dcqcn(qp))
            qps += [qp, peer]
            senders.append(ClosedLoopSender(RdmaChannel(qp), self.message_bytes).start())
        return qps, rps, senders

    def setup(self, seed, pairs):
        t0 = clock()
        topo = self.build(seed)
        t1 = clock()
        topo.boot(settle_ns=SETTLE_NS)
        t2 = clock()
        wired = self.wire(topo, seed, pairs)
        t3 = clock()
        return t1 - t0, t2 - t1, t3 - t2, (topo, wired)

    def rep(self, seed, pairs, timer, recorder=None):
        build_s, boot_s, wire_s, (topo, (qps, rps, senders)) = self.setup(seed, pairs)
        if recorder is not None:
            recorder.reset()
        fabric = topo.fabric
        sim = topo.sim
        before_run = balance(fabric)
        before = sum(link.delivered for link in fabric.links)
        _, run_s = timer(lambda: sim.run(until=sim.now + self.span_ns))
        delivered = sum(link.delivered for link in fabric.links) - before
        counters = (sim.events_fired, fabric_counters(fabric), qp_counters(qps), rp_counters(rps))
        fcts = [lat for s in senders for lat in s.latencies_ns]
        layers = packet_layers([fabric], qps, rps, (), sim.events_fired, sim.dispatches, fcts)
        posted = []
        for sender in senders:
            posted += [sender.posted_messages * self.message_bytes, 0]
        failures = check_fabric(fabric, before_run) + check_qps(qps, posted)
        return Rep(build_s, boot_s, wire_s, run_s, self.span_ns / 1000.0,
                   delivered, counters, layers, failures)


# -- edge_mix ------------------------------------------------------------------


class EdgeMix(Workload):
    """One ToR, 16 hosts: open-loop Poisson RDMA SENDs with web-CDF sizes
    at about half the host line rate over a fixed QP set, seeded loss on
    a few host links, and closed-loop TCP across a lossy egress cap.
    Every NIC has the slow-receiver experiment's MTT cache (2K entries
    of 4 KB pages, 1.5 us per miss), so receive-side translation misses
    stall the NIC pipeline and the NICs pause the ToR.

    One repetition runs ``n_fabrics`` independent ToRs, each with its own
    inputs drawn from the seed.  Which hosts get the lossy links, the TCP
    flows and the heaviest receive load is fixed for a ToR's whole run,
    and its work per simulated microsecond moves by about 6% with it;
    summing several ToRs averages that out."""

    name = "edge_mix"
    n_fabrics = 3
    n_hosts = 16
    qps_per_host = 3
    span_ns = 800 * US
    load = 0.5
    line_bps = 40e9
    lossy_links = 3
    loss_rate = 0.002
    tcp_flows = 3
    tcp_message_bytes = 64 * KB

    @staticmethod
    def build(seed):
        return pin_ecmp_seeds(
            single_switch(
                n_hosts=EdgeMix.n_hosts,
                seed=seed,
                buffer_config=BufferConfig(lossy_egress_cap_bytes=120 * KB),
                nic_config=NicConfig(
                    mtt_config=MttConfig(entries=2048, page_bytes=4 * KB, miss_penalty_ns=1500)
                ),
            )
        )

    def generate(self, seed):
        """One input set per ToR."""
        rng = random.Random("perfbench/%s/%d" % (self.name, seed))
        return [self.generate_tor(rng) for _ in range(self.n_fabrics)]

    def generate_tor(self, rng):
        n = self.n_hosts
        qp_dsts = [[] for _ in range(n)]
        for src, dst in balanced_pairs(rng, n, n * self.qps_per_host):
            qp_dsts[src].append(dst)
        per_host = round(self.load * self.line_bps / 8 / WEB_CDF.mean() * self.span_ns / 1e9)
        messages = []
        for host in range(n):
            times = poisson_times(rng, per_host, self.span_ns)
            sizes = stratified_sizes(rng, per_host, WEB_CDF)
            for t_ns, size in zip(times, sizes):
                messages.append((t_ns, host, rng.randrange(self.qps_per_host), size))
        messages.sort()
        lossy = rng.sample(range(n), self.lossy_links)
        tcp_hosts = rng.sample(range(n), self.tcp_flows + 1)
        return {
            "qp_dsts": qp_dsts,
            "messages": messages,
            "lossy": lossy,
            "tcp_victim": tcp_hosts[0],
            "tcp_srcs": tcp_hosts[1:],
        }

    def wire(self, topo, seed, index, inputs, fcts):
        """QPs, loss rules, scheduled posts and TCP senders of ToR ``index``."""
        hosts = topo.fabric.hosts
        sim = topo.sim
        rng = SeededRng(seed, "perfbench/qp/%d" % index)
        qp_rows = [
            [connect_qp_pair(hosts[i], hosts[j], rng) for j in dsts]
            for i, dsts in enumerate(inputs["qp_dsts"])
        ]
        injector = FaultInjector(topo.fabric, rng=SeededRng(seed, "perfbench/loss/%d" % index))
        for host in inputs["lossy"]:
            injector.drop_packets(
                (hosts[host].name, topo.tor.name), probability=self.loss_rate, match="data"
            )
        origin = sim.now
        posted = {}
        for t_ns, host, slot, size in inputs["messages"]:
            qp = qp_rows[host][slot][0]
            posted[qp] = posted.get(qp, 0) + size
            due = origin + t_ns

            def done(_wr, completed_ns, due=due):
                fcts.append(completed_ns - due)

            sim.at(due, post_send, qp, size, done)
        conns = []
        victim = hosts[inputs["tcp_victim"]]
        for src in inputs["tcp_srcs"]:
            conn, peer = connect_tcp_pair(hosts[src], victim, rng)
            conns += [conn, peer]
            ClosedLoopSender(TcpChannel(conn), self.tcp_message_bytes).start()
        qps, posted_bytes = [], []
        for row in qp_rows:
            for qp, peer in row:
                qps += [qp, peer]
                posted_bytes += [posted.get(qp, 0), 0]
        return qps, posted_bytes, conns

    def setup(self, seed, tors):
        build_s = boot_s = wire_s = 0.0
        wired = []
        for index, inputs in enumerate(tors):
            fcts = []
            t0 = clock()
            topo = self.build(seed)
            t1 = clock()
            topo.boot(settle_ns=SETTLE_NS)
            t2 = clock()
            qps, posted_bytes, conns = self.wire(topo, seed, index, inputs, fcts)
            t3 = clock()
            build_s += t1 - t0
            boot_s += t2 - t1
            wire_s += t3 - t2
            wired.append((topo, qps, posted_bytes, conns, fcts))
        return build_s, boot_s, wire_s, wired

    def rep(self, seed, tors, timer, recorder=None):
        build_s, boot_s, wire_s, wired = self.setup(seed, tors)
        if recorder is not None:
            recorder.reset()
        run_s = 0.0
        delivered = events = dispatches = 0
        counters, failures = [], []
        for topo, qps, posted_bytes, conns, fcts in wired:
            fabric = topo.fabric
            sim = topo.sim
            before_run = balance(fabric)
            before = sum(link.delivered for link in fabric.links)
            _, seconds = timer(lambda: sim.run(until=sim.now + self.span_ns))
            run_s += seconds
            delivered += sum(link.delivered for link in fabric.links) - before
            events += sim.events_fired
            dispatches += sim.dispatches
            counters.append((
                sim.events_fired, fabric_counters(fabric), qp_counters(qps),
                tcp_counters(conns), len(fcts), sum(fcts),
            ))
            failures += check_fabric(fabric, before_run) + check_qps(qps, posted_bytes)
        layers = packet_layers(
            [topo.fabric for topo, *_rest in wired],
            [qp for _topo, qps, *_rest in wired for qp in qps], (),
            [conn for *_rest, conns, _fcts in wired for conn in conns],
            events, dispatches, [fct for *_rest, fcts in wired for fct in fcts],
        )
        return Rep(build_s, boot_s, wire_s, run_s, self.n_fabrics * self.span_ns / 1000.0,
                   delivered, tuple(counters), layers, failures)


# -- flow_clos -----------------------------------------------------------------


class FlowClos(Workload):
    """The flow-level tier on a 512-host Clos: Poisson web-CDF flows at
    the repo's ``flowsim_churn`` arrival density, in exact mode (every
    arrival or completion batch re-solves max-min), run to completion.

    One repetition runs ``n_fabrics`` independent fabrics, each with its
    own inputs drawn from the seed.  How long a fabric takes to drain
    depends on its hottest spine link, which moves by about 12% from one
    draw to the next; summing several fabrics averages that out."""

    name = "flow_clos"
    n_fabrics = 12
    flows_per_fabric = 1000
    #: ``flowsim_churn`` (``repro.bench``): 4000 flows on 32 hosts over 20 ms.
    flows_per_host_per_ms = 4000 / 32 / 20
    n_hosts = 4 * 8 * 16

    def window_ns(self):
        """The arrival window of one fabric's flows."""
        return int(self.flows_per_fabric / (self.flows_per_host_per_ms * self.n_hosts) * 1e6)

    @staticmethod
    def topology():
        return clos_flow(
            n_podsets=4, tors_per_podset=8, hosts_per_tor=16, leaves_per_podset=4, n_spines=8
        )

    def generate(self, seed):
        """One flow list per fabric: (start, src, dst, size, sport)."""
        rng = random.Random("perfbench/%s/%d" % (self.name, seed))
        fabrics = []
        for _fabric in range(self.n_fabrics):
            n = self.flows_per_fabric
            times = poisson_times(rng, n, self.window_ns())
            sizes = stratified_sizes(rng, n, WEB_CDF)
            pairs = balanced_pairs(rng, self.n_hosts, n)
            fabrics.append([
                (t_ns, src, dst, size, rng.randrange(49152, 65536))
                for t_ns, size, (src, dst) in zip(times, sizes, pairs)
            ])
        return fabrics

    def setup(self, seed, fabrics):
        build_s = wire_s = 0.0
        wired = []
        for flows in fabrics:
            t0 = clock()
            sim = FlowSim.from_topology(self.topology(), rate_update_interval_ns=0)
            t1 = clock()
            ids = [
                sim.add_host_flow(src, dst, size, start_ns=t_ns, sport=sport)
                for t_ns, src, dst, size, sport in flows
            ]
            t2 = clock()
            build_s += t1 - t0
            wire_s += t2 - t1
            wired.append((sim, ids))
        return build_s, 0.0, wire_s, wired

    def rep(self, seed, fabrics, timer, recorder=None):
        build_s, boot_s, wire_s, wired = self.setup(seed, fabrics)
        if recorder is not None:
            recorder.reset()
        runs = []
        run_s = 0.0
        for sim, _ids in wired:
            run, seconds = timer(sim.run)
            runs.append(run)
            run_s += seconds
        failures = []
        for (sim, ids), flows, run in zip(wired, fabrics, runs):
            failures += check_flows(sim, ids, flows, run)
        layers = {
            "flowsim.events": sum(run.n_events for run in runs),
            "flowsim.recomputes": sum(run.n_recomputes for run in runs),
        }
        return Rep(build_s, boot_s, wire_s, run_s, sum(run.sim_ns for run in runs) / 1000.0,
                   sum(run.n_completed for run in runs),
                   tuple(run.fingerprint() for run in runs), layers, failures)


def check_flows(sim, ids, flows, run):
    """A fabric run to completion: every added flow completed, each with
    the start time and size it was generated with."""
    failures = []
    if run.n_completed != len(flows) or run.n_active:
        failures.append(
            "%d completed + %d active of %d added" % (run.n_completed, run.n_active, len(flows))
        )
    expected = {flow_id: (flow[0], flow[3]) for flow_id, flow in zip(ids, flows)}
    for flow_id, start_ns, _finish_ns, size in sim.completed:
        if expected.get(flow_id) != (start_ns, size):
            failures.append("flow %d completed as (%d ns, %d B), generated as %r"
                            % (flow_id, start_ns, size, expected.get(flow_id)))
    return failures


WORKLOADS = {w.name: w for w in (ClosLossless(), EdgeMix(), FlowClos())}
