"""The canonical benchmark scenarios.

Each scenario is a self-contained build-and-run function returning a
:class:`ScenarioRun`: how many events fired, how many packets crossed a
link, how much simulated time elapsed — and a **fingerprint** digesting
every counter that could diverge between two runs.  The fingerprint is
the optimization safety net: a hot-path change that alters event
ordering, drops accounting, or perturbs a single RNG draw produces a
different fingerprint, and ``tests/test_bench.py`` pins the fingerprints
against ``benchmarks/BASELINE.json``.

Scenarios are chosen to stress complementary parts of the packet path:

========================  ====================================================
``engine_churn``          raw event dispatch + timer re-arm (no packets)
``single_flow``           one QP through one ToR, 1%% loss, go-back-N recovery
``incast_tor``            7-to-1 incast into one ToR, PFC pause/resume active
``pause_storm``           a broken NIC storms a 3-tier Clos; watchdogs confine
``clos_slice``            saturating cross-podset traffic on a 3-tier Clos
``clos_pod``              one full podset (~4x clos_slice), same traffic shape
``clos_pod_parallel``     clos_pod sharded across processes, windowed sync
``tcp_baseline``          TCP incast with lossy-egress drops and recovery
``flowsim_churn``         flow-level tier: exact-mode churn on a two-tier pod
``flowsim_clos``          flow-level tier: 512-host Clos, interval batching
========================  ====================================================

The two ``flowsim_*`` scenarios benchmark the *flow-level* simulator
(:mod:`repro.flowsim`) -- there ``packets`` counts completed flows, so
``packets_per_sec`` reads as flows/s, and ``events_per_packet`` as
events per completed flow.  Their fingerprints digest the engine's
integer-only run tuple (completion CRC included), pinned exactly like
the packet scenarios'.

Cross-process determinism: every switch's ECMP seed defaults to
``crc32(name)`` (never ``hash()``, which varies per process under hash
randomization) and all flow keys are integers, so fingerprints are
stable across processes, machines and Python versions — which is what
lets the baseline file be checked in at all.
"""

import hashlib

from repro.sim import SeededRng, Simulator
from repro.sim.timer import Timer
from repro.sim.units import KB, MB, MS, US


class ScenarioRun:
    """The outcome of one scenario execution (simulated side only).

    ``events`` is the engine's event count (it participates in
    fingerprints); ``dispatches`` is the number of callbacks the engine
    invoked -- the same count, reported separately as the
    machine-independent cost that ``events_per_packet`` is derived from.
    """

    __slots__ = ("events", "dispatches", "packets", "sim_ns", "fingerprint", "detail")

    def __init__(
        self, events, packets, sim_ns, fingerprint_tuple, dispatches=None, detail=None
    ):
        self.events = events
        self.dispatches = events if dispatches is None else dispatches
        self.packets = packets
        self.sim_ns = sim_ns
        self.fingerprint = digest(fingerprint_tuple)
        self.detail = detail or {}


class BenchScenario:
    """One named scenario: metadata plus its runner."""

    __slots__ = ("name", "title", "paper_ref", "fn")

    def __init__(self, name, title, paper_ref, fn):
        self.name = name
        self.title = title
        self.paper_ref = paper_ref
        self.fn = fn

    def run(self, seed=1):
        return self.fn(seed)


def digest(fingerprint_tuple):
    """A short stable digest of a nested int/str tuple."""
    return hashlib.sha256(repr(fingerprint_tuple).encode()).hexdigest()[:16]


def _link_counters(fabric):
    return tuple((link.delivered, link.lost) for link in fabric.links)


def _switch_counters(fabric):
    return tuple(
        (
            sw.counters.rx_packets,
            sw.counters.tx_enqueued,
            sw.counters.total_drops,
            sw.pause_frames_sent(),
            sw.pause_frames_received(),
        )
        for sw in fabric.switches
    )


def _packets_delivered(fabric):
    return sum(link.delivered for link in fabric.links)


def _sum_tuples(rows):
    """Elementwise sum of equally-shaped nested int tuples.

    The parallel merge: every device (and every sender) is live in
    exactly one shard replica and inert (all-zero counters) in the rest,
    except cut links, whose two transmit directions are counted by the
    two owning replicas -- so summing per-shard counter tuples
    reconstructs the serial tuples exactly.
    """
    return tuple(
        _sum_tuples(cells) if isinstance(cells[0], tuple) else sum(cells)
        for cells in zip(*rows)
    )


# -- scenarios ---------------------------------------------------------------


def engine_churn(seed):
    """Raw substrate cost: chained events plus timer re-arm churn.

    No packets: this floor is what every packet-level scenario pays per
    event before any model code runs.
    """
    sim = Simulator()
    rng = SeededRng(seed, "bench/engine")
    remaining = [200_000]
    timer = Timer(sim, lambda: None, name="churn")

    def tick():
        remaining[0] -= 1
        # Re-arm a timer on every tick: the RTO/pause-refresh pattern.
        timer.start(rng.randint(5, 50))
        if remaining[0] > 0:
            sim.schedule(10, tick)

    sim.schedule(0, tick)
    sim.run_until_idle()
    return ScenarioRun(
        events=sim.events_fired,
        dispatches=sim.dispatches,
        packets=0,
        sim_ns=sim.now,
        fingerprint_tuple=(sim.events_fired, sim.now),
    )


def single_flow(seed):
    """One go-back-N QP through one ToR with 1% link loss (section 4.1's
    recovery machinery on the wire, minus the livelock)."""
    from repro.rdma import GoBackN, QpConfig, connect_qp_pair, post_send
    from repro.topo import single_switch

    topo = single_switch(n_hosts=2, seed=seed).boot()
    link = topo.fabric.links[0]
    link.loss_rate = 0.01
    link._loss_rng = SeededRng(seed, "bench/loss")
    rng = SeededRng(seed, "bench/flow")
    config = QpConfig(recovery=GoBackN(), rto_ns=200 * US)
    qp, _ = connect_qp_pair(
        topo.hosts[0], topo.hosts[1], rng, config_a=config, config_b=config
    )
    wr = post_send(qp, 8 * MB)
    topo.sim.run(until=topo.sim.now + 25 * MS)
    return ScenarioRun(
        events=topo.sim.events_fired,
        dispatches=topo.sim.dispatches,
        packets=_packets_delivered(topo.fabric),
        sim_ns=topo.sim.now,
        fingerprint_tuple=(
            topo.sim.events_fired,
            int(wr.completed),
            qp.stats.data_packets_sent,
            qp.stats.retransmitted_packets,
            qp.stats.naks_received,
            qp.stats.timeouts,
            _link_counters(topo.fabric),
        ),
    )


def incast_tor(seed):
    """7-to-1 incast under one ToR: the PFC pause/resume and shared-buffer
    admission hot path (section 2's mechanism at full boil)."""
    from repro.rdma import connect_qp_pair
    from repro.switch.buffer import BufferConfig
    from repro.topo import single_switch
    from repro.workloads import ClosedLoopSender, RdmaChannel

    topo = single_switch(
        n_hosts=8,
        seed=seed,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
    ).boot()
    rng = SeededRng(seed, "bench/incast")
    victim = topo.hosts[0]
    qps = []
    for src in topo.hosts[1:]:
        qp, _ = connect_qp_pair(src, victim, rng)
        qps.append(qp)
        ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 5 * MS)
    return ScenarioRun(
        events=topo.sim.events_fired,
        dispatches=topo.sim.dispatches,
        packets=_packets_delivered(topo.fabric),
        sim_ns=topo.sim.now,
        fingerprint_tuple=(
            topo.sim.events_fired,
            tuple(qp.stats.data_packets_sent for qp in qps),
            tuple(qp.stats.bytes_completed for qp in qps),
            topo.tor.buffer.peak_shared_in_use,
            _switch_counters(topo.fabric),
            _link_counters(topo.fabric),
        ),
    )


def pause_storm(seed):
    """A NIC whose receive pipeline dies mid-run storms a 3-tier Clos;
    both watchdogs are armed (section 4.3, timescales compressed)."""
    from repro.nic.nic import NicConfig, NicWatchdogConfig
    from repro.switch.buffer import BufferConfig
    from repro.switch.watchdog import SwitchWatchdogConfig
    from repro.topo import three_tier_clos
    from repro.workloads import ClosedLoopSender, RdmaChannel
    from repro.rdma import connect_qp_pair

    nic_config = NicConfig(
        watchdog_config=NicWatchdogConfig(
            stall_threshold_ns=1 * MS, poll_interval_ns=250 * US
        )
    )
    topo = three_tier_clos(
        n_podsets=2,
        tors_per_podset=2,
        hosts_per_tor=2,
        leaves_per_podset=2,
        n_spines=2,
        seed=seed,
        nic_config=nic_config,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=96 * KB),
    ).boot()
    for podset in topo.podsets:
        for tor in podset["tors"]:
            tor.enable_storm_watchdog(
                SwitchWatchdogConfig(poll_interval_ns=250 * US, reenable_after_ns=2 * MS)
            )
    sim = topo.sim
    rng = SeededRng(seed, "bench/storm")
    hosts = topo.hosts
    victim = hosts[0]
    qps = []
    for src in hosts[1:4]:
        qp, _ = connect_qp_pair(src, victim, rng)
        qps.append(qp)
        ClosedLoopSender(RdmaChannel(qp), 512 * KB).start()
    for a, b in zip(hosts[4:6], hosts[6:8]):
        qp, _ = connect_qp_pair(a, b, rng)
        qps.append(qp)
        ClosedLoopSender(RdmaChannel(qp), 512 * KB).start()
    sim.schedule(1 * MS, victim.nic.break_rx_pipeline)
    sim.run(until=sim.now + 6 * MS)
    return ScenarioRun(
        events=sim.events_fired,
        dispatches=sim.dispatches,
        packets=_packets_delivered(topo.fabric),
        sim_ns=sim.now,
        fingerprint_tuple=(
            sim.events_fired,
            victim.nic.stats.pause_generated,
            victim.nic.watchdog_trips,
            sum(sw.watchdog_trips() for sw in topo.fabric.switches),
            tuple(qp.stats.bytes_completed for qp in qps),
            _switch_counters(topo.fabric),
            _link_counters(topo.fabric),
        ),
    )


def clos_slice(seed):
    """The flagship: saturating cross-podset RDMA pairs on a 3-tier Clos
    slice — ECMP, PFC, multi-hop forwarding and NIC scheduling all hot
    (the packet-level cross-check of figure 7's fabric)."""
    from repro.topo import three_tier_clos
    from repro.experiments.common import saturate_pairs

    topo = three_tier_clos(
        n_podsets=2,
        tors_per_podset=2,
        hosts_per_tor=2,
        leaves_per_podset=2,
        n_spines=2,
        seed=seed,
    ).boot()
    sim = topo.sim
    rng = SeededRng(seed, "bench/clos")
    hosts = topo.hosts
    half = len(hosts) // 2
    pairs = [(hosts[i], hosts[half + i]) for i in range(half)]
    pairs += [(hosts[half + i], hosts[i]) for i in range(half)]
    senders = saturate_pairs(sim, pairs, 1 * MB, rng)
    start = sim.now
    sim.run(until=start + 4 * MS)
    total_bytes = sum(s.completed_bytes for s in senders)
    return ScenarioRun(
        events=sim.events_fired,
        dispatches=sim.dispatches,
        packets=_packets_delivered(topo.fabric),
        sim_ns=sim.now,
        fingerprint_tuple=(
            sim.events_fired,
            tuple(s.completed_bytes for s in senders),
            topo.fabric.total_drops(),
            _switch_counters(topo.fabric),
            _link_counters(topo.fabric),
        ),
        detail={"aggregate_gbps": total_bytes * 8.0 / (sim.now - start)},
    )


def clos_pod(seed):
    """One full podset of the paper's fabric at ~4x the clos_slice scale:
    4 ToRs x 4 hosts per podset, 4 leaves, 4 spines — the scaling check
    that the engine's per-event cost stays flat as the topology grows."""
    from repro.topo import three_tier_clos
    from repro.experiments.common import saturate_pairs

    topo = three_tier_clos(
        n_podsets=2,
        tors_per_podset=4,
        hosts_per_tor=4,
        leaves_per_podset=4,
        n_spines=4,
        seed=seed,
    ).boot()
    sim = topo.sim
    rng = SeededRng(seed, "bench/pod")
    hosts = topo.hosts
    half = len(hosts) // 2
    pairs = [(hosts[i], hosts[half + i]) for i in range(half)]
    pairs += [(hosts[half + i], hosts[i]) for i in range(half)]
    senders = saturate_pairs(sim, pairs, 1 * MB, rng)
    start = sim.now
    sim.run(until=start + 2 * MS)
    total_bytes = sum(s.completed_bytes for s in senders)
    return ScenarioRun(
        events=sim.events_fired,
        dispatches=sim.dispatches,
        packets=_packets_delivered(topo.fabric),
        sim_ns=sim.now,
        fingerprint_tuple=(
            sim.events_fired,
            tuple(s.completed_bytes for s in senders),
            topo.fabric.total_drops(),
            _switch_counters(topo.fabric),
            _link_counters(topo.fabric),
        ),
        detail={"aggregate_gbps": total_bytes * 8.0 / (sim.now - start)},
    )


#: Worker count for ``clos_pod_parallel`` -- ``python -m repro.bench
#: --workers N`` rebinds it.  The fingerprint is worker-count invariant
#: (that is the whole point); only wall-clock changes.
PARALLEL_WORKERS = 4


def _clos_pod_build(seed):
    """clos_pod's exact topology, unbooted (the parallel runner boots
    each shard's replica itself)."""
    from repro.topo import three_tier_clos

    return three_tier_clos(
        n_podsets=2,
        tors_per_podset=4,
        hosts_per_tor=4,
        leaves_per_podset=4,
        n_spines=4,
        seed=seed,
    )


def _clos_pod_start(topo, seed, harness):
    """clos_pod's exact workload construction, run in every replica so
    the RNG stream and QP wiring match the serial run byte-for-byte;
    only senders whose source host the shard owns actually start."""
    from repro.experiments.common import saturate_pairs

    rng = SeededRng(seed, "bench/pod")
    hosts = topo.hosts
    half = len(hosts) // 2
    pairs = [(hosts[i], hosts[half + i]) for i in range(half)]
    pairs += [(hosts[half + i], hosts[i]) for i in range(half)]
    index_of = {id(host): i for i, host in enumerate(topo.fabric.hosts)}
    return saturate_pairs(
        topo.sim,
        pairs,
        1 * MB,
        rng,
        start_filter=lambda _i, pair: index_of[id(pair[0])] in harness.local_hosts,
    )


def _clos_pod_report(topo, senders, harness):
    """One shard's counter contribution (zeros everywhere it is inert)."""
    return {
        "completed": tuple(s.completed_bytes for s in senders),
        "drops": topo.fabric.total_drops(),
        "switches": _switch_counters(topo.fabric),
        "links": _link_counters(topo.fabric),
    }


def clos_pod_parallel(seed):
    """clos_pod executed by the space-parallel engine: the fabric split
    into :data:`PARALLEL_WORKERS` shards, one process each, synchronized
    with lookahead windows (see docs/parallel.md).  Merged counters
    reproduce clos_pod's fingerprint byte-for-byte -- this scenario
    exists to pin that identity and to measure the wall-clock speedup
    next to clos_pod's serial number.
    """
    from repro.sim.parallel import run_parallel
    from repro.telemetry.hooks import HUB
    from repro.tracing.hooks import HUB as TRACE_HUB

    if HUB.armed is not None or TRACE_HUB.armed is not None:
        plane = "telemetry" if HUB.armed is not None else "tracing"
        print(
            "clos_pod_parallel: %s armed -- forcing the serial "
            "clos_pod path (sharded replicas cannot host one coherent "
            "collection session; see docs/%s.md)" % (plane, plane)
        )
        return clos_pod(seed)
    result = run_parallel(
        _clos_pod_build,
        PARALLEL_WORKERS,
        duration_ns=2 * MS,
        seed=seed,
        settle_ns=100_000,
        start=_clos_pod_start,
        report=_clos_pod_report,
    )
    reports = result.shard_reports
    completed = _sum_tuples([r["completed"] for r in reports])
    switches = _sum_tuples([r["switches"] for r in reports])
    links = _sum_tuples([r["links"] for r in reports])
    drops = sum(r["drops"] for r in reports)
    total_bytes = sum(completed)
    return ScenarioRun(
        events=result.events,
        dispatches=result.dispatches,
        packets=sum(delivered for delivered, _lost in links),
        sim_ns=result.sim_ns,
        fingerprint_tuple=(
            result.events,
            completed,
            drops,
            switches,
            links,
        ),
        detail={
            "workers": result.workers,
            "executor": result.executor,
            "window_ns": result.window_ns,
            "exchanges": result.exchanges,
            "frames_crossed": result.frames_crossed,
            "sync_wait_s": result.sync_wait_s,
            "aggregate_gbps": total_bytes * 8.0 / (2 * MS),
        },
    )


def tcp_baseline(seed):
    """TCP incast through one ToR with a lossy egress cap: the kernel
    stack, Reno recovery and egress drops (the figure 6 contrast)."""
    from repro.switch.buffer import BufferConfig
    from repro.tcp import connect_tcp_pair
    from repro.topo import single_switch
    from repro.workloads import ClosedLoopSender, TcpChannel

    topo = single_switch(
        n_hosts=6,
        seed=seed,
        buffer_config=BufferConfig(lossy_egress_cap_bytes=120 * KB),
    ).boot()
    rng = SeededRng(seed, "bench/tcp")
    victim = topo.hosts[0]
    conns = []
    for src in topo.hosts[1:]:
        conn, _ = connect_tcp_pair(src, victim, rng)
        conns.append(conn)
        ClosedLoopSender(TcpChannel(conn), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 6 * MS)
    return ScenarioRun(
        events=topo.sim.events_fired,
        dispatches=topo.sim.dispatches,
        packets=_packets_delivered(topo.fabric),
        sim_ns=topo.sim.now,
        fingerprint_tuple=(
            topo.sim.events_fired,
            tuple(c.stats.bytes_delivered for c in conns),
            tuple(c.stats.retransmits for c in conns),
            _switch_counters(topo.fabric),
            _link_counters(topo.fabric),
        ),
    )


def flowsim_churn(seed):
    """The flow-level tier's dispatch floor: exact-mode arrival/completion
    churn on a two-tier pod, every batch a full incremental max-min
    recompute (the solver and heap hot path, no interval batching)."""
    from repro.flowsim import FlowSim, two_tier_flow
    from repro.workloads.distributions import WEB_CDF

    topology = two_tier_flow(n_tors=4, hosts_per_tor=8)
    sim = FlowSim.from_topology(topology, rate_update_interval_ns=0)
    rng = SeededRng(seed, "bench/flowsim-churn")
    n_hosts = topology.n_hosts
    window_ns = 20 * MS
    for _ in range(4000):
        src = rng.randint(0, n_hosts - 1)
        dst = (src + rng.randint(1, n_hosts - 1)) % n_hosts
        sim.add_host_flow(
            src,
            dst,
            WEB_CDF.sample(rng),
            start_ns=rng.randint(0, window_ns - 1),
            sport=rng.randint(49152, 65535),
        )
    run = sim.run()
    return ScenarioRun(
        events=run.n_events,
        packets=run.n_completed,
        sim_ns=run.sim_ns,
        fingerprint_tuple=run.fingerprint(),
        detail={"recomputes": run.n_recomputes},
    )


def flowsim_clos(seed):
    """The flow-level tier at fabric scale: a 512-host three-tier Clos
    carrying cross-podset pair traffic from the storage CDF, rates
    re-solved on 500us interval boundaries (the F1 scenario's shape at
    bench-friendly size)."""
    from repro.experiments.flowsim_scale import build_scale_workload
    from repro.flowsim import FlowSim, clos_flow
    from repro.sim.units import US

    topology = clos_flow(
        n_podsets=4,
        tors_per_podset=8,
        hosts_per_tor=16,
        leaves_per_podset=4,
        n_spines=8,
    )
    sim = FlowSim.from_topology(topology, rate_update_interval_ns=500 * US)
    build_scale_workload(sim, topology, seed, workload="storage", n_podsets=4)
    run = sim.run()
    return ScenarioRun(
        events=run.n_events,
        packets=run.n_completed,
        sim_ns=run.sim_ns,
        fingerprint_tuple=run.fingerprint(),
        detail={"recomputes": run.n_recomputes},
    )


#: name -> BenchScenario, in presentation order.
SCENARIOS = {
    scenario.name: scenario
    for scenario in (
        BenchScenario(
            "engine_churn",
            "event dispatch + timer re-arm floor",
            "substrate (no paper section)",
            engine_churn,
        ),
        BenchScenario(
            "single_flow",
            "one lossy QP, go-back-N recovery",
            "section 4.1 machinery",
            single_flow,
        ),
        BenchScenario(
            "incast_tor",
            "7-to-1 incast, PFC active",
            "section 2 (figure 2)",
            incast_tor,
        ),
        BenchScenario(
            "pause_storm",
            "NIC pause storm + watchdogs on 3-tier Clos",
            "section 4.3 (figures 5, 9)",
            pause_storm,
        ),
        BenchScenario(
            "clos_slice",
            "saturating cross-podset Clos slice",
            "section 5.4 (figure 7 check)",
            clos_slice,
        ),
        BenchScenario(
            "clos_pod",
            "one full podset, saturating cross-podset pairs",
            "section 3 fabric scale check",
            clos_pod,
        ),
        BenchScenario(
            "clos_pod_parallel",
            "clos_pod sharded across worker processes",
            "section 3 fabric scale (parallel engine)",
            clos_pod_parallel,
        ),
        BenchScenario(
            "tcp_baseline",
            "TCP incast with egress drops",
            "section 5.4 (figure 6 contrast)",
            tcp_baseline,
        ),
        BenchScenario(
            "flowsim_churn",
            "flow-level exact-mode churn, two-tier pod",
            "sections 1, 5.4 (flow-level tier)",
            flowsim_churn,
        ),
        BenchScenario(
            "flowsim_clos",
            "flow-level 512-host Clos, interval batching",
            "sections 1, 5.4 (flow-level tier)",
            flowsim_clos,
        ),
    )
}


def run_scenario(name, seed=1):
    """Execute one scenario by name; returns its :class:`ScenarioRun`."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            "unknown scenario %r (have: %s)" % (name, ", ".join(SCENARIOS))
        )
    return scenario.run(seed)
