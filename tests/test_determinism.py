"""Determinism: identical seeds replay bit-for-bit.

The deadlock and livelock experiments depend on exact event
interleavings; the engine promises integer-nanosecond time with FIFO
tie-breaking and per-component seeded RNG streams, so two runs of the
same experiment must produce *identical* statistics, not merely similar
ones.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.faults import FaultPlan, install_default_auditors
from repro.rdma import GoBackN, QpConfig, connect_qp_pair, post_send
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS, US
from repro.switch.buffer import BufferConfig
from repro.topo import single_switch
from repro.workloads import ClosedLoopSender, RdmaChannel


def incast_fingerprint(seed):
    """A digest of a congested run: every counter that could diverge."""
    topo = single_switch(
        n_hosts=4,
        seed=seed,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
    ).boot()
    rng = SeededRng(seed, "det")
    victim = topo.hosts[0]
    qps = []
    for src in topo.hosts[1:]:
        qp, _ = connect_qp_pair(src, victim, rng)
        qps.append(qp)
        ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 5 * MS)
    return (
        topo.sim.events_fired,
        topo.tor.pause_frames_sent(),
        tuple(qp.stats.data_packets_sent for qp in qps),
        tuple(qp.stats.bytes_completed for qp in qps),
        tuple(p.stats.total_tx_packets for p in topo.tor.ports),
        topo.tor.buffer.peak_shared_in_use,
    )


def lossy_fingerprint(seed):
    """A digest of a loss-recovery run (random losses included)."""
    topo = single_switch(n_hosts=2, seed=seed).boot()
    link = topo.fabric.links[0]
    link.loss_rate = 0.01
    link._loss_rng = SeededRng(seed, "loss")
    rng = SeededRng(seed, "det2")
    config = QpConfig(recovery=GoBackN(), rto_ns=200 * US)
    qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], rng, config_a=config, config_b=config)
    post_send(qp, 1 * MB)
    topo.sim.run(until=topo.sim.now + 20 * MS)
    return (
        qp.stats.data_packets_sent,
        qp.stats.retransmitted_packets,
        qp.stats.naks_received,
        qp.stats.timeouts,
        link.lost,
    )


def faulted_fingerprint(seed):
    """A digest of a fault-injected, audited run.

    The fault plan exercises every injector mechanism that could perturb
    event ordering: a standing probabilistic drop rule (its own RNG
    stream), a timed link flap, and a NIC freeze/repair cycle.  Same
    seed + same plan must replay bit-for-bit, auditors included.
    """
    topo = single_switch(
        n_hosts=4,
        seed=seed,
        buffer_config=BufferConfig(alpha=None, xoff_static_bytes=48 * KB),
    ).boot()
    registry = install_default_auditors(topo.fabric).start()
    plan = (
        FaultPlan("det-faults", seed=seed)
        .drop(("S1", "T0"), probability=0.02, match="data")
        .flap_link(("S2", "T0"), at_ns=1 * MS, down_ns=150 * US)
        .freeze_nic_rx("S0", at_ns=2 * MS)
        .repair_nic("S0", at_ns=3 * MS)
    )
    plan.apply(topo.fabric)
    rng = SeededRng(seed, "det-faults")
    victim = topo.hosts[0]
    qps = []
    for src in topo.hosts[1:]:
        config = QpConfig(recovery=GoBackN(), rto_ns=300 * US)
        qp, _ = connect_qp_pair(src, victim, rng, config_a=config, config_b=config)
        qps.append(qp)
        ClosedLoopSender(RdmaChannel(qp), 256 * KB).start()
    topo.sim.run(until=topo.sim.now + 5 * MS)
    link_counters = tuple(
        (link.lost, link.injected_drops, link.corrupted, link.reordered, link.flaps)
        for link in topo.fabric.links
    )
    return (
        topo.sim.events_fired,
        topo.tor.pause_frames_sent(),
        tuple(qp.stats.data_packets_sent for qp in qps),
        tuple(qp.stats.retransmitted_packets for qp in qps),
        tuple(qp.stats.bytes_completed for qp in qps),
        link_counters,
        registry.ticks,
        registry.violation_count,
    )


class TestDeterminism:
    def test_congested_run_replays_exactly(self):
        assert incast_fingerprint(9) == incast_fingerprint(9)

    def test_lossy_run_replays_exactly(self):
        assert lossy_fingerprint(17) == lossy_fingerprint(17)

    def test_different_seeds_differ(self):
        assert lossy_fingerprint(17) != lossy_fingerprint(18)

    def test_fault_injected_run_replays_exactly(self):
        first = faulted_fingerprint(23)
        assert first == faulted_fingerprint(23)
        # The plan actually did something in the window we fingerprinted.
        link_counters = first[5]
        assert sum(c[1] for c in link_counters) > 0  # injected drops
        assert sum(c[4] for c in link_counters) == 1  # exactly one flap

    def test_fault_injected_runs_diverge_across_seeds(self):
        assert faulted_fingerprint(23) != faulted_fingerprint(24)

    def test_flow_model_is_pure(self):
        from repro.flows import ClosFlowModel

        first = ClosFlowModel(seed=4).run()
        second = ClosFlowModel(seed=4).run()
        assert first.rates_bps == second.rates_bps

    def test_rng_streams_are_component_isolated(self):
        # Draws from one named stream must not perturb another.
        a1 = SeededRng(5, "alpha")
        b1 = SeededRng(5, "beta")
        seq_b_fresh = [SeededRng(5, "beta").randint(0, 10**9) for _ in range(1)]
        _ = [a1.randint(0, 10**9) for _ in range(100)]  # burn alpha
        assert b1.randint(0, 10**9) == seq_b_fresh[0]

    def test_child_streams_derived_from_name(self):
        parent = SeededRng(5, "p")
        assert parent.child("x").randint(0, 10**9) == SeededRng(5, "p/x").randint(0, 10**9)
        assert parent.child("x").randint(0, 10**9) != parent.child("y").randint(0, 10**9)


#: A 2x2x2 three-tier Clos under saturating cross-podset pairs, printing
#: per-link delivered counts: which uplink each flow hashes onto depends
#: on every switch's default ECMP seed.
_UNPINNED_CLOS = """
import json
from repro.experiments.common import saturate_pairs
from repro.sim import SeededRng
from repro.sim.units import MB, US
from repro.topo import three_tier_clos

topo = three_tier_clos(
    n_podsets=2, tors_per_podset=2, hosts_per_tor=2,
    leaves_per_podset=2, n_spines=2, seed=1,
).boot()
hosts = topo.hosts
half = len(hosts) // 2
pairs = [(hosts[i], hosts[half + i]) for i in range(half)]
pairs += [(hosts[half + i], hosts[i]) for i in range(half)]
saturate_pairs(topo.sim, pairs, 1 * MB, SeededRng(1, "hashseed"))
topo.sim.run(until=topo.sim.now + 200 * US)
print(json.dumps([link.delivered for link in topo.fabric.links]))
"""


#: An MTT-miss run (the section 4.4 slow-receiver NIC config) printing
#: the receiver's MTT and stall counters.  The per-flow span is not a
#: multiple of the page size, so which accesses straddle a page -- and
#: with it the hit count and the pauses -- depends on each flow's base
#: address, i.e. on the NIC's hash of the flow key.
_MTT_MISSES = """
import json
from repro.experiments.common import saturate_pairs
from repro.nic.mtt import MttConfig
from repro.nic.nic import NicConfig
from repro.sim import SeededRng
from repro.sim.units import KB, MB, US
from repro.topo import single_switch

nic_config = NicConfig(
    mtt_config=MttConfig(entries=2048, page_bytes=4 * KB, miss_penalty_ns=1500),
    rx_xoff_bytes=64 * KB, rx_xon_bytes=48 * KB, rx_buffer_bytes=128 * KB,
    rx_span_per_flow_bytes=16 * MB + 1000,
)
topo = single_switch(n_hosts=4, seed=1, nic_config=nic_config).boot()
receiver = topo.hosts[0]
pairs = [(host, receiver) for host in topo.hosts[1:]]
saturate_pairs(topo.sim, pairs, 1 * MB, SeededRng(1, "mtt"))
topo.sim.run(until=topo.sim.now + 300 * US)
nic = receiver.nic
print(json.dumps([
    nic.mtt.hits, nic.mtt.misses, nic.stats.mtt_stall_ns, nic.stats.pause_generated,
]))
"""


def _run_with_hash_seed(script, hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_same_seed_same_ecmp_paths_under_any_hash_seed():
    # Default switch seeds must not come from the per-process salted
    # str hash: the same seed has to give the same run in any process.
    first = _run_with_hash_seed(_UNPINNED_CLOS, 1)
    assert sum(first) > 0
    assert _run_with_hash_seed(_UNPINNED_CLOS, 2) == first


def test_same_seed_same_mtt_placement_under_any_hash_seed():
    # The NIC places each flow's receive span at hash(flow key); the key
    # is an (ip, qpn) tuple of ints, which Python does not salt.
    first = _run_with_hash_seed(_MTT_MISSES, 1)
    assert first[1] > 0  # the run really misses the MTT
    assert _run_with_hash_seed(_MTT_MISSES, 2) == first
