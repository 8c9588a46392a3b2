"""Shared Hypothesis strategies and traffic drivers for the test suite.

One home for the generators that several suites were growing ad hoc:

* :func:`sim_programs` / :func:`apply_sim_program` -- random scheduler
  programs (schedule / at / chain / cancel / run / step) used by the
  engine-vs-reference equivalence suite and anything else that
  differentials the event engine.
* :func:`buffer_ops` -- admit/release op streams for shared-buffer
  conservation properties.
* :func:`maxmin_problems` -- (links, paths) instances for the max-min
  allocator.
* :func:`two_tier_dims` -- small leaf/ToR fabric dimensions that boot
  fast enough for property tests.
* :func:`fault_plans` -- random :class:`~repro.faults.FaultPlan`s
  (flap / drop / corrupt / reorder) over a fabric's links.
* :func:`drive_incast` -- the canonical closed-loop incast driver
  (hosts[1..n] saturating hosts[0]) shared by the faults and property
  suites.
* :func:`validation_scenarios` -- the differential-validation scenario
  generator re-exported as a strategy (seed-mapped, so any failing
  example replays as ``python -m repro.validation sweep --seeds 1
  --start <seed>``).

Strategies take bounds as arguments so suites can tighten or widen them
without forking the generator.
"""

from hypothesis import strategies as st

from repro.rdma import QpConfig, connect_qp_pair
from repro.sim.units import KB
from repro.workloads import ClosedLoopSender, RdmaChannel

# --- event-engine programs ---------------------------------------------------

#: Delay scale of generated scheduler programs (~131 us): long enough
#: to interleave near-future events with far timers, short enough that
#: a program's events collide at equal instants.
WINDOW_NS = 131_072


def sim_program_ops():
    """A single scheduler op: applied identically to the engine and
    the FIFO reference by :func:`apply_sim_program`."""
    return st.one_of(
        # schedule(delay): delays up to 3 windows mix near and far
        # events across run(until=...) horizons.
        st.tuples(st.just("sched"), st.integers(0, 3 * WINDOW_NS)),
        # at(now + offset)
        st.tuples(st.just("at"), st.integers(0, 2 * WINDOW_NS)),
        # schedule a callback that, when fired, schedules another
        # recorded event `chain_delay` later -- chain_delay 0 lands at
        # the instant being dispatched.
        st.tuples(
            st.just("chain"),
            st.integers(0, WINDOW_NS),
            st.integers(0, 4000),
        ),
        # cancel the (idx % len)-th previously returned handle
        st.tuples(st.just("cancel"), st.integers(0, 10**6)),
        st.tuples(st.just("run"), st.integers(0, WINDOW_NS)),
        st.tuples(st.just("step"), st.just(0)),
    )


def sim_programs(min_size=1, max_size=50):
    """A whole program: a list of :func:`sim_program_ops`."""
    return st.lists(sim_program_ops(), min_size=min_size, max_size=max_size)


def apply_sim_program(sim, ops):
    """Run `ops` against `sim`; return the fired-event trace."""
    trace = []
    handles = []
    tag = 0

    def make_chain(chain_delay, chain_tag):
        def fire():
            trace.append((sim.now, "chain", chain_tag))
            sim.schedule(chain_delay, trace.append, (sim.now, "link", chain_tag))

        return fire

    for op in ops:
        kind = op[0]
        if kind == "sched":
            handles.append(sim.schedule(op[1], trace.append, (sim.now, "s", tag)))
            tag += 1
        elif kind == "at":
            handles.append(sim.at(sim.now + op[1], trace.append, (sim.now, "a", tag)))
            tag += 1
        elif kind == "chain":
            handles.append(sim.schedule(op[1], make_chain(op[2], tag)))
            tag += 1
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "run":
            sim.run(until=sim.now + op[1])
            trace.append(("ran", sim.now, sim.events_fired))
        elif kind == "step":
            sim.step()
            trace.append(("stepped", sim.now, sim.events_fired))
    sim.run_until_idle()
    return trace


# --- shared-buffer op streams ------------------------------------------------


def buffer_ops(
    n_ports=4,
    priorities=(0, 3),
    min_bytes=64,
    max_bytes=9000,
    min_size=1,
    max_size=200,
):
    """(port, priority, nbytes) admit streams for conservation checks.

    The default priority menu mixes lossy (0) and lossless (3) traffic
    classes, matching the deployment's two-class split.
    """
    return st.lists(
        st.tuples(
            st.integers(0, n_ports - 1),
            st.sampled_from(list(priorities)),
            st.integers(min_bytes, max_bytes),
        ),
        min_size=min_size,
        max_size=max_size,
    )


# --- max-min allocation problems ---------------------------------------------


@st.composite
def maxmin_problems(draw, max_links=6, max_flows=20, max_capacity=100):
    """(links, paths): positive integer capacities, every path a
    non-empty duplicate-free link list."""
    n_links = draw(st.integers(1, max_links))
    links = {i: draw(st.integers(1, max_capacity)) for i in range(n_links)}
    n_flows = draw(st.integers(1, max_flows))
    paths = [
        draw(
            st.lists(
                st.integers(0, n_links - 1),
                min_size=1,
                max_size=n_links,
                unique=True,
            )
        )
        for _ in range(n_flows)
    ]
    return links, paths


# --- topologies and fault plans ----------------------------------------------


def two_tier_dims(max_tors=2, max_hosts_per_tor=3, max_leaves=2):
    """Leaf/ToR dimensions small enough to boot inside a property test."""
    return st.fixed_dictionaries(
        {
            "n_tors": st.integers(1, max_tors),
            "hosts_per_tor": st.integers(1, max_hosts_per_tor),
            "n_leaves": st.integers(1, max_leaves),
        }
    )


@st.composite
def fault_plans(draw, n_links, seed, max_faults=4):
    """A random declarative FaultPlan over link indices [0, n_links).

    Mixes flaps, probabilistic drops/corruption and reordering with the
    same parameter envelopes the faults lane uses; conservation
    invariants must hold under any plan this draws (liveness invariants
    are allowed to trip -- that is what some of these plans provoke).
    """
    from repro.faults import FaultPlan

    plan = FaultPlan("random", seed=seed)
    for i in range(draw(st.integers(1, max_faults))):
        link = draw(st.integers(0, n_links - 1))
        kind = draw(st.sampled_from(["flap", "drop", "corrupt", "reorder"]))
        if kind == "flap":
            plan.flap_link(
                link,
                at_ns=draw(st.integers(150_000, 2_000_000)),
                down_ns=draw(st.integers(10_000, 400_000)),
            )
        elif kind == "drop":
            plan.drop(
                link,
                probability=draw(st.floats(0.001, 0.05)),
                match="data",
            )
        elif kind == "corrupt":
            plan.corrupt(
                link,
                probability=draw(st.floats(0.001, 0.05)),
                match="data",
            )
        else:
            plan.reorder(
                link,
                delay_ns=draw(st.integers(500, 20_000)),
                probability=draw(st.floats(0.01, 0.2)),
            )
    return plan


# --- traffic drivers ---------------------------------------------------------


def drive_incast(topo, n_senders, rng, message_bytes=256 * KB, config=None):
    """Closed-loop senders from hosts[1..n_senders] into hosts[0].

    The canonical congestion driver: enough to exercise PFC and shared
    buffers on any booted topology.  Caps ``n_senders`` at the available
    host count; a one-host fabric gets no traffic.
    """
    hosts = topo.fabric.hosts
    victim = hosts[0]
    for src in hosts[1 : 1 + n_senders]:
        config_a = config or QpConfig()
        config_b = config or QpConfig()
        qp, _ = connect_qp_pair(src, victim, rng, config_a=config_a, config_b=config_b)
        ClosedLoopSender(RdmaChannel(qp), message_bytes).start()


# --- validation scenarios ----------------------------------------------------


def validation_scenarios(max_seed=10**6):
    """Randomized-fabric validation scenarios (seed-mapped: shrinking
    shrinks the seed, and any example replays verbatim in the
    ``python -m repro.validation`` CLI)."""
    from repro.validation import scenario_strategy

    return scenario_strategy(max_seed=max_seed)
