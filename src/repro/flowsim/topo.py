"""Analytic topologies for the flow-level simulator.

A :class:`FlowTopology` is just a capacity graph plus a path function:
directed links (identified by ``"A>B"`` strings), each with a wire rate,
and ``path(src, dst, sport)`` resolving the links a five-tuple's packets
would traverse.  The builders mirror the wiring and routing of the
packet-level builders in :mod:`repro.topo.builders` -- same device
names, same host IP plan (:func:`repro.topo.fabric.host_ip`), same
up-down routing, and the same CRC five-tuple ECMP hash
(:func:`repro.switch.ecmp.ecmp_select`) with a per-switch seed -- but
no devices are instantiated, so a 4096-host Clos costs a dict, not a
packet simulator.

ECMP seeds are :func:`~repro.switch.ecmp.default_ecmp_seed` of the
switch name (the :class:`~repro.switch.Switch` constructor's default,
stable across processes), so path selection is a pure function of
(topology shape, five-tuple) -- no live-fabric RNG draw order involved.
Paths therefore match a packet fabric built with default seeds, not an
arbitrary one; the differential lane
(:mod:`repro.validation.flowsim_lane`) sidesteps this entirely by
feeding flowsim the paths traced from the live fabric.
"""

from repro.sim.units import gbps
from repro.switch.ecmp import default_ecmp_seed, ecmp_select
from repro.topo.fabric import host_ip

#: Goodput payload bytes per wire byte, identical to the differential
#: harness constant (1024-byte MTU payload in a 1086-byte framed slot).
EFFICIENCY = 1024 / 1086.0

UDP_PROTO = 17
ROCEV2_PORT = 4791


def link_id(a, b):
    """Directed link identifier for the hop ``a -> b``."""
    return a + ">" + b


class FlowTopology:
    """Capacity graph + path resolver for :class:`repro.flowsim.FlowSim`.

    ``links``
        Mapping directed-link id -> wire rate (bits/second).
    ``hosts``
        List of host names; flows address endpoints by index.
    ``host_ips``
        Parallel list of IPv4 ints (the packet fabric's address plan).
    """

    __slots__ = ("name", "links", "hosts", "host_ips", "_path_fn")

    def __init__(self, name, links, hosts, host_ips, path_fn):
        self.name = name
        self.links = links
        self.hosts = hosts
        self.host_ips = host_ips
        self._path_fn = path_fn

    @property
    def n_hosts(self):
        return len(self.hosts)

    @property
    def n_links(self):
        return len(self.links)

    def five_tuple(self, src, dst, sport):
        return (self.host_ips[src], self.host_ips[dst], UDP_PROTO,
                sport, ROCEV2_PORT)

    def path(self, src, dst, sport):
        """Directed link ids the flow ``(src, dst, sport)`` traverses."""
        if src == dst:
            raise ValueError("flow from host %r to itself" % (src,))
        return self._path_fn(src, dst, self.five_tuple(src, dst, sport))

    def goodput_capacities(self, efficiency=EFFICIENCY, factor=1.0):
        """Link capacities in goodput bits/second (for the rate solver)."""
        scale = efficiency * factor
        return {link: rate * scale for link, rate in self.links.items()}

    def __repr__(self):
        return "FlowTopology(%r, %d hosts, %d links)" % (
            self.name, self.n_hosts, self.n_links,
        )


def single_switch_flow(n_hosts=2, rate_bps=None):
    """N hosts under one ToR -- mirrors :func:`repro.topo.single_switch`."""
    rate = rate_bps or gbps(40)
    tor = "T0"
    hosts = ["S%d" % i for i in range(n_hosts)]
    host_ips = [host_ip(0, 0, i) for i in range(n_hosts)]
    links = {}
    for name in hosts:
        links[link_id(name, tor)] = rate
        links[link_id(tor, name)] = rate

    def path_fn(src, dst, five_tuple):
        return (link_id(hosts[src], tor), link_id(tor, hosts[dst]))

    return FlowTopology("single_switch/%d" % n_hosts, links, hosts, host_ips, path_fn)


def two_tier_flow(n_tors=2, hosts_per_tor=4, n_leaves=4, rate_bps=None):
    """ToRs each uplinked to every leaf -- mirrors :func:`repro.topo.two_tier`.

    Routing: same-ToR traffic turns around at the ToR; cross-ToR traffic
    ECMPs over all leaves at the source ToR (default route up) and comes
    straight down at the leaf (direct subnet route).
    """
    rate = rate_bps or gbps(40)
    tors = ["T%d" % t for t in range(n_tors)]
    leaves = ["L%d" % l for l in range(n_leaves)]
    hosts, host_ips, host_tor = [], [], []
    for t in range(n_tors):
        for h in range(hosts_per_tor):
            hosts.append("T%d-S%d" % (t, h))
            host_ips.append(host_ip(0, t, h))
            host_tor.append(t)
    links = {}
    for idx, name in enumerate(hosts):
        tor = tors[host_tor[idx]]
        links[link_id(name, tor)] = rate
        links[link_id(tor, name)] = rate
    for tor in tors:
        for leaf in leaves:
            links[link_id(tor, leaf)] = rate
            links[link_id(leaf, tor)] = rate
    tor_seeds = [default_ecmp_seed(t) for t in tors]

    def path_fn(src, dst, five_tuple):
        t_src, t_dst = host_tor[src], host_tor[dst]
        up = link_id(hosts[src], tors[t_src])
        down = link_id(tors[t_dst], hosts[dst])
        if t_src == t_dst:
            return (up, down)
        leaf = leaves[ecmp_select(five_tuple, n_leaves, tor_seeds[t_src])]
        return (up, link_id(tors[t_src], leaf), link_id(leaf, tors[t_dst]), down)

    return FlowTopology(
        "two_tier/%dx%d" % (n_tors, hosts_per_tor), links, hosts, host_ips, path_fn
    )


def clos_flow(
    n_podsets=2,
    tors_per_podset=2,
    hosts_per_tor=2,
    leaves_per_podset=2,
    n_spines=4,
    rate_bps=None,
):
    """3-tier Clos -- mirrors :func:`repro.topo.three_tier_clos`.

    Wiring: leaf ``l`` of every podset connects to spines
    ``[l*spl, (l+1)*spl)`` where ``spl = n_spines / leaves_per_podset``.
    Routing: ToR ECMPs up over its podset's leaves; a leaf routes its
    own podset's ToR subnets straight down and ECMPs remote traffic over
    its ``spl`` spines; a spine reaches every podset through the one
    leaf it is wired to.
    """
    if n_spines % leaves_per_podset:
        raise ValueError("n_spines must be a multiple of leaves_per_podset")
    spl = n_spines // leaves_per_podset
    rate = rate_bps or gbps(40)
    spines = ["SP%d" % s for s in range(n_spines)]
    tor_name = lambda p, t: "P%dT%d" % (p, t)
    leaf_name = lambda p, l: "P%dL%d" % (p, l)
    hosts, host_ips, host_loc = [], [], []
    links = {}
    for p in range(n_podsets):
        for t in range(tors_per_podset):
            tor = tor_name(p, t)
            for h in range(hosts_per_tor):
                name = "P%dT%d-S%d" % (p, t, h)
                hosts.append(name)
                host_ips.append(host_ip(p, t, h))
                host_loc.append((p, t))
                links[link_id(name, tor)] = rate
                links[link_id(tor, name)] = rate
            for l in range(leaves_per_podset):
                leaf = leaf_name(p, l)
                links[link_id(tor, leaf)] = rate
                links[link_id(leaf, tor)] = rate
        for l in range(leaves_per_podset):
            leaf = leaf_name(p, l)
            for s in range(l * spl, (l + 1) * spl):
                links[link_id(leaf, spines[s])] = rate
                links[link_id(spines[s], leaf)] = rate
    tor_seeds = {
        (p, t): default_ecmp_seed(tor_name(p, t))
        for p in range(n_podsets) for t in range(tors_per_podset)
    }
    leaf_seeds = {
        (p, l): default_ecmp_seed(leaf_name(p, l))
        for p in range(n_podsets) for l in range(leaves_per_podset)
    }

    def path_fn(src, dst, five_tuple):
        p_src, t_src = host_loc[src]
        p_dst, t_dst = host_loc[dst]
        src_tor, dst_tor = tor_name(p_src, t_src), tor_name(p_dst, t_dst)
        up = link_id(hosts[src], src_tor)
        down = link_id(dst_tor, hosts[dst])
        if (p_src, t_src) == (p_dst, t_dst):
            return (up, down)
        # ToR: ECMP over the podset's leaves (default route up).
        l = ecmp_select(five_tuple, leaves_per_podset, tor_seeds[(p_src, t_src)])
        src_leaf = leaf_name(p_src, l)
        if p_src == p_dst:
            # The leaf routes its own podset's ToR subnets directly.
            return (up, link_id(src_tor, src_leaf),
                    link_id(src_leaf, dst_tor), down)
        # Leaf: ECMP over its spine group; the spine descends through the
        # single leaf (same index l) it is wired to in the target podset.
        s = l * spl + ecmp_select(five_tuple, spl, leaf_seeds[(p_src, l)])
        dst_leaf = leaf_name(p_dst, l)
        return (
            up,
            link_id(src_tor, src_leaf),
            link_id(src_leaf, spines[s]),
            link_id(spines[s], dst_leaf),
            link_id(dst_leaf, dst_tor),
            down,
        )

    return FlowTopology(
        "clos/%dx%dx%d" % (n_podsets, tors_per_podset, hosts_per_tor),
        links, hosts, host_ips, path_fn,
    )
