"""Fabric graph partitioner for the space-parallel runner.

:func:`partition_fabric` splits a built (not necessarily booted)
:class:`~repro.topo.fabric.Fabric` into ``n_shards`` connected device
groups whose only mutual links are high-latency inter-tier cables.  The
conservative parallel runner (:mod:`repro.sim.parallel`) then runs one
full fabric replica per shard and exchanges boundary frames once per
lookahead window, so the cut choice directly bounds how often the
workers must synchronize:

* **hosts stay with their ToR** -- a host<->ToR link (2 m, 10 ns) is
  never cut.  Everything chatty (NIC scheduling, PFC to the ToR, ARP)
  stays shard-local;
* **cuts ride the slowest tier that still yields enough pieces** -- the
  partitioner tries latency thresholds from the longest switch<->switch
  cable downward and stops at the first tier whose removal disconnects
  the graph into at least ``n_shards`` components.  On the paper's Clos
  that is the 300 m leaf<->spine tier (1500 ns) before the 20 m
  ToR<->leaf tier (100 ns);
* **the lookahead window is the minimum cut latency** -- a frame that
  starts crossing a cut at time ``t`` cannot arrive before
  ``t + window_ns`` (propagation alone; serialization only adds slack),
  so events inside a window can never depend on frames sent within it.

Determinism: components are discovered in device construction order and
merged by a greedy, index-tie-broken agglomeration, so the same fabric
always yields the same partition on every machine and every run.
"""


class PartitionError(ValueError):
    """The fabric cannot be split as requested (e.g. no inter-switch
    links to cut, or fewer cuttable components than shards)."""


class Partition:
    """The result: shard assignment per device plus the cut metadata.

    ``host_shard[i]`` / ``switch_shard[j]`` give the shard owning
    ``fabric.hosts[i]`` / ``fabric.switches[j]``; ``cut_links`` are the
    indices into ``fabric.links`` whose endpoints landed in different
    shards; ``window_ns`` is the conservative lookahead (the minimum
    ``delay_ns`` over the cut links, ``None`` when nothing is cut).
    """

    __slots__ = ("n_shards", "host_shard", "switch_shard", "cut_links", "window_ns")

    def __init__(self, n_shards, host_shard, switch_shard, cut_links, window_ns):
        self.n_shards = n_shards
        self.host_shard = list(host_shard)
        self.switch_shard = list(switch_shard)
        self.cut_links = tuple(sorted(cut_links))
        self.window_ns = window_ns

    def hosts_in(self, shard):
        """Indices (into ``fabric.hosts``) of the shard's hosts."""
        return [i for i, s in enumerate(self.host_shard) if s == shard]

    def switches_in(self, shard):
        """Indices (into ``fabric.switches``) of the shard's switches."""
        return [i for i, s in enumerate(self.switch_shard) if s == shard]

    def shard_of_node(self, node):
        kind, idx = node
        return self.host_shard[idx] if kind == "h" else self.switch_shard[idx]

    def describe(self):
        sizes = [
            (len(self.hosts_in(s)), len(self.switches_in(s)))
            for s in range(self.n_shards)
        ]
        return "Partition(%d shards %s, %d cut links, window=%sns)" % (
            self.n_shards,
            "/".join("%dh+%dsw" % hs for hs in sizes),
            len(self.cut_links),
            self.window_ns,
        )

    __repr__ = describe


def _node_map(fabric):
    """id(device) -> ("h"|"s", construction index).

    Host-side ports belong to the host's :class:`~repro.nic.nic.Nic`,
    so the NIC aliases to its host's node.
    """
    nodes = {}
    for i, host in enumerate(fabric.hosts):
        nodes[id(host)] = ("h", i)
        nodes[id(host.nic)] = ("h", i)
    for j, switch in enumerate(fabric.switches):
        nodes[id(switch)] = ("s", j)
    return nodes


def link_endpoints(fabric, link, nodes=None):
    """The ``(("h"|"s", idx), ("h"|"s", idx))`` endpoint nodes of a link
    (port_a side first -- the order :class:`repro.net.link.Link` stores)."""
    nodes = nodes or _node_map(fabric)
    return nodes[id(link.port_a.device)], nodes[id(link.port_b.device)]


def _components(all_nodes, adjacency, excluded_links):
    """Connected components (as ordered node lists), discovered in node
    construction order so component identity is deterministic."""
    seen = set()
    components = []
    for start in all_nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            node = queue.pop()
            for link_idx, other in adjacency[node]:
                if link_idx in excluded_links or other in seen:
                    continue
                seen.add(other)
                comp.append(other)
                queue.append(other)
        comp.sort()
        components.append(comp)
    components.sort(key=lambda comp: comp[0])
    return components


def partition_fabric(fabric, n_shards):
    """Split ``fabric`` into ``n_shards`` connected shards; see module doc.

    Raises :class:`PartitionError` when the fabric has no switch<->switch
    links (nothing is cuttable without separating a host from its ToR)
    or when even cutting every inter-switch tier yields fewer components
    than requested shards.
    """
    if n_shards < 1:
        raise PartitionError("n_shards must be >= 1, got %r" % (n_shards,))
    nodes = _node_map(fabric)
    all_nodes = sorted(nodes.values())
    adjacency = {node: [] for node in all_nodes}
    cuttable = {}  # link index -> delay_ns, switch<->switch links only
    for link_idx, link in enumerate(fabric.links):
        a, b = link_endpoints(fabric, link, nodes)
        adjacency[a].append((link_idx, b))
        adjacency[b].append((link_idx, a))
        if a[0] == "s" and b[0] == "s":
            cuttable[link_idx] = link.delay_ns

    if n_shards == 1:
        return Partition(
            1, [0] * len(fabric.hosts), [0] * len(fabric.switches), (), None
        )
    if not cuttable:
        raise PartitionError(
            "fabric has no switch<->switch links to cut "
            "(host<->ToR links are never cut); cannot split into %d shards"
            % n_shards
        )

    # Latency-tier descent: cut the slowest tier that yields enough pieces.
    components = None
    for threshold in sorted(set(cuttable.values()), reverse=True):
        cut_set = {li for li, delay in cuttable.items() if delay >= threshold}
        candidate = _components(all_nodes, adjacency, cut_set)
        if len(candidate) >= n_shards:
            components = candidate
            break
    if components is None:
        raise PartitionError(
            "fabric splits into at most %d components even with every "
            "inter-switch link cut; cannot make %d shards"
            % (len(_components(all_nodes, adjacency, set(cuttable))), n_shards)
        )

    # Greedy agglomeration: merge the lightest group into its lightest
    # neighbor (host count, then first-node index as the tie-break) until
    # exactly n_shards connected groups remain.  Merging along a cut edge
    # turns it back into an internal link, so groups stay connected.
    group_of = {}
    for gi, comp in enumerate(components):
        for node in comp:
            group_of[node] = gi
    groups = {gi: set(comp) for gi, comp in enumerate(components)}

    def weight(gi):
        # Hosts first (they source the traffic), then switches (a spine
        # carries every cross-cut flow's transit work -- spreading the
        # host-less spine singletons round-robin over the pod groups is
        # what balances shard event counts), construction index last so
        # ties resolve identically everywhere.
        members = groups[gi]
        return (
            sum(1 for node in members if node[0] == "h"),
            len(members),
            min(members),
        )

    def neighbors(gi):
        near = set()
        for node in groups[gi]:
            for _li, other in adjacency[node]:
                og = group_of[other]
                if og != gi:
                    near.add(og)
        return near

    while len(groups) > n_shards:
        smallest = min(groups, key=weight)
        near = neighbors(smallest)
        if near:
            target = min(near, key=weight)
        else:
            # A disconnected island (no physical path to any other group):
            # fold it into the lightest other group so the count comes out.
            target = min((g for g in groups if g != smallest), key=weight)
        for node in groups[smallest]:
            group_of[node] = target
        groups[target] |= groups.pop(smallest)

    # Renumber groups 0..n_shards-1 in first-node order.
    order = sorted(groups, key=lambda gi: min(groups[gi]))
    shard_id = {gi: s for s, gi in enumerate(order)}
    host_shard = [0] * len(fabric.hosts)
    switch_shard = [0] * len(fabric.switches)
    for node, gi in group_of.items():
        kind, idx = node
        if kind == "h":
            host_shard[idx] = shard_id[gi]
        else:
            switch_shard[idx] = shard_id[gi]

    part = Partition(n_shards, host_shard, switch_shard, (), None)
    cut_links = [
        li
        for li, link in enumerate(fabric.links)
        if _crosses(part, link_endpoints(fabric, link, nodes))
    ]
    window_ns = min(fabric.links[li].delay_ns for li in cut_links) if cut_links else None
    return Partition(n_shards, host_shard, switch_shard, cut_links, window_ns)


def _crosses(part, endpoints):
    a, b = endpoints
    return part.shard_of_node(a) != part.shard_of_node(b)
