"""Max-min fair rate allocation (progressive water-filling).

Given links with capacities and flows that each traverse a set of links,
repeatedly saturate the most-contended link: every unfrozen flow through
it gets an equal share of its remaining capacity, those flows freeze,
and the procedure recurses on what is left.  The result is the unique
max-min fair allocation -- the equilibrium a lossless fabric with
per-flow congestion control (DCQCN) approximates.

Two entry points:

* :func:`max_min_allocation` -- the from-scratch reference: builds all
  indexing state per call, scans every link per round.  Simple,
  auditable, O(links x rounds).
* :class:`MaxMinSolver` -- the incremental engine behind
  :mod:`repro.flowsim`: per-link membership and load are maintained
  across :meth:`~MaxMinSolver.add_flow`/:meth:`~MaxMinSolver.remove_flow`
  calls (no per-solve rebuild), flows carry integer *weights* (k
  same-path flows collapse into one entry), and a solve re-runs the
  lazy-share-heap water-fill only on the components a mutation touched
  -- the solve cost scales with the flows whose rates can have changed,
  not with the flows placed or the fabric size.
"""

import heapq


def max_min_allocation(link_capacities, flow_paths, weights=None):
    """Compute max-min fair rates.

    ``link_capacities``
        Mapping link-id -> capacity (any consistent unit).
    ``flow_paths``
        One iterable of link-ids per flow.
    ``weights``
        Optional positive integer per flow: a weight-k flow stands for k
        identical flows on that path and the returned rate is the
        *per-unit* rate (each of the k flows gets it).  Default all 1.

    Returns a list of per-flow rates in the same order.

    Raises :class:`ValueError` for an empty capacity map (with flows to
    place), a non-positive capacity, or a non-positive weight, and
    :class:`KeyError` when a path references an unknown link -- garbage
    capacities would otherwise surface as silently wrong allocations
    deep inside a sweep.
    """
    remaining = dict(link_capacities)
    for link, capacity in remaining.items():
        if not capacity > 0:
            raise ValueError(
                "link %r has non-positive capacity %r" % (link, capacity)
            )
    flow_paths = [list(path) for path in flow_paths]
    if weights is None:
        weights = [1] * len(flow_paths)
    else:
        weights = list(weights)
        if len(weights) != len(flow_paths):
            raise ValueError(
                "%d weights for %d flows" % (len(weights), len(flow_paths))
            )
        for idx, weight in enumerate(weights):
            if not weight > 0:
                raise ValueError("flow %d has non-positive weight %r" % (idx, weight))
    if not remaining and any(flow_paths):
        raise ValueError("no link capacities given, but flows have paths")
    flows_on_link = {link: set() for link in remaining}
    for idx, path in enumerate(flow_paths):
        for link in path:
            if link not in flows_on_link:
                raise KeyError("flow %d uses unknown link %r" % (idx, link))
            flows_on_link[link].add(idx)
    rates = [None] * len(flow_paths)
    unfrozen = {idx for idx, path in enumerate(flow_paths) if path}
    for idx, path in enumerate(flow_paths):
        if not path:
            rates[idx] = 0.0
    while unfrozen:
        # The binding link: smallest fair share among links with flows.
        best_link = None
        best_share = None
        for link, flows in flows_on_link.items():
            active = flows & unfrozen
            if not active:
                continue
            share = remaining[link] / sum(weights[idx] for idx in active)
            if best_share is None or share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            # Flows whose every link lost all other flows: capped by
            # nothing else; give each the min remaining capacity on its
            # path (cannot happen with the loop above, defensive).
            for idx in unfrozen:
                rates[idx] = min(remaining[link] for link in flow_paths[idx])
            break
        saturated = flows_on_link[best_link] & unfrozen
        for idx in saturated:
            rates[idx] = best_share
            unfrozen.discard(idx)
            for link in flow_paths[idx]:
                remaining[link] -= best_share * weights[idx]
        # Guard against float drift leaving tiny negative capacities.
        remaining[best_link] = 0.0
        for link in remaining:
            if remaining[link] < 0:
                remaining[link] = 0.0
    return rates


class MaxMinSolver:
    """Incremental max-min state: mutate flows, re-solve only what moved.

    The per-link membership index (which flows cross which link) and
    per-link *load* (the summed weight of those flows) are kept up to
    date on every mutation, so a churny caller -- the flow-level
    simulator recomputing rates at every arrival/completion -- pays
    O(path length) per mutation instead of O(total flows) per solve for
    indexing.  Weights are integers, so the maintained loads are exact.

    Every mutation also records the links it touched.  :meth:`solve`
    closes those *dirty* links over shared membership (a link pulls in
    its flows, a flow pulls in its links): the closure is the union of
    the connected components whose allocation can have changed.  Only
    that closure is water-filled again; every other flow keeps the rate
    cached by the previous solve.  The water-fill is progressive filling
    with a lazy min-share heap: each link is pushed with its current
    fair share; stale heap entries (the link's load changed since the
    push) are skipped via a version counter; the fill stops as soon as
    every flow in the closure froze, so links that are never anyone's
    bottleneck are never frozen.

    Re-solving a closure gives bit-for-bit the rates a fill over *all*
    flows would: components share no link, so a fill only ever reads
    and writes state of the component it is freezing, and heap entries
    are distinct ``(share, version, link)`` tuples, so one component's
    entries pop in the same relative order whatever else shares the
    heap.  An untouched component's cached rates are therefore exactly
    what a full re-solve would recompute.  The result matches
    :func:`max_min_allocation` (same fixpoint; float rounding may differ
    in the last bits because links freeze in heap order rather than
    scan order).
    """

    __slots__ = (
        "_capacity", "_members", "_load", "_weights", "_paths", "_rates",
        "_dirty", "_next_id",
    )

    def __init__(self, link_capacities):
        self._capacity = {}
        self._members = {}
        self._load = {}
        for link, capacity in link_capacities.items():
            if not capacity > 0:
                raise ValueError(
                    "link %r has non-positive capacity %r" % (link, capacity)
                )
            self._capacity[link] = capacity
            self._members[link] = set()
            self._load[link] = 0
        self._weights = {}
        self._paths = {}
        self._rates = {}  # flow_id -> rate as of the last solve
        self._dirty = set()  # links changed since the last solve
        self._next_id = 0

    # -- mutations --------------------------------------------------------------

    def add_link(self, link, capacity):
        """Add (or re-rate) one link; existing flows keep their paths."""
        if not capacity > 0:
            raise ValueError("link %r has non-positive capacity %r" % (link, capacity))
        if self._capacity.get(link) != capacity:
            self._capacity[link] = capacity
            self._dirty.add(link)
        self._members.setdefault(link, set())
        self._load.setdefault(link, 0)

    def add_flow(self, path, weight=1):
        """Register one flow (or ``weight`` identical flows); returns its id."""
        if not weight > 0:
            raise ValueError("non-positive weight %r" % (weight,))
        # Dedup while preserving order: a link crossed "twice" constrains
        # the flow once (the reference's per-link membership is a set).
        path = tuple(dict.fromkeys(path))
        for link in path:
            if link not in self._capacity:
                raise KeyError("flow uses unknown link %r" % (link,))
        flow_id = self._next_id
        self._next_id += 1
        self._paths[flow_id] = path
        self._weights[flow_id] = weight
        if not path:
            self._rates[flow_id] = 0.0
        for link in path:
            self._members[link].add(flow_id)
            self._load[link] += weight
        self._dirty.update(path)
        return flow_id

    def remove_flow(self, flow_id):
        """Withdraw one flow; its links keep their other members."""
        path = self._paths.pop(flow_id)
        weight = self._weights.pop(flow_id)
        self._rates.pop(flow_id, None)
        for link in path:
            self._members[link].discard(flow_id)
            self._load[link] -= weight
        self._dirty.update(path)

    def set_weight(self, flow_id, weight):
        """Change a flow's weight in place (k arrivals on one path)."""
        if not weight > 0:
            raise ValueError("non-positive weight %r" % (weight,))
        if flow_id not in self._paths:
            raise KeyError(flow_id)
        delta = weight - self._weights[flow_id]
        if not delta:
            return
        self._weights[flow_id] = weight
        path = self._paths[flow_id]
        for link in path:
            self._load[link] += delta
        self._dirty.update(path)

    def weight(self, flow_id):
        return self._weights[flow_id]

    def path(self, flow_id):
        return self._paths[flow_id]

    def link_load(self, link):
        """Summed weight of the flows crossing ``link`` (0 if none)."""
        return self._load.get(link, 0)

    def flow_ids(self):
        return list(self._paths)

    def __len__(self):
        return len(self._paths)

    # -- solving ----------------------------------------------------------------

    def solve(self):
        """Per-unit max-min rates for every registered flow.

        Returns a fresh ``{flow_id: rate}`` (the caller may mutate it).
        Zero-length paths get rate 0.0.
        """
        if self._dirty:
            self._fill(*self._closure())
            self._dirty.clear()
        return dict(self._rates)

    def _closure(self):
        """Links reachable from the dirty ones over shared membership,
        and the number of flows on them."""
        members = self._members
        paths = self._paths
        stack = [link for link in self._dirty if members[link]]
        links = set(stack)
        seen = set()
        while stack:
            for flow_id in members[stack.pop()]:
                if flow_id in seen:
                    continue
                seen.add(flow_id)
                for other in paths[flow_id]:
                    if other not in links:
                        links.add(other)
                        stack.append(other)
        return links, len(seen)

    def _fill(self, links, unfrozen):
        """Water-fill the ``unfrozen`` flows on ``links`` (a union of
        whole components) into the rate cache."""
        weights = self._weights
        paths = self._paths
        members = self._members
        capacity = self._capacity
        link_weight = {link: self._load[link] for link in links}
        remaining = {link: capacity[link] for link in links}
        rates = {}
        # Lazy share heap: (share, version, link).  A popped entry is
        # live only if its version matches the link's current one.
        version = dict.fromkeys(links, 0)
        heap = [
            (remaining[link] / total, 0, link)
            for link, total in link_weight.items()
        ]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        frozen = set()
        while unfrozen and heap:
            share, ver, link = heappop(heap)
            if version[link] != ver or link_weight[link] <= 0:
                continue
            # Freeze every still-unfrozen flow on this link at `share`.
            for flow_id in members[link]:
                if flow_id in rates:
                    continue
                rates[flow_id] = share
                unfrozen -= 1
                flow_weight = weights[flow_id]
                for other in paths[flow_id]:
                    if other == link:
                        continue
                    if other in frozen:
                        continue
                    link_weight[other] -= flow_weight
                    left = remaining[other] - share * flow_weight
                    remaining[other] = left if left > 0 else 0.0
                    version[other] += 1
                    if link_weight[other] > 0:
                        heappush(
                            heap,
                            (remaining[other] / link_weight[other],
                             version[other], other),
                        )
            frozen.add(link)
            link_weight[link] = 0
            remaining[link] = 0.0
        if unfrozen:
            # Defensive (mirrors the reference): flows whose every link
            # lost all competitors get their path's remaining minimum.
            for link in links:
                for flow_id in members[link]:
                    if flow_id not in rates:
                        rates[flow_id] = min(remaining[other] for other in paths[flow_id])
        self._rates.update(rates)


def link_utilization(link_capacities, flow_paths, rates):
    """Utilization (0..1) per link given an allocation."""
    load = {link: 0.0 for link in link_capacities}
    for path, rate in zip(flow_paths, rates):
        for link in path:
            load[link] += rate
    return {
        link: (load[link] / cap if cap else 0.0)
        for link, cap in link_capacities.items()
    }
