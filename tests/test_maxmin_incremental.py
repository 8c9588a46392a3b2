"""The incremental MaxMinSolver against the from-scratch reference.

`repro.flows.maxmin.MaxMinSolver` is the engine behind the flow-level
simulator: per-link membership maintained across add/remove, integer
weights collapsing same-path flows, a lazy share heap with early exit.
Every solve must land on the same max-min fixpoint as
`max_min_allocation`, the simple reference scan -- including after
arbitrary churn and weight changes, which is exactly the life the
flowsim engine subjects it to.

A solve re-fills only the components its mutations touched and serves
the rest from the previous solve; :func:`full_fill` (one heap water-fill
over every flow) pins that this is *bit-identical* to re-solving
everything, not merely close.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.maxmin import MaxMinSolver, max_min_allocation
from tests.strategies import maxmin_problems

#: The solver freezes links in heap order, the reference in scan order;
#: only last-bit float rounding may differ between the two.
REL_TOL = 1e-9


def full_fill(solver):
    """One lazy-heap water-fill over every flow in ``solver``'s state,
    nothing cached: the exact-equality reference for :meth:`solve`."""
    weights = solver._weights
    paths = solver._paths
    rates = {}
    link_weight = {}
    remaining = {}
    for flow_id, path in paths.items():
        if not path:
            rates[flow_id] = 0.0
            continue
        for link in path:
            if link in link_weight:
                link_weight[link] += weights[flow_id]
            else:
                link_weight[link] = weights[flow_id]
                remaining[link] = solver._capacity[link]
    unfrozen = len(paths) - len(rates)
    if not unfrozen:
        return rates
    version = {link: 0 for link in link_weight}
    heap = [(remaining[link] / total, 0, link) for link, total in link_weight.items()]
    heapq.heapify(heap)
    members = solver._members
    frozen = set()
    while unfrozen and heap:
        share, ver, link = heapq.heappop(heap)
        if version[link] != ver or link_weight[link] <= 0:
            continue
        for flow_id in members[link]:
            if flow_id in rates:
                continue
            rates[flow_id] = share
            unfrozen -= 1
            flow_weight = weights[flow_id]
            for other in paths[flow_id]:
                if other == link or other in frozen:
                    continue
                link_weight[other] -= flow_weight
                left = remaining[other] - share * flow_weight
                remaining[other] = left if left > 0 else 0.0
                version[other] += 1
                if link_weight[other] > 0:
                    heapq.heappush(
                        heap,
                        (remaining[other] / link_weight[other], version[other], other),
                    )
        frozen.add(link)
        link_weight[link] = 0
        remaining[link] = 0.0
    if unfrozen:
        for flow_id, path in paths.items():
            if flow_id not in rates:
                rates[flow_id] = min(remaining.get(link, 0.0) for link in path)
    return rates


def assert_rates_match(solver_rates, reference_rates, flow_ids):
    assert len(solver_rates) == len(reference_rates) == len(flow_ids)
    for flow_id, expected in zip(flow_ids, reference_rates):
        got = solver_rates[flow_id]
        assert got == pytest.approx(expected, rel=REL_TOL, abs=1e-12), (
            "flow %r: solver %r vs reference %r" % (flow_id, got, expected)
        )


class TestUnit:
    def test_single_link_equal_split(self):
        solver = MaxMinSolver({"l": 30.0})
        ids = [solver.add_flow(["l"]) for _ in range(3)]
        rates = solver.solve()
        assert all(rates[i] == pytest.approx(10.0) for i in ids)

    def test_weight_k_equals_k_identical_flows(self):
        links = {"a": 50.0, "b": 30.0}
        heavy = MaxMinSolver(links)
        hid = heavy.add_flow(["a", "b"], weight=3)
        oid = heavy.add_flow(["a"])
        expected = max_min_allocation(
            links, [["a", "b"]] * 3 + [["a"]]
        )
        rates = heavy.solve()
        assert rates[hid] == pytest.approx(expected[0], rel=REL_TOL)
        assert rates[oid] == pytest.approx(expected[3], rel=REL_TOL)

    def test_remove_flow_restores_capacity(self):
        solver = MaxMinSolver({"l": 40.0})
        keep = solver.add_flow(["l"])
        gone = solver.add_flow(["l"])
        assert solver.solve()[keep] == pytest.approx(20.0)
        solver.remove_flow(gone)
        assert solver.solve() == {keep: pytest.approx(40.0)}
        assert len(solver) == 1

    def test_add_link_rerates_in_place(self):
        solver = MaxMinSolver({"l": 10.0})
        fid = solver.add_flow(["l"])
        assert solver.solve()[fid] == pytest.approx(10.0)
        solver.add_link("l", 25.0)
        assert solver.solve()[fid] == pytest.approx(25.0)

    def test_set_weight_changes_split(self):
        solver = MaxMinSolver({"l": 30.0})
        grp = solver.add_flow(["l"])
        other = solver.add_flow(["l"])
        solver.set_weight(grp, 2)
        rates = solver.solve()
        assert rates[grp] == pytest.approx(10.0)
        assert rates[other] == pytest.approx(10.0)
        assert solver.weight(grp) == 2

    def test_empty_path_rate_zero(self):
        solver = MaxMinSolver({"l": 10.0})
        fid = solver.add_flow([])
        assert solver.solve()[fid] == 0.0

    def test_duplicate_links_constrain_once(self):
        solver = MaxMinSolver({"l": 10.0})
        fid = solver.add_flow(["l", "l"])
        assert solver.path(fid) == ("l",)
        assert solver.solve()[fid] == pytest.approx(10.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            MaxMinSolver({"l": 0.0})
        solver = MaxMinSolver({"l": 10.0})
        with pytest.raises(KeyError):
            solver.add_flow(["nope"])
        with pytest.raises(ValueError):
            solver.add_flow(["l"], weight=0)
        fid = solver.add_flow(["l"])
        with pytest.raises(ValueError):
            solver.set_weight(fid, -1)
        with pytest.raises(KeyError):
            solver.set_weight(12345, 1)
        with pytest.raises(ValueError):
            solver.add_link("l", 0.0)


class TestAgainstReference:
    @given(problem=maxmin_problems())
    @settings(max_examples=100, deadline=None)
    def test_solve_matches_reference(self, problem):
        links, paths = problem
        solver = MaxMinSolver(links)
        ids = [solver.add_flow(path) for path in paths]
        assert_rates_match(solver.solve(), max_min_allocation(links, paths), ids)

    @given(
        problem=maxmin_problems(),
        removals=st.lists(st.integers(0, 10**6), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_churn_matches_reference_on_survivors(self, problem, removals):
        links, paths = problem
        solver = MaxMinSolver(links)
        alive = {solver.add_flow(path): path for path in paths}
        for token in removals:
            if not alive:
                break
            victim = sorted(alive)[token % len(alive)]
            solver.remove_flow(victim)
            del alive[victim]
        ids = sorted(alive)
        reference = max_min_allocation(links, [alive[i] for i in ids])
        rates = solver.solve()
        assert set(rates) == set(ids)
        assert_rates_match(rates, reference, ids)

    @given(
        problem=maxmin_problems(max_flows=8),
        weights=st.lists(st.integers(1, 4), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_entry_equals_duplicated_flows(self, problem, weights):
        links, paths = problem
        weights = weights[: len(paths)] + [1] * max(0, len(paths) - len(weights))
        solver = MaxMinSolver(links)
        ids = [
            solver.add_flow(path, weight=w) for path, w in zip(paths, weights)
        ]
        # Reference: weight-k flow literally expanded into k flows.
        expanded_paths = []
        firsts = []
        for path, w in zip(paths, weights):
            firsts.append(len(expanded_paths))
            expanded_paths.extend([path] * w)
        expanded = max_min_allocation(links, expanded_paths)
        reference = [expanded[first] for first in firsts]
        assert_rates_match(solver.solve(), reference, ids)

    @given(problem=maxmin_problems())
    @settings(max_examples=40, deadline=None)
    def test_resolve_is_stable_across_repeat_solves(self, problem):
        links, paths = problem
        solver = MaxMinSolver(links)
        for path in paths:
            solver.add_flow(path)
        assert solver.solve() == solver.solve()


#: One solver mutation: (op, a, b, c) with small integers the test maps
#: onto live flow ids and link ids.
_MUTATIONS = st.tuples(
    st.sampled_from(("add", "remove", "weight", "link")),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(1, 5),
)


class TestIncrementalIsExact:
    """Serving untouched components from the cache gives exactly the
    rates a full water-fill over the same state does."""

    @given(
        problem=maxmin_problems(max_links=8, max_flows=12),
        batches=st.lists(st.lists(_MUTATIONS, min_size=1, max_size=6), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_churn_equals_full_fill_after_every_batch(self, problem, batches):
        links, paths = problem
        solver = MaxMinSolver(links)
        for path in paths:
            solver.add_flow(path)
        assert solver.solve() == full_fill(solver)
        link_ids = sorted(links)
        for batch in batches:
            for op, a, b, c in batch:
                alive = sorted(solver.flow_ids())
                if op == "add" or (not alive and op != "link"):
                    # A path of up to c distinct links, picked by a and b.
                    start = a % len(link_ids)
                    step = 1 + b % len(link_ids)
                    path = [link_ids[(start + i * step) % len(link_ids)] for i in range(c)]
                    solver.add_flow(path, weight=1 + b % 3)
                elif op == "remove":
                    solver.remove_flow(alive[a % len(alive)])
                elif op == "weight":
                    solver.set_weight(alive[a % len(alive)], c)
                elif b % 4 == 0:
                    # A new, so far unused link.
                    link_ids.append(len(link_ids) + 1000)
                    solver.add_link(link_ids[-1], 10 * c)
                else:
                    solver.add_link(link_ids[a % len(link_ids)], 7 * c + b % 50)
            assert solver.solve() == full_fill(solver)

    def test_returned_dict_is_the_callers(self):
        solver = MaxMinSolver({"a": 10.0, "b": 20.0})
        fa = solver.add_flow(["a"])
        fb = solver.add_flow(["b"])
        rates = solver.solve()
        rates[fa] = -1.0
        del rates[fb]
        rates["bogus"] = 3.0
        assert solver.solve() == {fa: 10.0, fb: 20.0}

    def test_rerating_an_untouched_component_resolves_it(self):
        solver = MaxMinSolver({"a": 10.0, "b": 20.0})
        fa = solver.add_flow(["a"])
        fb1 = solver.add_flow(["b"])
        fb2 = solver.add_flow(["b"])
        assert solver.solve() == {fa: 10.0, fb1: 10.0, fb2: 10.0}
        # Nothing on "b" changed since that solve; only its capacity does.
        solver.add_link("b", 50.0)
        assert solver.solve() == {fa: 10.0, fb1: 25.0, fb2: 25.0}
        # Re-rating to the same capacity leaves the cache as it is.
        solver.add_link("b", 50.0)
        assert solver.solve() == full_fill(solver)

    def test_link_load_tracks_every_mutation(self):
        solver = MaxMinSolver({"a": 10.0, "b": 10.0})
        f1 = solver.add_flow(["a", "b"], weight=2)
        f2 = solver.add_flow(["b"])
        assert (solver.link_load("a"), solver.link_load("b")) == (2, 3)
        solver.set_weight(f1, 5)
        assert (solver.link_load("a"), solver.link_load("b")) == (5, 6)
        solver.remove_flow(f2)
        assert (solver.link_load("a"), solver.link_load("b")) == (5, 5)
        solver.remove_flow(f1)
        assert (solver.link_load("a"), solver.link_load("b")) == (0, 0)
        assert solver.link_load("unknown") == 0
