"""Unit tests for the discrete-event engine.

Besides the unit cases, an equivalence suite checks the engine against
:class:`ReferenceSimulator`, a minimal transliteration of the seed
heapq engine (lazy cancellation, FIFO tie-break by sequence number,
inclusive ``run(until=...)`` horizon, clock advanced to the horizon when
idle): for any interleaving of schedule / at / cancel / run(until) /
step calls -- including callbacks that schedule at the instant being
dispatched and compaction boundaries -- the two fire identical event
sequences and agree on ``now``, ``events_fired`` and ``pending``.
"""

import heapq

import pytest
from hypothesis import given, settings

from repro.sim import Simulator, Timer
from repro.sim.engine import _ATIME_SHIFT, SimulationError
from tests.strategies import WINDOW_NS as _WINDOW_NS
from tests.strategies import apply_sim_program as _apply_program
from tests.strategies import sim_programs


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(5, order.append, tag)
    sim.run_until_idle()
    assert order == list(range(10))


def test_run_until_horizon_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "at-horizon")
    sim.schedule(101, fired.append, "past-horizon")
    sim.run(until=100)
    assert fired == ["at-horizon"]
    assert sim.now == 100


def test_run_advances_clock_to_horizon_when_idle():
    sim = Simulator()
    sim.run(until=500)
    assert sim.now == 500


def test_back_to_back_runs_compose():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(300, fired.append, 2)
    sim.run(until=200)
    assert fired == [1]
    sim.run(until=400)
    assert fired == [1, 2]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.schedule(5, event.cancel)
    sim.run_until_idle()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run_until_idle()


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(50, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.at(10, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_call_soon_fires_at_current_time_after_queued_peers():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_soon(order.append, "soon")

    sim.schedule(10, first)
    sim.schedule(10, order.append, "second")
    sim.run_until_idle()
    assert order == ["first", "second", "soon"]


def test_max_events_stops_runaway_loop():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    fired = sim.run_until_idle(max_events=1000)
    assert fired == 1000


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_pending_counts_live_events():
    sim = Simulator()
    keep = sim.schedule(10, lambda: None)
    drop = sim.schedule(20, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert keep.time == 10


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1, lambda: None)
    sim.run_until_idle()
    assert sim.events_fired == 7


def test_cancelled_events_do_not_accumulate_in_heap():
    # Regression: cancelled events used to stay in the heap as tombstones
    # until their deadline, so a schedule/cancel loop (every retransmission
    # timer restart does this) grew the heap without bound.
    sim = Simulator()
    sim.schedule(1_000_000, lambda: None)  # one live far-future event
    for _ in range(10_000):
        sim.schedule(500, lambda: None).cancel()
    assert sim.pending == 1
    assert len(sim._queue) < 1000  # tombstones compacted away, not retained


def test_compaction_preserves_firing_order():
    sim = Simulator()
    fired = []
    live = []
    for tag in range(200):
        live.append(sim.schedule(tag * 3 + 7, fired.append, tag))
    # Interleave enough cancels to force several compactions.
    for _ in range(2000):
        sim.schedule(10_000, lambda: None).cancel()
    sim.run_until_idle()
    assert fired == list(range(200))


def test_cancel_after_fire_keeps_accounting_sane():
    sim = Simulator()
    event = sim.schedule(5, lambda: None)
    sim.run_until_idle()
    event.cancel()  # a no-op: already fired
    assert sim._cancelled == 0
    assert sim.pending == 0


def test_pending_exact_across_mixed_cancels():
    sim = Simulator()
    events = [sim.schedule(100 + i, lambda: None) for i in range(50)]
    for event in events[::2]:
        event.cancel()
    assert sim.pending == 25
    sim.run_until_idle()
    assert sim.pending == 0


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.run_until_idle()
        assert fired == [100]

    def test_restart_resets_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.schedule(50, timer.start, 100)
        sim.run_until_idle()
        assert fired == [150]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.schedule(10, timer.cancel)
        sim.run_until_idle()
        assert fired == []

    def test_armed_and_deadline(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        assert timer.deadline is None
        timer.start(42)
        assert timer.armed
        assert timer.deadline == 42
        sim.run_until_idle()
        assert not timer.armed

    def test_extend_to_only_moves_deadline_later(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        timer.extend_to(50)  # earlier: ignored
        assert timer.deadline == 100
        timer.extend_to(200)
        assert timer.deadline == 200
        sim.run_until_idle()
        assert fired == [200]

    def test_extend_to_arms_idle_timer(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.extend_to(75)
        sim.run_until_idle()
        assert fired == [75]

    def test_timer_can_rearm_itself_from_callback(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: None)

        def periodic():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(10)

        timer._callback = periodic
        timer.start(10)
        sim.run_until_idle()
        assert fired == [10, 20, 30]


# -- equivalence with the reference engine -------------------------------------


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = None


class ReferenceSimulator:
    """The seed engine: one heapq of (time, seq, event), lazy cancel."""

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._queue = []
        self._fired = 0

    @property
    def now(self):
        return self._now

    @property
    def events_fired(self):
        return self._fired

    @property
    def pending(self):
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def at(self, time, fn, *args):
        time = int(time)
        if time < self._now:
            raise SimulationError("past")
        event = _RefEvent(time, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError("negative")
        return self.at(self._now + int(delay), fn, *args)

    def step(self):
        while self._queue:
            _time, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            fn, args = event.fn, event.args
            event.fn = None
            event.args = None
            self._fired += 1
            fn(*args)
            return True
        return False

    def run(self, until=None, max_events=None):
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                break
            time, _seq, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self._now = time
            fn, args = event.fn, event.args
            event.fn = None
            event.args = None
            self._fired += 1
            fn(*args)
            fired += 1
        if until is not None and self._now < until:
            self._now = until
        return fired

    def run_until_idle(self, max_events=None):
        return self.run(until=None, max_events=max_events)


class _EagerCompactionSimulator(Simulator):
    """Simulator that compacts after only a few cancels, so short
    generated programs cross compaction boundaries many times."""

    _COMPACT_MIN_CANCELLED = 4


@settings(max_examples=200, deadline=None)
@given(ops=sim_programs())
def test_engine_matches_heapq_reference(ops):
    sim = Simulator()
    ref = ReferenceSimulator()
    assert _apply_program(sim, ops) == _apply_program(ref, ops)
    assert sim.now == ref.now
    assert sim.events_fired == ref.events_fired
    assert sim.pending == ref.pending == 0


@settings(max_examples=100, deadline=None)
@given(ops=sim_programs())
def test_engine_matches_reference_across_compaction_boundaries(ops):
    # Same program, but the engine compacts after 4 cancels instead of
    # 64, so cancel-heavy interleavings hit compaction mid-flight.
    # Compaction must be invisible to ordering.
    sim = _EagerCompactionSimulator()
    ref = ReferenceSimulator()
    assert _apply_program(sim, ops) == _apply_program(ref, ops)
    assert (sim.now, sim.events_fired) == (ref.now, ref.events_fired)


# -- pooled fast paths, horizons, injected keys --------------------------------


def test_pooled_fast_paths_keep_fifo_order():
    # schedule1/schedule0 (free-listed events) must interleave with the
    # public tuple path in strict FIFO order at equal times.
    sim = Simulator()
    order = []
    sim.schedule(10, order.append, "tuple-0")
    sim.schedule1(10, order.append, "single-1")
    sim.schedule0(10, lambda: order.append("noarg-2"))
    sim.schedule(10, order.append, "tuple-3")
    sim.schedule1(5, order.append, "single-early")
    sim.run_until_idle()
    assert order == ["single-early", "tuple-0", "single-1", "noarg-2", "tuple-3"]


def test_pooled_events_are_recycled():
    sim = Simulator()
    hits = []
    first = sim.schedule1(1, hits.append, "a")
    sim.run_until_idle()
    second = sim.schedule1(1, hits.append, "b")
    assert second is first  # drawn from the free-list
    sim.run_until_idle()
    assert hits == ["a", "b"]


def test_pooled_event_cancel_before_fire():
    sim = Simulator()
    hits = []
    event = sim.schedule1(50, hits.append, "never")
    sim.schedule(10, event.cancel)
    sim.run_until_idle()
    assert hits == []
    assert sim.pending == 0


def test_far_future_event_fires_at_exact_time():
    sim = Simulator()
    hits = []
    sim.schedule(5 * _WINDOW_NS + 37, hits.append, None)
    sim.schedule(3, hits.append, "near")
    sim.run_until_idle()
    assert hits == ["near", None]
    assert sim.now == 5 * _WINDOW_NS + 37


def test_horizon_break_then_near_past_schedule():
    # Breaking at a run(until=...) horizon must leave events scheduled
    # later, at times before the first queued event, to fire first.
    sim = Simulator()
    hits = []
    sim.schedule(12_800, hits.append, "far")
    sim.run(until=10)
    sim.schedule(5, hits.append, "near")
    sim.run_until_idle()
    assert hits == ["near", "far"]


def test_past_schedule_still_rejected():
    sim = Simulator()
    sim.schedule(50, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.at(10, lambda: None)
    with pytest.raises(SimulationError):
        sim.inject(10, lambda _arg: None, None, 0)


def test_schedule_after_horizon_stop_keeps_fifo_order():
    # A callback at t=15 (itself scheduled at t=10) schedules "link" for
    # t=35; run(until=15) stops; then "late" is scheduled for t=35 too.
    # FIFO: "link" was scheduled first, so it fires first.
    sim = Simulator()
    order = []
    sim.run(until=10)
    sim.schedule(5, lambda: sim.schedule(20, order.append, "link"))
    sim.run(until=15)
    sim.schedule(20, order.append, "late")
    sim.run_until_idle()
    assert order == ["link", "late"]


def test_injected_key_sorts_against_local_events_by_time_key_seq():
    # An injected event carries the key its (remote) scheduler would
    # have stamped; it must sort against same-time local events by
    # (time, key, seq), not by injection order.
    sim = Simulator()
    order = []
    sim.run(until=100)
    # Local events at t=500 scheduled at instant 100 outside dispatch:
    # key (100 << shift) | 0.
    sim.schedule1(400, order.append, "local-a")
    sim.schedule1(400, order.append, "local-b")
    # Scheduled at instant 50 remotely: sorts before both locals.
    sim.inject(500, order.append, "early-key", 50 << _ATIME_SHIFT)
    # Scheduled at instant 100 by a dispatch assigned at 30: after both
    # locals (same high field, larger low field).
    sim.inject(500, order.append, "late-key", (100 << _ATIME_SHIFT) | 30)
    # Identical key to the locals: falls back to seq, so after them.
    sim.inject(500, order.append, "tie-key", 100 << _ATIME_SHIFT)
    # An earlier time wins whatever its key.
    sim.inject(499, order.append, "earlier-time", 400 << _ATIME_SHIFT)
    sim.run_until_idle()
    assert order == [
        "earlier-time",
        "early-key",
        "local-a",
        "local-b",
        "tie-key",
        "late-key",
    ]
