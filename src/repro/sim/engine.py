"""The discrete-event engine.

A :class:`Simulator` owns an integer-nanosecond clock and a scheduler of
:class:`Event` callbacks.  Events scheduled for the same instant fire in
the order they were scheduled (FIFO tie-breaking via a monotonically
increasing sequence number), which keeps runs fully deterministic.

The engine is intentionally tiny -- everything else in the reproduction
(links, switches, NICs, transports) is expressed as plain objects that
schedule callbacks on a shared ``Simulator``.

Performance notes (this is the hottest code in the repository -- every
simulated packet costs several engine events):

* The scheduler is one ``heapq`` of ``(time, atime, seq, event)``
  entries.  ``atime`` is the packed assignment key (see
  ``_ATIME_SHIFT``); for ordinarily scheduled events it is monotone in
  ``seq``, so the heap order is exactly (time, FIFO-seq), as the
  determinism fingerprints in ``benchmarks/BASELINE.json`` and the
  Hypothesis equivalence suite in ``tests/test_sim_engine.py`` assert.
  Only :meth:`Simulator.inject` (the sharded runner's entry point)
  supplies an explicit key.
* Hot internal callers use :meth:`schedule1` / :meth:`schedule0`, which
  skip the ``*args`` tuple and draw :class:`Event` objects from a
  **free-list**; such events are recycled after they fire (or after a
  cancelled entry is popped), so steady-state dispatch allocates only
  the heap entry.
"""

from heapq import heapify, heappop, heappush

#: ``Event.atime`` packs two instants into one int key:
#: ``(assignment_instant << _ATIME_SHIFT) | dispatcher_assignment_instant``
#: -- the simulated time the event was scheduled at, then the assignment
#: instant of the callback that scheduled it.  Lexicographic comparison
#: of the packed key resolves same-nanosecond dispatch exactly as the
#: classic FIFO seq would, while letting a sharded run
#: (:mod:`repro.sim.parallel`) ship the key with a frame and reproduce
#: the serial order on the receiving shard.  48 bits bounds the low
#: field: exact up to 2**48 ns (~78 hours) of simulated time, far past
#: any scenario here.
_ATIME_SHIFT = 48

#: Free-list bound: enough to cover every in-flight pooled event of a
#: saturated run without letting an idle sim pin memory forever.
_POOL_MAX = 8192


class SimulationError(Exception):
    """Raised for invalid use of the simulation engine."""


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Events may be cancelled before they fire.  Cancelled events stay in
    the heap but are skipped when reached (lazy deletion), which is O(1)
    per cancel instead of O(n); the simulator compacts its heap once
    cancelled entries dominate, so timer-heavy runs do not retain dead
    events.

    ``kind`` encodes the call convention: 0 -- ``args`` is a tuple
    (``fn(*args)``); 1 -- ``args`` is the single positional argument;
    2 -- no arguments.  Kinds 1 and 2 are pool-managed: the engine
    recycles them after dispatch, so callers must not retain (or cancel)
    their handles past the event's fire time.

    ``atime`` is the event's packed *assignment key* (see
    ``_ATIME_SHIFT``): the instant it was scheduled at, then the
    assignment instant of the dispatch that scheduled it.  Same-time
    events dispatch in ``(atime, seq)`` order.  For ordinarily scheduled
    events the key is monotone in real scheduling order, so this is
    exactly the classic FIFO seq tie-break.
    """

    __slots__ = ("time", "atime", "seq", "fn", "args", "kind", "cancelled", "sim")

    def __init__(self, time, seq, fn, args, sim=None, kind=0, atime=0):
        self.time = time
        self.atime = atime
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kind = kind
        self.cancelled = False
        # Back-reference kept only while the event sits in the scheduler,
        # so cancellation can update the owner's cancelled-entry count.
        self.sim = sim

    def cancel(self):
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = None
        sim = self.sim
        if sim is not None:
            sim._cancelled += 1
            sim._pending -= 1
            self.sim = None

    def __lt__(self, other):
        # Heap entries carry a unique seq, so ordering never invokes
        # this; kept for direct Event comparisons.
        if self.time != other.time:
            return self.time < other.time
        if self.atime != other.atime:
            return self.atime < other.atime
        return self.seq < other.seq

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t=%d, seq=%d, %s)" % (self.time, self.seq, state)


class Simulator:
    """A deterministic discrete-event simulator with a nanosecond clock.

    Public surface:

    * :meth:`at` / :meth:`schedule` / :meth:`call_soon` -- queue a callback
      (absolute time, relative delay, or the current instant) and get back
      a cancellable :class:`Event`;
    * :meth:`schedule1` / :meth:`schedule0` -- allocation-free variants
      for hot internal callers (single argument / no argument);
    * :meth:`inject` -- schedule with an explicit assignment key (the
      sharded runner's external-frame entry point);
    * :meth:`run` / :meth:`run_until_idle` / :meth:`step` -- dispatch;
    * :attr:`now`, :attr:`events_fired`, :attr:`dispatches`,
      :attr:`pending` -- observability.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_running",
        "_events_fired",
        "_cancelled",
        "_pending",
        "_queue",
        "_pool",
        "_dispatch_coarse",
    )

    # Lazy deletion keeps cancels O(1), but a fault-heavy run that arms
    # and re-arms timers (pause refresh, RTO, watchdogs) can leave the
    # heap mostly dead entries.  Once the dead outnumber the live (and
    # there are enough to matter), rebuild the heap without them.
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._running = False
        self._events_fired = 0
        self._cancelled = 0  # cancelled events still in the heap
        self._pending = 0  # live (non-cancelled) events in the heap
        self._queue = []  # heap of (time, atime, seq, Event)
        self._pool = []  # Event free-list (kind 1/2 only)
        # High field (assignment instant) of the key of the callback
        # being dispatched -- or, between runs, of the last one
        # dispatched.  Every schedule composes its own key as
        # (now << _ATIME_SHIFT) | this.  Keeping the last value between
        # runs keeps keys monotone in scheduling order, so a schedule
        # made after run(until=...) stops sorts after everything the
        # dispatches at that instant scheduled, exactly as FIFO would.
        self._dispatch_coarse = 0

    # -- observability -------------------------------------------------------

    @property
    def now(self):
        """Current simulated time in integer nanoseconds."""
        return self._now

    @property
    def events_fired(self):
        """Total callbacks executed so far."""
        return self._events_fired

    @property
    def dispatches(self):
        """Callbacks actually invoked -- equal to :attr:`events_fired`;
        the numerator of ``repro.bench``'s events-per-packet metric."""
        return self._events_fired

    @property
    def pending(self):
        """Number of live (non-cancelled) events still queued."""
        return self._pending

    # -- scheduling ----------------------------------------------------------

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        ``time`` must not be in the past (raises :class:`SimulationError`).
        Returns the :class:`Event` so the caller can cancel it.
        """
        time = int(time)
        if time < self._now:
            raise SimulationError(
                "cannot schedule event at t=%d; clock is already at t=%d"
                % (time, self._now)
            )
        return self._schedule(time, fn, args, 0)

    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` ``delay`` nanoseconds from now.

        ``delay`` must be non-negative.  Returns the :class:`Event`.
        """
        if delay < 0:
            raise SimulationError("delay cannot be negative: %r" % (delay,))
        return self._schedule(self._now + int(delay), fn, args, 0)

    def schedule1(self, delay, fn, arg):
        """Schedule ``fn(arg)`` ``delay`` ns from now, drawing the Event
        from the free-list.  The returned handle may be cancelled, but
        must not be retained (or cancelled) past the event's fire time:
        the engine recycles the object.  Internal hot-path API."""
        return self._schedule(self._now + int(delay), fn, arg, 1)

    def schedule0(self, delay, fn):
        """Pooled, argument-free variant of :meth:`schedule1`."""
        return self._schedule(self._now + int(delay), fn, None, 2)

    def _schedule(self, time, fn, args, kind, atime=None):
        """Shared body of every scheduling call: stamp the seq and the
        assignment key (composed here unless given), push."""
        if atime is None:
            atime = (self._now << _ATIME_SHIFT) | self._dispatch_coarse
        cancelled = self._cancelled
        if cancelled >= self._COMPACT_MIN_CANCELLED and cancelled * 2 >= len(self._queue):
            self._compact()
        seq = self._seq
        self._seq = seq + 1
        # Any kind may reuse a recycled Event; only kinds 1/2 go back to
        # the free-list after firing (kind-0 handles may be retained).
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.atime = atime
            event.seq = seq
            event.fn = fn
            event.args = args
            event.kind = kind
            event.cancelled = False
            event.sim = self
        else:
            event = Event(time, seq, fn, args, self, kind, atime)
        heappush(self._queue, (time, atime, seq, event))
        self._pending += 1
        return event

    def call_soon(self, fn, *args):
        """Schedule ``fn(*args)`` at the current instant (after pending
        same-time events already in the queue).  Returns the Event."""
        return self.at(self._now, fn, *args)

    def inject(self, time, fn, arg, vkey):
        """Schedule ``fn(arg)`` at absolute ``time`` with an explicit
        assignment key -- the external-frame entry point of the parallel
        runner (:mod:`repro.sim.parallel`).

        A frame crossing a shard boundary was, in the serial schedule,
        a ``schedule1`` issued by the *sending* shard's transmit
        dispatch; ``vkey`` is the packed key that call would have
        stamped (sender's instant, then the sender's dispatcher
        instant), shipped alongside the frame.  Injecting with that key
        makes the delivery sort against the receiving shard's same-time
        events exactly as it would have in one global engine -- by
        ``(time, key, seq)`` -- and every event the delivery callback
        schedules derives its own key from ``vkey``'s high field -- so
        ordering agreement propagates.
        """
        time = int(time)
        if time < self._now:
            raise SimulationError(
                "cannot inject event at t=%d; clock is already at t=%d"
                % (time, self._now)
            )
        return self._schedule(time, fn, arg, 1, vkey)

    # -- storage maintenance -------------------------------------------------

    def _compact(self):
        """Drop cancelled entries from the heap.

        Filtering preserves the (time, atime, seq) ordering of live
        entries, so compaction cannot change firing order -- it is
        invisible to the simulation.  The list object is mutated in
        place because an in-progress :meth:`run` holds a direct reference
        to it.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapify(queue)
        self._cancelled = 0

    # -- dispatch ------------------------------------------------------------

    def step(self):
        """Fire the single next event.  Returns False if the queue is empty."""
        return self.run(max_events=1) == 1

    def run(self, until=None, max_events=None):
        """Run events in order.

        ``until``
            Inclusive simulated-time horizon in nanoseconds.  Events at
            exactly ``until`` fire; the clock is advanced to ``until`` when
            the run ends early (idle), so back-to-back ``run`` calls
            compose.
        ``max_events``
            Safety valve for experiments that can livelock *by design*
            (the paper's go-back-0 experiment never terminates on its own).

        Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        fired = 0
        queue = self._queue
        pool = self._pool
        try:
            while queue:
                if max_events is not None and fired >= max_events:
                    break
                entry = heappop(queue)
                time, atime, _seq, event = entry
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    # Past the horizon: put it back (same entry, same
                    # position in the order) and stop.
                    heappush(queue, entry)
                    break
                self._pending -= 1
                self._now = time
                fn = event.fn
                args = event.args
                kind = event.kind
                event.fn = None
                event.args = None
                event.sim = None
                self._events_fired += 1
                fired += 1
                self._dispatch_coarse = atime >> _ATIME_SHIFT
                if kind == 0:
                    fn(*args)
                elif kind == 1:
                    fn(args)
                else:
                    fn()
                if kind and len(pool) < _POOL_MAX:
                    pool.append(event)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return fired

    def run_until_idle(self, max_events=None):
        """Run until no events remain (or ``max_events`` is hit).

        Returns the number of events fired by this call."""
        return self.run(until=None, max_events=max_events)

    def __repr__(self):
        return "Simulator(now=%d, pending=%d)" % (self._now, self._pending)
