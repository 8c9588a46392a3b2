"""The live trace session: life-of-an-op spans and pause causality.

A :class:`TraceSession` attaches to one fabric (usually via the armed
hub from ``Fabric.boot``, see :mod:`repro.tracing.hooks`) and receives
the ``on_*`` probe calls the device layers make behind their single
``_TRACE.enabled`` check.  It follows three kinds of state:

**Ops** -- sampled work requests, from WQE post to CQE, with every
transmission instance of every segment recorded hop by hop
(:class:`~repro.tracing.spans.PacketTrace` side tables keyed by
``id(packet)``; no packet field is ever touched).  At completion the
session snapshots the *completion chain*: the control packet whose rx
dispatch completed the op, plus the data packet whose arrival triggered
that control packet.  Attribution (:mod:`repro.tracing.attribution`)
later decomposes the op's FCT along this chain with an exact-sum
invariant.

**Pause episodes** -- every pause frame emission is folded into an
episode node (assert + refreshes, until resume) that records what
crossed which threshold (:class:`~repro.tracing.spans.PauseNode`).
When a switch asserts pause while its own egress toward some port is
itself paused, the session adds a causal edge to the upstream episode
responsible -- these edges are the pause-causality DAG
(:mod:`repro.tracing.causality`); DCFIT-style initial triggers are the
roots.

**Pause intervals** -- the raw receive-side pause timeline per (port,
priority), reconstructed into closed intervals at stop; attribution
uses them to split queueing delay into pause-stall vs. plain queueing.

Determinism: a session schedules no events, draws no RNG and touches
no simulator or device state, so even an *armed* run keeps every bench
fingerprint byte-identical (tests/test_tracing.py asserts this).
Sampling is a pure hash of
``(seed, qpn, wr_id)``, reproducible across runs and processes.
"""

import zlib

from repro.tracing.spans import (
    OpTrace,
    PacketTrace,
    PauseNode,
    merge_pause_timeline,
    op_record,
)

_N_PRIORITIES = 8
_SCHEMA = "repro-trace/1"


class TraceConfig:
    """Tunables for a trace session."""

    def __init__(
        self,
        label="",
        sample_rate=1.0,
        sample_seed=0,
        max_ops=100_000,
        max_packets=2_000_000,
        packets_per_op=256,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.label = label
        #: fraction of ops traced; 1.0 additionally traces unmatched
        #: data packets (READ responses, which carry no local WR).
        self.sample_rate = sample_rate
        self.sample_seed = sample_seed
        self.max_ops = max_ops
        self.max_packets = max_packets
        #: per-op cap on serialized transmission instances (the chain
        #: is always kept in full).
        self.packets_per_op = packets_per_op

    def as_dict(self):
        return {
            "label": self.label,
            "sample_rate": self.sample_rate,
            "sample_seed": self.sample_seed,
            "max_ops": self.max_ops,
            "max_packets": self.max_packets,
            "packets_per_op": self.packets_per_op,
        }


class TraceSession:
    """One attached causal-tracing session over one fabric run."""

    def __init__(self, fabric, config=None):
        self.fabric = fabric
        self.sim = fabric.sim
        self.config = config or TraceConfig()
        self.t_start_ns = None
        self.t_stop_ns = None
        # -- op side tables ----------------------------------------------------
        self._ops = {}              # wr_id -> OpTrace, in post order
        self._ranges = {}           # id(qp) -> [(start_psn, end_psn, OpTrace)]
        self._first_tx = {}         # (id(qp), psn) -> first tx t_ns
        self._packets = {}          # id(packet) -> PacketTrace (strong refs)
        self._keepalive = []        # traced packets (id() keys must not be reused)
        self._current_rx = None     # PacketTrace under rx dispatch, or None
        # -- pause side tables -------------------------------------------------
        self.pause_nodes = []       # every PauseNode ever opened
        self._episodes = {}         # (device, port, priority|None) -> open node
        self._frame_nodes = {}      # id(frame) -> (frame, {priority: node})
        self._active_pause = {}     # (port_name, prio) -> (node|None, deadline)
        self._pause_timeline = []   # raw rx-side events, see spans.py
        # -- aux event streams -------------------------------------------------
        self.events = []            # (t_ns, event, device, detail)
        self.rate_events = []       # (t_ns, owner, rate_bps)
        # -- counters ----------------------------------------------------------
        self.ops_sampled_out = 0
        self.dropped_ops = 0
        self.dropped_packets = 0

    # ------------------------------------------------------------- lifecycle

    def start(self):
        from repro.tracing.hooks import HUB

        if HUB.session is not None:
            raise RuntimeError("a trace session is already active")
        self.t_start_ns = self.sim.now
        HUB.session = self
        HUB.enabled = True
        return self

    def stop(self):
        from repro.tracing.hooks import HUB

        if HUB.session is not self:
            return self
        self.t_stop_ns = self.sim.now
        HUB.session = None
        HUB.enabled = False
        HUB.completed.append(self)
        return self

    # -------------------------------------------------------------- sampling

    def _sampled(self, qpn, wr_id):
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        key = b"%d:%d:%d" % (self.config.sample_seed, qpn, wr_id)
        return zlib.crc32(key) < int(rate * 4294967296.0)

    @staticmethod
    def _qp_name(qp):
        return "%s.qp%d" % (qp.host.name, qp.qpn)

    @staticmethod
    def _device_kind(device):
        # NICs expose rx_pipeline_broken; switches do not.  Duck-typed
        # so this module needs no device imports.
        return "nic" if hasattr(device, "rx_pipeline_broken") else "switch"

    def _op_for_psn(self, qp_key, psn):
        ranges = self._ranges.get(qp_key)
        if not ranges:
            return None
        # Retransmissions sit near the tail of the active window.
        for start, end, op in reversed(ranges):
            if start <= psn <= end:
                return op
        return None

    def _track(self, packet, trace):
        self._packets[id(packet)] = trace
        self._keepalive.append(packet)

    # ----------------------------------------------------------- QP receivers

    def on_post(self, qp, wr, message):
        """A work request entered the send queue (WQE post)."""
        if not self._sampled(qp.qpn, wr.wr_id):
            self.ops_sampled_out += 1
            return
        if len(self._ops) >= self.config.max_ops:
            self.dropped_ops += 1
            return
        op = OpTrace(
            wr_id=wr.wr_id,
            qp_name=self._qp_name(qp),
            qpn=qp.qpn,
            host=qp.host.name,
            kind=wr.kind,
            size_bytes=wr.size_bytes,
            posted_ns=wr.posted_ns,
            start_psn=message.start_psn,
            end_psn=message.end_psn,
        )
        self._ops[wr.wr_id] = op
        self._ranges.setdefault(id(qp), []).append(
            (message.start_psn, message.end_psn, op)
        )

    def on_data_tx(self, qp, packet, psn, retransmit):
        """The QP built a data packet (segment, READ request/response)."""
        op = self._op_for_psn(id(qp), psn)
        if op is None and self.config.sample_rate < 1.0:
            return  # unsampled op's segment
        if len(self._packets) >= self.config.max_packets:
            self.dropped_packets += 1
            return
        now = self.sim.now
        key = (id(qp), psn)
        first = self._first_tx.get(key)
        if first is None:
            first = self._first_tx[key] = now
        trace = PacketTrace(
            kind=packet.context.kind, psn=psn, first_tx_ns=first
        )
        trace.events.append(("tx", now, 1 if retransmit else 0))
        self._track(packet, trace)
        if op is not None:
            op.tx_count += 1
            if retransmit:
                op.retx_count += 1
            if len(op.packets) < self.config.packets_per_op:
                op.packets.append(trace)
            else:
                op.packets_dropped += 1

    def on_ctrl_created(self, qp, packet):
        """The QP built a control packet (ACK/NAK/RNR-NAK/CNP)."""
        parent = self._current_rx
        if parent is None:
            return  # response to an untraced packet: chain unusable
        if len(self._packets) >= self.config.max_packets:
            self.dropped_packets += 1
            return
        ctx = packet.context
        if ctx.nak_psn is not None:
            syndrome = getattr(getattr(packet, "aeth", None), "syndrome", None)
            kind = "rnr_nak" if getattr(syndrome, "name", "") == "RNR_NAK" else "nak"
        elif ctx.ack_psn is not None:
            kind = "ack"
        else:
            kind = "cnp"
        trace = PacketTrace(kind=kind, parent=parent)
        trace.events.append(("ctrl", self.sim.now))
        self._track(packet, trace)

    def on_cqe(self, qp, wr):
        """A work request completed (CQE): snapshot the completion chain."""
        op = self._ops.get(wr.wr_id)
        if op is None:
            return
        op.completed_ns = wr.completed_ns
        chain = []
        trace = self._current_rx
        while trace is not None and len(chain) < 4:
            chain.append(trace)
            trace = trace.parent
        op.chain = tuple(chain)

    def on_rto(self, qp):
        self.events.append((self.sim.now, "rto", self._qp_name(qp), qp.una))

    # ---------------------------------------------------------- NIC receivers

    def on_nic_rx(self, nic, packet):
        trace = self._packets.get(id(packet))
        if trace is not None:
            trace.events.append(("nicrx", self.sim.now, nic.name))

    def on_nic_rx_drop(self, nic, packet, reason):
        trace = self._packets.get(id(packet))
        if trace is not None:
            trace.events.append(("drop", self.sim.now, nic.name, reason))

    def on_nic_rx_done(self, nic, packet):
        """Rx pipeline finished a packet; its dispatch runs next, at this
        same instant -- anything created during dispatch (ACKs, CQEs)
        is causally downstream of this packet."""
        trace = self._packets.get(id(packet))
        if trace is not None:
            trace.events.append(("nicdone", self.sim.now))
        self._current_rx = trace

    def on_nic_rx_dispatched(self, nic):
        self._current_rx = None

    def on_nic_pause_emit(self, nic, frame, quanta):
        now = self.sim.now
        key = (nic.name, nic.port.name, None)
        node = self._episodes.get(key)
        if quanta == 0:
            if node is not None:
                node.end_ns = now
                self._episodes.pop(key, None)
            return
        trigger = "rx_pipeline_broken" if nic.rx_pipeline_broken else "rx-xoff"
        if node is None:
            node = PauseNode(
                node_id=len(self.pause_nodes),
                device=nic.name,
                port=nic.port.name,
                device_kind="nic",
                kind="nic-rx",
                trigger=trigger,
                priority=None,
                start_ns=now,
                occupancy=nic.rx_occupancy_bytes,
                threshold=nic.config.rx_xoff_bytes,
            )
            self.pause_nodes.append(node)
            self._episodes[key] = node
        else:
            node.emissions += 1
            if trigger == "rx_pipeline_broken":
                node.trigger = trigger
        self._frame_nodes[id(frame)] = (
            frame,
            {p: node for p in frame.paused_priorities},
        )

    def on_nic_resume_emit(self, nic, frame):
        node = self._episodes.pop((nic.name, nic.port.name, None), None)
        if node is not None:
            node.end_ns = self.sim.now

    def on_nic_watchdog(self, nic):
        self.events.append((self.sim.now, "nic_watchdog_trip", nic.name, None))

    # ------------------------------------------------------- switch receivers

    def on_switch_pause_emit(self, signaler, frame):
        now = self.sim.now
        switch = signaler.switch
        priority = signaler.priority
        key = (switch.name, signaler.port.name, priority)
        node = self._episodes.get(key)
        if node is None:
            state = signaler._pg_state
            node = PauseNode(
                node_id=len(self.pause_nodes),
                device=switch.name,
                port=signaler.port.name,
                device_kind="switch",
                kind="switch-pg",
                trigger="ingress-xoff",
                priority=priority,
                start_ns=now,
                occupancy=state.occupancy + state.headroom_used,
                threshold=switch.buffer.threshold(),
            )
            self.pause_nodes.append(node)
            self._episodes[key] = node
        else:
            node.emissions += 1
        # Causal edges: this PG filled because some egress of this
        # switch cannot drain -- every port currently paused at this
        # priority points at the upstream episode that paused it.
        for port in switch.ports:
            if port._paused_until[priority] > now:
                entry = self._active_pause.get((port.name, priority))
                if entry is not None:
                    upstream, deadline = entry
                    if (
                        deadline > now
                        and upstream is not None
                        and upstream.node_id != node.node_id
                    ):
                        node.causes.add(upstream.node_id)
        self._frame_nodes[id(frame)] = (frame, {priority: node})

    def on_switch_resume_emit(self, signaler, frame):
        key = (signaler.switch.name, signaler.port.name, signaler.priority)
        node = self._episodes.pop(key, None)
        if node is not None:
            node.end_ns = self.sim.now

    def on_switch_watchdog(self, switch, port):
        self.events.append(
            (self.sim.now, "switch_watchdog_trip", switch.name, port.name)
        )

    # --------------------------------------------------------- port receivers

    def on_port_enqueue(self, port, packet, priority):
        trace = self._packets.get(id(packet))
        if trace is not None:
            trace.events.append(
                ("enq", self.sim.now, port.name, port.device.name, priority)
            )

    def on_wire(self, link, from_port, packet, serialization_ns):
        trace = self._packets.get(id(packet))
        if trace is not None:
            trace.events.append(
                ("wire", self.sim.now, from_port.name, serialization_ns, link.delay_ns)
            )

    def on_pause_rx_port(self, port, frame):
        """A pause/resume frame took effect on ``port`` (deadlines are
        already updated -- the hook sits after the ``_paused_until``
        loop in ``Port.receive_pause``)."""
        now = self.sim.now
        device = port.device
        device_kind = self._device_kind(device)
        entry = self._frame_nodes.pop(id(frame), None)
        nodes = entry[1] if entry is not None else {}
        for priority, quanta in enumerate(frame.quanta):
            if quanta is None:
                continue
            deadline = port._paused_until[priority]
            self._pause_timeline.append(
                (now, port.name, device.name, device_kind, priority, deadline)
            )
            key = (port.name, priority)
            if deadline <= now:
                self._active_pause.pop(key, None)
            else:
                self._active_pause[key] = (nodes.get(priority), deadline)

    def on_force_resume(self, port):
        """Watchdog force-resumed every priority on ``port``."""
        now = self.sim.now
        device = port.device
        device_kind = self._device_kind(device)
        for priority in range(_N_PRIORITIES):
            self._pause_timeline.append(
                (now, port.name, device.name, device_kind, priority, now)
            )
            self._active_pause.pop((port.name, priority), None)

    # -------------------------------------------------------- DCQCN receivers

    def on_rate_decrease(self, rp):
        self.rate_events.append((self.sim.now, rp.owner, int(rp.rate_bps)))

    # -------------------------------------------------------------- artifacts

    def artifact_records(self):
        """The session as JSONL-able records (schema ``repro-trace/1``)."""
        t_stop = self.t_stop_ns if self.t_stop_ns is not None else self.sim.now
        records = [
            {
                "type": "meta",
                "schema": _SCHEMA,
                "t_start_ns": self.t_start_ns,
                "t_stop_ns": t_stop,
                "hosts": len(self.fabric.hosts),
                "switches": len(self.fabric.switches),
                "config": self.config.as_dict(),
            }
        ]
        completed = 0
        for op in self._ops.values():
            if op.completed_ns is not None:
                completed += 1
            records.append(op_record(op))
        for node in self.pause_nodes:
            records.append(node.as_record())
        intervals, info = merge_pause_timeline(self._pause_timeline)
        n_intervals = 0
        for key in sorted(intervals):
            port, priority = key
            device, device_kind = info[key]
            for start, end in intervals[key]:
                records.append(
                    {
                        "type": "pause_interval",
                        "port": port,
                        "device": device,
                        "device_kind": device_kind,
                        "priority": priority,
                        "start_ns": start,
                        "end_ns": min(end, t_stop),
                    }
                )
                n_intervals += 1
        for t_ns, event, device, detail in self.events:
            records.append(
                {
                    "type": "event",
                    "t_ns": t_ns,
                    "event": event,
                    "device": device,
                    "detail": detail,
                }
            )
        for t_ns, owner, rate_bps in self.rate_events:
            records.append(
                {
                    "type": "rate_decrease",
                    "t_ns": t_ns,
                    "owner": owner,
                    "rate_bps": rate_bps,
                }
            )
        records.append(
            {
                "type": "summary",
                "ops_traced": len(self._ops),
                "ops_completed": completed,
                "ops_sampled_out": self.ops_sampled_out,
                "dropped_ops": self.dropped_ops,
                "packets_traced": len(self._packets),
                "dropped_packets": self.dropped_packets,
                "pause_nodes": len(self.pause_nodes),
                "pause_intervals": n_intervals,
                "events": len(self.events),
                "rate_decreases": len(self.rate_events),
            }
        )
        return records
