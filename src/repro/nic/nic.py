"""The RDMA NIC device.

Receive side
    Arriving data packets land in a finite receive buffer and are drained
    by a pipeline with a per-packet base cost plus any MTT stall.  When
    occupancy crosses XOFF the NIC pauses its ToR for all lossless
    priorities; XON resumes them.  :meth:`Nic.break_rx_pipeline`
    reproduces the section 4.3 bug: "The bug stopped the NIC from
    handling the packets it received.  As a result, the NIC's receiving
    buffer filled, and the NIC began to send out pause frames all the
    time."

Watchdog
    "the NIC has a separate micro-controller ... Once the NIC
    micro-controller detects the receiving pipeline has been stopped for
    a period of time (default to 100ms) and the NIC is generating the
    pause frames, the micro-controller will disable the NIC from
    generating pause frames."  The NIC watchdog does **not** re-enable
    lossless mode ("once the NIC enters the PFC storm mode, it never
    comes back").

Transmit side
    Sources (QPs, TCP connections) register with the NIC; a round-robin
    scheduler pulls one packet at a time from whichever source is ready
    (its pacing gate open), keeping the port queue shallow so that PFC
    pause back-pressures the sources rather than an unbounded queue.
"""

import collections

from repro.packets.packet import Packet, resolve_priority
from repro.packets.pause import MAX_QUANTA, PfcPauseFrame, pause_quanta_to_ns
from repro.net.device import Device
from repro.nic.mtt import MttCache
from repro.sim.timer import Timer
from repro.sim.units import KB, MS
from repro.telemetry.hooks import HUB as _TELEMETRY
from repro.tracing.hooks import HUB as _TRACE


class NicWatchdogConfig:
    """NIC-side storm watchdog tunables (section 4.3 defaults)."""

    def __init__(self, stall_threshold_ns=100 * MS, poll_interval_ns=10 * MS, enabled=True):
        self.stall_threshold_ns = stall_threshold_ns
        self.poll_interval_ns = poll_interval_ns
        self.enabled = enabled


class NicConfig:
    """NIC resource and PFC parameters."""

    def __init__(
        self,
        pfc_config=None,
        rx_buffer_bytes=256 * KB,
        rx_xoff_bytes=160 * KB,
        rx_xon_bytes=96 * KB,
        rx_base_ns_per_packet=60,
        mtt_config=None,
        watchdog_config=None,
        pause_quanta=MAX_QUANTA,
        tx_queue_target_packets=2,
        rx_span_per_flow_bytes=16 * 1024 * KB,
    ):
        if not rx_xon_bytes <= rx_xoff_bytes <= rx_buffer_bytes:
            raise ValueError("need XON <= XOFF <= buffer size")
        self.pfc_config = pfc_config
        self.rx_buffer_bytes = rx_buffer_bytes
        self.rx_xoff_bytes = rx_xoff_bytes
        self.rx_xon_bytes = rx_xon_bytes
        self.rx_base_ns_per_packet = rx_base_ns_per_packet
        self.mtt_config = mtt_config
        self.watchdog_config = watchdog_config or NicWatchdogConfig()
        self.pause_quanta = pause_quanta
        self.tx_queue_target_packets = tx_queue_target_packets
        # Synthetic receive-buffer footprint per flow, used to derive the
        # MTT page access pattern (section 4.4's working set).
        self.rx_span_per_flow_bytes = rx_span_per_flow_bytes


class NicStats:
    """NIC-level counters."""

    def __init__(self):
        self.rx_processed = 0
        self.rx_dropped_buffer = 0
        self.rx_dropped_mac = 0
        self.rx_dropped_dead = 0
        self.tx_packets = 0
        self.pause_generated = 0
        self.resume_generated = 0
        self.mtt_stall_ns = 0


class Nic(Device):
    """One server NIC with a single port toward its ToR."""

    def __init__(self, sim, name, mac, config=None, pfc_config=None):
        super().__init__(sim, name)
        if config is None:
            config = NicConfig()
        if pfc_config is not None:
            config.pfc_config = pfc_config
        if config.pfc_config is None:
            from repro.switch.pfc import PfcConfig

            config.pfc_config = PfcConfig()
        self.mac = mac
        self.config = config
        self.pfc_config = config.pfc_config
        self.stats = NicStats()
        self.port = self.add_port()
        self.mtt = MttCache(config.mtt_config) if config.mtt_config else None
        # Receive pipeline state.
        self._rx_queue = collections.deque()
        self._rx_bytes = 0
        self._rx_busy = False
        self._rx_paused_upstream = False
        self._pipeline_broken = False
        self._dead = False
        self._pause_refresh = Timer(sim, self._refresh_pause, name="%s.pauseref" % name)
        # Handlers installed by the host: fn(packet) for each protocol.
        self.rx_handler = None
        # Watchdog state.
        self.pause_generation_disabled = False
        self.watchdog_trips = 0
        self._progress_marker = 0
        self._stalled_since = None
        self._watchdog = Timer(sim, self._watchdog_poll, name="%s.wdog" % name)
        if config.watchdog_config.enabled:
            self._watchdog.start(config.watchdog_config.poll_interval_ns)
        # Transmit scheduling.
        self._sources = []
        self._rr_index = 0
        # The NIC assigns IP IDs sequentially from a device-global counter
        # (section 4.1 exploits this: dropping IDs ending 0xff gives a
        # deterministic 1/256 loss).
        self._ip_id = 0
        self._tx_timer = Timer(sim, self._pump_tx, name="%s.tx" % name)
        self.port.on_dequeue = self._on_tx_dequeue
        # Pre-bound rx completion for the pooled fast path.
        self._rx_done_ref = self._rx_done

    # -- fault injection -------------------------------------------------------

    def break_rx_pipeline(self):
        """Reproduce the section 4.3 NIC bug: the receive pipeline stops
        and the NIC emits pause frames continuously."""
        self._pipeline_broken = True
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_fault(self.name, "rx_pipeline_broken")
        self._assert_pause()

    def repair(self):
        """Model a server repair (reboot/reimage): pipeline restored,
        buffer cleared.  Note the NIC watchdog's pause-disable latch is
        also cleared -- a rebooted NIC is a fresh NIC."""
        self._pipeline_broken = False
        self._dead = False
        self.port.frozen = False
        self._rx_queue.clear()
        self._rx_bytes = 0
        self._rx_busy = False
        self.pause_generation_disabled = False
        self._stalled_since = None
        self._release_pause()
        self._process_next()

    def die(self):
        """The server goes completely silent (dead host in the deadlock
        experiment): nothing is received, processed or transmitted."""
        self._dead = True
        self.port.frozen = True

    @property
    def rx_pipeline_broken(self):
        """True while :meth:`break_rx_pipeline` is in effect."""
        return self._pipeline_broken

    @property
    def rx_occupancy_bytes(self):
        """Bytes currently held in the receive buffer."""
        return self._rx_bytes

    def audit_rx_accounting(self):
        """``(claimed_bytes, actual_bytes)`` of the receive buffer: the
        running occupancy counter vs. a recount of the queued frames.
        The invariant auditors assert these never diverge."""
        return self._rx_bytes, sum(p.size_bytes for p in self._rx_queue)

    # -- receive path ------------------------------------------------------------

    def handle_packet(self, port, packet):
        """Device entry point for every frame arriving from the ToR.

        Pause frames update the port's pause state; data frames for this
        MAC (or broadcast) are admitted to the finite receive buffer --
        crossing XOFF makes the NIC pause its ToR (the §4.4 slow-receiver
        mechanism) -- and drained by the receive pipeline, which pays any
        MTT stall before handing the packet to the host's dispatcher."""
        if self._dead:
            self.stats.rx_dropped_dead += 1
            return
        if packet.is_pause:
            port.receive_pause(packet.pause)
            self._pump_tx()
            return
        if packet.is_arp:
            if self.rx_handler is not None:
                self.rx_handler(packet)
            return
        if packet.dst_mac != self.mac and packet.dst_mac != 0xFFFFFFFFFFFF:
            # Flood copy for someone else: discarded ("the destination
            # MAC does not match").
            self.stats.rx_dropped_mac += 1
            return
        if self._rx_bytes + packet.size_bytes > self.config.rx_buffer_bytes:
            # Receive buffer overrun: with working PFC this only happens
            # when pause generation has been watchdog-disabled.
            self.stats.rx_dropped_buffer += 1
            if _TRACE.enabled:
                _TRACE.session.on_nic_rx_drop(self, packet, "buffer")
            return
        self._rx_queue.append(packet)
        self._rx_bytes += packet.size_bytes
        if _TRACE.enabled:
            _TRACE.session.on_nic_rx(self, packet)
        self._check_xoff()
        self._process_next()

    def _process_next(self):
        if self._rx_busy or self._pipeline_broken or not self._rx_queue:
            return
        packet = self._rx_queue[0]
        service_ns = self.config.rx_base_ns_per_packet
        if self.mtt is not None and packet.is_rocev2 and packet.payload_bytes:
            stall = self.mtt.touch(self._rx_vaddr(packet), packet.payload_bytes)
            self.stats.mtt_stall_ns += stall
            service_ns += stall
        self._rx_busy = True
        self.sim.schedule0(service_ns, self._rx_done_ref)

    def _rx_done(self):
        self._rx_busy = False
        if self._pipeline_broken or not self._rx_queue:
            return
        packet = self._rx_queue.popleft()
        self._rx_bytes -= packet.size_bytes
        self.stats.rx_processed += 1
        self._check_xon()
        traced = _TRACE.enabled
        if traced:
            _TRACE.session.on_nic_rx_done(self, packet)
        if self.rx_handler is not None:
            self.rx_handler(packet)
        if traced:
            _TRACE.session.on_nic_rx_dispatched(self)
        self._process_next()

    def _rx_vaddr(self, packet):
        """Synthetic receive-buffer address for the MTT access pattern:
        each flow owns a span of virtual memory; successive packets walk
        it circularly (a ring of posted receive buffers)."""
        span = self.config.rx_span_per_flow_bytes
        flow_key = packet.flow if packet.flow is not None else packet.bth.dest_qp
        base = (hash(flow_key) & 0xFFFF) * span
        offset = (packet.bth.psn * max(1, packet.payload_bytes)) % span
        return base + offset

    # -- PFC generation ------------------------------------------------------------

    def _check_xoff(self):
        if not self._rx_paused_upstream and self._rx_bytes > self.config.rx_xoff_bytes:
            self._assert_pause()

    def _check_xon(self):
        if (
            self._rx_paused_upstream
            and not self._pipeline_broken
            and self._rx_bytes <= self.config.rx_xon_bytes
        ):
            self._release_pause()

    def _assert_pause(self):
        if self.pause_generation_disabled:
            return
        self._rx_paused_upstream = True
        self._send_pause_frame(self.config.pause_quanta)
        if self.port.link is not None:
            duration = pause_quanta_to_ns(self.config.pause_quanta, self.port.link.rate_bps)
            self._pause_refresh.start(max(1, duration // 2))

    def _release_pause(self):
        self._rx_paused_upstream = False
        self._pause_refresh.cancel()
        if not self.pause_generation_disabled:
            self._send_resume_frame()

    def _refresh_pause(self):
        if self.pause_generation_disabled:
            return
        if self._pipeline_broken or self._rx_bytes > self.config.rx_xon_bytes:
            self._assert_pause()
        else:
            self._release_pause()

    def _send_pause_frame(self, quanta):
        frame = PfcPauseFrame(
            {priority: quanta for priority in self.pfc_config.lossless_priorities}
        )
        if _TRACE.enabled:
            _TRACE.session.on_nic_pause_emit(self, frame, quanta)
        self.port.enqueue_control(
            Packet.pfc_pause(dst_mac=0x0180C2000001, src_mac=self.mac, pause=frame)
        )
        if quanta:
            self.stats.pause_generated += 1
        else:
            self.stats.resume_generated += 1

    def _send_resume_frame(self):
        frame = PfcPauseFrame.resume(sorted(self.pfc_config.lossless_priorities))
        if _TRACE.enabled:
            _TRACE.session.on_nic_resume_emit(self, frame)
        self.port.enqueue_control(
            Packet.pfc_pause(dst_mac=0x0180C2000001, src_mac=self.mac, pause=frame)
        )
        self.stats.resume_generated += 1

    # -- NIC watchdog ------------------------------------------------------------

    def _watchdog_poll(self):
        """Micro-controller check: pipeline stopped + pauses flowing for
        longer than the threshold => disable pause generation for good."""
        config = self.config.watchdog_config
        progressed = self.stats.rx_processed != self._progress_marker
        self._progress_marker = self.stats.rx_processed
        pipeline_stopped = (self._pipeline_broken or self._rx_queue) and not progressed
        generating = self._rx_paused_upstream and not self.pause_generation_disabled
        if pipeline_stopped and generating:
            if self._stalled_since is None:
                self._stalled_since = self.sim.now
            elif self.sim.now - self._stalled_since >= config.stall_threshold_ns:
                self._trip_watchdog()
        else:
            self._stalled_since = None
        self._watchdog.start(config.poll_interval_ns)

    def _trip_watchdog(self):
        self.pause_generation_disabled = True
        self.watchdog_trips += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_nic_watchdog(self)
        if _TRACE.enabled:
            _TRACE.session.on_nic_watchdog(self)
        self._pause_refresh.cancel()
        self._rx_paused_upstream = False
        # One final XON so the ToR port is not left paused for a full
        # pause duration after the storm stops.
        self._send_resume_frame()

    # -- transmit path ------------------------------------------------------------

    def register_source(self, source):
        """Register a packet source (QP engine, TCP connection).

        A source exposes ``next_ready_ns()`` (absolute time it could send
        next, or ``None`` when idle) and ``pull()`` returning
        ``(packet, priority)``.
        """
        self._sources.append(source)
        self._pump_tx()

    def unregister_source(self, source):
        """Remove a previously registered packet source (no-op if absent)."""
        if source in self._sources:
            self._sources.remove(source)

    def notify_tx_ready(self):
        """Called by sources when new work arrives."""
        self._pump_tx()

    def _tx_queue_has_room(self):
        return self.port.total_queued_packets < self.config.tx_queue_target_packets

    def _pump_tx(self):
        if self._dead or not self._sources:
            return
        while self._tx_queue_has_room():
            now = self.sim.now
            earliest_future = None
            pulled = False
            n = len(self._sources)
            for step in range(n):
                source = self._sources[(self._rr_index + step) % n]
                ready = source.next_ready_ns()
                if ready is None:
                    continue
                if ready <= now:
                    self._rr_index = (self._rr_index + step + 1) % n
                    packet, priority = source.pull()
                    if packet is None:
                        continue
                    self.stats.tx_packets += 1
                    self.port.enqueue(packet, priority)
                    pulled = True
                    break
                if earliest_future is None or ready < earliest_future:
                    earliest_future = ready
            if not pulled:
                if earliest_future is not None:
                    self._tx_timer.start_at(earliest_future)
                return

    def _on_tx_dequeue(self, packet, meta, dropped_at_head):
        self._pump_tx()

    # -- helpers ------------------------------------------------------------------

    def next_ip_id(self):
        """Sequential device-global IP identification (16-bit wrap)."""
        value = self._ip_id
        self._ip_id = (value + 1) & 0xFFFF
        return value

    def classify(self, packet):
        """Priority this NIC assigns to an outgoing/incoming packet."""
        return resolve_priority(
            packet,
            self.pfc_config.priority_mode,
            dscp_to_priority=self.pfc_config.dscp_to_priority,
            default_priority=self.pfc_config.default_priority,
        )
