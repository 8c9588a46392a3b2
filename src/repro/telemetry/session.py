"""Telemetry collection: config, polling session, hook receivers.

A :class:`TelemetrySession` binds one fabric to one metric registry plus
the standard detector stack for the lifetime of a run:

* a self-rearming :class:`~repro.sim.timer.Timer` polls every device's
  counters each ``interval_ns`` (absorbing the sampling semantics of the
  old ``monitoring/counters.py`` collector);
* hot-path hooks (see :mod:`repro.telemetry.hooks`) push the few signals
  polling cannot see -- pause-grant durations, ECN mark-time queue
  depths, headroom spills, CNP/NAK emission, DCQCN rate decreases,
  watchdog trips and injected faults;
* each poll closes a *window* of per-device deltas and feeds it to the
  online detectors (:mod:`repro.telemetry.detectors`);
* everything is accumulated as artifact records (meta, metric catalog,
  samples, events, incidents, summary) that the exporters in
  :mod:`repro.telemetry.export` serialize.

Polling schedules real simulator events, so an *enabled* session does
change a run's event-count fingerprint; the disabled path (no session)
schedules nothing, which is what the telemetry-off bench guard pins.
"""

from repro.sim.timer import Timer
from repro.sim.units import MS
from repro.telemetry import hooks
from repro.telemetry.detectors import DetectorThresholds, build_detectors
from repro.telemetry.registry import CATALOG, MetricRegistry

#: Counter-like sample keys (windows take deltas); everything else in a
#: sample is a gauge and passes through as-is.
_DELTA_KEYS = (
    "pause_tx", "pause_rx", "resume_tx", "resume_rx", "paused_ns",
    "tx_bytes", "rx_bytes", "ecn_marked", "drops", "rx_processed",
    "watchdog_trips",
)


class TelemetryConfig:
    """Knobs for one collection session.

    ``interval_ns``
        Poll period.  1 ms resolves the §4.3 storm signature (a broken
        NIC refreshes pauses every ~0.42 ms at 40G, so every window sees
        2-3 frames) without flooding artifacts on multi-ms runs.
    ``series_capacity``
        Ring-buffer depth per (metric, device) series.
    ``capture_samples``
        Emit per-poll ``sample`` records (detectors need them only for
        offline replay; disabling keeps artifacts tiny).
    ``thresholds``
        :class:`~repro.telemetry.detectors.DetectorThresholds`.
    ``label``
        Free-form run label stamped into the artifact ``meta`` record.
    """

    def __init__(self, interval_ns=1 * MS, series_capacity=4096,
                 capture_samples=True, thresholds=None, label=""):
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self.interval_ns = interval_ns
        self.series_capacity = series_capacity
        self.capture_samples = capture_samples
        self.thresholds = thresholds or DetectorThresholds()
        self.label = label


class TelemetrySession:
    """Live collection bound to one fabric (see module docstring)."""

    def __init__(self, fabric, config=None):
        self.fabric = fabric
        self.config = config or TelemetryConfig()
        self.registry = MetricRegistry(self.config.series_capacity)
        self.records = []
        self._prev = {}
        self._timer = Timer(fabric.sim, self._poll, name="telemetry")
        self._started = False
        self._stopped = False
        self._prev_t = None
        adjacency = self._adjacency(fabric)
        self.detectors = build_detectors(self.config.thresholds, adjacency)
        self.incidents = []

    @staticmethod
    def _adjacency(fabric):
        """Device-name adjacency from the wired ports (for the
        pause-propagation BFS)."""
        devices = [h.nic for h in fabric.hosts] + list(fabric.switches)
        adjacency = {}
        for device in devices:
            neighbors = set()
            for port in device.ports:
                peer = port.peer
                if peer is not None and peer.device is not None:
                    neighbors.add(peer.device.name)
            adjacency[device.name] = neighbors
        return adjacency

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Install as the hub's live session and begin polling."""
        if self._started:
            return self
        self._started = True
        sim = self.fabric.sim
        self.records.append({
            "type": "meta",
            "schema": "repro-telemetry/1",
            "label": self.config.label,
            "t_start_ns": sim.now,
            "interval_ns": self.config.interval_ns,
            "n_hosts": len(self.fabric.hosts),
            "n_switches": len(self.fabric.switches),
        })
        for spec in CATALOG:
            self.records.append(spec.as_record())
        # Baseline snapshot so the first window's deltas are exact.
        self._prev = self._collect_values()
        self._prev_t = sim.now
        self._timer.start(self.config.interval_ns)
        hooks.HUB.session = self
        hooks.HUB.enabled = True
        return self

    def stop(self):
        """Final poll, close detectors, retire into ``HUB.completed``."""
        if self._stopped or not self._started:
            self._stopped = True
            return self
        self._stopped = True
        self._timer.cancel()
        if hooks.HUB.session is self:
            hooks.HUB.session = None
            hooks.HUB.enabled = False
        now = self.fabric.sim.now
        self._close_window(now)  # capture the tail since the last poll
        for detector in self.detectors:
            for incident in detector.finish(now):
                if incident not in self.incidents:
                    self.incidents.append(incident)
        self.incidents.sort(key=lambda i: (i.start_ns, i.kind, i.device))
        for incident in self.incidents:
            self.records.append(incident.as_record())
        self.records.append(self._summary(now))
        hooks.HUB.completed.append(self)
        return self

    def artifact_records(self):
        """The artifact as a list of JSON-serializable dicts."""
        return self.records

    def _summary(self, t_ns):
        by_kind = {}
        for incident in self.incidents:
            by_kind[incident.kind] = by_kind.get(incident.kind, 0) + 1
        return {
            "type": "summary",
            "t_end_ns": t_ns,
            "label": self.config.label,
            "incidents": by_kind,
            "totals": self.registry.snapshot_values(),
        }

    # -- polling -------------------------------------------------------------

    def _poll(self):
        self._close_window(self.fabric.sim.now)
        self._timer.start(self.config.interval_ns)

    def _collect_values(self):
        """Cumulative counters + gauges per device, CounterCollector
        style."""
        values = {}
        for switch in self.fabric.switches:
            ports = switch.ports
            buffer = switch.buffer
            values[switch.name] = {
                "is_host": False,
                "pause_tx": sum(p.stats.pause_tx for p in ports),
                "pause_rx": sum(p.stats.pause_rx for p in ports),
                "resume_tx": sum(p.stats.resume_tx for p in ports),
                "resume_rx": sum(p.stats.resume_rx for p in ports),
                "paused_ns": sum(p.paused_interval_ns() for p in ports),
                "tx_bytes": sum(p.stats.total_tx_bytes for p in ports),
                "rx_bytes": sum(p.stats.total_rx_bytes for p in ports),
                "ecn_marked": switch.counters.ecn_marked,
                "drops": switch.counters.total_drops,
                "queued_bytes": switch.queued_bytes(),
                "shared_in_use": buffer.shared_in_use if buffer else 0,
                "headroom_in_use": buffer.headroom_in_use if buffer else 0,
                "paused_pgs": buffer.paused_pgs if buffer else 0,
                "shared_size": buffer.shared_size if buffer else 0,
                "watchdog_trips": switch.watchdog_trips(),
            }
        for host in self.fabric.hosts:
            nic = host.nic
            port = nic.port
            values[nic.name] = {
                "is_host": True,
                "pause_tx": nic.stats.pause_generated,
                "resume_tx": nic.stats.resume_generated,
                "pause_rx": port.stats.pause_rx,
                "resume_rx": port.stats.resume_rx,
                "paused_ns": port.paused_interval_ns(),
                "tx_bytes": port.stats.total_tx_bytes,
                "rx_bytes": port.stats.total_rx_bytes,
                "rx_processed": nic.stats.rx_processed,
                "watchdog_trips": nic.watchdog_trips,
            }
        return values

    #: sample-value key -> catalog metric mirrored into the registry.
    _POLLED = {
        "pause_tx": "port.pause_tx",
        "pause_rx": "port.pause_rx",
        "resume_tx": "port.resume_tx",
        "resume_rx": "port.resume_rx",
        "paused_ns": "port.paused_ns",
        "tx_bytes": "port.tx_bytes",
        "rx_bytes": "port.rx_bytes",
        "ecn_marked": "switch.ecn_marked",
        "rx_processed": "nic.rx_processed",
    }
    _POLLED_GAUGES = {
        "queued_bytes": "switch.queued_bytes",
        "shared_in_use": "switch.shared_in_use",
        "headroom_in_use": "switch.headroom_in_use",
        "paused_pgs": "switch.paused_pgs",
    }

    def _close_window(self, t_ns):
        current = self._collect_values()
        registry = self.registry
        window = {"t_ns": t_ns, "interval_ns": 0, "devices": {}}
        for device, values in current.items():
            prev = self._prev.get(device, {})
            deltas = {"is_host": values["is_host"]}
            for key in _DELTA_KEYS:
                if key in values:
                    deltas[key] = values[key] - prev.get(key, 0)
            for key in ("queued_bytes", "shared_in_use", "headroom_in_use",
                        "paused_pgs", "shared_size"):
                if key in values:
                    deltas[key] = values[key]
            window["devices"][device] = deltas
            for key, metric_name in self._POLLED.items():
                if key in values:
                    registry.get(metric_name, device).set_absolute(values[key])
                    registry.record_sample(t_ns, metric_name, device,
                                           values[key])
            for key, metric_name in self._POLLED_GAUGES.items():
                if key in values:
                    registry.get(metric_name, device).set(values[key])
                    registry.record_sample(t_ns, metric_name, device,
                                           values[key])
            if self.config.capture_samples:
                sample = {k: v for k, v in values.items() if k != "is_host"}
                self.records.append({
                    "type": "sample",
                    "t_ns": t_ns,
                    "device": device,
                    "is_host": values["is_host"],
                    "values": sample,
                })
        t_prev = self._prev_t if self._prev_t is not None else t_ns
        window["interval_ns"] = max(0, t_ns - t_prev)
        self._prev = current
        self._prev_t = t_ns
        if window["interval_ns"] > 0:
            self._observe(window)

    def _observe(self, window):
        for detector in self.detectors:
            detector.observe(window)
        # Closed incidents accumulate on the detectors; fold them in so
        # mid-run exports see them without waiting for stop().
        for detector in self.detectors:
            for incident in detector.incidents:
                if incident not in self.incidents:
                    self.incidents.append(incident)

    # -- hot-path hook receivers ---------------------------------------------
    # Called only via ``if HUB.enabled: HUB.session.on_*(...)`` guards in
    # the device modules; each is a handful of dict/int operations.

    def on_pause_rx(self, port, duration_ns):
        device = port.device.name if port.device is not None else ""
        self.registry.get("port.pause_duration_ns", device).observe(duration_ns)

    def on_pfc_pause(self, switch):
        self.registry.get("switch.pfc_pause_sent", switch.name).inc()

    def on_pfc_resume(self, switch):
        self.registry.get("switch.pfc_resume_sent", switch.name).inc()

    def on_ecn_mark(self, queue_bytes):
        # EcnConfig carries no device context; the fabric-wide histogram
        # still answers "at what depth do we mark?" (Kmin/Kmax tuning).
        self.registry.get("switch.ecn_queue_bytes").observe(queue_bytes)

    def on_headroom_spill(self, owner_name, nbytes):
        self.registry.get("switch.headroom_spill_bytes", owner_name).inc(nbytes)

    def on_buffer_drop(self, owner_name, lossless):
        name = ("switch.headroom_overflow_drops" if lossless
                else "switch.lossy_drops")
        self.registry.get(name, owner_name).inc()

    def on_nic_watchdog(self, nic):
        self.registry.get("nic.watchdog_trips", nic.name).inc()
        self.records.append({
            "type": "event", "kind": "nic_watchdog_trip",
            "t_ns": self.fabric.sim.now, "device": nic.name,
        })

    def on_switch_watchdog(self, switch, port):
        self.registry.get("switch.watchdog_trips", switch.name).inc()
        self.records.append({
            "type": "event", "kind": "switch_watchdog_trip",
            "t_ns": self.fabric.sim.now, "device": switch.name,
            "port": port.name,
        })

    def on_fault(self, device_name, kind):
        self.registry.get("nic.rx_pipeline_faults", device_name).inc()
        self.records.append({
            "type": "event", "kind": "fault", "fault": kind,
            "t_ns": self.fabric.sim.now, "device": device_name,
        })

    def on_cnp_sent(self, qp):
        self.registry.get("qp.cnps_sent", qp.host.name).inc()

    def on_nak_sent(self, qp):
        self.registry.get("qp.naks_sent", qp.host.name).inc()

    def on_rate_decrease(self, rp):
        owner = getattr(rp, "owner", "")
        self.registry.get("dcqcn.cnps_handled", owner).inc()
        self.registry.get("dcqcn.rate_bps", owner).set(rp.rate_bps)
