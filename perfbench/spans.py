"""Outside-in span recorder for the benchmark's traced pass.

The program under test is never edited.  For the traced pass this
module replaces, at class level, the public entry point of each layer
with a wrapper that records a span around the original method, and puts
every original back afterwards.  Each span has a layer, a start, an end
and the span that was open when it began (its parent).

A layer's *self time* is the duration of its spans minus the time their
child spans cover, so nested calls are never counted twice: the time a
switch spends inside ``Port.enqueue`` is charged to ``net``, not to
``switch``.  ``Simulator.run`` is the root of every packet-level span
tree; whatever its children do not cover (event dispatch, timers, the
model code between entry points) is charged to ``sim``.  ``FlowSim.run``
plays the same role for the flow-level tier.

Aggregates (self time and call count per layer) cover every span.  The
spans themselves are kept in memory up to :data:`SPAN_CAP` (the earliest
ones) and written out when the run ends; the count of spans beyond the
cap is reported, not hidden.
"""

import functools
import json
import time

#: (layer, class import path, method names).  One row per layer entry
#: point; the order is the order layers are listed in reports.
ENTRY_POINTS = (
    ("sim", "repro.sim.engine", "Simulator", ("run",)),
    ("net", "repro.net.link", "Link", ("transmit",)),
    ("net", "repro.net.port", "Port", ("enqueue", "receive_pause")),
    ("switch", "repro.switch.switch", "Switch", ("handle_packet",)),
    ("nic", "repro.nic.nic", "Nic", ("handle_packet", "notify_tx_ready")),
    ("rdma", "repro.rdma.qp", "QueuePair", ("on_network_packet", "pull", "post")),
    ("dcqcn", "repro.dcqcn.rp", "ReactionPoint", ("on_cnp", "on_bytes_sent")),
    ("tcp", "repro.tcp.connection", "TcpConnection", ("on_segment", "pull")),
    ("flowsim", "repro.flowsim.engine", "FlowSim", ("run",)),
    ("flows", "repro.flows.maxmin", "MaxMinSolver", ("add_flow", "remove_flow", "solve")),
    ("topo", "repro.topo.fabric", "Fabric", ("boot",)),
)

#: Spans kept in memory per traced run (the earliest ones).
SPAN_CAP = 20_000

LAYERS = ("sim", "net", "switch", "nic", "rdma", "dcqcn", "tcp", "flowsim", "flows", "topo")


class SpanRecorder:
    """Records spans around the wrapped entry points while installed.

    Use as a context manager: ``with SpanRecorder() as rec: ...``
    installs the wrappers on entry and restores the original methods on
    exit, even when the body raises.
    """

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.spans = []  # (span id, layer, start, end, parent id)
        self.spans_dropped = 0
        self._stack = []  # open spans: [span id, child seconds]
        self._next_id = 0
        self._originals = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        import importlib

        for layer, module_name, class_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                self._originals.append((cls, method, original))
                setattr(cls, method, self._wrap(layer, original))
        return self

    def __exit__(self, *exc_info):
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals = []
        return False

    def _wrap(self, layer, original):
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, layer, start, end, parent))
                else:
                    recorder.spans_dropped += 1

        return wrapper

    # -- results -----------------------------------------------------------

    def reset(self):
        """Zero the aggregates (spans already kept stay in the artifact)."""
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0

    def write_jsonl(self, path, summary):
        """One summary line, one line per layer, then the kept spans."""
        with open(path, "w") as handle:
            head = dict(summary, spans_kept=len(self.spans), spans_dropped=self.spans_dropped)
            handle.write(json.dumps({"kind": "summary", **head}, sort_keys=True) + "\n")
            for layer in LAYERS:
                handle.write(
                    json.dumps(
                        {
                            "kind": "layer",
                            "layer": layer,
                            "self_s": self.self_s[layer],
                            "calls": self.calls[layer],
                        }
                    )
                    + "\n"
                )
            origin = self.spans[0][2] if self.spans else 0.0
            for span_id, layer, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span_id,
                            "layer": layer,
                            "start_us": round((start - origin) * 1e6, 3),
                            "end_us": round((end - origin) * 1e6, 3),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
