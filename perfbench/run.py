"""Host-time benchmark of the RoCEv2 fabric simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clos_lossless --seed 1 --seconds 15 --trace 0

``--trace 0`` (the timed pass) repeats the workload, each repetition
set up afresh from the seed, until ``--seconds`` of host time have
passed, and reports the end-to-end metrics as medians over the
repetitions.  A fixed pure-Python loop is timed around every timed
phase, and each host time is scaled by it to a reference host speed,
so drift in host speed is not read as a program change.
``--trace 1`` (the traced pass) runs the workload once dark and once
with every layer entry point wrapped by :class:`spans.SpanRecorder`,
checks that both runs simulated the same thing, writes
``perfbench/traces/<workload>.jsonl`` and reports the per-layer
metrics, ``host.cal_s`` among them.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md for
what each workload is for and what each metric should move.
"""

import argparse
import gc
import heapq
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up-only repetitions per run, for a steady ``setup_s`` median.
SETUP_REPS = 9
#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 2
#: A repetition that takes longer than this counts as failed.
REP_LIMIT_S = 50
#: :func:`calibrate`'s time on the reference host.  Host-time metrics
#: are scaled by ``host.cal_s / CAL_REF_S`` (see NOTES.md).
CAL_REF_S = 0.15


class RepTimeout(Exception):
    """A repetition ran past :data:`REP_LIMIT_S`."""


def _alarm(_signum, _frame):
    raise RepTimeout("repetition exceeded %d s" % REP_LIMIT_S)


def calibrate():
    """Host seconds for a fixed pure-Python heap and dict churn loop."""
    start = time.perf_counter()
    heap, table = [], {}
    key = 1
    for i in range(100_000):
        key = (key * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (key, i))
        table[key & 0xFFFF] = i
        if len(heap) > 512:
            _k, j = heapq.heappop(heap)
            table.pop(j & 0xFFFF, None)
    return time.perf_counter() - start


class ScaledTimer:
    """Times each block handed to it, then times :func:`calibrate`, and
    scales the block's host time to the reference host speed by the mean
    of the calibration timings on either side of it.  A workload with
    several timed phases per repetition is thus calibrated every phase,
    not once per repetition."""

    def __init__(self):
        self.cals = [calibrate()]
        self.raw_s = 0.0

    def __call__(self, block):
        start = time.perf_counter()
        result = block()
        raw = time.perf_counter() - start
        self.raw_s += raw
        return result, self.rescale(raw)

    def rescale(self, seconds):
        """Scale ``seconds`` of host time spent since the latest
        calibration; calibrates again."""
        self.cals.append(calibrate())
        return seconds * 2 * CAL_REF_S / (self.cals[-2] + self.cals[-1])


class Tally:
    """Repetitions attempted and failed; failures are logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        """Run one repetition; returns it, or None when it failed."""
        self.attempted += 1
        # Every repetition starts from the same collector state, whatever
        # garbage the previous one left.
        gc.collect()
        signal.alarm(REP_LIMIT_S)
        try:
            rep = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self._fail("%s: %s" % (type(exc).__name__, exc))
            return None
        finally:
            signal.alarm(0)
        if rep.failures:
            self._fail("; ".join(rep.failures[:5]))
            return None
        return rep

    def expect_digest(self, rep, expected, what):
        if rep is not None and rep.digest != expected:
            self._fail("%s digest %s != %s" % (what, rep.digest, expected))
            return None
        return rep

    def _fail(self, reason):
        self.failed += 1
        print("FAILED: %s" % reason, file=sys.stderr)


def peak_rss_mb():
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_only(workload, seed, inputs, tally, timer):
    """Set-up-only repetitions (build, boot and wire, never run), with
    each set-up time scaled by the calibration timed around it."""
    setups, scaled = [], []
    for _ in range(SETUP_REPS):
        rep = tally.attempt(workload.setup_only, seed, inputs)
        if rep is not None:
            setups.append(rep)
            scaled.append(timer.rescale(rep.setup_s))
    return setups, scaled


def timed_pass(workload, seed, seconds, inputs, tally):
    """End-to-end metrics, each host time scaled to the reference host
    speed by the calibration loop timed around it."""
    timer = ScaledTimer()
    setups, scaled_setups = setup_only(workload, seed, inputs, tally, timer)
    raw_setups = [r.setup_s for r in setups]
    deadline = time.perf_counter() + seconds
    reps = []  # (repetition, raw run seconds)
    expected = None
    attempts = 0
    while True:
        attempts += 1
        # The set-up runs between this calibration and the next, which
        # follows the repetition's first timed phase.
        first_cal, raw_before = len(timer.cals) - 1, timer.raw_s
        rep = tally.attempt(workload.rep, seed, inputs, timer)
        if rep is not None:
            expected = expected or rep.digest
            rep = tally.expect_digest(rep, expected, "repetition")
        if rep is not None:
            reps.append((rep, timer.raw_s - raw_before))
            cals = timer.cals[first_cal:first_cal + 2]
            scaled_setups.append(rep.setup_s * 2 * CAL_REF_S / sum(cals))
            raw_setups.append(rep.setup_s)
        if attempts >= MIN_REPS and time.perf_counter() >= deadline:
            break
    if not reps:
        return None
    metrics = {
        "sim_us_per_s": statistics.median(r.sim_us / r.run_s for r, _raw in reps),
        "delivered_per_s": statistics.median(r.delivered / r.run_s for r, _raw in reps),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    print("raw sim_us_per_s %.6g delivered_per_s %.6g setup_s %.6g host.cal_s %.6g" % (
        statistics.median(r.sim_us / raw for r, raw in reps),
        statistics.median(r.delivered / raw for r, raw in reps),
        statistics.median(raw_setups),
        statistics.median(timer.cals)))
    print("timed repetitions: %d, digest %s" % (len(reps), expected))
    return metrics


def traced_pass(workload, seed, inputs, tally):
    """Per-layer metrics from one dark and one traced repetition."""
    from spans import SpanRecorder

    timer = ScaledTimer()
    setups, _scaled = setup_only(workload, seed, inputs, tally, timer)
    dark = tally.attempt(workload.rep, seed, inputs, timer)
    if dark is None:
        return None
    with SpanRecorder() as recorder:
        traced = tally.attempt(workload.rep, seed, inputs, timer, recorder)
    traced = tally.expect_digest(traced, dark.digest, "traced")
    if traced is None:
        return None
    metrics = layer_metrics(dark, traced, recorder, setups + [dark])
    # Both run times are scaled by the calibration timed around them.
    metrics["trace.overhead"] = traced.run_s / dark.run_s
    metrics["host.cal_s"] = statistics.median(timer.cals)
    os.makedirs(os.path.join(ROOT, "perfbench", "traces"), exist_ok=True)
    recorder.write_jsonl(
        os.path.join(ROOT, "perfbench", "traces", "%s.jsonl" % workload.name),
        {"workload": workload.name, "seed": seed, "digest": dark.digest, "metrics": metrics},
    )
    print("traced digest %s = dark digest %s" % (traced.digest, dark.digest))
    print("host.cal_s samples %s" % " ".join("%.4f" % c for c in timer.cals))
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_us(values_ns, q):
    if not values_ns:
        return 0.0
    ordered = sorted(values_ns)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1000.0


def layer_metrics(dark, traced, recorder, setups):
    """Per-layer metrics from the traced repetition's spans plus the
    exact counters, and set-up timings from the dark repetitions."""
    self_s = recorder.self_s
    calls = recorder.calls
    get = traced.layers.get
    events = get("sim.events", 0)
    dispatches = get("sim.dispatches", 0)
    frames = get("net.frames_delivered", 0)
    sent = get("rdma.data_packets_sent", 0)
    hits, misses = get("nic.mtt_hits", 0), get("nic.mtt_misses", 0)
    fe = get("flowsim.events", 0)
    fcts = get("fcts_ns", [])
    return {
        "sim.self_s": self_s["sim"],
        "sim.events": events,
        "sim.dispatches": dispatches,
        "sim.dispatches_per_frame": _ratio(dispatches, frames),
        "net.self_s": self_s["net"],
        "net.calls": calls["net"],
        "net.frames_lost": get("net.frames_lost", 0),
        "net.elided_share": _ratio(events - dispatches, events),
        "switch.self_s": self_s["switch"],
        "switch.calls": calls["switch"],
        "switch.pause_sent": get("switch.pause_sent", 0),
        "switch.pause_received": get("switch.pause_received", 0),
        "switch.ecn_marked": get("switch.ecn_marked", 0),
        "switch.drops": get("switch.drops", 0),
        "switch.buffer_peak_bytes": get("switch.buffer_peak_bytes", 0),
        "nic.self_s": self_s["nic"],
        "nic.calls": calls["nic"],
        "nic.pause_generated": get("nic.pause_generated", 0),
        "nic.mtt_miss_ratio": _ratio(misses, hits + misses),
        "rdma.self_s": self_s["rdma"],
        "rdma.calls": calls["rdma"],
        "rdma.messages_completed": get("rdma.messages_completed", 0),
        "rdma.retransmit_share": _ratio(get("rdma.retransmitted_packets", 0), sent),
        "rdma.timeouts": get("rdma.timeouts", 0),
        "rdma.msg_fct_us_p50": _percentile_us(fcts, 0.50),
        "rdma.msg_fct_us_p99": _percentile_us(fcts, 0.99),
        "dcqcn.self_s": self_s["dcqcn"],
        "dcqcn.cnps": get("dcqcn.cnps", 0),
        "dcqcn.rate_decreases": get("dcqcn.rate_decreases", 0),
        "tcp.self_s": self_s["tcp"],
        "tcp.calls": calls["tcp"],
        "tcp.retransmits": get("tcp.retransmits", 0),
        "topo.build_s": statistics.median(r.build_s for r in setups),
        "topo.boot_s": statistics.median(r.boot_s for r in setups),
        "workload.wire_s": statistics.median(r.wire_s for r in setups),
        "flowsim.self_s": self_s["flowsim"],
        "flowsim.events": fe,
        "flowsim.recomputes": get("flowsim.recomputes", 0),
        "flowsim.recomputes_per_event": _ratio(get("flowsim.recomputes", 0), fe),
        "flows.self_s": self_s["flows"],
        "flows.calls": calls["flows"],
    }


def load_units(kind):
    """(name, unit) of each ``kind`` metric ("end_to_end" or "per_layer"),
    in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("no simulator source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    tally = Tally()
    inputs = workload.generate(args.seed)
    if args.trace:
        values = traced_pass(workload, args.seed, inputs, tally)
    else:
        values = timed_pass(workload, args.seed, args.seconds, inputs, tally)
    if values is None:
        print("no repetition of %s succeeded" % args.workload, file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in load_units("per_layer" if args.trace else "end_to_end"):
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-28s %16.6g %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
