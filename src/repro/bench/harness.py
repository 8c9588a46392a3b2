"""Measurement harness: wall clock, cProfile attribution, report emission.

``run_benchmarks`` times each scenario ``repeat`` times (best-of wall
time — the minimum is the least noisy estimator of intrinsic cost),
derives events/sec and packets/sec, optionally runs one extra profiled
pass whose time is attributed per subsystem, compares against the
checked-in baseline (``benchmarks/BASELINE.json``), and emits the
schema-validated ``BENCH_simulator.json``.

The report stamps :func:`repro.campaign.cache.code_version` — the digest
of every file under ``src/repro`` — so a result is always attributable
to the exact code that produced it.
"""

import cProfile
import json
import os
import platform
import pstats
import sys
import time

from repro.bench.scenarios import SCENARIOS
from repro.bench.schema import SCHEMA_ID, validate_report

#: Source-path fragment -> subsystem bucket for profile attribution.
#: Ordered: first match wins (os.sep-normalized at match time).
_SUBSYSTEM_BUCKETS = (
    ("repro/sim/", "engine"),
    ("repro/packets/", "packets"),
    ("repro/net/", "net"),
    ("repro/switch/", "switch"),
    ("repro/nic/", "nic"),
    ("repro/rdma/", "rdma"),
    ("repro/tcp/", "tcp"),
    ("repro/dcqcn/", "cc"),
    ("repro/timely/", "cc"),
    ("repro/flowsim/", "flowsim"),
    ("repro/flows/", "flowsim"),
    ("repro/telemetry/", "telemetry"),
    ("repro/", "other-repro"),
)


def _bucket_for(filename):
    normalized = filename.replace(os.sep, "/")
    for fragment, bucket in _SUBSYSTEM_BUCKETS:
        if fragment in normalized:
            return bucket
    if "heapq" in normalized or filename.startswith("~"):
        return "engine"
    return "stdlib"


def profile_scenario(name, seed=1):
    """Run one scenario under cProfile; return ``{bucket: seconds}``.

    Attribution uses *total* time (time inside the function itself,
    excluding callees), so buckets sum to roughly the run's wall time
    and answer "where are the cycles actually spent", not "who is on
    the call stack".
    """
    scenario = SCENARIOS[name]
    profiler = cProfile.Profile()
    profiler.enable()
    scenario.run(seed)
    profiler.disable()
    stats = pstats.Stats(profiler)
    buckets = {}
    for (filename, _lineno, _fn), row in stats.stats.items():
        tottime = row[2]
        bucket = _bucket_for(filename)
        buckets[bucket] = buckets.get(bucket, 0.0) + tottime
    total = sum(buckets.values()) or 1.0
    return {
        bucket: {"seconds": round(seconds, 4), "fraction": round(seconds / total, 4)}
        for bucket, seconds in sorted(buckets.items(), key=lambda kv: -kv[1])
    }


def run_benchmarks(names=None, seed=1, repeat=3, profile=False, progress=None, warmup=True):
    """Time the named scenarios (all of them by default).

    Each scenario gets one *untimed* warmup execution first (unless
    ``warmup=False``): the first run pays allocator growth, lazy imports
    and branch-predictor/cache cold starts that the steady-state runs do
    not, and letting it into the sample was a reliable source of phantom
    "regressions" on fingerprint-identical code.

    Returns the ``scenarios`` mapping of the report: per scenario, the
    counters, best-of-``repeat`` wall time, derived rates, fingerprint,
    and (with ``profile=True``) the per-subsystem attribution.
    """
    names = list(names) if names else list(SCENARIOS)
    results = {}
    for name in names:
        scenario = SCENARIOS[name]
        if progress:
            progress("%-14s %s ..." % (name, scenario.title))
        walls = []
        run = None
        if warmup:
            scenario.run(seed)
        for _ in range(max(1, repeat)):
            started = time.perf_counter()
            run = scenario.run(seed)
            walls.append(time.perf_counter() - started)
        best = min(walls)
        entry = {
            "title": scenario.title,
            "paper_ref": scenario.paper_ref,
            "seed": seed,
            "events": run.events,
            "dispatches": run.dispatches,
            "packets": run.packets,
            "sim_ns": run.sim_ns,
            "wall_s": round(best, 4),
            "wall_s_all": [round(w, 4) for w in walls],
            "events_per_sec": round(run.events / best, 1),
            "packets_per_sec": round(run.packets / best, 1) if run.packets else 0.0,
            # Machine-independent cost: engine callbacks per delivered
            # packet (0.0 for packet-free scenarios).
            "events_per_packet": (
                round(run.dispatches / run.packets, 4) if run.packets else 0.0
            ),
            "fingerprint": run.fingerprint,
        }
        for key, value in run.detail.items():
            entry[key] = round(value, 3) if isinstance(value, float) else value
        if profile:
            entry["profile"] = profile_scenario(name, seed)
        if progress:
            progress(
                "%-14s %8.3fs  %11s events/s  fp=%s"
                % (name, best, "{:,.0f}".format(entry["events_per_sec"]), run.fingerprint)
            )
        results[name] = entry
    return results


def collect_telemetry(scenarios, out_dir, seed=1, progress=None):
    """One extra *untimed* instrumented pass per already-benchmarked scenario.

    The timing loop in :func:`run_benchmarks` never runs with telemetry
    enabled: an armed hub adds poll-timer events, which would shift both
    the wall clocks and the determinism fingerprints that
    ``tests/test_bench.py`` pins.  So artifact collection is always this
    separate pass -- arm, re-run once, drain, write
    ``<scenario>-<i>.telemetry.jsonl`` under ``out_dir``.

    Annotates each scenario entry with a ``telemetry`` block (artifact
    paths + incident count, landing in the report as extra keys the
    ``repro-bench/1`` schema permits) and returns the mapping.
    """
    from repro import telemetry

    for name, entry in scenarios.items():
        telemetry.arm(telemetry.TelemetryConfig(label="bench:%s" % name))
        try:
            SCENARIOS[name].run(seed)
        finally:
            telemetry.disarm()
        sessions = telemetry.drain()
        paths = telemetry.write_artifacts(sessions, out_dir, name)
        incidents = telemetry.incident_count(sessions)
        entry["telemetry"] = {"artifacts": paths, "incidents": incidents}
        if progress:
            progress(
                "%-14s telemetry: %d artifact(s), %d incident(s)"
                % (name, len(paths), incidents)
            )
    return scenarios


def collect_traces(scenarios, out_dir, seed=1, progress=None, config=None):
    """One extra *untimed* traced pass per already-benchmarked scenario.

    The mirror of :func:`collect_telemetry` for the causal tracing
    plane: arm the trace hub, re-run once, drain, write
    ``<scenario>-<i>.trace.jsonl`` under ``out_dir``.  (Tracing itself
    is fingerprint-neutral even while armed, but it is a memory-heavy
    observer, so it stays out of the timing loop just like telemetry.)

    Annotates each scenario entry with a ``trace`` block (artifact
    paths + op/pause counts) and returns the mapping.  ``config`` is an
    optional :class:`repro.tracing.TraceConfig` template whose sampling
    fields are reused per scenario.
    """
    from repro import tracing

    for name, entry in scenarios.items():
        if config is not None:
            scenario_config = tracing.TraceConfig(
                label="bench:%s" % name,
                sample_rate=config.sample_rate,
                sample_seed=config.sample_seed,
                max_ops=config.max_ops,
                max_packets=config.max_packets,
                packets_per_op=config.packets_per_op,
            )
        else:
            scenario_config = tracing.TraceConfig(label="bench:%s" % name)
        tracing.arm(scenario_config)
        try:
            SCENARIOS[name].run(seed)
        finally:
            tracing.disarm()
        sessions = tracing.drain()
        paths = tracing.write_artifacts(sessions, out_dir, name)
        ops = completed = pauses = 0
        for records in sessions:
            summary = tracing.summary_of(records)
            ops += summary.get("ops_traced", 0)
            completed += summary.get("ops_completed", 0)
            pauses += summary.get("pause_nodes", 0)
        entry["trace"] = {
            "artifacts": paths,
            "ops": ops,
            "ops_completed": completed,
            "pause_nodes": pauses,
        }
        if progress:
            progress(
                "%-14s trace: %d artifact(s), %d op(s), %d pause episode(s)"
                % (name, len(paths), ops, pauses)
            )
    return scenarios


def load_baseline(path):
    """Load ``benchmarks/BASELINE.json``; returns None when absent."""
    if not path or not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def compare_to_baseline(scenarios, baseline):
    """Per-scenario speedup and fingerprint agreement vs the baseline.

    Each row also carries ``noise`` -- this run's relative wall-clock
    spread, ``(max - min) / min`` over the timed repeats -- and
    ``within_noise``: true when ``|speedup - 1|`` is smaller than that
    spread.  A speedup inside the run's own jitter band is not evidence
    of a regression (or an improvement); consumers should treat such
    rows as "unchanged" rather than alerting on them.
    """
    comparison = {}
    if not baseline:
        return comparison
    base_scenarios = baseline.get("scenarios", {})
    for name, entry in scenarios.items():
        base = base_scenarios.get(name)
        if not base:
            continue
        speedup = round(entry["events_per_sec"] / base["events_per_sec"], 3)
        walls = entry.get("wall_s_all") or [entry["wall_s"]]
        noise = round((max(walls) - min(walls)) / min(walls), 3)
        row = {
            "baseline_events_per_sec": base["events_per_sec"],
            "speedup": speedup,
            "noise": noise,
            "within_noise": abs(speedup - 1.0) <= noise,
            "fingerprint_match": entry["fingerprint"] == base["fingerprint"],
        }
        base_epp = base.get("events_per_packet")
        if base_epp:
            row["baseline_events_per_packet"] = base_epp
            # > 1.0 means the engine now dispatches more callbacks per
            # delivered packet than the baseline did (machine-independent;
            # CI's bench smoke job fails such a run).
            row["events_per_packet_ratio"] = round(
                entry["events_per_packet"] / base_epp, 4
            )
        comparison[name] = row
    return comparison


def build_report(scenarios, baseline=None, repeat=3):
    """Assemble (and schema-validate) the full report object."""
    from repro.campaign.cache import code_version

    report = {
        "schema": SCHEMA_ID,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "code_version": code_version(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeat": repeat,
        "scenarios": scenarios,
        "baseline": baseline,
        "comparison": compare_to_baseline(scenarios, baseline),
    }
    validate_report(report)
    return report


def write_report(report, path):
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_baseline(scenarios, path):
    """Record the current numbers as the new baseline file.

    Only the fields future runs compare against are kept, so the
    baseline survives harness-report schema evolution.
    """
    from repro.campaign.cache import code_version

    baseline = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "code_version": code_version(),
        "python": platform.python_version(),
        "note": (
            "Pre-PR hot-path baseline. events_per_sec is machine-relative; "
            "fingerprints are machine-independent and pinned by tests/test_bench.py."
        ),
        "scenarios": {
            name: {
                "events_per_sec": entry["events_per_sec"],
                "events": entry["events"],
                "dispatches": entry["dispatches"],
                "packets": entry["packets"],
                "events_per_packet": entry["events_per_packet"],
                "wall_s": entry["wall_s"],
                "fingerprint": entry["fingerprint"],
            }
            for name, entry in scenarios.items()
        },
    }
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
