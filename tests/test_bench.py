"""Regression gate for the ``repro.bench`` harness.

Two jobs:

1. **Determinism pinning** -- every bench scenario's fingerprint must
   equal the one recorded in ``benchmarks/BASELINE.json``.  The baseline
   was captured *before* the hot-path optimizations, so these tests are
   the proof that the optimizations changed speed and nothing else (the
   fingerprints digest event counts, per-QP stats, link and switch
   counters, and buffer peaks).
2. **Report schema** -- ``BENCH_simulator.json`` must stay machine
   readable; CI consumes it, so a malformed report fails here first.

The slowest scenarios (``clos_slice``, ``pause_storm``) are exercised by
``python -m repro.bench`` and CI's bench smoke job rather than here, to
keep the tier-1 suite quick; their fingerprints are still pinned via the
baseline comparison done by the CLI.  ``clos_pod`` (the fabric-scale
check) *is* pinned here despite its cost: it is the only scenario that
exercises cross-podset ECMP over the full three-tier fabric, so drift
in it must fail tier-1, not just CI.
"""

import json
import os

import pytest

from repro.bench import (
    SCENARIOS,
    SchemaViolation,
    load_baseline,
    run_benchmarks,
    validate_report,
    write_report,
)
from repro.bench.harness import build_report
from repro.bench.scenarios import digest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks", "BASELINE.json")

#: Scenarios cheap enough to re-run inside the tier-1 suite.  The two
#: flowsim_* entries pin the flow-level tier the same way the packet
#: scenarios pin the packet engine (their fingerprints digest the
#: engine's integer run tuple, completion CRC included).
FAST_SCENARIOS = (
    "engine_churn",
    "single_flow",
    "tcp_baseline",
    "incast_tor",
    "flowsim_churn",
    "flowsim_clos",
)


@pytest.fixture(scope="module")
def baseline():
    data = load_baseline(BASELINE_PATH)
    assert data is not None, "benchmarks/BASELINE.json missing"
    return data


class TestFingerprintPinning:
    @pytest.mark.parametrize("name", FAST_SCENARIOS)
    def test_matches_checked_in_baseline(self, name, baseline):
        run = SCENARIOS[name].run(seed=1)
        recorded = baseline["scenarios"][name]
        assert run.fingerprint == recorded["fingerprint"], (
            "scenario %r drifted from the pre-optimization baseline -- "
            "an optimization changed simulation behavior" % name
        )
        assert run.events == recorded["events"]
        assert run.packets == recorded["packets"]

    def test_clos_pod_matches_checked_in_baseline(self, baseline):
        run = SCENARIOS["clos_pod"].run(seed=1)
        recorded = baseline["scenarios"]["clos_pod"]
        assert run.fingerprint == recorded["fingerprint"], (
            "clos_pod drifted from the checked-in baseline -- event "
            "ordering changed simulation behavior"
        )
        assert run.events == recorded["events"]
        assert run.packets == recorded["packets"]
        # Every event is one dispatched callback.
        assert run.dispatches == run.events

    def test_baseline_covers_every_scenario(self, baseline):
        assert set(baseline["scenarios"]) == set(SCENARIOS)

    @pytest.mark.parallel
    @pytest.mark.parametrize("workers", [2, 4])
    def test_clos_pod_parallel_matches_serial_baseline(
        self, workers, baseline, monkeypatch
    ):
        """The space-parallel engine's acceptance criterion: sharded
        clos_pod reproduces the *serial* baseline fingerprint
        byte-for-byte at any worker count (docs/parallel.md)."""
        from repro.bench import scenarios as bench_scenarios

        monkeypatch.setattr(bench_scenarios, "PARALLEL_WORKERS", workers)
        run = SCENARIOS["clos_pod_parallel"].run(seed=1)
        recorded = baseline["scenarios"]["clos_pod"]
        assert run.fingerprint == recorded["fingerprint"], (
            "clos_pod_parallel at %d workers diverged from the serial "
            "baseline -- the conservative-synchronization determinism "
            "contract is broken" % workers
        )
        assert run.events == recorded["events"]
        assert run.packets == recorded["packets"]
        assert run.detail["workers"] == workers
        assert run.detail["window_ns"] == 1500

    def test_repeat_is_deterministic_in_process(self):
        first = SCENARIOS["single_flow"].run(seed=1)
        second = SCENARIOS["single_flow"].run(seed=1)
        assert first.fingerprint == second.fingerprint
        assert first.events == second.events

    def test_seeds_diverge(self):
        # The seed must actually steer the run (loss pattern, ECMP ports),
        # otherwise "seeded" benchmarks would be measuring one trajectory.
        assert (
            SCENARIOS["single_flow"].run(seed=1).fingerprint
            != SCENARIOS["single_flow"].run(seed=2).fingerprint
        )


class TestReportSchema:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        scenarios = run_benchmarks(["engine_churn"], seed=1, repeat=1)
        report = build_report(
            scenarios, baseline=load_baseline(BASELINE_PATH), repeat=1
        )
        path = tmp_path_factory.mktemp("bench") / "BENCH_simulator.json"
        write_report(report, str(path))
        return json.loads(path.read_text())

    def test_roundtrips_and_validates(self, report):
        assert validate_report(report) is report
        assert report["schema"] == "repro-bench/1"
        entry = report["scenarios"]["engine_churn"]
        assert entry["events"] > 0 and entry["events_per_sec"] > 0

    def test_comparison_against_baseline(self, report):
        row = report["comparison"]["engine_churn"]
        assert row["fingerprint_match"] is True
        assert row["speedup"] > 0
        assert row["baseline_events_per_sec"] > 0

    def test_code_version_stamp(self, report):
        from repro.campaign.cache import code_version

        assert report["code_version"] == code_version()

    def test_validator_rejects_missing_field(self, report):
        broken = dict(report)
        del broken["code_version"]
        with pytest.raises(SchemaViolation, match="code_version"):
            validate_report(broken)

    def test_validator_rejects_bad_fingerprint(self, report):
        broken = json.loads(json.dumps(report))
        broken["scenarios"]["engine_churn"]["fingerprint"] = "short"
        with pytest.raises(SchemaViolation, match="fingerprint"):
            validate_report(broken)

    def test_validator_rejects_unknown_comparison(self, report):
        broken = json.loads(json.dumps(report))
        broken["comparison"]["made_up"] = {
            "baseline_events_per_sec": 1.0,
            "speedup": 1.0,
            "fingerprint_match": True,
        }
        with pytest.raises(SchemaViolation, match="made_up"):
            validate_report(broken)


def test_digest_is_stable_and_order_sensitive():
    assert digest((1, 2, 3)) == digest((1, 2, 3))
    assert digest((1, 2, 3)) != digest((3, 2, 1))
    assert len(digest((1,))) == 16
