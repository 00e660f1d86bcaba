"""Distributed round-phase profiler (repro.obs.prof).

Unit coverage for the recorder ring and clock sync, plus end-to-end checks that a profiled distributed run yields a
well-formed PhaseReport, a merged Chrome trace, and dist.* gauges via
``TelemetrySession.absorb_distributed``.
"""

import json
import random
import time

import numpy as np
import pytest

from repro.core.simulation import ENGINES
from repro.dist import plan_partitions, run_distributed
from repro.manager.mapper import HostConfig, map_topology
from repro.manager.runfarm import RunFarmConfig, elaborate
from repro.manager.topology import two_tier
from repro.obs.prof import (
    BUSY_PHASES,
    P_COMPUTE,
    P_SEND,
    P_SERIALIZE,
    PHASES,
    PROFILE_SCHEMA,
    WORKER_PID_BASE,
    ClockSync,
    PhaseRecorder,
    PhaseReport,
    ProfileConfig,
    WorkerProfile,
)
from repro.obs.session import TelemetrySession
from repro.swmodel.apps.ping import make_ping_client

ONE_FPGA = HostConfig(fpgas_per_instance=1)


def run_profiled(profile, cycles=200_000, engine="scalar"):
    """A 2-worker distributed run with profiling on."""
    root = two_tier(num_racks=2, servers_per_rack=2)
    running = elaborate(
        root, RunFarmConfig(link_latency_cycles=640, engine=engine)
    )
    blades = running.blades
    last = max(blades)
    blades[0].spawn(
        "ping",
        make_ping_client(blades[last].mac, count=2, interval_cycles=50_000),
    )
    plan = plan_partitions(running, map_topology(root, ONE_FPGA), 2)
    return run_distributed(running.simulation, plan, cycles, profile=profile)


# -- PhaseRecorder ------------------------------------------------------


class TestPhaseRecorder:
    def test_marks_attribute_segments_to_phases(self):
        rec = PhaseRecorder(capacity=8)
        rec.round_begin()
        time.sleep(0.002)
        rec.mark(P_COMPUTE)
        rec.mark(P_SEND)
        rec.round_end()
        assert rec.rounds == 1
        assert rec.totals[P_COMPUTE] >= 0.002
        # The send mark landed immediately after compute's.
        assert rec.totals[P_SEND] < rec.totals[P_COMPUTE]

    def test_idle_is_unattributed_remainder(self):
        rec = PhaseRecorder(capacity=8)
        rec.round_begin()
        rec.mark(P_COMPUTE)
        time.sleep(0.002)  # after the last mark: becomes idle
        rec.round_end()
        _, samples = rec.chronological()
        row = samples[0]
        assert row[PHASES.index("idle")] >= 0.002
        # Row sums to the measured round time (idle closes the gap).
        assert sum(row) == pytest.approx(
            rec.totals[P_COMPUTE] + row[PHASES.index("idle")]
        )

    def test_accrued_serialize_deducted_from_send(self):
        rec = PhaseRecorder(capacity=8)
        rec.round_begin()
        time.sleep(0.004)
        rec.accrue(P_SERIALIZE, 0.001)  # staging inside the send segment
        rec.mark(P_SEND)
        rec.round_end()
        assert rec.totals[P_SERIALIZE] == pytest.approx(0.001)
        assert rec.totals[P_SEND] >= 0.002  # net of serialize
        assert rec.totals[P_SEND] < 0.004

    def test_ring_wraparound_keeps_totals_and_order(self):
        rec = PhaseRecorder(capacity=4)
        for _ in range(7):
            rec.round_begin()
            rec.mark(P_COMPUTE)
            rec.round_end()
        assert rec.rounds == 7
        assert rec.wrapped
        assert rec.retained == 4
        starts, samples = rec.chronological()
        assert [len(row) for row in samples] == [len(PHASES)] * 4
        # Oldest-to-newest after unrolling the ring.
        assert all(a < b for a, b in zip(starts, starts[1:]))
        # Totals cover all 7 rounds, not just the retained 4.
        assert rec.totals[P_COMPUTE] > sum(row[P_COMPUTE] for row in samples)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PhaseRecorder(capacity=0)


# -- ClockSync ----------------------------------------------------------


class TestClockSync:
    def test_shared_clock_offset_zero(self):
        sync = ClockSync(epoch_s=10.0, entry_s=10.5)
        assert sync.offset_s == 0.0
        assert sync.fork_latency_s == pytest.approx(0.5)
        assert sync.to_parent(11.0) == 11.0

    def test_behind_epoch_reanchors(self):
        sync = ClockSync(epoch_s=10.0, entry_s=9.5)
        assert sync.offset_s == pytest.approx(-0.5)
        assert sync.fork_latency_s == 0.0
        # Worker entry maps exactly onto the parent's epoch.
        assert sync.to_parent(9.5) == pytest.approx(10.0)

    def test_deterministic_given_inputs(self):
        a = ClockSync(epoch_s=3.25, entry_s=3.5)
        b = ClockSync(epoch_s=3.25, entry_s=3.5)
        assert a.to_dict() == b.to_dict()


# -- ProfileConfig ------------------------------------------------------


class TestProfileConfig:
    def test_defaults_valid(self):
        config = ProfileConfig()
        assert config.ring_capacity == 2048

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ring_capacity": 0},
            {"trace_rounds": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ProfileConfig(**kwargs)


# -- end-to-end: profiled distributed runs ------------------------------


@pytest.fixture(scope="module", params=ENGINES)
def profiled_result(request):
    """One shard driver, exercised under both round loops."""
    return run_profiled(True, engine=request.param)


class TestPhaseReportEndToEnd:
    def test_every_worker_ships_a_profile(self, profiled_result):
        report = PhaseReport.from_result(profiled_result)
        assert len(report.profiles) == 2
        assert [p.worker_id for p in report.profiles] == [0, 1]
        # One row per exchange performed.
        assert all(
            p.rounds == profiled_result.exchange_rounds
            for p in report.profiles
        )

    def test_phase_shares_sum_to_one(self, profiled_result):
        report = PhaseReport.from_result(profiled_result)
        for profile in report.profiles:
            shares = profile.phase_shares()
            assert set(shares) == set(PHASES)
            assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)

    def test_critical_path_names_worker_and_phase(self, profiled_result):
        critical = PhaseReport.from_result(profiled_result).critical_path()
        assert critical["worker"] in (0, 1)
        assert critical["phase"] in {PHASES[i] for i in BUSY_PHASES}
        assert critical["rounds_observed"] > 0
        assert 0 < critical["rounds_bound"] <= critical["rounds_observed"]

    def test_reconciliation_shares(self, profiled_result):
        recon = PhaseReport.from_result(profiled_result).reconciliation()
        assert 0.0 < recon["compute_share"] < 1.0
        assert 0.0 < recon["transport_share"] < 1.0
        assert recon["measured_rate_mhz"] > 0.0

    def test_to_dict_is_json_round_trippable(self, profiled_result):
        document = PhaseReport.from_result(profiled_result).to_dict()
        assert document["schema"] == PROFILE_SCHEMA
        parsed = json.loads(json.dumps(document))
        assert set(parsed["per_worker"]) == {"0", "1"}

class TestMergedTrace:
    def test_one_pid_per_worker_monotonic_tracks(self, profiled_result):
        report = PhaseReport.from_result(profiled_result)
        pids = set()
        for profile in report.profiles:
            events = profile.trace_events()
            pids.update(e["pid"] for e in events)
            last_end = {}
            for event in events:
                if event["ph"] != "X":
                    continue
                key = (event["pid"], event["tid"])
                # Spans on one track must not regress.
                assert event["ts"] >= last_end.get(key, float("-inf")) - 1e-6
                last_end[key] = event["ts"]
        assert pids == {WORKER_PID_BASE, WORKER_PID_BASE + 1}

    def test_trace_rounds_caps_span_count(self, profiled_result):
        profile = PhaseReport.from_result(profiled_result).profiles[0]
        spans = [
            e for e in profile.trace_events(max_rounds=3)
            if e["ph"] == "X" and e["tid"] == 1
        ]
        assert len(spans) == 3


class TestAbsorbDistributed:
    def test_profiled_run_populates_session(self, profiled_result, tmp_path):
        session = TelemetrySession(trace=True)
        session.absorb_distributed(profiled_result)

        assert session.phase_report is not None
        critical = session.phase_report.critical_path()
        assert critical["worker"] in (0, 1)

        gauges = session.registry.snapshot()
        assert gauges["dist.num_workers"] == 2.0
        assert gauges["dist.channels"] == 2.0
        assert gauges["dist.worker0.rate_mhz"] > 0.0
        assert gauges["dist.worker1.rate_mhz"] > 0.0
        assert gauges["dist.profile.overhead_ratio"] >= 0.0
        assert not [name for name in gauges if name.startswith("dist.shm.")]

        paths = session.dump(str(tmp_path))
        assert "phase_report.json" in paths
        report = json.loads((tmp_path / "phase_report.json").read_text())
        assert report["schema"] == PROFILE_SCHEMA

        trace = json.loads((tmp_path / "trace.json").read_text())
        trace_pids = {e["pid"] for e in trace["traceEvents"]}
        assert {WORKER_PID_BASE, WORKER_PID_BASE + 1} <= trace_pids

    def test_unprofiled_run_leaves_report_unset(self):
        result = run_profiled(None, cycles=100_000)
        session = TelemetrySession(trace=False)
        session.absorb_distributed(result)
        assert session.phase_report is None
        gauges = session.registry.snapshot()
        assert gauges["dist.num_workers"] == 2.0


class TestWorkerProfileFromRecorder:
    def test_histogram_percentiles_match_numpy(self):
        """Plain-list percentiles equal numpy's default linear method."""
        rng = random.Random(3)
        for size in (1, 2, 7, 64):
            samples = [
                [rng.random() * 1e-3 for _ in PHASES] for _ in range(size)
            ]
            profile = WorkerProfile(
                worker_id=0, phases=PHASES,
                totals=dict.fromkeys(PHASES, 0.0), rounds=size,
                ring_capacity=size, wrapped=False, samples=samples,
                round_starts=[float(i) for i in range(size)],
                clock=ClockSync(epoch_s=0.0, entry_s=0.0),
            )
            histogram = profile.histogram(percentiles=(0, 50, 90, 99, 100))
            for index, phase in enumerate(PHASES):
                column = np.array([row[index] for row in samples])
                assert histogram[phase] == {
                    "mean_s": pytest.approx(float(column.mean())),
                    "max_s": float(column.max()),
                    **{
                        f"p{pct:g}_s": float(np.percentile(column, pct))
                        for pct in (0, 50, 90, 99, 100)
                    },
                }
