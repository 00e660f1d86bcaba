"""Self-tests of the benchmark harness (``python -m pytest bench -q``).

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/``
only).  Workload runs here use ``--quick`` sizes except the corrupted
golden test, which needs the full-size seed-1 fingerprint.
"""

from __future__ import annotations

import json
import re
import sys
import uuid

import pytest

from bench import measure, procs, run, trace
from bench.compare import verdict
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

END_TO_END = {"wall_s", "sim_rate_mhz", "crit_path_mhz", "setup_s",
              "peak_rss_mb"}
PER_LAYER = {
    "core.rounds", "core.tokens_moved", "core.link_s", "core.link_windows",
    "core.events_s", "core.events_scheduled",
    "perf.engine_self_s", "perf.switch_s", "perf.switch_packets",
    "perf.switch_ns_per_packet",
    "nic.tx_s", "nic.rx_s", "nic.flits", "nic.ns_per_flit",
    "tile.mem_s", "tile.mem_accesses", "swmodel.blade_self_s",
    "dist.compute_s", "dist.serialize_s", "dist.send_s", "dist.recv_wait_s",
    "dist.idle_s", "dist.transport_share", "dist.exchange_rounds",
    "dist.worker_cpu_s_max", "dist.fork_latency_s", "dist.spawn_join_s",
    "dist.frame_encode_us", "dist.frame_decode_us", "dist.frame_bytes",
    "manager.import_s", "manager.parse_s", "manager.buildafi_s",
    "manager.launchrunfarm_s", "manager.infrasetup_s",
    "manager.runworkload_s", "manager.terminate_s", "manager.emit_s",
    "serve.submit_ms", "serve.queue_ms", "serve.run_ms", "serve.settle_ms",
    "serve.jobs_failed", "trace.overhead_ratio", "trace.unattributed_s",
}
WORKLOAD_NAMES = {"ping_farm", "stream_saturate", "boot_rack", "dist_farm",
                  "cli_runworkload", "serve_jobs"}


# -- tracer arithmetic ---------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(trace, "perf_counter", clock)
    tracer = trace.Tracer()
    with tracer.span("root"):            # 0 .. 10
        clock.now = 1.0
        with tracer.span("child"):       # 1 .. 4
            clock.now = 2.0
            with tracer.span("leaf"):    # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with tracer.span("child"):       # 6 .. 9
            clock.now = 9.0
        clock.now = 10.0
    assert tracer.agg["root"] == [1, 10.0, 4.0]
    assert tracer.agg["child"] == [2, 6.0, 5.0]
    assert tracer.agg["leaf"] == [1, 1.0, 1.0]
    # Self times of all names sum to the root span's duration.
    assert sum(record[2] for record in tracer.agg.values()) == 10.0
    by_name = {span[0]: span for span in tracer.spans}
    assert by_name["root"][3] == -1
    assert tracer.spans[by_name["leaf"][3]][0] == "child"


def test_wrap_restores_and_handles_classmethods():
    class Target:
        @classmethod
        def make(cls, value):
            return cls, value

        def double(self, value):
            return 2 * value

    original = Target.__dict__["make"]
    tracer = trace.Tracer()
    tracer.wrap(Target, "make", "t.make")
    tracer.count(Target, "double", "t.double")
    assert Target.make(3) == (Target, 3)
    assert Target().double(4) == 8
    assert tracer.agg["t.make"][0] == 1
    assert tracer.counts["t.double"] == 1
    tracer.uninstall()
    assert Target.__dict__["make"] is original
    assert Target.make(5) == (Target, 5) and tracer.agg["t.make"][0] == 1


def test_unattributed_plus_self_times_is_the_run_wall():
    workload = WORKLOADS["ping_farm"]
    inputs = workload.inputs(3, True)
    leaks = []
    sample, view = measure._one_repeat(workload, inputs, True, leaks)
    assert not leaks
    row = measure.layer_metrics(sample, view)
    self_total = sum(r["self_s"] for r in view["tracer"]["names"].values())
    assert row["trace.unattributed_s"] + self_total == pytest.approx(
        sample.wall_s, abs=1e-9)
    assert 0.0 <= row["trace.unattributed_s"] < 0.1 * sample.wall_s
    assert row["perf.switch_s"] > 0 and row["core.events_scheduled"] > 0
    # Tracing must not change the simulated output.
    assert not measure.mismatched_fields(
        sample.fingerprint, workload.oracle(inputs))


# -- process hygiene -----------------------------------------------------------


LEAKER = (
    "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
    "'import os, time; os.setpgrp(); time.sleep(120)'])"
)


def test_sweep_finds_and_kills_a_setpgrp_sleeper():
    bench_id = "test" + uuid.uuid4().hex
    outcome = procs.run_isolated([sys.executable, "-c", LEAKER], 30.0,
                                 bench_id)
    assert outcome.returncode == 0
    assert len(outcome.killed) == 1 and "sleep(120)" in outcome.killed[0][1]
    assert not outcome.clean
    assert procs.find_pids(bench_id) == {}


def test_clean_child_is_clean():
    bench_id = "test" + uuid.uuid4().hex
    outcome = procs.run_isolated([sys.executable, "-c", "pass"], 30.0,
                                 bench_id)
    assert outcome.clean and procs.find_pids(bench_id) == {}


# -- verification ----------------------------------------------------------------


def test_corrupted_golden_fails_every_operation(tmp_path, capsys):
    golden = measure.load_golden()
    golden["ping_farm"]["fingerprint"]["state_digest"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    code = run.main(["--workload", "ping_farm", "--seed", "1", "--seconds",
                     "0.1", "--trace", "0", "--golden", str(path)])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0  # fail_share = 1
    assert "MISMATCH ping_farm: state_digest" in captured.err


# -- names and shapes ------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    spec = measure.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == WORKLOAD_NAMES
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert PER_LAYER <= {m["name"] for m in spec["per_layer"]}
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert set(measure.DETERMINISTIC_COUNTS) <= PER_LAYER


@pytest.mark.parametrize("trace_flag", [0, 1])
def test_driver_form_prints_every_metric_by_name(trace_flag, capsys):
    spec = measure.load_spec()
    code = run.main(["--workload", "boot_rack", "--seed", "5", "--quick",
                     "--seconds", "0.2", "--trace", str(trace_flag)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec["per_layer"] if trace_flag else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace_flag:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


# -- compare -----------------------------------------------------------------------


def _stats(median, iqr=0.0):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2,
            "n": 7}


def test_compare_verdicts():
    assert verdict(_stats(1.0), _stats(1.05), "lower", 0.10)[0] == "ok"
    assert verdict(_stats(1.0), _stats(1.20), "lower", 0.10)[0] == "regressed"
    assert verdict(_stats(1.0), _stats(0.80), "lower", 0.10)[0] == "ok"
    assert verdict(_stats(5.0), _stats(4.0), "higher", 0.10)[0] == "regressed"
    assert verdict(_stats(5.0), _stats(6.0), "higher", 0.10)[0] == "ok"
    assert verdict(_stats(1.0, iqr=0.3), _stats(1.02), "lower",
                   0.10)[0] == "unresolved"
