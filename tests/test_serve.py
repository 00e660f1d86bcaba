"""repro.serve: the job server's multi-tenancy contract.

The headline properties:

* jobs sharing the farm are **bit-identical** to the same specs run
  standalone through the serial oracle (:func:`run_job_inline`) —
  multi-tenancy must not perturb target time;
* a preempted job resumes **cycle-identically** from its portable
  checkpoint (the digest proves it);
* the scheduler **never oversubscribes** FPGA slots and **never
  starves** a queued job (hypothesis property over randomized job
  mixes);
* a reused runner process runs each job exactly as a fresh one would,
  and a failed job's runner is never reused;
* cancel/shutdown reap every runner and leak no /dev/shm segments;
* the CLI verbs round-trip through the unix-socket endpoint.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.shm import leaked_segments
from repro.faults.checkpoint import CheckpointError
from repro.manager.manager import FireSimManager, ManagerError
from repro.serve import (
    FarmError,
    InProcessClient,
    JobError,
    JobRecord,
    JobServer,
    JobSpec,
    JobState,
    Scheduler,
    ServeError,
    ServeFarm,
    SocketEndpoint,
    run_job_inline,
)
from repro.manager import cli
from repro.manager.runspec import RunSpec


PING = {
    "name": "ping-job",
    "topology": "single_rack",
    "servers_per_rack": 2,
    "workload": "ping",
    "duration_ms": 0.5,
    "ping_count": 4,
}

#: Long enough (~0.5 s host) that a preempt order lands mid-run.
SLOW = {**PING, "name": "slow", "duration_ms": 40.0, "ping_count": 20}


@pytest.fixture
def server():
    instance = JobServer(farm=ServeFarm({"f1.2xlarge": 2})).start()
    yield instance
    try:
        InProcessClient(instance).shutdown()
    except ServeError:
        pass
    instance.stop()


# -- job specs -----------------------------------------------------------


def test_jobspec_roundtrips_through_json():
    spec = JobSpec.from_dict({**PING, "priority": 3, "supernode": True})
    assert JobSpec.from_dict(spec.to_dict()) == spec
    # A job is a run recipe plus scheduling fields: dropping those
    # leaves a RunSpec that round-trips the same way.
    recipe = {
        key: value for key, value in spec.to_dict().items()
        if key not in ("name", "priority", "preemptible")
    }
    assert RunSpec.from_dict(recipe).to_dict() == recipe


@pytest.mark.parametrize("topology", ["single_rack", "two_tier", "datacenter"])
def test_num_servers_counts_the_built_topology(topology):
    spec = JobSpec.from_dict(
        {**PING, "topology": topology, "racks": 3, "servers_per_rack": 2}
    )
    built = sum(1 for _ in spec.build_topology().iter_servers())
    assert spec.num_servers() == built


def test_engine_default_is_one_rule_for_jobs_and_cli():
    assert JobSpec.from_dict(PING).engine == "scalar"
    assert JobSpec.from_dict({**PING, "workers": 2}).engine == "batched"
    code, out, _ = run_cli([
        "buildafi", "launchrunfarm", "infrasetup",
        "--servers-per-rack", "2", "--workers", "2", "--json",
    ])
    assert code == 0
    assert json.loads(out)["verbs"]["infrasetup"]["engine"] == "batched"


def test_jobspec_rejects_unknown_fields_and_bad_values():
    with pytest.raises(JobError, match="unknown JobSpec fields"):
        JobSpec.from_dict({**PING, "bogus": 1})
    with pytest.raises(JobError, match="duration"):
        JobSpec.from_dict({**PING, "duration_ms": 0})
    with pytest.raises(JobError, match="name"):
        JobSpec.from_dict({"topology": "single_rack"})


def test_fpga_slots_account_for_supernode_packing():
    flat = JobSpec.from_dict({**PING, "servers_per_rack": 8})
    packed = JobSpec.from_dict(
        {**PING, "servers_per_rack": 8, "supernode": True}
    )
    assert flat.fpga_slots() == 8
    assert packed.fpga_slots() == 2  # four blades per FPGA


# -- the farm ledger -----------------------------------------------------


def test_farm_never_oversubscribes():
    farm = ServeFarm({"f1.2xlarge": 2})
    assert farm.capacity == 2
    farm.allocate(1, 2)
    with pytest.raises(FarmError, match="oversubscribe"):
        farm.allocate(2, 1)
    assert farm.release(1) == 2
    farm.allocate(2, 1)
    assert farm.free == 1


def test_farm_prices_preemptible_jobs_at_spot():
    farm = ServeFarm({"f1.16xlarge": 2})
    spot = farm.job_cost(8, hours=1.0, preemptible=True)
    fixed = farm.job_cost(8, hours=1.0, preemptible=False)
    assert spot["pricing"] == "spot"
    assert fixed["pricing"] == "on-demand"
    assert spot["hourly_rate"] < fixed["hourly_rate"]
    assert spot["savings_vs_on_demand"] > 0.0
    assert fixed["savings_vs_on_demand"] == 0.0


# -- the segmented-run seam ----------------------------------------------


def _setup_manager(spec: JobSpec) -> FireSimManager:
    manager = spec.build_manager()
    manager.buildafi()
    manager.launchrunfarm()
    manager.infrasetup()
    return manager


def test_segmented_preempt_resume_is_cycle_exact():
    spec = JobSpec.from_dict(PING)
    oracle = run_job_inline(spec)

    manager = _setup_manager(spec)
    boundaries = []

    def control(cycle, total):
        boundaries.append(cycle)
        return "preempt" if len(boundaries) == 3 else "continue"

    outcome = manager.runworkload_segmented(
        spec.build_workload(manager),
        segment_cycles=spec.segment_cycles(),
        control=control,
    )
    assert outcome.status == "preempted"
    assert 0 < outcome.cycle < spec.segment_cycles() * 8

    resumed = _setup_manager(spec)
    final = resumed.runworkload_segmented(
        spec.build_workload(resumed),
        segment_cycles=spec.segment_cycles(),
        resume_cycle=outcome.cycle,
        resume_digest=outcome.digest,
    )
    assert final.status == "done"
    assert final.digest == oracle["final_digest"]


def test_segmented_resume_rejects_wrong_digest():
    spec = JobSpec.from_dict(PING)
    manager = _setup_manager(spec)
    quantum = manager.run_config.link_latency_cycles
    with pytest.raises(CheckpointError, match="diverged"):
        manager.runworkload_segmented(
            spec.build_workload(manager),
            resume_cycle=quantum * 10,
            resume_digest="0" * 64,
        )


def test_segmented_rejects_unknown_verdict_and_distributed_engine():
    spec = JobSpec.from_dict(PING)
    manager = _setup_manager(spec)
    with pytest.raises(ManagerError, match="unknown control verdict"):
        manager.runworkload_segmented(
            spec.build_workload(manager), control=lambda c, t: "pause"
        )
    dist = JobSpec.from_dict({**PING, "workers": 2})
    dist_manager = _setup_manager(dist)
    with pytest.raises(ManagerError, match="serial engine"):
        dist_manager.runworkload_segmented(dist.build_workload(dist_manager))


# -- multi-tenant bit-equality -------------------------------------------


def test_concurrent_jobs_bit_identical_to_serial_oracle():
    """Two jobs on a 2-slot farm, each bit-equal to a standalone run."""
    spec_a = {**PING, "name": "tenant-a"}
    spec_b = {**PING, "name": "tenant-b", "ping_count": 6}
    oracle_a = run_job_inline(JobSpec.from_dict(spec_a))
    oracle_b = run_job_inline(JobSpec.from_dict(spec_b))

    # Four slots: both two-slot jobs hold FPGAs at the same time.
    server = JobServer(farm=ServeFarm({"f1.2xlarge": 4})).start()
    client = InProcessClient(server)
    try:
        id_a = client.submit(spec_a)
        id_b = client.submit(spec_b)
        rec_a = client.wait(id_a, timeout_s=120)
        rec_b = client.wait(id_b, timeout_s=120)
        assert rec_a["state"] == "done" and rec_b["state"] == "done"
        assert rec_a["result"]["node_results"] == oracle_a["node_results"]
        assert rec_b["result"]["node_results"] == oracle_b["node_results"]
        assert rec_a["result"]["final_digest"] == oracle_a["final_digest"]
        assert rec_b["result"]["final_digest"] == oracle_b["final_digest"]
        leak_report = client.shutdown()
        assert leak_report["leaked_segments"] == []
    finally:
        server.stop()


def test_preempted_job_resumes_cycle_identically(server):
    """A higher-priority arrival evicts the runner; the victim's final
    state is bit-equal to a run that was never disturbed."""
    oracle_slow = run_job_inline(JobSpec.from_dict(SLOW))
    high = {**PING, "name": "urgent", "duration_ms": 2.0, "priority": 10}
    oracle_high = run_job_inline(JobSpec.from_dict(high))

    client = InProcessClient(server)
    slow_id = client.submit(SLOW)
    deadline = time.monotonic() + 30.0
    while not any(
        e["event"] == "started" for e in server.events
    ):
        assert time.monotonic() < deadline
        time.sleep(0.02)
    time.sleep(0.2)  # let the victim make mid-run progress
    high_id = client.submit(high)

    rec_high = client.wait(high_id, timeout_s=120)
    rec_slow = client.wait(slow_id, timeout_s=120)
    assert rec_high["state"] == "done"
    assert rec_slow["state"] == "done"
    assert rec_slow["preemptions"] >= 1
    assert rec_high["result"]["node_results"] == oracle_high["node_results"]
    assert rec_slow["result"]["node_results"] == oracle_slow["node_results"]
    assert rec_slow["result"]["final_digest"] == oracle_slow["final_digest"]
    events = [e["event"] for e in server.events]
    assert "preempted" in events and events.count("started") >= 3


def test_non_preemptible_job_is_never_evicted(server):
    client = InProcessClient(server)
    fixed = {**SLOW, "name": "fixed", "preemptible": False,
             "duration_ms": 10.0}
    high = {**PING, "name": "urgent", "priority": 10}
    fixed_id = client.submit(fixed)
    client.submit(high)
    rec_fixed = client.wait(fixed_id, timeout_s=120)
    assert rec_fixed["state"] == "done"
    assert rec_fixed["preemptions"] == 0


# -- runner reuse --------------------------------------------------------


def _runner_pids(server):
    """Runner pid of every ``started`` event, in order."""
    return [e["runner"] for e in server.events if e["event"] == "started"]


def _wait_running(server, job_id):
    deadline = time.monotonic() + 30.0
    while server.records[job_id].state != JobState.RUNNING:
        assert time.monotonic() < deadline
        time.sleep(0.01)


def test_reused_runner_runs_each_job_as_a_fresh_one(server):
    """One runner: a different spec, a preempted job, a cancelled job,
    then X — and X is bit-equal to a standalone run."""
    spec_x = {**PING, "name": "x", "ping_count": 6}
    oracle_x = run_job_inline(JobSpec.from_dict(spec_x))
    client = InProcessClient(server)

    first = client.wait(client.submit({**PING, "name": "first"}))
    assert first["state"] == "done"

    slow_id = client.submit(SLOW)
    _wait_running(server, slow_id)
    time.sleep(0.2)  # let the victim make mid-run progress
    urgent = {**PING, "name": "urgent", "duration_ms": 2.0, "priority": 10}
    assert client.wait(client.submit(urgent))["state"] == "done"
    slow = client.wait(slow_id)
    assert slow["state"] == "done" and slow["preemptions"] >= 1

    doomed_id = client.submit({**SLOW, "name": "doomed",
                               "duration_ms": 500.0})
    _wait_running(server, doomed_id)
    client.cancel(doomed_id)
    assert client.wait(doomed_id)["state"] == "cancelled"

    record_x = client.wait(client.submit(spec_x))
    assert record_x["state"] == "done"
    assert record_x["result"]["node_results"] == oracle_x["node_results"]
    assert record_x["result"]["final_digest"] == oracle_x["final_digest"]
    pids = _runner_pids(server)
    assert len(pids) >= 6 and len(set(pids)) == 1


def test_stale_cancel_never_stops_the_next_job(server):
    """Orders carry the job id: one addressed to the runner's previous
    job is dropped, so a cancel that raced a ``done`` is harmless."""
    client = InProcessClient(server)
    old_id = client.submit(PING)
    assert client.wait(old_id)["state"] == "done"
    new_id = client.submit({**SLOW, "name": "next"})
    _wait_running(server, new_id)
    runner = server._running[new_id]
    for command in ("cancel", "preempt"):
        server.loop.call_soon_threadsafe(
            runner.pipe.send, (command, old_id)
        )
    record = client.wait(new_id)
    assert record["state"] == "done" and record["preemptions"] == 0
    oracle = run_job_inline(JobSpec.from_dict({**SLOW, "name": "next"}))
    assert record["result"]["final_digest"] == oracle["final_digest"]
    assert len(set(_runner_pids(server))) == 1


def test_failed_job_retires_its_runner(server):
    client = InProcessClient(server)
    doomed = {
        **PING, "name": "no-instances", "max_retries": 2,
        "fault_plan": {"seed": 0, "faults": [
            {"kind": "instance-launch", "point": "launchrunfarm",
             "times": 9},
        ]},
    }
    failed = client.wait(client.submit(doomed))
    assert failed["state"] == "failed" and "retries" in failed["error"]
    assert client.wait(client.submit(PING))["state"] == "done"
    failed_pid, next_pid = _runner_pids(server)
    assert next_pid != failed_pid
    assert failed_pid not in {p.pid for p in multiprocessing.active_children()}
    assert client.shutdown()["leaked_segments"] == []
    assert multiprocessing.active_children() == []


def test_distributed_job_on_a_reused_runner(server):
    """A ``workers=2`` job forks its shm workers from a warm runner:
    still bit-equal to a standalone run, and still leak-free."""
    spec = {**PING, "name": "dist", "workers": 2, "fpgas_per_instance": 1}
    oracle = run_job_inline(JobSpec.from_dict(spec))
    client = InProcessClient(server)
    assert client.wait(client.submit(PING))["state"] == "done"
    record = client.wait(client.submit(spec))
    assert record["state"] == "done", record["error"]
    assert record["result"]["node_results"] == oracle["node_results"]
    assert record["result"]["distributed"]["num_workers"] == 2
    assert len(set(_runner_pids(server))) == 1
    assert client.shutdown()["leaked_segments"] == []
    assert leaked_segments() == []
    assert multiprocessing.active_children() == []


def test_unstopped_server_lets_the_interpreter_exit():
    """An idle runner of a server nobody stopped sees EOF at exit, so
    multiprocessing's final join of live children returns."""
    script = textwrap.dedent(f"""
        from repro.serve import InProcessClient, JobServer, ServeFarm
        server = JobServer(farm=ServeFarm({{"f1.2xlarge": 2}})).start()
        client = InProcessClient(server)
        assert client.wait(client.submit({PING!r}))["state"] == "done"
    """)
    repo = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


# -- scheduler properties ------------------------------------------------


def _job_strategy(capacity: int):
    return st.builds(
        dict,
        slots=st.integers(min_value=1, max_value=capacity),
        priority=st.integers(min_value=-3, max_value=3),
        preemptible=st.booleans(),
        work=st.integers(min_value=1, max_value=4),
    )


@settings(max_examples=60)
@given(data=st.data())
def test_scheduler_never_oversubscribes_nor_starves(data):
    """Randomized job mixes: slots stay within capacity; all jobs finish.

    Models the server loop with instant preemption confirmation and one
    unit of work per running job per round — preserved across
    preemption, exactly like a replay checkpoint preserves cycles.
    """
    capacity = data.draw(st.integers(min_value=1, max_value=6))
    job_dicts = data.draw(
        st.lists(_job_strategy(capacity), min_size=1, max_size=10)
    )
    farm = ServeFarm({"f1.2xlarge": capacity})
    scheduler = Scheduler()
    records = {}
    remaining = {}
    for index, job in enumerate(job_dicts, start=1):
        spec = JobSpec.from_dict({
            "name": f"j{index}",
            "workload": "boot",  # a one-blade job cannot ping anyone
            "servers_per_rack": job["slots"],
            "priority": job["priority"],
            "preemptible": job["preemptible"],
        })
        records[index] = JobRecord(
            job_id=index, spec=spec, submit_seq=index
        )
        remaining[index] = job["work"]

    total_work = sum(remaining.values())
    max_rounds = 20 * total_work + 50 * len(records) + 20
    rounds = 0
    while any(r.state != JobState.DONE for r in records.values()):
        rounds += 1
        assert rounds <= max_rounds, (
            f"starvation: {[r.to_dict() for r in records.values() if r.state != JobState.DONE]}"
        )
        scheduler.age(records)
        for action in scheduler.plan(records, farm):
            record = records[action.job_id]
            if action.kind == "preempt":
                assert record.spec.preemptible, \
                    "scheduler evicted a non-preemptible job"
                farm.release(record.job_id)
                record.state = JobState.QUEUED
                record.preemptions += 1
            elif record.state == JobState.QUEUED:
                # allocate() raises FarmError on oversubscription — the
                # invariant under test.
                farm.allocate(record.job_id, record.spec.fpga_slots())
                record.state = JobState.RUNNING
        assert farm.used <= farm.capacity
        for record in records.values():
            if record.state == JobState.RUNNING:
                remaining[record.job_id] -= 1
                if remaining[record.job_id] <= 0:
                    farm.release(record.job_id)
                    record.state = JobState.DONE


def test_submit_rejects_jobs_larger_than_the_farm(server):
    client = InProcessClient(server)
    with pytest.raises(ServeError, match="never be scheduled"):
        client.submit({**PING, "servers_per_rack": 16})


# -- cancel and shutdown -------------------------------------------------


def test_cancel_queued_and_running_jobs(server):
    client = InProcessClient(server)
    running_id = client.submit(SLOW)
    queued_id = client.submit({**SLOW, "name": "waiter"})
    # The second job can't fit (2-slot farm, 2-slot jobs): cancel it
    # straight out of the queue, then cancel the runner mid-flight.
    outcome = client.cancel(queued_id)
    assert outcome["state"] == "cancelled"
    deadline = time.monotonic() + 30.0
    while server.records[running_id].state != JobState.RUNNING:
        assert time.monotonic() < deadline
        time.sleep(0.02)
    client.cancel(running_id)
    record = client.wait(running_id, timeout_s=60)
    assert record["state"] == "cancelled"
    assert server.farm.used == 0
    with pytest.raises(ServeError, match="nothing to cancel"):
        client.cancel(running_id)


def test_shutdown_checkpoints_running_jobs_and_audits_shm(server):
    client = InProcessClient(server)
    job_id = client.submit(SLOW)
    deadline = time.monotonic() + 30.0
    while server.records[job_id].state != JobState.RUNNING:
        assert time.monotonic() < deadline
        time.sleep(0.02)
    time.sleep(0.2)
    report = client.shutdown(drain=False)
    assert report["leaked_segments"] == []
    record = server.records[job_id]
    # Parked, not lost: the checkpoint survives in the job table.
    assert record.state == JobState.QUEUED
    assert record.checkpoint is not None
    assert record.checkpoint["cycle"] > 0
    events = [e["event"] for e in server.events]
    assert events[-1] == "shutdown"
    with pytest.raises(ServeError, match="shutting down"):
        client.submit(PING)


def test_shutdown_drain_lets_jobs_finish(server):
    client = InProcessClient(server)
    job_id = client.submit(PING)
    report = client.shutdown(drain=True)
    assert report["leaked_segments"] == []
    assert server.records[job_id].state == JobState.DONE


def test_event_log_is_well_formed_jsonl(tmp_path):
    log_path = str(tmp_path / "events.jsonl")
    server = JobServer(
        farm=ServeFarm({"f1.2xlarge": 2}), event_log=log_path
    ).start()
    client = InProcessClient(server)
    try:
        job_id = client.submit(PING)
        client.wait(job_id, timeout_s=120)
        client.shutdown()
    finally:
        server.stop()
    with open(log_path) as handle:
        events = [json.loads(line) for line in handle]
    assert [e["event"] for e in events] == [
        "serving", "submitted", "started", "completed", "shutdown",
    ]
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert all("ts" in e for e in events)


# -- CLI round-trips -----------------------------------------------------


@pytest.fixture
def endpoint(server, tmp_path):
    path = str(tmp_path / "serve.sock")
    ep = SocketEndpoint(server, path).start()
    yield path
    ep.close()


def run_cli(argv):
    import io

    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_cli_submit_wait_jobs_cancel_roundtrip(endpoint):
    code, out, _ = run_cli([
        "submit", "--serve-socket", endpoint, "--workload", "ping",
        "--servers-per-rack", "2", "--duration-ms", "0.5",
        "--job-name", "cli-job", "--wait",
    ])
    assert code == 0
    assert "submitted job 1" in out and "job 1 done" in out

    code, out, _ = run_cli(["jobs", "--serve-socket", endpoint])
    assert code == 0
    assert "'cli-job' done" in out
    assert "pricing=spot" in out

    code, out, _ = run_cli([
        "submit", "--serve-socket", endpoint, "--duration-ms", "40",
        "--servers-per-rack", "2", "--no-preempt",
    ])
    assert code == 0
    code, out, _ = run_cli([
        "cancel", "--serve-socket", endpoint, "--job-id", "2",
    ])
    assert code == 0


def test_cli_submit_carries_the_fault_plan(endpoint, tmp_path):
    """`submit` takes runworkload's flags — `--fault-plan` included."""
    flags = [
        "--serve-socket", endpoint, "--servers-per-rack", "2",
        "--duration-ms", "0.5", "--ping-count", "4",
    ]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "seed": 7,
        "faults": [{"kind": "controller-crash", "point": "runworkload",
                    "at_cycle": 500_000}],
    }))
    code, out, _ = run_cli(
        ["submit"] + flags + ["--fault-plan", str(plan_path),
                              "--wait", "--json"]
    )
    assert code == 0
    result = json.loads(out)["verbs"]["submit"]["job"]["result"]
    assert result["resilience"]["restores"] >= 1
    oracle = run_job_inline(JobSpec.from_dict(PING))
    assert result["node_results"] == oracle["node_results"]

    # Watchdog timeouts belong to the process that runs the simulation;
    # a served job cannot carry them, so say so instead of ignoring them.
    for flag, value in (("--transport-timeout", "5"), ("--hang-timeout", "2")):
        code, out, err = run_cli(["submit"] + flags + [flag, value])
        assert code == 1
        assert err.startswith("firesim: error:") and flag in err
        assert err.count("\n") == 1 and out == ""


def test_cli_server_errors_are_one_line_nonzero(endpoint):
    code, out, err = run_cli([
        "cancel", "--serve-socket", endpoint, "--job-id", "99",
    ])
    assert code == 1
    assert err.startswith("firesim: error:") and "unknown job id 99" in err
    assert out == ""

    code, _, err = run_cli(["cancel", "--serve-socket", endpoint])
    assert code == 1
    assert "requires --job-id" in err


def test_cli_rejects_mixed_and_unreachable(tmp_path):
    code, _, err = run_cli(["submit", "runworkload"])
    assert code == 1
    assert "cannot be mixed" in err

    missing = str(tmp_path / "nowhere.sock")
    code, _, err = run_cli(["jobs", "--serve-socket", missing])
    assert code == 1
    assert "cannot reach job server" in err


def test_socket_endpoint_refuses_existing_path(server, tmp_path):
    path = str(tmp_path / "dup.sock")
    ep = SocketEndpoint(server, path).start()
    try:
        with pytest.raises(ServeError, match="already exists"):
            SocketEndpoint(server, path).start()
    finally:
        ep.close()
    assert not os.path.exists(path)
