#!/usr/bin/env python
"""Chaos smoke test: faulted sessions must recover cycle-exactly.

Usage: PYTHONPATH=src python scripts/check_resilience.py

Drives the manager CLI twice over the same 4-node ping session — once
clean, once under a canned fault plan (failed build, failed instance
launch, lost heartbeat, controller crash mid-run) with checkpointing
enabled — and checks that:

* both sessions exit zero;
* the faulted run's ping RTTs and target time match the clean run
  exactly (recovery is cycle-exact, not approximate);
* the resilience summary reports the injected faults, at least one
  retry, and exactly one checkpoint restore;
* the fault log is byte-identical across two faulted runs (the plan's
  seeded RNG makes chaos reproducible);
* the faulted run still exports telemetry artifacts — an exit status
  of 0 with an empty --telemetry-out directory is a silent failure,
  not a pass;
* a session whose retry budget is exhausted exits non-zero with a
  one-line error;
* the job server's graceful shutdown checkpoints a running preemptible
  job (so it can resume cycle-exactly in a later serving session) and
  its teardown audit reports no leaked ``/dev/shm`` segments — the
  deep serve smoke lives in ``scripts/check_serve.py``;
* a distributed session reproduces the serial session's ping results
  exactly — and so does a chaos run that crashes a worker mid-flight —
  and ``/dev/shm`` holds no heartbeat block afterwards and never a
  ``repro-ring-`` segment (workers talk over pipes; the listing is
  snapshotted before and after, so a leak in any teardown path fails
  the build);
* supervised chaos: a livelocked worker (``worker-hang``) is detected
  by the heartbeat supervisor, killed, and recovered bit-identically;
  an injected ring frame bit-flip (``ring-corrupt``) is caught by the
  frame CRCs and recovered bit-identically — both surface in the
  ``status`` resilience counters and leak no processes or segments.

Exits non-zero with a message on the first violation; prints a one-line
summary on success.  Intended for CI smoke tests — stdlib + repro only.
"""

import io
import json
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.dist.shm import HEARTBEAT_PREFIX, leaked_segments  # noqa: E402
from repro.manager.cli import main  # noqa: E402

#: The retired shared-memory rings' ``/dev/shm`` prefix: no run may
#: create one.
RING_PREFIX = "repro-ring-"

PLAN = {
    "seed": 7,
    "faults": [
        {"kind": "agfi-build", "point": "buildafi"},
        {"kind": "instance-launch", "point": "launchrunfarm"},
        {"kind": "heartbeat-loss", "point": "infrasetup"},
        {"kind": "controller-crash", "point": "runworkload",
         "at_cycle": 2_000_000},
    ],
}

SESSION = [
    "buildafi", "launchrunfarm", "infrasetup", "runworkload", "status",
    "--topology", "single_rack", "--servers-per-rack", "4",
    "--duration-ms", "2", "--ping-count", "4", "--json",
]


def fail(message):
    print(f"check_resilience: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_session(extra=()):
    code, out, err = run_cli(SESSION + list(extra))
    if code != 0:
        fail(f"session exited {code}: {err.strip()}")
    return json.loads(out)["verbs"]


def shm_listing():
    """Current ``/dev/shm`` entries (empty set where unsupported)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def main_check():
    with tempfile.TemporaryDirectory() as tmp:
        plan_path = os.path.join(tmp, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(PLAN, fh)
        chaos = ["--fault-plan", plan_path, "--checkpoint-interval", "0.5"]
        telemetry_dir = os.path.join(tmp, "telemetry")

        clean = run_session()
        faulted = run_session(chaos + ["--telemetry-out", telemetry_dir])
        faulted_again = run_session(chaos)

        # A zero exit with no artifacts on disk is a silent failure:
        # the faulted session must still export real telemetry.
        if not os.path.isdir(telemetry_dir):
            fail(f"telemetry directory was not created: {telemetry_dir}")
        written = sorted(os.listdir(telemetry_dir))
        if not written:
            fail(f"telemetry directory is empty: {telemetry_dir}")
        for artifact in ("metrics.csv", "metrics.json", "trace.json"):
            path = os.path.join(telemetry_dir, artifact)
            if artifact not in written:
                fail(f"faulted run wrote no {artifact} (got {written})")
            if os.path.getsize(path) == 0:
                fail(f"faulted run wrote an empty {artifact}")

        # Cycle-exact recovery: identical results despite 4 faults.
        if faulted["runworkload"]["ping"] != clean["runworkload"]["ping"]:
            fail(
                f"faulted ping {faulted['runworkload']['ping']} != "
                f"clean {clean['runworkload']['ping']}"
            )
        if faulted["runworkload"]["target_ms"] != (
            clean["runworkload"]["target_ms"]
        ):
            fail("faulted run stopped at a different target time")

        resilience = faulted["status"]["resilience"]
        if resilience["faults_injected"] != len(PLAN["faults"]):
            fail(f"expected {len(PLAN['faults'])} faults injected, "
                 f"got {resilience['faults_injected']}")
        if resilience["retries"] < 1:
            fail("no retries recorded")
        if resilience["restores"] != 1:
            fail(f"expected 1 checkpoint restore, "
                 f"got {resilience['restores']}")
        if resilience["giveups"] != 0:
            fail(f"unexpected giveups: {resilience['giveups']}")

        # Determinism: the seeded plan yields a byte-identical fault log.
        if resilience["fault_log"] != (
            faulted_again["status"]["resilience"]["fault_log"]
        ):
            fail("fault log differs between identical chaos runs")

        # Distributed smoke: the process boundary must change nothing
        # observable.
        shm_before = shm_listing()
        dist = run_session(["--workers", "2", "--fpgas-per-instance", "1"])
        if dist["runworkload"]["distributed"]["channels"] < 1:
            fail("distributed run reports no channels")
        if dist["runworkload"]["ping"] != clean["runworkload"]["ping"]:
            fail(
                f"distributed ping {dist['runworkload']['ping']} != "
                f"serial {clean['runworkload']['ping']}"
            )

        # Chaos: a worker crash mid-run tears down through the same
        # path as a clean exit, so recovery stays cycle-exact and no
        # ring segment survives the crash.
        dist_faulted = run_session(
            chaos + ["--workers", "2", "--fpgas-per-instance", "1"]
        )
        if dist_faulted["runworkload"]["ping"] != (
            clean["runworkload"]["ping"]
        ):
            fail("faulted distributed run diverged from serial ping")
        if dist_faulted["status"]["resilience"]["restores"] != 1:
            fail(
                "faulted distributed run expected 1 restore, got "
                f"{dist_faulted['status']['resilience']['restores']}"
            )

        # Supervised chaos: a worker livelocked mid-run must be caught
        # by the heartbeat supervisor (not a transport timeout), killed,
        # and the workload recovered bit-identically from checkpoint.
        hang_plan = os.path.join(tmp, "hang.json")
        with open(hang_plan, "w") as fh:
            json.dump({"seed": 3, "faults": [
                {"kind": "worker-hang", "point": "runworkload",
                 "at_cycle": 1_000_000, "target": "worker:1"},
            ]}, fh)
        hung = run_session(
            ["--fault-plan", hang_plan, "--workers", "2",
             "--fpgas-per-instance", "1", "--hang-timeout", "1"]
        )
        if hung["runworkload"]["ping"] != clean["runworkload"]["ping"]:
            fail("hung-worker run diverged from the serial ping results")
        hung_resilience = hung["status"]["resilience"]
        if hung_resilience["hangs_detected"] != 1:
            fail(f"expected 1 hang detected, "
                 f"got {hung_resilience['hangs_detected']}")
        if hung_resilience["workers_killed"] < 1:
            fail("hung worker was not killed")
        if hung_resilience["restores"] != 1:
            fail(f"hung-worker run expected 1 restore, "
                 f"got {hung_resilience['restores']}")

        # Supervised chaos: a frame bit-flip must be caught by
        # the ring CRCs (typed ring corruption, not decoded garbage) and
        # recovered bit-identically.
        corrupt_plan = os.path.join(tmp, "corrupt.json")
        with open(corrupt_plan, "w") as fh:
            json.dump({"seed": 4, "faults": [
                {"kind": "ring-corrupt", "point": "runworkload",
                 "at_cycle": 1_000_000, "target": "ring:0->1"},
            ]}, fh)
        corrupted = run_session(
            ["--fault-plan", corrupt_plan, "--workers", "2",
             "--fpgas-per-instance", "1"]
        )
        if corrupted["runworkload"]["ping"] != clean["runworkload"]["ping"]:
            fail("ring-corrupt run diverged from the serial ping results")
        corrupt_resilience = corrupted["status"]["resilience"]
        if corrupt_resilience["ring_corruptions"] != 1:
            fail(f"expected 1 ring corruption, "
                 f"got {corrupt_resilience['ring_corruptions']}")
        if corrupt_resilience["restores"] != 1:
            fail(f"ring-corrupt run expected 1 restore, "
                 f"got {corrupt_resilience['restores']}")
        if corrupt_resilience["serial_fallbacks"] != 0:
            fail("ring-corrupt run fell back to serial unexpectedly")

        # Leak check: /dev/shm before vs after the distributed sessions.
        leaks = leaked_segments()
        if leaks:
            fail(f"leaked /dev/shm heartbeat blocks: {leaks}")
        grown = shm_listing() - shm_before
        rings = sorted(name for name in grown if name.startswith(RING_PREFIX))
        if rings:
            fail(f"/dev/shm grew ring segments: {rings}")
        new_blocks = sorted(
            name for name in grown if name.startswith(HEARTBEAT_PREFIX)
        )
        if new_blocks:
            fail(f"/dev/shm grew heartbeat blocks: {new_blocks}")

        # Serve layer: graceful shutdown of a busy server checkpoints
        # the running preemptible job instead of discarding its work,
        # and the audit confirms the children left no shm segments.
        import time

        from repro.serve import InProcessClient, JobServer, ServeFarm

        server = JobServer(farm=ServeFarm({"f1.2xlarge": 2})).start()
        client = InProcessClient(server)
        job_id = client.submit({
            "name": "draining", "topology": "single_rack",
            "servers_per_rack": 2, "workload": "ping",
            "duration_ms": 500.0, "ping_count": 20, "preemptible": True,
        })
        deadline = time.monotonic() + 30.0
        while not any(e["event"] == "started" for e in server.events):
            if time.monotonic() > deadline:
                fail("serve: the job never started before shutdown")
            time.sleep(0.02)
        time.sleep(0.1)  # let it make progress worth checkpointing
        report = client.shutdown()
        if report["leaked_segments"]:
            fail(f"serve: shutdown audit leaked segments: "
                 f"{report['leaked_segments']}")
        record = next(
            job for job in client.jobs() if job["job_id"] == job_id
        )
        if record["state"] != "queued" or not record["checkpoint"]:
            fail(
                "serve: shutdown should park the running job as queued "
                f"with a checkpoint, got state={record['state']!r} "
                f"checkpoint={record['checkpoint']!r}"
            )
        if record["checkpoint"]["cycle"] <= 0:
            fail("serve: shutdown checkpoint captured no progress")
        server.stop()
        if leaked_segments():
            fail("serve: /dev/shm segments leaked after server stop")

        # Exhausted retry budgets surface as a clean non-zero exit.
        stubborn = os.path.join(tmp, "stubborn.json")
        with open(stubborn, "w") as fh:
            json.dump({"seed": 0, "faults": [
                {"kind": "instance-launch", "point": "launchrunfarm",
                 "times": 9},
            ]}, fh)
        code, _, err = run_cli(
            ["launchrunfarm", "--topology", "single_rack",
             "--fault-plan", stubborn, "--max-retries", "2"]
        )
        if code == 0:
            fail("exhausted retry budget did not exit non-zero")
        if "failed after 2 retries" not in err:
            fail(f"unexpected giveup message: {err.strip()!r}")

    print(
        f"check_resilience: OK ({resilience['faults_injected']} faults, "
        f"{resilience['retries']} retries, "
        f"{resilience['restores']} restore, cycle-exact recovery; "
        "distributed runs serial-exact, hang+corrupt chaos "
        "recovered, serve shutdown checkpointed, /dev/shm leak-free)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main_check())
