#!/usr/bin/env python
"""Job-server smoke test: multi-tenancy must not perturb target time.

Usage: PYTHONPATH=src python scripts/check_serve.py

Drives a :class:`repro.serve.JobServer` on a capacity-limited farm
through one realistic multi-tenant session and checks the subsystem's
whole contract end to end:

* at least three jobs overlap on the farm (submitted together, more
  demand than slots — the scheduler decides who holds FPGAs when);
* a low-priority job is **preempted** by a high-priority arrival,
  checkpoints, resumes, and finishes **bit-identical** to a standalone
  serial run of the same spec (node results AND final state digest);
* every completed job's results are bit-equal to its serial oracle;
* runner processes are reused: at least one ``started`` event names a
  runner pid an earlier job already ran on (the victim's resume
  included, it still finishes bit-exactly);
* one job is **cancelled** mid-flight and settles as cancelled;
* the CLI verbs (``submit``/``jobs``/``cancel``) round-trip over the
  unix socket, server-side failures exit non-zero with one line, and
  one flag set gives the same pings as ``runworkload`` and as a job;
* graceful shutdown reaps every runner process — zero leaked
  processes, zero leaked ``/dev/shm`` heartbeat blocks and never a
  ``repro-ring-`` segment (snapshotted before/after);
* the JSON-lines job-event log is well formed: monotonic ``seq``,
  every job's lifecycle closed out, a final ``shutdown`` record;
* the ``serve`` verb itself, as a user starts it: ``python -m
  repro.manager.cli serve`` in a subprocess takes a ``submit --wait``
  and a ``jobs`` over its socket, finishes the job bit-equal to its
  serial oracle, and exits 0 on SIGINT with a clean ``--json`` summary.

Exits non-zero with a message on the first violation; prints a one-line
summary on success.  Intended for CI smoke tests — stdlib + repro only.
"""

import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.dist.shm import HEARTBEAT_PREFIX, leaked_segments  # noqa: E402
from repro.experiments.common import cycles_to_us  # noqa: E402
from repro.manager.cli import main as cli_main  # noqa: E402

#: The retired shared-memory rings' ``/dev/shm`` prefix: no run may
#: create one.
RING_PREFIX = "repro-ring-"
from repro.serve import (  # noqa: E402
    InProcessClient,
    JobSpec,
    JobServer,
    ServeFarm,
    SocketEndpoint,
    run_job_inline,
)
from repro.swmodel.apps.ping import RESULT_KEY as PING_KEY  # noqa: E402

#: Two-slot farm; every job below needs 2 slots, so at most one runs at
#: a time and the scheduler's queueing/preemption decisions all matter.
FARM = {"f1.2xlarge": 2}

BASE = {
    "topology": "single_rack",
    "servers_per_rack": 2,
    "workload": "ping",
}

#: The preemption victim: long enough (~0.5 s host) to be caught mid-run.
VICTIM = {**BASE, "name": "victim", "duration_ms": 40.0, "ping_count": 20,
          "priority": 0, "preemptible": True}
#: The preemptor: arrives later, outranks the victim.
URGENT = {**BASE, "name": "urgent", "duration_ms": 2.0, "ping_count": 4,
          "priority": 10}
#: A third tenant that queues behind both.
STEADY = {**BASE, "name": "steady", "duration_ms": 1.0, "ping_count": 6}
#: The cancellation target: would run for a long time if not cancelled.
DOOMED = {**BASE, "name": "doomed", "duration_ms": 500.0, "priority": -5}


def fail(message):
    print(f"check_serve: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def shm_listing():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def child_pids():
    """Live direct children of this process (leaked runner processes)."""
    import multiprocessing

    return {p.pid for p in multiprocessing.active_children()}


def wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            fail(f"timed out waiting for {what}")
        time.sleep(0.02)


def check_events(log_path, job_ids):
    with open(log_path) as handle:
        events = [json.loads(line) for line in handle]
    if [e["seq"] for e in events] != list(range(len(events))):
        fail("event log seq numbers are not contiguous from 0")
    if events[0]["event"] != "serving" or events[-1]["event"] != "shutdown":
        fail(
            "event log must open with 'serving' and close with "
            f"'shutdown'; got {events[0]['event']}..{events[-1]['event']}"
        )
    closing = {"completed", "cancelled", "failed"}
    for job_id in job_ids:
        job_events = [e["event"] for e in events
                      if e.get("job_id") == job_id]
        if "submitted" not in job_events:
            fail(f"job {job_id} never logged 'submitted'")
        if not closing & set(job_events):
            fail(f"job {job_id} has no closing event: {job_events}")
    preempt_pairs = [e["event"] for e in events
                     if e["event"] in ("preempted", "started")]
    if "preempted" not in preempt_pairs:
        fail("no preemption recorded in the event log")
    return events


def check_serve_verb(oracle):
    """Drive the ``serve`` verb in a subprocess, as a user would."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    # AF_UNIX paths are limited to 108 bytes: keep the socket short.
    tmp = tempfile.mkdtemp(prefix="repro-serve-", dir="/tmp")
    sock = os.path.join(tmp, "serve.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.manager.cli", "serve",
         "--farm", "f1.2xlarge=2", "--serve-socket", sock, "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        wait_for(lambda: os.path.exists(sock) or server.poll() is not None,
                 60.0, "the serve verb to open its socket")
        if server.poll() is not None:
            fail(f"serve exited {server.returncode} before serving: "
                 f"{server.stderr.read().strip()}")
        flags = ["--serve-socket", sock, "--json", "--topology",
                 STEADY["topology"], "--servers-per-rack",
                 str(STEADY["servers_per_rack"]), "--workload",
                 STEADY["workload"], "--duration-ms",
                 str(STEADY["duration_ms"]), "--ping-count",
                 str(STEADY["ping_count"])]
        code, out, err = run_cli(["submit", "--wait"] + flags)
        if code != 0:
            fail(f"submit --wait to the serve verb exited {code}: "
                 f"{err.strip()}")
        job = json.loads(out)["verbs"]["submit"]["job"]
        if job["result"]["final_digest"] != oracle["final_digest"]:
            fail("a job served by the serve verb != its serial oracle")
        code, out, err = run_cli(["jobs", "--serve-socket", sock, "--json"])
        if code != 0:
            fail(f"jobs on the serve verb exited {code}: {err.strip()}")
        states = [j["state"] for j in json.loads(out)["verbs"]["jobs"]["jobs"]]
        if states != ["done"]:
            fail(f"serve verb lists jobs in states {states}")
        server.send_signal(signal.SIGINT)
        out, err = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
        if os.path.exists(sock):
            os.unlink(sock)
        os.rmdir(tmp)
    if server.returncode != 0:
        fail(f"serve exited {server.returncode} on SIGINT: {err.strip()}")
    summary = json.loads(out[out.index("{"):])["verbs"]["serve"]
    if summary["stats"]["completed"] != 1:
        fail(f"serve verb completed {summary['stats']['completed']} jobs, "
             "expected 1")
    if summary["leaked_segments"] != []:
        fail(f"serve verb leaked segments: {summary['leaked_segments']}")


def main_check():
    shm_before = shm_listing()
    pids_before = child_pids()

    # Serial oracles first: the bit-equality reference for every job.
    oracles = {
        spec["name"]: run_job_inline(JobSpec.from_dict(spec))
        for spec in (VICTIM, URGENT, STEADY)
    }

    with tempfile.TemporaryDirectory() as tmp:
        log_path = os.path.join(tmp, "events.jsonl")
        sock = os.path.join(tmp, "serve.sock")
        server = JobServer(
            farm=ServeFarm(FARM), event_log=log_path
        ).start()
        endpoint = SocketEndpoint(server, sock).start()
        client = InProcessClient(server)

        # Three overlapping tenants + one doomed job, all in the
        # system at once on a farm that fits only one at a time.
        victim_id = client.submit(VICTIM)
        steady_id = client.submit(STEADY)
        doomed_id = client.submit(DOOMED)
        wait_for(
            lambda: any(e["event"] == "started" for e in server.events),
            30.0, "the victim to start",
        )
        time.sleep(0.2)  # victim makes mid-run progress worth preempting

        # CLI round-trip: submit the preemptor over the unix socket.
        code, out, err = run_cli([
            "submit", "--serve-socket", sock, "--workload", "ping",
            "--servers-per-rack", "2", "--duration-ms", "2",
            "--ping-count", "4", "--priority", "10",
            "--job-name", "urgent",
        ])
        if code != 0:
            fail(f"CLI submit exited {code}: {err.strip()}")
        urgent_id = int(out.split()[-1])

        # Server-side failure -> one line on stderr, nonzero exit.
        code, out, err = run_cli(
            ["cancel", "--serve-socket", sock, "--job-id", "999"]
        )
        if code == 0:
            fail("cancelling an unknown job exited zero")
        if not err.startswith("firesim: error:") or "\n" in err.strip():
            fail(f"expected one-line error, got {err!r}")

        # Cancel the doomed job (CLI this time), let the rest finish.
        code, _, err = run_cli(
            ["cancel", "--serve-socket", sock, "--job-id", str(doomed_id)]
        )
        if code != 0:
            fail(f"CLI cancel exited {code}: {err.strip()}")

        records = {
            name: client.wait(job_id, timeout_s=300)
            for name, job_id in (
                ("victim", victim_id), ("urgent", urgent_id),
                ("steady", steady_id), ("doomed", doomed_id),
            )
        }

        if records["doomed"]["state"] != "cancelled":
            fail(f"doomed job state {records['doomed']['state']!r}, "
                 "expected cancelled")
        for name in ("victim", "urgent", "steady"):
            record = records[name]
            if record["state"] != "done":
                fail(f"{name} job state {record['state']!r}: "
                     f"{record['error']}")
            oracle = oracles[name]
            if record["result"]["node_results"] != oracle["node_results"]:
                fail(f"{name}: scheduled results != serial oracle "
                     "(multi-tenancy perturbed target time)")
            if record["result"]["final_digest"] != oracle["final_digest"]:
                fail(f"{name}: final state digest != serial oracle")
        if records["victim"]["preemptions"] < 1:
            fail("the victim was never preempted")
        if records["victim"]["checkpoint"] is not None:
            fail("a completed job still holds a checkpoint")

        # One recipe, two front ends: the same flags as a batch
        # session and as a served job report the same measurements.
        flags = ["--servers-per-rack", "2", "--duration-ms", "1",
                 "--ping-count", "6", "--json"]
        code, out, err = run_cli(
            ["buildafi", "launchrunfarm", "infrasetup", "runworkload"]
            + flags
        )
        if code != 0:
            fail(f"CLI runworkload exited {code}: {err.strip()}")
        batch = json.loads(out)["verbs"]["runworkload"]["ping"]
        code, out, err = run_cli(
            ["submit", "--serve-socket", sock, "--wait"] + flags
        )
        if code != 0:
            fail(f"CLI submit --wait exited {code}: {err.strip()}")
        served = json.loads(out)["verbs"]["submit"]["job"]["result"]
        rtts = [rtt for results in served["node_results"].values()
                for rtt in results.get(PING_KEY, [])]
        if (len(rtts) != batch["samples"]
                or cycles_to_us(sum(rtts) / len(rtts))
                != batch["mean_rtt_us"]):
            fail("the same flags gave different pings as runworkload "
                 f"({batch}) and as a served job ({len(rtts)} samples)")

        # CLI jobs listing reflects the outcome.
        code, out, err = run_cli(["jobs", "--serve-socket", sock])
        if code != 0:
            fail(f"CLI jobs exited {code}: {err.strip()}")
        if "'victim' done" not in out or "preemptions=" not in out:
            fail(f"jobs listing missing the preempted victim: {out!r}")

        report = client.shutdown()
        if report["leaked_segments"]:
            fail(f"shutdown audit found leaked /dev/shm segments: "
                 f"{report['leaked_segments']}")
        endpoint.close()
        server.stop()

        events = check_events(
            log_path, [victim_id, steady_id, doomed_id, urgent_id]
        )
        resumed = [e for e in events
                   if e["event"] == "started" and e.get("resumed")]
        if not resumed:
            fail("event log records no checkpoint resume")
        runners = [e["runner"] for e in events if e["event"] == "started"]
        if len(set(runners)) == len(runners):
            fail(f"no job reused a runner process: started on {runners}")
        stats = server.stats

    check_serve_verb(oracles["steady"])

    leaked_procs = child_pids() - pids_before
    if leaked_procs:
        fail(f"leaked child processes: {sorted(leaked_procs)}")
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

    print(
        "check_serve: OK "
        f"({stats.submitted} jobs on {ServeFarm(FARM).capacity} slots, "
        f"{stats.preemptions} preemption(s) resumed cycle-exactly, "
        f"{stats.cancelled} cancelled, {len(events)} events, "
        f"{len(runners)} starts on {len(set(runners))} runner(s), "
        "serve verb round-tripped, zero leaked processes/segments)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main_check())
