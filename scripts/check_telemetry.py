#!/usr/bin/env python
"""Validate telemetry artifacts exported by --telemetry-out.

Usage: python scripts/check_telemetry.py OUT_DIR [--profile]

Checks that OUT_DIR holds a metrics.json conforming to the
repro.obs.metrics/v1 schema (with the keys the acceptance criteria
demand), a metrics.csv with the expected header, and a trace.json that
is a structurally valid Chrome trace_event document.

With ``--profile`` (a ``--profile-out`` export from a profiled
distributed run), additionally validates phase_report.json — the schema
tag ``repro.obs.prof`` emits, per-worker phase shares that sum to ~1, a
critical path naming a concrete worker and phase — and the merged
trace: exactly one Chrome pid per worker and non-decreasing timestamps
within every complete-event track, so the cross-process merge is one
openable timeline.

Exits non-zero with a message on the first violation; prints a one-line
summary on success. Intended for CI smoke tests — stdlib plus the
profile schema tag, phase names and worker pid base, imported from the
emitter (``repro.obs.prof``) so the two cannot drift.
"""

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs.prof import (  # noqa: E402
    PHASES,
    PROFILE_SCHEMA,
    WORKER_PID_BASE,
)

REQUIRED_METRICS = ("sim.rounds", "sim.cycles", "sim.rate_mhz")
SWITCH_SUFFIXES = (".packets_dropped", ".bytes_in", ".bytes_out")
VALID_PHASES = set("BEXibsfnMmpPOND(){}cv")


def fail(message):
    print(f"check_telemetry: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def load_json(path):
    if not os.path.exists(path):
        fail(f"missing artifact: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            fail(f"{path} is not valid JSON: {exc}")


def check_metrics(out_dir):
    document = load_json(os.path.join(out_dir, "metrics.json"))
    schema = document.get("schema")
    if schema != "repro.obs.metrics/v1":
        fail(f"metrics.json schema is {schema!r}")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        fail("metrics.json has no metrics")
    for name in REQUIRED_METRICS:
        if name not in metrics:
            fail(f"metrics.json missing {name}")
        if not isinstance(metrics[name], (int, float)):
            fail(f"{name} is not numeric: {metrics[name]!r}")
    switch_keys = [k for k in metrics if k.startswith("switch.")]
    for suffix in SWITCH_SUFFIXES:
        if not any(k.endswith(suffix) for k in switch_keys):
            fail(f"no switch.*{suffix} metric")
    rate = document.get("rate")
    if not isinstance(rate, dict) or "rate_mhz" not in rate:
        fail("metrics.json missing the rate report")
    return len(metrics)


def check_csv(out_dir):
    path = os.path.join(out_dir, "metrics.csv")
    if not os.path.exists(path):
        fail(f"missing artifact: {path}")
    with open(path) as fh:
        header = fh.readline().strip()
        rows = sum(1 for _ in fh)
    if header != "name,value":
        fail(f"metrics.csv header is {header!r}")
    if rows == 0:
        fail("metrics.csv has no data rows")
    return rows


def check_trace(out_dir):
    document = load_json(os.path.join(out_dir, "trace.json"))
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace.json has no traceEvents")
    for index, event in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                fail(f"traceEvents[{index}] missing {key!r}")
        if event["ph"] not in VALID_PHASES:
            fail(f"traceEvents[{index}] has unknown phase {event['ph']!r}")
        if event["ph"] == "X" and "dur" not in event:
            fail(f"traceEvents[{index}] is a complete event without dur")
    names = {e["name"] for e in events}
    if "runworkload" not in names:
        fail("trace.json lacks the runworkload manager span")
    return len(events)


def check_phase_report(out_dir):
    """phase_report.json: schema, shares ~1, a named critical path."""
    document = load_json(os.path.join(out_dir, "phase_report.json"))
    schema = document.get("schema")
    if schema != PROFILE_SCHEMA:
        fail(f"phase_report.json schema is {schema!r}")
    per_worker = document.get("per_worker")
    if not isinstance(per_worker, dict) or not per_worker:
        fail("phase_report.json has no per_worker profiles")
    for worker_id, profile in per_worker.items():
        shares = profile.get("phase_shares")
        if not isinstance(shares, dict):
            fail(f"worker {worker_id} has no phase_shares")
        unknown = set(shares) - set(PHASES)
        if unknown:
            fail(f"worker {worker_id} has unknown phases {sorted(unknown)}")
        total = sum(shares.values())
        if not 0.99 <= total <= 1.01:
            fail(
                f"worker {worker_id} phase shares sum to {total:.4f}, "
                "not ~1.0 — attributed time does not cover round time"
            )
    critical = document.get("critical_path")
    if not isinstance(critical, dict):
        fail("phase_report.json has no critical_path")
    if not isinstance(critical.get("worker"), int):
        fail("critical_path does not name a worker")
    if critical.get("phase") not in PHASES:
        fail(f"critical_path phase is {critical.get('phase')!r}")
    overhead = document.get("profiling_overhead_ratio")
    if not isinstance(overhead, (int, float)) or overhead < 0:
        fail(f"profiling_overhead_ratio is {overhead!r}")
    return len(per_worker)


def check_merged_trace(out_dir, num_workers):
    """The merged trace holds one pid per worker, monotonic per track."""
    document = load_json(os.path.join(out_dir, "trace.json"))
    events = document.get("traceEvents", [])
    worker_pids = sorted(
        {e["pid"] for e in events if e.get("pid", 0) >= WORKER_PID_BASE}
    )
    expected = list(range(WORKER_PID_BASE, WORKER_PID_BASE + num_workers))
    if worker_pids != expected:
        fail(
            f"merged trace worker pids are {worker_pids}, expected "
            f"{expected} (one pid per worker)"
        )
    last_ts = {}
    for index, event in enumerate(events):
        if event.get("ph") != "X":
            continue
        track = (event["pid"], event["tid"])
        ts = event["ts"]
        if ts < last_ts.get(track, float("-inf")):
            fail(
                f"traceEvents[{index}] goes back in time on track "
                f"{track}: ts {ts} after {last_ts[track]}"
            )
        last_ts[track] = ts
    worker_events = sum(
        1 for e in events if e.get("pid", 0) >= WORKER_PID_BASE
    )
    if worker_events == 0:
        fail("merged trace has no worker events")
    return worker_events


def check_out_dir(out_dir):
    """The export directory itself must exist and hold artifacts.

    A session that exits 0 without writing anything would otherwise
    surface as three confusing per-file failures (or, if this script
    were ever pointed at the wrong path, as none at all) — name the
    real problem first.
    """
    if not os.path.isdir(out_dir):
        fail(f"output directory does not exist: {out_dir}")
    if not os.listdir(out_dir):
        fail(f"output directory is empty: {out_dir} "
             "(the session wrote no telemetry artifacts)")


def main(argv):
    args = [a for a in argv[1:] if a != "--profile"]
    profile = "--profile" in argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = args[0]
    check_out_dir(out_dir)
    metrics = check_metrics(out_dir)
    rows = check_csv(out_dir)
    events = check_trace(out_dir)
    summary = f"{metrics} metrics, {rows} csv rows, {events} trace events"
    if profile:
        workers = check_phase_report(out_dir)
        worker_events = check_merged_trace(out_dir, workers)
        summary += (
            f", {workers}-worker phase report, "
            f"{worker_events} merged worker events"
        )
    print(f"check_telemetry: OK ({summary})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
