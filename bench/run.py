"""The benchmark's one command.

Driver form (what ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload ping_farm --seed 7 --seconds 10 --trace 0

runs one workload in its own session (see :mod:`bench.procs`), verifies
its simulated output, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``
— every end-to-end metric with ``--trace 0``, every per-layer metric
with ``--trace 1``.  Progress and a readable table go to standard error.

Suite form (no ``--workload``)::

    PYTHONPATH=src python -m bench.run --seed 1 [--quick] [--out FILE]

runs every workload untraced and traced, prints every metric by name
with its unit, and writes ``bench/out/bench.json``.  ``--compare A B``
checks two such files against the bounds in ``BENCHMARK.json``;
``--regen-golden`` rewrites ``bench/golden.json`` from the scalar engine.

Whatever the form, the command's last act is to check that no process
it started and no shared-memory segment it created is left.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import OUT, SRC  # noqa: E402

#: The driver allows a run 180 s; a child still going after this long is
#: stopped and the run reported as failed.
CHILD_TIMEOUT_S = 150.0
SCHEMA = "repro.bench/v1"


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", default=None,
                        help="run this one workload (driver form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json; 0.5 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads, verified against the "
                             "scalar oracle instead of golden.json")
    parser.add_argument("--out", default=None,
                        help="suite form: where to write the JSON "
                             "(default bench/out/bench.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--golden", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--child-result", default=None,
                        help=argparse.SUPPRESS)
    return parser


def _terminate(signum: int, frame: Any) -> None:
    # SIGTERM becomes an exception so every ``finally`` on the stack —
    # the process sweep in the parent, ``JobServer.stop`` and ring
    # teardown in the child — still runs.
    raise SystemExit(128 + signum)


def _log(*parts: Any) -> None:
    print(*parts, file=sys.stderr, flush=True)


# -- one workload, isolated ---------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Inside the workload's own session: measure, write the result."""
    from bench.measure import GOLDEN_PATH, measure

    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        quick=args.quick, golden_path=args.golden or GOLDEN_PATH,
    )
    with open(args.child_result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def run_workload(bench_id: str, name: str, seed: int, seconds: float,
                 trace: int, quick: bool, golden: Optional[str] = None
                 ) -> Optional[Dict[str, Any]]:
    """Run one workload in its own session; ``None`` if it produced
    nothing.  Anything the sweep had to clean up fails the whole run."""
    from bench import procs

    os.makedirs(OUT, exist_ok=True)
    result_path = OUT / f"result_{os.getpid()}_{name}_{trace}.json"
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--child-result", str(result_path),
    ]
    if quick:
        argv.append("--quick")
    if golden:
        argv += ["--golden", golden]
    try:
        run = procs.run_isolated(argv, CHILD_TIMEOUT_S, bench_id)
        result = None
        if result_path.exists():
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
    finally:
        result_path.unlink(missing_ok=True)
    for pid, cmd in run.killed:
        _log(f"bench: {name}: had to kill leftover process {pid}: {cmd}")
    for segment in run.segments_removed:
        _log(f"bench: {name}: had to unlink /dev/shm/{segment}")
    if run.timed_out:
        _log(f"bench: {name}: child exceeded {CHILD_TIMEOUT_S:.0f} s")
    if result is None or run.returncode != 0:
        _log(f"bench: {name}: child exited {run.returncode} "
             "without a result")
        return None
    if not run.clean:
        result["correct"] = False
        result["failed"] = result["attempted"]
        result["detail"]["leaked_processes"] += [
            f"{pid} {cmd}" for pid, cmd in run.killed
        ]
    return result


def assert_nothing_left(bench_id: str,
                        before_segments: Sequence[str]) -> None:
    """The command's last act: no child, no marked process, no segment."""
    from bench import procs

    procs.reap_children(1.0)
    marked = procs.find_pids(bench_id)
    leftover = sorted(set(procs.shm_segments()) - set(before_segments))
    try:
        os.waitpid(-1, os.WNOHANG)
        children = True
    except ChildProcessError:
        children = False
    if marked or leftover or children:
        raise SystemExit(
            f"bench: left behind: processes {marked}, segments {leftover}, "
            f"unreaped children {children}"
        )


def print_metrics(result: Dict[str, Any], out: Any) -> None:
    detail = result["detail"]
    print(
        f"{result['workload']}: seed {result['seed']}, "
        f"{detail['repeats']} repeats"
        + (f" + {detail['traced_repeats']} traced" if result["trace"] else "")
        + f", attempted {result['attempted']}, failed {result['failed']}, "
        f"fingerprint_ok {detail['fingerprint_ok']}, "
        f"paper_error_pct {_fmt(detail['paper_error_pct'])}",
        file=out,
    )
    table = detail["per_layer"] if result["trace"] else detail["end_to_end"]
    print(
        f"  times at nominal host speed: factor "
        f"{_fmt(detail['host_speed_factor']['median'])}, raw wall_s "
        f"{_fmt(detail['raw_medians']['wall_s'])}",
        file=out,
    )
    for metric, entry in result["metrics"].items():
        stats = table[metric]
        print(
            f"  {metric:28s} {_fmt(entry['value']):>14s} {entry['unit']:6s}"
            f" q1 {_fmt(stats['q1'])} q3 {_fmt(stats['q3'])} n {stats['n']}",
            file=out,
        )
    for line in detail["mismatches"]:
        print(f"  MISMATCH {line}", file=out)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def driver_main(args: argparse.Namespace, bench_id: str) -> int:
    result = run_workload(bench_id, args.workload, args.seed, args.seconds,
                          args.trace, args.quick, args.golden)
    if result is None:
        return 1
    print_metrics(result, sys.stderr)
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if result["correct"] else 1


# -- the whole suite ----------------------------------------------------------


def suite_main(args: argparse.Namespace, spec: Dict[str, Any],
               bench_id: str) -> int:
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "timed_engine": "batched",
        "oracle_engine": "scalar",
        "workloads": {},
    }
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        merged: Dict[str, Any] = {"why": entry["why"], "correct": True,
                                  "attempted": 0, "failed": 0,
                                  "mismatches": []}
        for trace in (0, 1):
            result = run_workload(bench_id, name, args.seed, args.seconds,
                                  trace, args.quick, args.golden)
            if result is None:
                ok = merged["correct"] = False
                continue
            print_metrics(result, sys.stdout)
            detail = result["detail"]
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["mismatches"] += detail["mismatches"]
            merged["paper_error_pct"] = detail["paper_error_pct"]
            if trace:
                merged["per_layer"] = detail["per_layer"]
                merged["counts_repeat_exactly"] = detail[
                    "counts_repeat_exactly"]
            else:
                # End-to-end numbers only ever come from the untraced run.
                for key in ("end_to_end", "raw_medians", "host_speed_factor"):
                    merged[key] = detail[key]
        merged["fail_share"] = (
            merged["failed"] / merged["attempted"]
            if merged["attempted"] else 1.0
        )
        merged["fingerprint_ok"] = int(not merged["mismatches"])
        ok = ok and merged["correct"]
        document["workloads"][name] = merged
        sys.stdout.flush()
    out_path = Path(args.out) if args.out else OUT / "bench.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"wrote {out_path}")
    if not ok:
        for name, merged in document["workloads"].items():
            for line in merged["mismatches"]:
                print(f"FAILED {line}")
            if not merged["correct"]:
                print(f"FAILED {name}: fail_share {merged['fail_share']:.3f}")
    return 0 if ok else 1


def regen_golden(args: argparse.Namespace) -> int:
    """Seed-1 fingerprints and exact counts, from the scalar engine."""
    from bench.measure import GOLDEN_PATH
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS, digest
    from repro.core.events import EventQueue

    golden: Dict[str, Any] = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.inputs(1, False)
        tracer = Tracer()
        tracer.count(EventQueue, "schedule", "core.events_scheduled")
        try:
            fingerprint = workload.oracle(inputs)
        finally:
            tracer.uninstall()
        counts = {}
        if workload.in_process_spans:
            counts = dict(tracer.counts)
        golden[name] = {
            "seed": 1,
            "engine": "scalar",
            "inputs_sha256": digest(inputs),
            "fingerprint": fingerprint,
            "counts": counts,
        }
        _log(f"bench: golden {name}: ops {fingerprint['ops']}")
    path = args.golden or GOLDEN_PATH
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if args.compare:
        from bench.compare import compare_files

        return compare_files(*args.compare)
    if not (SRC / "repro").is_dir():
        _log(f"bench: {SRC / 'repro'} is missing: nothing to measure")
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    from bench.measure import load_spec

    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(spec["run_seconds"])
    if args.child_result:
        return child_main(args)
    names: List[str] = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        _log(f"bench: unknown workload {args.workload!r}; one of {names}")
        return 2
    from bench import procs

    bench_id = uuid.uuid4().hex
    before = procs.shm_segments()
    try:
        if args.regen_golden:
            return regen_golden(args)
        if args.workload is not None:
            return driver_main(args, bench_id)
        return suite_main(args, spec, bench_id)
    finally:
        assert_nothing_left(bench_id, before)


if __name__ == "__main__":
    raise SystemExit(main())
