#!/usr/bin/env python
"""Hold the distributed engine to its floor against the serial engine.

Usage: python scripts/check_floors.py [--self-test] FILE

FILE is a ``python -m bench.run --out FILE`` suite document (schema
``repro.bench/v1``; any other is rejected) whose ``seed`` and ``quick``
pick the farm and the floor: ``ping_farm``'s loaded 8x4 farm runs
:data:`TRIALS` times on the batched serial engine and on :data:`WORKERS`
rack-aligned workers, interleaved in this one process. The median
distributed critical path (cycles over the busiest process's CPU
seconds; blocking waits burn none) over the median serial one must reach
:data:`PARITY_CRITICAL_PATH_FLOOR`, or
:data:`PARITY_CRITICAL_PATH_QUICK_FLOOR` for a quick document. The
document's ``dist_farm``/``ping_farm`` medians are never divided: they
ran at different times under different host-speed factors.

``--self-test`` exits 1 unless a ratio above both floors passes, one
between them trips only a full-length document and one below trips both.
"""

import json
import statistics
import sys
from pathlib import Path
from time import process_time

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]

from bench.workloads import PingFarm  # noqa: E402
from repro.dist import run_distributed  # noqa: E402
from repro.dist.partition import plan_from_assignment  # noqa: E402

SCHEMA = "repro.bench/v1"
WORKERS = 4
TRIALS = 5
PARITY_CRITICAL_PATH_FLOOR = 1.0
#: Quick runs fork the workers for a handful of exchanges, which amortise
#: their fixed cost poorly; the strict floor is left to full-length runs.
PARITY_CRITICAL_PATH_QUICK_FLOOR = 0.85


def load(path):
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise SystemExit(f"check_floors: FAIL: {path} has schema "
                         f"{document.get('schema')!r}, not {SCHEMA!r}")
    return document


def rack_plan(running):
    """Worker ``i`` owns racks ``i mod WORKERS``; the root goes to 0."""
    root = running.root
    assignment = {f"switch{root.switch_id}": 0}
    for index, rack in enumerate(root.downlinks):
        assignment[f"switch{rack.switch_id}"] = index % WORKERS
        for server in rack.iter_servers():
            assignment[f"node{server.node_index}"] = index % WORKERS
    return plan_from_assignment(assignment, WORKERS)


def parity(document):
    """Distributed over serial critical-path rate, medians of TRIALS."""
    farm = PingFarm()
    inputs = farm.inputs(document["seed"], document["quick"])
    target = inputs["target_cycle"]
    serial, distributed = [], []
    for _ in range(TRIALS):
        running = farm.build(inputs, "batched")
        start = process_time()
        running.simulation.run_until(target)
        serial.append(target / (process_time() - start) / 1e6)
        running = farm.build(inputs, "batched")
        result = run_distributed(running.simulation, rack_plan(running),
                                 target, transport="shm")
        distributed.append(result.measured_critical_path_mhz())
    return statistics.median(distributed) / statistics.median(serial)


def problem(ratio, quick):
    """The broken row's line, or ``None`` when ``ratio`` clears the floor."""
    floor = (PARITY_CRITICAL_PATH_QUICK_FLOOR if quick
             else PARITY_CRITICAL_PATH_FLOOR)
    if ratio < floor:
        return f"parity at {WORKERS} workers: {ratio:.3f} < floor {floor}"


def self_test():
    low, high = PARITY_CRITICAL_PATH_QUICK_FLOOR, PARITY_CRITICAL_PATH_FLOOR
    cases = [(ratio, quick, trips) for quick in (True, False)
             for ratio, trips in ((high + 0.1, False), (low - 0.05, True),
                                  ((low + high) / 2, not quick))]
    wrong = [f"{ratio} quick={quick}" for ratio, quick, trips in cases
             if bool(problem(ratio, quick)) != trips]
    for label in wrong:
        print(f"check_floors: self-test FAIL: {label}", file=sys.stderr)
    print(f"check_floors: self-test {len(cases) - len(wrong)}/{len(cases)}")
    return 1 if wrong else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--self-test":
        load(argv[1])
        return self_test()
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    document = load(argv[0])
    ratio = parity(document)
    line = problem(ratio, document["quick"])
    if line:
        print(f"check_floors: FAIL: {line}", file=sys.stderr)
        return 1
    print(f"check_floors: OK, parity at {WORKERS} workers {ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
