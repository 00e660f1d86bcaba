#!/usr/bin/env python
"""Benchmark the scalar round loop against the batched token engine.

Usage: python scripts/bench_core.py [--cycles N] [--repeat N]
                                    [--out BENCH_core.json] [--quick]

Three sections, one document (schema ``repro.bench.core/v2``):

**Figure 8** — the paper's 2 us / 6400-cycle link latency on a
two-tier 8-node cluster, run through both engines of
``repro.core.simulation``: ``scalar`` (the reference oracle) and
``batched`` (:mod:`repro.perf`).  Yields
``speedup.batched_over_scalar``.

**Incast** — a switch-heavy microbenchmark isolating the columnar
switch step (:mod:`repro.perf.switch`): seven ports blast back-to-back
600-byte frames at the eighth (plus a sprinkling of unroutable frames
so the drop path is exercised), through a full 6400-cycle quantum per
round.  The columnar step consumes :class:`ColumnarBatch` windows (the
representation the batched engine hands it in-flight) and runs the
spec's per-packet phases with rows at both ends; the scalar oracle
consumes the same windows materialized as ``TokenBatch`` and works
them flit by flit.  Yields ``speedup.columnar_over_scalar``.

**Parity matrix** — scalar vs batched full-run fingerprints across
three topologies x two quanta (the default link quantum and a forced
160-cycle quantum), recorded as booleans under ``parity.matrix``.

Each timed section is run ``--repeat`` times after one warm-up run and
the best repeat is reported: the first iteration of a fresh interpreter
is dominated by allocator and bytecode warm-up, and CI compares
*ratios*, so best-of-N is the stable statistic.

The benchmark doubles as an equivalence check: every repeat's full
observable fingerprint (cycle, simulation stats, switch counters,
blade results, per-link flit counts — and for the incast, every output
flit, the switch counters, and the residual queue drained to empty)
must be bit-identical across the two engines, or the script exits
non-zero without writing output.

Absolute MHz is host-dependent; the regression gate
(``scripts/check_bench_regression.py``) compares only the
``speedup.*`` ratios, which are not, and additionally holds them to
absolute floors plus the parity matrix to all-true.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.token import TokenBatch, TokenWindow  # noqa: E402
from repro.manager.runfarm import RunFarmConfig, elaborate  # noqa: E402
from repro.manager.topology import single_rack, two_tier  # noqa: E402
from repro.net.ethernet import EthernetFrame, mac_address  # noqa: E402
from repro.net.switch import SwitchConfig, SwitchModel  # noqa: E402
from repro.obs.rate import RateMonitor  # noqa: E402
from repro.perf.switch import ColumnarBatch, ColumnarSwitch  # noqa: E402
from repro.swmodel.apps.ping import make_ping_client  # noqa: E402

RACKS = 4
SERVERS_PER_RACK = 2
LINK_LATENCY_CYCLES = 6400  # the 2 us network used throughout the paper

# -- incast microbenchmark shape ----------------------------------------

INCAST_PORTS = 8
INCAST_WINDOW = 6400  # one full paper quantum per round
INCAST_ROUNDS = 6
INCAST_DRAIN_ROUNDS = 40  # empty windows appended so queues drain into
#                           the fingerprint: seven senders oversubscribe
#                           the one egress port (1 flit/cycle) ~7:1, so
#                           ~34 extra windows of backlog exist when the
#                           timed rounds end
INCAST_FRAME_BYTES = 600
INCAST_UNROUTABLE_EVERY = 16  # every 16th frame goes to an unknown MAC

# -- parity matrix shape ------------------------------------------------

PARITY_TOPOLOGIES = {
    "single_rack_4": lambda: single_rack(4),
    "two_tier_2x2": lambda: two_tier(num_racks=2, servers_per_rack=2),
    "two_tier_4x2": lambda: two_tier(num_racks=4, servers_per_rack=2),
}
PARITY_QUANTA = (None, 160)  # None = the link-derived default quantum
PARITY_LINK_LATENCY_CYCLES = 640
PARITY_CYCLES = 300_000


# -- Figure 8: full-system scalar vs batched ----------------------------


def build(engine):
    root = two_tier(num_racks=RACKS, servers_per_rack=SERVERS_PER_RACK)
    running = elaborate(
        root,
        RunFarmConfig(
            link_latency_cycles=LINK_LATENCY_CYCLES, engine=engine
        ),
    )
    blades = running.blades
    last = max(blades)
    blades[0].spawn(
        "ping",
        make_ping_client(blades[last].mac, count=4, interval_cycles=50_000),
    )
    return running


def fingerprint(running):
    """Every externally observable artifact of a run, for equality."""
    sim = running.simulation
    return {
        "cycle": sim.current_cycle,
        "stats": (
            sim.stats.rounds,
            sim.stats.cycles,
            sim.stats.tokens_moved,
            sim.stats.valid_tokens_moved,
        ),
        "switches": [
            repr(sw.stats) for _, sw in sorted(running.switches.items())
        ],
        "blades": {
            index: {key: tuple(vals) for key, vals in blade.results.items()}
            for index, blade in running.blades.items()
        },
        "links": [
            (link.flits_a_to_b, link.flits_b_to_a) for link in sim.links
        ],
    }


def run_once(engine, cycles):
    running = build(engine)
    monitor = RateMonitor().attach(running.simulation)
    running.simulation.run_until(cycles)
    report = monitor.report()
    return {
        "measured_mhz": report.rate_mhz,
        "wall_seconds": report.wall_seconds,
        "rounds": report.rounds,
        "cycles": report.cycles,
    }, fingerprint(running)


def bench_engine(engine, cycles, repeat):
    """Warm up once, then return the best of ``repeat`` timed runs.

    Every repeat's fingerprint must be identical (same engine, same
    seeds — anything else is nondeterminism worth failing on).
    """
    _, reference = run_once(engine, cycles)  # warm-up, untimed
    best = None
    for index in range(repeat):
        sample, print_ = run_once(engine, cycles)
        if print_ != reference:
            print(
                f"bench_core: FAIL: {engine} repeat {index} fingerprint "
                "differs from its own warm-up run (nondeterminism)",
                file=sys.stderr,
            )
            raise SystemExit(1)
        if best is None or sample["measured_mhz"] > best["measured_mhz"]:
            best = sample
    return best, reference


# -- incast: columnar switch step vs scalar oracle ----------------------


def incast_macs():
    return [mac_address(index) for index in range(INCAST_PORTS)]


def build_incast_switch(macs):
    config = SwitchConfig(
        num_ports=INCAST_PORTS,
        min_latency_cycles=16,
        cycles_per_flit=1,
        buffer_flits=1 << 20,
    )
    return SwitchModel(
        "sw",
        config,
        mac_table={mac: index for index, mac in enumerate(macs)},
        default_port=None,  # unroutable frames drop
    )


def build_incast_traffic():
    """Precompute every input window once, outside all timed regions.

    Returns ``(windows, columnar_inputs, batch_inputs)`` where the two
    input lists describe the *same* traffic: per round, ports 0..6 send
    back-to-back 600-byte frames to port 7's MAC with every 16th frame
    addressed to an unknown MAC (dropped — ``default_port=None``), and
    port 7 is silent.  The columnar leg gets the windows as
    :class:`ColumnarBatch` (the representation the batched engine keeps
    switch traffic in); the scalar leg gets ``.to_batch()`` of the very
    same windows.
    """
    macs = incast_macs()
    unknown = mac_address(99)
    windows = []
    columnar_inputs = []
    batch_inputs = []
    for round_index in range(INCAST_ROUNDS):
        start = round_index * INCAST_WINDOW
        windows.append(TokenWindow(start, start + INCAST_WINDOW))
        columnar = {}
        batches = {}
        for port in range(INCAST_PORTS):
            rows = []
            if port < INCAST_PORTS - 1:
                cycle = start
                sent = 0
                while True:
                    if sent % INCAST_UNROUTABLE_EVERY == (
                        INCAST_UNROUTABLE_EVERY - 1
                    ):
                        dst = unknown
                    else:
                        dst = macs[-1]
                    frame = EthernetFrame(
                        src=macs[port], dst=dst,
                        size_bytes=INCAST_FRAME_BYTES,
                    )
                    if cycle + frame.flit_count > start + INCAST_WINDOW:
                        break
                    total = frame.flit_count
                    rows.append((frame, cycle, total, 0, total))
                    cycle += total
                    sent += 1
            # Stride 1: the sender paces one flit per cycle.
            cb = ColumnarBatch(start, INCAST_WINDOW, 1, rows)
            columnar[f"port{port}"] = cb
            batches[f"port{port}"] = cb.to_batch()
        columnar_inputs.append(columnar)
        batch_inputs.append(batches)
    return windows, columnar_inputs, batch_inputs


def drain_incast(model, next_start):
    """Feed all-empty windows until the switch queues run dry.

    The incast oversubscribes port 7 eight-to-one, so most accepted
    flits are still queued when the timed rounds end; draining folds
    the full queue state into the fingerprint.
    """
    outputs = []
    start = next_start
    for _ in range(INCAST_DRAIN_ROUNDS):
        window = TokenWindow(start, start + INCAST_WINDOW)
        empty = {
            f"port{port}": TokenBatch(start, INCAST_WINDOW)
            for port in range(INCAST_PORTS)
        }
        outputs.append(model._tick(window, empty))
        start += INCAST_WINDOW
    if model.queued_packets():
        print(
            "bench_core: FAIL: incast queues not drained after "
            f"{INCAST_DRAIN_ROUNDS} empty windows — raise "
            "INCAST_DRAIN_ROUNDS",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return outputs


def incast_fingerprint(model, outputs):
    """Every observable artifact of an incast run, normalized.

    Output windows are flattened to ``(cycle, frame_id, last, index)``
    per flit so TokenBatch and ColumnarBatch outputs compare as
    values, not as container types; a port left out of a tick's
    outputs sent an empty window.
    """
    flits = []
    for window_outputs in outputs:
        for port in range(INCAST_PORTS):
            batch = window_outputs.get(f"port{port}")
            flits.append(
                [
                    (cycle, flit.data.frame_id, flit.last, flit.index)
                    for cycle, flit in sorted(batch.flits.items())
                ] if batch is not None else []
            )
    return {"flits": flits, "stats": repr(model.stats)}


def run_incast_scalar(windows, batch_inputs):
    model = build_incast_switch(incast_macs())
    outputs = []
    begin = perf_counter()
    for window, inputs in zip(windows, batch_inputs):
        outputs.append(model._tick(window, inputs))
    wall = perf_counter() - begin
    outputs.extend(drain_incast(model, windows[-1].end))
    return wall, incast_fingerprint(model, outputs)


def run_incast_columnar(windows, columnar_inputs):
    model = build_incast_switch(incast_macs())
    step = ColumnarSwitch(model).step
    outputs = []
    begin = perf_counter()
    for window, inputs in zip(windows, columnar_inputs):
        outputs.append(step(window, inputs))
    wall = perf_counter() - begin
    # The scalar drain below picks up the very queues the steps filled.
    outputs.extend(drain_incast(model, windows[-1].end))
    return wall, incast_fingerprint(model, outputs)


def bench_incast(repeat):
    """Best-of-``repeat`` walls for both incast legs, plus equivalence.

    Traffic is precomputed once; each repeat rebuilds the switch so no
    state leaks between runs, and every repeat's fingerprint must match
    the leg's warm-up run (and the two legs must match each other).
    """
    windows, columnar_inputs, batch_inputs = build_incast_traffic()
    frames_per_round = sum(
        len(cb.rows) for cb in columnar_inputs[0].values()
    )

    def best_of(runner, *args):
        _, reference = runner(*args)  # warm-up, untimed
        best = None
        for index in range(repeat):
            wall, print_ = runner(*args)
            if print_ != reference:
                print(
                    f"bench_core: FAIL: incast repeat {index} fingerprint "
                    "differs from its own warm-up run (nondeterminism)",
                    file=sys.stderr,
                )
                raise SystemExit(1)
            if best is None or wall < best:
                best = wall
        return best, reference

    scalar_wall, scalar_print = best_of(
        run_incast_scalar, windows, batch_inputs
    )
    columnar_wall, columnar_print = best_of(
        run_incast_columnar, windows, columnar_inputs
    )
    if scalar_print != columnar_print:
        for key in scalar_print:
            if scalar_print[key] != columnar_print[key]:
                print(
                    f"bench_core: FAIL: incast legs diverge on {key!r}",
                    file=sys.stderr,
                )
        raise SystemExit(1)
    speedup = scalar_wall / columnar_wall if columnar_wall > 0 else 0.0
    section = {
        "ports": INCAST_PORTS,
        "window_cycles": INCAST_WINDOW,
        "rounds": INCAST_ROUNDS,
        "frames_per_round": frames_per_round,
        "frame_bytes": INCAST_FRAME_BYTES,
        "unroutable_every": INCAST_UNROUTABLE_EVERY,
        "repeat": repeat,
        "scalar": {"wall_seconds": scalar_wall},
        "columnar": {"wall_seconds": columnar_wall},
        "stats": scalar_print["stats"],
    }
    return section, speedup


# -- parity matrix: scalar vs batched across topologies x quanta --------


def run_parity_case(topo_key, quantum_override, engine):
    root = PARITY_TOPOLOGIES[topo_key]()
    running = elaborate(
        root,
        RunFarmConfig(
            link_latency_cycles=PARITY_LINK_LATENCY_CYCLES, engine=engine
        ),
    )
    if quantum_override is not None:
        running.simulation.quantum_override = quantum_override
    blades = running.blades
    last = max(blades)
    blades[0].spawn(
        "ping",
        make_ping_client(blades[last].mac, count=4, interval_cycles=50_000),
    )
    running.simulation.run_until(PARITY_CYCLES)
    return fingerprint(running)


def bench_parity():
    """Scalar vs batched fingerprint equality per (topology, quantum)."""
    matrix = {}
    ok = True
    for topo_key in sorted(PARITY_TOPOLOGIES):
        for quantum in PARITY_QUANTA:
            label = (
                f"{topo_key}@q={'default' if quantum is None else quantum}"
            )
            scalar = run_parity_case(topo_key, quantum, "scalar")
            batched = run_parity_case(topo_key, quantum, "batched")
            equal = scalar == batched
            matrix[label] = equal
            status = "ok" if equal else "DIVERGED"
            print(f"parity:  {label}: {status}")
            if not equal:
                ok = False
                for key in scalar:
                    if scalar[key] != batched[key]:
                        print(
                            f"bench_core: FAIL: {label} diverges on "
                            f"{key!r}:\n  scalar:  {scalar[key]!r}\n"
                            f"  batched: {batched[key]!r}",
                            file=sys.stderr,
                        )
    section = {
        "cycles": PARITY_CYCLES,
        "link_latency_cycles": PARITY_LINK_LATENCY_CYCLES,
        "quanta": ["default" if q is None else q for q in PARITY_QUANTA],
        "matrix": matrix,
    }
    return section, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=2_000_000)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repeats per engine (best is kept)")
    parser.add_argument("--out", default="BENCH_core.json")
    parser.add_argument("--quick", action="store_true",
                        help="shrink the Figure-8 run for CI smoke (the "
                             "incast and parity sections are already "
                             "seconds-scale and run at full size)")
    args = parser.parse_args(argv)
    cycles = 400_000 if args.quick else args.cycles

    scalar, scalar_print = bench_engine("scalar", cycles, args.repeat)
    print(
        f"scalar:  {scalar['measured_mhz']:.3f} MHz "
        f"({scalar['rounds']} rounds, best of {args.repeat})"
    )
    batched, batched_print = bench_engine("batched", cycles, args.repeat)
    print(
        f"batched: {batched['measured_mhz']:.3f} MHz "
        f"({batched['rounds']} rounds, best of {args.repeat})"
    )

    if batched_print != scalar_print:
        for key in scalar_print:
            if scalar_print[key] != batched_print[key]:
                print(
                    f"bench_core: FAIL: engines diverge on {key!r}:\n"
                    f"  scalar:  {scalar_print[key]!r}\n"
                    f"  batched: {batched_print[key]!r}",
                    file=sys.stderr,
                )
        return 1

    batched_over_scalar = (
        batched["measured_mhz"] / scalar["measured_mhz"]
        if scalar["measured_mhz"] > 0
        else 0.0
    )
    print(f"speedup: {batched_over_scalar:.2f}x batched over scalar")

    incast, columnar_over_scalar = bench_incast(args.repeat)
    print(
        f"incast:  scalar {incast['scalar']['wall_seconds'] * 1e3:.1f} ms, "
        f"columnar {incast['columnar']['wall_seconds'] * 1e3:.1f} ms "
        f"-> {columnar_over_scalar:.1f}x columnar over scalar"
    )

    parity, parity_ok = bench_parity()
    if not parity_ok:
        return 1

    document = {
        "schema": "repro.bench.core/v2",
        "topology": {
            "kind": "two_tier",
            "racks": RACKS,
            "servers_per_rack": SERVERS_PER_RACK,
            "nodes": RACKS * SERVERS_PER_RACK,
        },
        "link_latency_cycles": LINK_LATENCY_CYCLES,
        "cycles": cycles,
        "repeat": args.repeat,
        "quick": bool(args.quick),
        "host_cpu_count": os.cpu_count(),
        "scalar": scalar,
        "batched": batched,
        "incast": incast,
        "parity": parity,
        "speedup": {
            "batched_over_scalar": batched_over_scalar,
            "columnar_over_scalar": columnar_over_scalar,
        },
        "note": (
            "measured rates are host-dependent; the regression gate "
            "compares only the speedup.* ratios, which are not, and "
            "holds them to absolute floors.  Both engines produced "
            "bit-identical fingerprints on the Figure-8 run, the incast "
            "legs matched flit-for-flit through a full drain, and every "
            "parity.matrix entry is scalar==batched across topologies "
            "and quanta — or this file would not exist."
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
