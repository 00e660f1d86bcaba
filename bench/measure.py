"""Measure one workload: repeats, medians, verification, layer metrics.

Runs inside the workload's own child process (see :mod:`bench.procs`).
One call of :func:`measure` does a discarded warm-up repeat, then timed
repeats for ``seconds`` seconds (at least :data:`MIN_REPEATS`), each
from a fresh ``elaborate()``.  End-to-end metrics are medians over the
*untraced* repeats only.  With ``trace`` set, half the time goes to
untraced repeats (the baseline for ``trace.overhead_ratio``) and half to
repeats under :func:`bench.trace.install_layers`; per-layer metrics are
medians over those traced repeats and are never used end to end.

The host this runs on is a shared VM whose speed moves by tens of
percent for seconds to minutes at a time, which no statistic over
repeats removes.  So a fixed calibration kernel (:func:`kernel_seconds`)
runs before and after every repeat, and every reported time is scaled
to the host speed at which that kernel takes :data:`NOMINAL_KERNEL_S`:
``reported = measured * NOMINAL_KERNEL_S / kernel seconds around the
repeat`` (rates are divided instead).  On a quiet host of this kind the
factor is ~1; the raw medians and the factor are kept in the detail.
The kernel is part of the benchmark, so a change to the program cannot
move it, and a slower program still reads slower.

Every repeat's simulated output is compared field by field with the
reference fingerprint: ``golden.json`` for seed 1 at full size, an
untimed scalar-engine oracle run otherwise.  A mismatch, or a process
the repeat left behind, fails every operation of that repeat.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import resource
import statistics
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from bench import OUT, ROOT, procs
from bench.trace import (
    Tracer,
    install_layers,
    merge_aggregates,
    read_worker_dumps,
)
from bench.workloads import (
    SERVE_CLIENTS,
    WORKLOADS,
    Sample,
    Workload,
    digest,
)

MIN_REPEATS = 3
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

#: Counts that are a function of the generated inputs alone.  They must
#: repeat exactly, so a later change may claim on them as counts.
DETERMINISTIC_COUNTS = (
    "core.rounds", "core.tokens_moved", "core.events_scheduled",
    "perf.switch_packets", "nic.flits", "dist.exchange_rounds",
)


#: What :func:`kernel_seconds` returns on this host when it is quiet.
NOMINAL_KERNEL_S = 0.048
TIME_UNITS = ("s", "ms", "us", "ns")
RATE_UNITS = ("MHz",)


def kernel_seconds() -> float:
    """Host seconds of a fixed mix of interpreter and numpy work.

    Heap, dict and small-array operations in roughly the proportions of
    the simulator's round loop; about 50 ms, short enough to run around
    every repeat and long enough to average over scheduler ticks.
    """
    start = perf_counter()
    heap: List[int] = []
    table: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(150_000):
        push(heap, (i * 7919) % 10007)
        table[i & 1023] = i
        if i & 3 == 0:
            pop(heap)
    column = np.arange(4096, dtype=np.int64)
    for _ in range(250):
        column = (column * 3 + 1) % 8191
        column.sort()
    return perf_counter() - start


def to_nominal(value: float, unit: str, speed: float) -> float:
    """Scale one measured value to the nominal host speed."""
    if unit in TIME_UNITS:
        return value * speed
    if unit in RATE_UNITS:
        return value / speed
    return value


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one list of workloads, metrics and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) >= 2:
        # "inclusive" keeps the quartiles inside the data for the small
        # sample counts a single run has.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _normal(value: Any) -> Any:
    """A fingerprint as it looks after a trip through JSON."""
    return json.loads(json.dumps(value))


def mismatched_fields(observed: Dict[str, Any],
                      reference: Dict[str, Any]) -> List[str]:
    observed, reference = _normal(observed), _normal(reference)
    return sorted(
        key for key in set(observed) | set(reference)
        if observed.get(key) != reference.get(key)
    )


def reference_fingerprint(workload: Workload, inputs: Dict[str, Any],
                          seed: int, quick: bool,
                          golden_path: str = GOLDEN_PATH) -> Dict[str, Any]:
    if seed == 1 and not quick:
        golden = load_golden(golden_path)[workload.name]
        if golden["inputs_sha256"] != digest(inputs):
            raise ValueError(
                f"golden.json holds {workload.name} for other inputs than "
                "seed 1 generates now; run --regen-golden"
            )
        return golden["fingerprint"]
    return workload.oracle(inputs)


# -- repeats ---------------------------------------------------------------


def _one_repeat(workload: Workload, inputs: Dict[str, Any],
                traced: bool, leaks: List[str]
                ) -> Tuple[Sample, Optional[Dict[str, Any]]]:
    """One repeat; under tracing also its layer view (see below)."""
    gc.collect()
    tracer = worker_dir = None
    if traced:
        tracer = Tracer()
        if workload.in_process_spans:
            worker_dir = str(OUT / f"workers_{workload.name}")
            os.makedirs(worker_dir, exist_ok=True)
            install_layers(tracer, worker_dir)
    try:
        sample = workload.repeat(inputs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stragglers = procs.own_stragglers()
    if stragglers:
        procs.kill_pids(stragglers)
        leaks.extend(f"{pid} {cmd}" for pid, cmd in sorted(stragglers.items()))
        sample.leaked = True
    view = None
    if tracer is not None:
        workers = read_worker_dumps(worker_dir) if worker_dir else []
        view = {"tracer": tracer.to_dict(), "workers": workers}
    return sample, view


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False, golden_path: str = GOLDEN_PATH
            ) -> Dict[str, Any]:
    """Everything one run reports; see the module docstring."""
    spec = load_spec()
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, quick)
    leaks: List[str] = []
    _one_repeat(workload, inputs, False, leaks)  # warm-up, discarded
    kernel = [kernel_seconds()]

    def repeat(traced: bool) -> Tuple[Sample, Optional[Dict[str, Any]], float]:
        """One repeat and the host-speed factor that held around it."""
        sample, view = _one_repeat(workload, inputs, traced, leaks)
        before, after = kernel[0], kernel_seconds()
        kernel[0] = after
        return sample, view, 2 * NOMINAL_KERNEL_S / (before + after)

    untraced: List[Sample] = []
    speeds: List[float] = []
    deadline = perf_counter() + (seconds / 2 if trace else seconds)
    while len(untraced) < MIN_REPEATS or perf_counter() < deadline:
        sample, _, speed = repeat(False)
        untraced.append(sample)
        speeds.append(speed)
    # High-water marks, read before the traced repeats and the scalar
    # oracle can raise them.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (own + children) / 1024.0

    traced: List[Tuple[Sample, Dict[str, Any], float]] = []
    if trace:
        deadline = perf_counter() + seconds / 2
        while not traced or perf_counter() < deadline:
            traced.append(repeat(True))

    reference = reference_fingerprint(workload, inputs, seed, quick,
                                      golden_path)
    attempted, failed, mismatches = verify(
        name, untraced + [row[0] for row in traced], reference
    )
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    detail: Dict[str, Any] = {
        "repeats": len(untraced),
        "traced_repeats": len(traced),
        "leaked_processes": leaks,
        "inputs_sha256": digest(inputs),
    }
    error = workload.paper_error_pct(reference)
    detail["paper_error_pct"] = "unvalidated" if error is None else error
    detail.update(end_to_end_detail(untraced, speeds, peak_rss_mb, units))
    table, wanted = detail["end_to_end"], spec["end_to_end"]
    if trace:
        detail.update(per_layer_detail(
            traced, units, detail["end_to_end"]["wall_s"]["median"]
        ))
        table, wanted = detail["per_layer"], spec["per_layer"]
        if not detail["counts_repeat_exactly"]:
            mismatches.append(f"{name}: counts differ between repeats")
        if seed == 1 and not quick:
            golden_counts = load_golden(golden_path)[name]["counts"]
            mismatches += [
                f"{name}: count {key}"
                for key, value in sorted(golden_counts.items())
                if table[key]["median"] != value
            ]
        write_trace_file(name, traced[-1][1], table)
    detail["mismatches"] = mismatches
    detail["fingerprint_ok"] = int(not mismatches)
    detail["fail_share"] = failed / attempted if attempted else 1.0
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick,
        "correct": not mismatches and not leaks and failed == 0,
        "attempted": attempted,
        "failed": failed,
        # A KeyError here means BENCHMARK.json lists a metric that
        # nothing measures.
        "metrics": {
            m["name"]: {"value": table[m["name"]]["median"],
                        "unit": m["unit"]}
            for m in wanted
        },
        "detail": detail,
    }


def verify(name: str, samples: List[Sample], reference: Dict[str, Any]
           ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, mismatched fields)`` over all repeats."""
    attempted = failed = 0
    mismatches: List[str] = []
    for sample in samples:
        fields = mismatched_fields(sample.fingerprint, reference)
        attempted += reference["ops"]
        if fields or sample.leaked:
            failed += reference["ops"]
            mismatches.extend(f"{name}: {field}" for field in fields)
        else:
            failed += min(sample.ops_failed, reference["ops"])
    return attempted, failed, sorted(set(mismatches))


def end_to_end_detail(samples: List[Sample], speeds: List[float],
                      peak_rss_mb: float, units: Dict[str, str]
                      ) -> Dict[str, Any]:
    """End-to-end quartiles at nominal host speed, raw medians beside."""
    raw = {
        "wall_s": [s.wall_s for s in samples],
        "sim_rate_mhz": [s.cycles / s.run_s / 1e6 for s in samples],
        "crit_path_mhz": [s.cycles / s.cpu_s / 1e6 for s in samples],
        "setup_s": [s.setup_s for s in samples],
    }
    nominal = {
        key: [to_nominal(value, units[key], speed)
              for value, speed in zip(column, speeds)]
        for key, column in raw.items()
    }
    nominal["peak_rss_mb"] = [peak_rss_mb]
    return {
        "end_to_end": {k: quartiles(v) for k, v in nominal.items()},
        "raw_medians": {k: statistics.median(v) for k, v in raw.items()},
        "host_speed_factor": quartiles(speeds),
    }


def per_layer_detail(traced: List[Tuple[Sample, Dict[str, Any], float]],
                     units: Dict[str, str], baseline_wall: float
                     ) -> Dict[str, Any]:
    """Per-layer quartiles over the traced repeats, at nominal speed."""
    rows = []
    for sample, view, speed in traced:
        row = layer_metrics(sample, view)
        traced_wall = row.pop("trace.wall_s")
        row = {k: to_nominal(v, units[k], speed) for k, v in row.items()}
        row["trace.overhead_ratio"] = (
            to_nominal(traced_wall, "s", speed) / baseline_wall
        )
        rows.append(row)
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    return {
        "per_layer": {k: quartiles(v) for k, v in columns.items()},
        "counts_repeat_exactly": all(
            len(set(columns[key])) == 1 for key in DETERMINISTIC_COUNTS
        ),
    }


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(sample: Sample, view: Dict[str, Any]) -> Dict[str, float]:
    """All per-layer metrics of one traced repeat, as measured; 0 where a
    layer did not run in this workload.  ``trace.wall_s`` is the traced
    wall clock the caller turns into ``trace.overhead_ratio``."""
    parent = view["tracer"]
    # Simulation layers run in the parent for serial workloads and in
    # the forked workers for distributed ones; either way they are one
    # layer, so their spans are summed across processes.
    merged = merge_aggregates([parent] + view["workers"])
    names = merged["names"]

    def self_s(prefix: str, source: Dict[str, Any] = names) -> float:
        return sum(r["self_s"] for n, r in source.items()
                   if n.startswith(prefix))

    def total_s(name: str) -> float:
        return names.get(name, {}).get("total_s", 0.0)

    def calls(prefix: str) -> float:
        return sum(r["count"] for n, r in names.items()
                   if n.startswith(prefix))

    def per(seconds: float, count: float, scale: float) -> float:
        return seconds / count * scale if count else 0.0

    fp, extra = sample.fingerprint, sample.extra
    switch_packets = fp.get("switch_packets", 0)
    flits = fp.get("nic_flits", 0)
    out = {
        "core.rounds": fp.get("rounds", extra.get("rounds", 0)),
        "core.tokens_moved": fp.get("tokens_moved", 0),
        "core.link_s": self_s("core.link"),
        "core.link_windows": calls("core.link"),
        "core.events_s": self_s("core.events"),
        "core.events_scheduled": merged["counts"].get(
            "core.events_scheduled", 0),
        "perf.engine_self_s": self_s("perf.engine"),
        "perf.switch_s": self_s("perf.switch"),
        "perf.switch_packets": switch_packets,
        "perf.switch_ns_per_packet": per(
            self_s("perf.switch"), switch_packets, 1e9),
        "nic.tx_s": self_s("nic.tx"),
        "nic.rx_s": self_s("nic.rx"),
        "nic.flits": flits,
        "nic.ns_per_flit": per(self_s("nic."), flits, 1e9),
        "tile.mem_s": self_s("tile.mem"),
        "tile.mem_accesses": calls("tile.mem"),
        "swmodel.blade_self_s": self_s("swmodel.blade"),
    }
    out.update(_dist_layer(extra.get("dist"), view["workers"]))
    out["dist.exchange_rounds"] = fp.get(
        "exchange_rounds", extra.get("exchange_rounds", 0))
    out.update({
        "manager.import_s": extra.get("import_s", 0.0),
        "manager.parse_s": self_s("manager.parse"),
        "manager.buildafi_s": total_s("manager.buildafi"),
        "manager.launchrunfarm_s": total_s("manager.launchrunfarm"),
        "manager.infrasetup_s": total_s("manager.infrasetup"),
        "manager.runworkload_s": total_s("manager.runworkload"),
        "manager.terminate_s": total_s("manager.terminaterunfarm"),
        "manager.emit_s": self_s("manager.emit"),
    })
    out.update(_serve_layer(sample))
    wall = sample.wall_s + extra.get("startup_s", 0.0)
    attributed = self_s("", parent["names"]) + extra.get("startup_s", 0.0)
    if "stages" in extra:
        # Client lanes overlap, so one lane's share of the job stages
        # is what the wall clock saw.
        attributed = sum(
            sum(v) for v in extra["stages"].values()
        ) / SERVE_CLIENTS + sum(extra["submit_s"]) / SERVE_CLIENTS
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    return out


_DIST_KEYS = (
    "dist.compute_s", "dist.serialize_s", "dist.send_s", "dist.recv_wait_s",
    "dist.idle_s", "dist.transport_share", "dist.worker_cpu_s_max",
    "dist.fork_latency_s", "dist.spawn_join_s", "dist.frame_encode_us",
    "dist.frame_decode_us", "dist.frame_bytes",
)


def _dist_layer(dist: Optional[Dict[str, Any]],
                workers: List[Dict[str, Any]]) -> Dict[str, float]:
    """``dist.*`` from the program's own ``PhaseReport`` (mean per worker
    for phase seconds, so the five phases sum to one worker's loop) and
    from the frame probe each worker ran on its largest captured frame."""
    out = dict.fromkeys(_DIST_KEYS, 0.0)
    if dist is None:
        return out
    report, summary = dist["report"], dist["summary"]
    per_worker = list(report["per_worker"].values())

    def phase(*phases: str) -> float:
        return statistics.mean(
            sum(w["phase_seconds"][p] for p in phases) for w in per_worker
        )

    out.update({
        "dist.compute_s": phase("compute"),
        "dist.serialize_s": phase("coalesce", "serialize"),
        "dist.send_s": phase("send"),
        "dist.recv_wait_s": phase("recv_wait"),
        "dist.idle_s": phase("gap", "idle"),
        "dist.transport_share": report["reconciliation"]["transport_share"],
        "dist.worker_cpu_s_max": summary["worker_cpu_seconds_max"],
        "dist.fork_latency_s": max(
            w["clock"]["fork_latency_s"] for w in per_worker),
        "dist.spawn_join_s": summary["wall_seconds"] - max(
            w["wall_seconds"] for w in per_worker),
    })
    frames = [w["frame"] for w in workers if w.get("frame")]
    if frames:
        out["dist.frame_encode_us"] = statistics.mean(
            f["encode_us"] for f in frames)
        out["dist.frame_decode_us"] = statistics.mean(
            f["decode_us"] for f in frames)
        out["dist.frame_bytes"] = statistics.mean(f["bytes"] for f in frames)
    return out


def _serve_layer(sample: Sample) -> Dict[str, float]:
    extra = sample.extra
    stages = extra.get("stages")
    if not stages:
        return dict.fromkeys((
            "serve.submit_ms", "serve.queue_ms", "serve.run_ms",
            "serve.settle_ms", "serve.jobs_failed",
            "serve.job_latency_ms_p50", "serve.job_latency_ms_p90",
        ), 0.0)

    def median_ms(values: List[float]) -> float:
        return statistics.median(values) * 1e3 if values else 0.0

    latency = sorted(extra["latency_s"])
    return {
        "serve.submit_ms": median_ms(extra["submit_s"]),
        "serve.queue_ms": median_ms(stages["queue"]),
        "serve.run_ms": median_ms(stages["run"]),
        "serve.settle_ms": median_ms(stages["settle"]),
        "serve.jobs_failed": float(sample.ops_failed),
        "serve.job_latency_ms_p50": median_ms(latency),
        # Nearest-rank p90.
        "serve.job_latency_ms_p90":
            latency[max(0, -(-len(latency) * 9 // 10) - 1)] * 1e3,
    }


def write_trace_file(name: str, view: Dict[str, Any],
                     per_layer: Dict[str, Any]) -> str:
    """``bench/out/trace_<workload>.json`` for the last traced repeat."""
    os.makedirs(OUT, exist_ok=True)
    path = str(OUT / f"trace_{name}.json")
    document = {
        "workload": name,
        "per_layer": per_layer,
        "parent": view["tracer"],
        "workers": view["workers"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return path
