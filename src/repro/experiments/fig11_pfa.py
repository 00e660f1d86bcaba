"""Figure 11: hardware-accelerated vs. software paging (Section VI).

The Page-Fault Accelerator case study runs two benchmarks tuned to a
64 MiB peak footprint — Genome (random hash-table accesses; thrashes)
and Qsort (good locality; pages gracefully) — against remote memory
served by a memory-blade, sweeping the local memory size.

Expected results:

* the PFA significantly reduces paging overhead, by up to ~1.4x;
* the number of evicted pages is identical under both backends (same
  replacement policy — the PFA only moves the fault path to hardware);
* metadata-management time per page is ~2.5x lower with the PFA
  (batched newQ draining has better cache locality).

The sweep pages against :class:`~repro.pfa.remote.AnalyticRemoteMemory`.
Every run also performs one page GET from a token-exact memory blade
(:mod:`repro.pfa.memblade`) and reports it beside the analytic latency,
so the closed form the sweep relies on is checked against the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

from repro.core.simulation import Simulation
from repro.experiments.common import Table
from repro.pfa.memblade import MemoryBladeClient, attach_memory_blade_server
from repro.pfa.pfa import PageFaultAccelerator, SoftwarePaging
from repro.pfa.remote import AnalyticRemoteMemory, RemoteMemoryParams
from repro.pfa.runtime import PagedExecutor, run_trace_all_local
from repro.pfa.workloads import (
    WorkloadConfig,
    genome_trace,
    local_memory_sweep,
    qsort_trace,
)
from repro.swmodel.server import ServerBlade

DEFAULT_FRACTIONS = (0.125, 0.25, 0.5, 0.75)


@dataclass
class PfaPoint:
    workload: str
    local_fraction: float
    sw_slowdown: float
    pfa_slowdown: float
    runtime_ratio: float  # sw runtime / pfa runtime
    metadata_ratio: float  # per-page metadata time, sw / pfa
    evictions_equal: bool
    faults: int


@dataclass
class Fig11Result:
    points: List[PfaPoint]
    #: One page fetch, in target cycles: measured on the memory blade,
    #: and the analytic latency the sweep charges.
    memblade_fetch_cycles: int
    analytic_fetch_cycles: int

    def best_improvement(self, workload: str) -> float:
        return max(
            p.runtime_ratio for p in self.points if p.workload == workload
        )

    def table(self) -> Table:
        table = Table(
            "Figure 11: PFA vs software paging "
            "(paper: PFA reduces overhead by up to 1.4x; metadata time "
            "2.5x lower; evicted pages identical)",
            [
                "workload",
                "local mem",
                "sw slowdown",
                "PFA slowdown",
                "sw/PFA runtime",
                "metadata ratio",
                "evictions equal",
            ],
        )
        for p in self.points:
            table.add_row(
                p.workload,
                f"{p.local_fraction:.1%}",
                round(p.sw_slowdown, 2),
                round(p.pfa_slowdown, 2),
                round(p.runtime_ratio, 2),
                round(p.metadata_ratio, 2),
                p.evictions_equal,
            )
        table.notes.append(
            f"memblade GET (point-to-point): measured "
            f"{self.memblade_fetch_cycles} cycles, analytic "
            f"{self.analytic_fetch_cycles} cycles "
            f"({self.memblade_fetch_cycles / self.analytic_fetch_cycles:.3f}x)"
        )
        return table


#: Per-workload trace configurations (see repro.pfa.workloads).
WORKLOADS: dict[str, Tuple[Callable[..., Iterable], WorkloadConfig]] = {
    "genome": (genome_trace, WorkloadConfig(steps=60_000)),
    "qsort": (
        qsort_trace,
        WorkloadConfig(
            footprint_bytes=16 * 1024 * 1024, compute_per_step_cycles=16_000
        ),
    ),
}


def run(
    fractions: Sequence[float] = DEFAULT_FRACTIONS, quick: bool = False
) -> Fig11Result:
    """The full Figure 11 sweep: both workloads x local-memory sizes."""
    points = []
    for workload, (trace_fn, config) in WORKLOADS.items():
        if quick:
            config = WorkloadConfig(
                footprint_bytes=config.footprint_bytes // 4,
                steps=config.steps // 4,
                compute_per_step_cycles=config.compute_per_step_cycles,
            )
        for fraction, pages in local_memory_sweep(
            tuple(fractions), config.footprint_bytes
        ):
            points.append(
                _run_with(workload, trace_fn, config, fraction, pages)
            )
    return Fig11Result(points, *memblade_fetch())


def memblade_fetch() -> Tuple[int, int]:
    """One page GET from a memory blade: ``(measured, analytic)`` cycles.

    The compute node and the memory blade share one link, as in
    :class:`RemoteMemoryParams`' defaults (``hops = 0``), and the blade
    server takes the params' processing time.  The measured latency runs
    the custom protocol through both NICs over the token-exact link.
    """
    params = RemoteMemoryParams()
    sim = Simulation()
    compute = sim.add_model(ServerBlade("compute", node_index=0))
    memblade = sim.add_model(ServerBlade("memblade", node_index=1))
    sim.connect(compute, "net", memblade, "net", params.link_latency_cycles)
    attach_memory_blade_server(memblade, params.server_request_cycles)
    arrivals: List[int] = []
    MemoryBladeClient(compute, memblade.mac).get_page(
        0, 1, lambda cycle, _page: arrivals.append(cycle)
    )
    sim.run_seconds(0.0005)
    return arrivals[0], AnalyticRemoteMemory(params).fetch_latency_cycles()


def _run_with(
    workload: str,
    trace_fn: Callable[..., Iterable],
    config: WorkloadConfig,
    fraction: float,
    pages: int,
) -> PfaPoint:
    baseline = run_trace_all_local(trace_fn(config))
    sw = PagedExecutor(SoftwarePaging(AnalyticRemoteMemory()), pages).run(
        trace_fn(config)
    )
    pfa = PagedExecutor(
        PageFaultAccelerator(AnalyticRemoteMemory()), pages
    ).run(trace_fn(config))
    sw_md = sw.metadata_cycles / max(sw.faults, 1)
    pfa_md = pfa.metadata_cycles / max(pfa.faults, 1)
    return PfaPoint(
        workload=workload,
        local_fraction=fraction,
        sw_slowdown=sw.slowdown_vs(baseline),
        pfa_slowdown=pfa.slowdown_vs(baseline),
        runtime_ratio=sw.total_cycles / pfa.total_cycles,
        metadata_ratio=sw_md / max(pfa_md, 1e-9),
        evictions_equal=sw.evictions == pfa.evictions,
        faults=sw.faults,
    )


if __name__ == "__main__":  # pragma: no cover - manual run
    print(run(quick=True).table())
