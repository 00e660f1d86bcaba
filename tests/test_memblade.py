"""Memory blade integration (repro.pfa.memblade): the remote-memory
protocol exercised end-to-end over the cycle-exact token network,
validating the analytic latency model's structure."""

import pytest

from repro.core.simulation import Simulation
from repro.experiments import fig11_pfa
from repro.pfa.memblade import (
    MemoryBladeClient,
    attach_memory_blade_server,
)
from repro.swmodel.server import ServerBlade


def point_to_point():
    """Compute node directly linked to the memory blade (hops=0)."""
    sim = Simulation()
    compute = sim.add_model(ServerBlade("compute", node_index=0))
    memblade = sim.add_model(ServerBlade("memblade", node_index=1))
    sim.connect(compute, "net", memblade, "net", 6400)
    return sim, compute, memblade


class TestMemoryBlade:
    def test_get_page_round_trip(self):
        sim, compute, memblade = point_to_point()
        stats = attach_memory_blade_server(memblade)
        client = MemoryBladeClient(compute, memblade.mac)
        arrivals = []
        client.get_page(0, page=42, on_done=lambda cy, p: arrivals.append((cy, p)))
        sim.run_seconds(0.0005)
        assert arrivals and arrivals[0][1] == 42
        assert stats.gets == 1

    def test_measured_fetch_latency_matches_analytic_model(self):
        """The closed form the Figure 11 sweep pages with must agree with
        the token-exact network within NIC-pipeline tolerance."""
        measured, analytic = fig11_pfa.memblade_fetch()
        assert measured == pytest.approx(analytic, rel=0.15)

    def test_multiple_outstanding_gets(self):
        sim, compute, memblade = point_to_point()
        attach_memory_blade_server(memblade)
        client = MemoryBladeClient(compute, memblade.mac)
        done = []
        for page in range(4):
            client.get_page(0, page, lambda cy, p: done.append(p))
        sim.run_seconds(0.001)
        assert sorted(done) == [0, 1, 2, 3]
