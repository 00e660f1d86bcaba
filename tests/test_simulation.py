"""Global orchestration and the cycle-exactness contract (§III-B2)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.fame import Fame1Model, NullModel
from repro.core.simulation import ENGINES, Simulation
from repro.core.token import TokenBatch
from repro.net.ethernet import EthernetFrame, mac_address
from repro.net.switch import SwitchConfig, SwitchModel


class OneShotSender(Fame1Model):
    """Emits one frame's flits starting at a chosen cycle."""

    def __init__(self, name, frame, at_cycle):
        super().__init__(name, ["net"])
        self.frame = frame
        self.at_cycle = at_cycle
        self.sent = False

    def _tick(self, window, inputs):
        out = TokenBatch(window.start, window.length)
        if not self.sent and window.start <= self.at_cycle < window.end:
            for index, flit in enumerate(self.frame.to_flits()):
                out.add(self.at_cycle + index, flit)
            self.sent = True
        return {"net": out}


class ArrivalRecorder(Fame1Model):
    def __init__(self, name):
        super().__init__(name, ["net"])
        self.last_flit_cycles = []

    def _tick(self, window, inputs):
        for cycle, flit in inputs["net"].iter_flits():
            if flit.last:
                self.last_flit_cycles.append(cycle)
        return {"net": TokenBatch(window.start, window.length)}


def _switched_pair(link_latency, switching_latency, at_cycle, frame_bytes=64):
    sim = Simulation()
    frame = EthernetFrame(
        src=mac_address(0), dst=mac_address(1), size_bytes=frame_bytes
    )
    sender = sim.add_model(OneShotSender("A", frame, at_cycle))
    receiver = sim.add_model(ArrivalRecorder("B"))
    switch = sim.add_model(
        SwitchModel(
            "tor",
            SwitchConfig(num_ports=2, min_latency_cycles=switching_latency),
            mac_table={mac_address(1): 1},
        )
    )
    sim.connect(sender, "net", switch, "port0", link_latency)
    sim.connect(switch, "port1", receiver, "net", link_latency)
    return sim, frame, receiver


class TestDeliveryFormula:
    """The paper's Section III-B2 walk-through: a packet sent at cycle m
    through a switch with port-to-port latency n arrives at 2l + m + n."""

    def test_min_frame_arrives_at_2l_plus_m_plus_n_shifted_by_length(self):
        l, n, m = 100, 10, 37
        sim, frame, receiver = _switched_pair(l, n, m, frame_bytes=64)
        sim.run_cycles(6 * l)
        flits = frame.flit_count  # 8 for a minimum Ethernet frame
        # First flit of the packet reaches B's NIC at 2l + m + n (the
        # paper's walk-through); the last flit follows flit-count - 1
        # cycles later on each serialization.
        first_flit_arrival = 2 * l + m + n + (flits - 1)
        expected_last = first_flit_arrival + (flits - 1)
        assert receiver.last_flit_cycles == [expected_last]

    @settings(max_examples=25, deadline=None)
    @given(
        l=st.integers(min_value=32, max_value=512),
        n=st.integers(min_value=0, max_value=32),
        m=st.integers(min_value=0, max_value=200),
        flits=st.integers(min_value=8, max_value=32),
    )
    def test_formula_holds_for_any_latency_and_size(self, l, n, m, flits):
        # The one-shot sender emits within a single window.
        assume(m + flits <= l)
        sim, frame, receiver = _switched_pair(l, n, m, frame_bytes=flits * 8)
        sim.run_cycles(m + 4 * l + n + flits * 2 + 4 * l)
        # Last flit leaves A at m+flits-1, is timestamped at arrival+n,
        # and the store-and-forward egress serializes flits at link rate.
        expected = (m + flits - 1 + l + n) + (flits - 1) + l
        assert receiver.last_flit_cycles == [expected]


class TestOrchestration:
    def test_quantum_is_min_link_latency(self):
        sim = Simulation()
        a, b = NullModel("a", ["x", "y"]), NullModel("b", ["x", "y"])
        sim.add_model(a)
        sim.add_model(b)
        sim.connect(a, "x", b, "x", 64)
        sim.connect(a, "y", b, "y", 256)
        assert sim.quantum == 64

    def test_unconnected_port_refuses_to_start(self):
        sim = Simulation()
        a = sim.add_model(NullModel("a", ["x", "y"]))
        b = sim.add_model(NullModel("b", ["x", "y"]))
        sim.connect(a, "x", b, "x", 8)
        with pytest.raises(RuntimeError, match="not connected"):
            sim.run_cycles(8)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_link_to_a_model_never_added_refuses_to_start(self, engine):
        sim = Simulation(engine=engine)
        a = sim.add_model(NullModel("a", ["x"]))
        sim.connect(a, "x", NullModel("b", ["x"]), "x", 100)
        with pytest.raises(RuntimeError, match=r"'x' on link 'a\.x<->b\.x'"):
            sim.run_until(1000)
        assert sim.current_cycle == 0

    def test_double_connect_rejected(self):
        sim = Simulation()
        a = sim.add_model(NullModel("a", ["x"]))
        b = sim.add_model(NullModel("b", ["x"]))
        sim.connect(a, "x", b, "x", 8)
        c = sim.add_model(NullModel("c", ["x"]))
        with pytest.raises(ValueError, match="already connected"):
            sim.connect(a, "x", c, "x", 8)

    def test_unknown_port_rejected(self):
        sim = Simulation()
        a = sim.add_model(NullModel("a", ["x"]))
        b = sim.add_model(NullModel("b", ["x"]))
        with pytest.raises(ValueError, match="no port"):
            sim.connect(a, "nope", b, "x", 8)

    def test_duplicate_model_rejected(self):
        sim = Simulation()
        a = sim.add_model(NullModel("a", ["x"]))
        with pytest.raises(ValueError):
            sim.add_model(a)

    def test_runs_whole_quanta(self):
        sim = Simulation()
        a = sim.add_model(NullModel("a", ["x"]))
        b = sim.add_model(NullModel("b", ["x"]))
        sim.connect(a, "x", b, "x", 100)
        sim.run_cycles(150)
        assert sim.current_cycle == 200  # rounded up to whole quanta

    def test_stats_count_tokens(self):
        sim = Simulation()
        a = sim.add_model(NullModel("a", ["x"]))
        b = sim.add_model(NullModel("b", ["x"]))
        sim.connect(a, "x", b, "x", 10)
        sim.run_cycles(50)
        assert sim.stats.rounds == 5
        # Two models each push 10 tokens per round.
        assert sim.stats.tokens_moved == 5 * 2 * 10
        assert sim.stats.utilization == 0.0

    def test_cannot_modify_after_start(self):
        sim = Simulation()
        a = sim.add_model(NullModel("a", ["x"]))
        b = sim.add_model(NullModel("b", ["x"]))
        sim.connect(a, "x", b, "x", 10)
        sim.run_cycles(10)
        with pytest.raises(RuntimeError):
            sim.add_model(NullModel("c", ["x"]))

    def test_run_seconds_uses_clock(self):
        sim = Simulation()
        a = sim.add_model(NullModel("a", ["x"]))
        b = sim.add_model(NullModel("b", ["x"]))
        sim.connect(a, "x", b, "x", 6400)
        sim.run_seconds(2e-6)
        assert sim.current_cycle == 6400
        assert sim.current_time_s == pytest.approx(2e-6)


class TestDeterminism:
    def test_identical_configs_produce_identical_arrivals(self):
        results = []
        for _ in range(2):
            sim, _, receiver = _switched_pair(64, 10, 7, frame_bytes=256)
            sim.run_cycles(600)
            results.append(tuple(receiver.last_flit_cycles))
        assert results[0] == results[1]


class TestSnapshotResume:
    """Quantum-boundary checkpoint/restore keeps the run cycle-exact."""

    def test_resumed_run_matches_uninterrupted_cycle_for_cycle(self):
        from repro.faults.checkpoint import SimulationSnapshot

        # Uninterrupted reference run.
        sim, _, receiver = _switched_pair(64, 10, 7, frame_bytes=256)
        sim.run_cycles(600)
        reference = list(receiver.last_flit_cycles)
        reference_stats = (
            sim.stats.rounds, sim.stats.tokens_moved,
            sim.stats.valid_tokens_moved,
        )

        # Crash after 128 cycles, restore, and resume.
        sim, _, _ = _switched_pair(64, 10, 7, frame_bytes=256)
        sim.run_cycles(128)
        snapshot = SimulationSnapshot.capture(sim)
        sim.run_cycles(256)  # "lost" progress past the checkpoint
        snapshot.restore(sim)
        assert sim.current_cycle == 128
        sim.run_cycles(600 - 128)
        resumed_receiver = next(m for m in sim.models if m.name == "B")
        assert resumed_receiver.last_flit_cycles == reference
        assert (
            sim.stats.rounds, sim.stats.tokens_moved,
            sim.stats.valid_tokens_moved,
        ) == reference_stats

    def test_fault_hook_sees_round_starts_and_model_ticks(self):
        sim, _, _ = _switched_pair(64, 10, 7)
        calls = []
        sim.fault_hook = lambda cycle, model: calls.append(
            (cycle, None if model is None else model.name)
        )
        sim.run_cycles(128)  # two 64-cycle rounds
        assert calls[0] == (0, None)  # round start
        assert [name for _, name in calls[:4]] == [None, "A", "B", "tor"]
        assert calls[4] == (64, None)
        assert len(calls) == 8
