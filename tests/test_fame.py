"""FAME-1 model framework (repro.core.fame)."""

import pytest

from repro.core.fame import Fame1Model, Fame5Multiplexer, NullModel
from repro.core.simulation import Simulation
from repro.core.token import Flit, TokenBatch, TokenWindow


class Echo(Fame1Model):
    """Reflects input tokens to output with no delay (test helper)."""

    def _tick(self, window, inputs):
        out = TokenBatch(window.start, window.length)
        for cycle, flit in inputs[self.ports[0]].iter_flits():
            out.add(cycle, flit)
        return {self.ports[0]: out}


def _window_inputs(model, start, length):
    window = TokenWindow(start, start + length)
    inputs = {p: TokenBatch.empty(start, length) for p in model.ports}
    return window, inputs


class TestFame1Contract:
    def test_null_model_conserves_tokens(self):
        """A null sink leaves every port out — each sent an empty
        window — and the spec loop still moves a full window per port."""
        model = NullModel("null", ["a", "b"])
        window, inputs = _window_inputs(model, 0, 8)
        assert model.tick(window, inputs) == {}
        sim = Simulation()
        left = sim.add_model(NullModel("left", ["a", "b"]))
        right = sim.add_model(NullModel("right", ["a", "b"]))
        sim.connect(left, "a", right, "a", 8)
        sim.connect(left, "b", right, "b", 8)
        sim.run_until(64)
        assert sim.stats.tokens_moved == 4 * 64
        for link in sim.links:
            for endpoint in (link.to_a, link.to_b):
                assert endpoint.available_tokens == 8

    def test_window_must_resume_where_model_stopped(self):
        model = NullModel("null", ["a"])
        window, inputs = _window_inputs(model, 0, 8)
        model.tick(window, inputs)
        bad_window, bad_inputs = _window_inputs(model, 16, 8)
        with pytest.raises(ValueError):
            model.tick(bad_window, bad_inputs)

    def test_missing_input_port_rejected(self):
        model = NullModel("null", ["a", "b"])
        window = TokenWindow(0, 4)
        with pytest.raises(ValueError, match="missing"):
            model.tick(window, {"a": TokenBatch.empty(0, 4)})

    def test_extra_input_port_rejected(self):
        model = NullModel("null", ["a"])
        window = TokenWindow(0, 4)
        inputs = {
            "a": TokenBatch.empty(0, 4),
            "zz": TokenBatch.empty(0, 4),
        }
        with pytest.raises(ValueError, match="extra"):
            model.tick(window, inputs)

    def test_input_batch_must_cover_window(self):
        model = NullModel("null", ["a"])
        window = TokenWindow(0, 4)
        with pytest.raises(ValueError, match="cover"):
            model.tick(window, {"a": TokenBatch.empty(0, 8)})

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ValueError):
            NullModel("null", ["a", "a"])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            NullModel("", ["a"])

    def test_current_cycle_advances(self):
        model = NullModel("null", ["a"])
        window, inputs = _window_inputs(model, 0, 8)
        model.tick(window, inputs)
        assert model.current_cycle == 8


class TestFame5Multiplexer:
    def test_ports_are_prefixed_union(self):
        mux = Fame5Multiplexer(
            "mux", [NullModel("m0", ["net"]), NullModel("m1", ["net"])]
        )
        assert mux.ports == ["m0.net", "m1.net"]
        assert mux.multiplexing_factor == 2

    def test_children_see_their_own_tokens(self):
        echo0, echo1 = Echo("e0", ["net"]), Echo("e1", ["net"])
        mux = Fame5Multiplexer("mux", [echo0, echo1])
        window = TokenWindow(0, 8)
        in0 = TokenBatch(0, 8)
        in0.add(3, Flit("for-e0"))
        in1 = TokenBatch.empty(0, 8)
        outputs = mux.tick(window, {"e0.net": in0, "e1.net": in1})
        assert outputs["e0.net"].valid_count == 1
        assert outputs["e1.net"].valid_count == 0

    def test_matches_unmultiplexed_execution(self):
        """FAME-5 is functionally transparent (Section VIII)."""
        solo = Echo("solo", ["net"])
        muxed_child = Echo("solo", ["net"])
        mux = Fame5Multiplexer("mux", [muxed_child])
        window = TokenWindow(0, 16)
        stimulus = TokenBatch(0, 16)
        for cycle in (1, 5, 13):
            stimulus.add(cycle, Flit(cycle))
        solo_out = solo.tick(window, {"net": stimulus})["net"]
        window2 = TokenWindow(0, 16)
        stimulus2 = TokenBatch(0, 16)
        for cycle in (1, 5, 13):
            stimulus2.add(cycle, Flit(cycle))
        mux_out = mux.tick(window2, {"solo.net": stimulus2})["solo.net"]
        assert sorted(solo_out.flits) == sorted(mux_out.flits)

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError):
            Fame5Multiplexer("mux", [])

    def test_duplicate_child_names_rejected(self):
        with pytest.raises(ValueError):
            Fame5Multiplexer(
                "mux", [NullModel("same", ["a"]), NullModel("same", ["a"])]
            )
