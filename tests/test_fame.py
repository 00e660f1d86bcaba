"""FAME-1 model framework (repro.core.fame)."""

import pytest

from repro.core.fame import NullModel
from repro.core.simulation import Simulation
from repro.core.token import TokenBatch, TokenWindow


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
