"""Tokens and token batches (repro.core.token)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.token import Flit, TokenBatch, TokenWindow


class TestTokenBatch:
    def test_empty_batch_has_no_valid_tokens(self):
        batch = TokenBatch.empty(0, 100)
        assert batch.valid_count == 0
        assert len(batch) == 100
        assert batch.end_cycle == 100

    def test_add_and_iterate_in_cycle_order(self):
        batch = TokenBatch(10, 10)
        batch.add(15, Flit("b"))
        batch.add(12, Flit("a"))
        cycles = [cycle for cycle, _ in batch.iter_flits()]
        assert cycles == [12, 15]

    def test_add_outside_window_rejected(self):
        batch = TokenBatch(10, 10)
        with pytest.raises(ValueError):
            batch.add(9, Flit("x"))
        with pytest.raises(ValueError):
            batch.add(20, Flit("x"))

    def test_one_flit_per_cycle(self):
        batch = TokenBatch(0, 10)
        batch.add(5, Flit("x"))
        with pytest.raises(ValueError):
            batch.add(5, Flit("y"))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            TokenBatch(0, 0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            TokenBatch(-1, 10)

    def test_contains_cycle_bounds(self):
        batch = TokenBatch(5, 5)
        assert batch.contains_cycle(5)
        assert batch.contains_cycle(9)
        assert not batch.contains_cycle(10)
        assert not batch.contains_cycle(4)

    @given(
        st.sets(st.integers(min_value=0, max_value=99), max_size=50),
    )
    def test_valid_count_matches_additions(self, cycles):
        batch = TokenBatch(0, 100)
        for cycle in cycles:
            batch.add(cycle, Flit(cycle))
        assert batch.valid_count == len(cycles)
        assert sorted(c for c, _ in batch.iter_flits()) == sorted(cycles)


class TestTokenWindow:
    def test_window_length(self):
        assert TokenWindow(10, 20).length == 10

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            TokenWindow(10, 10)
