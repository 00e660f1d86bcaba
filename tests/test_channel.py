"""Links and token queues (repro.core.channel)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.channel import Link, LinkEndpoint
from repro.core.token import Flit, TokenBatch
from repro.perf.stream import TokenStream


class TestLinkEndpoint:
    def test_push_pop_roundtrip(self):
        endpoint = LinkEndpoint()
        batch = TokenBatch(0, 10)
        batch.add(3, Flit("x"))
        endpoint.push(batch)
        out = endpoint.pop(10)
        assert out.valid_count == 1
        assert 3 in out.flits

    def test_push_requires_contiguity(self):
        endpoint = LinkEndpoint()
        endpoint.push(TokenBatch(0, 10))
        with pytest.raises(ValueError):
            endpoint.push(TokenBatch(11, 10))

    def test_pop_more_than_available_raises(self):
        endpoint = LinkEndpoint()
        endpoint.push(TokenBatch(0, 5))
        with pytest.raises(LookupError):
            endpoint.pop(6)

    def test_pop_gathers_across_batches(self):
        endpoint = LinkEndpoint()
        first = TokenBatch(0, 5)
        first.add(4, Flit("a"))
        second = TokenBatch(5, 5)
        second.add(5, Flit("b"))
        endpoint.push(first)
        endpoint.push(second)
        out = endpoint.pop(8)
        assert sorted(out.flits) == [4, 5]
        rest = endpoint.pop(2)
        assert rest.start_cycle == 8

    def test_pop_splits_head_batch(self):
        endpoint = LinkEndpoint()
        batch = TokenBatch(0, 10)
        batch.add(2, Flit("early"))
        batch.add(7, Flit("late"))
        endpoint.push(batch)
        first = endpoint.pop(5)
        assert list(first.flits) == [2]
        second = endpoint.pop(5)
        assert list(second.flits) == [7]

    @given(
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=10),
        st.data(),
    )
    def test_token_conservation_under_arbitrary_pops(self, batch_sizes, data):
        """Tokens out == tokens in, regardless of pop partitioning."""
        endpoint = LinkEndpoint()
        total = 0
        for size in batch_sizes:
            endpoint.push(TokenBatch(total, size))
            total += size
        popped = 0
        while popped < total:
            take = data.draw(
                st.integers(min_value=1, max_value=total - popped)
            )
            out = endpoint.pop(take)
            assert out.start_cycle == popped
            assert out.length == take
            popped += take
        assert endpoint.available_tokens == 0


class DenseEndpoint:
    """Reference endpoint that queues every window, empty ones included.

    A loss takes the newest window still held (the newest push, or the
    part of it a pop left).  Once that is lost, a further loss with
    nothing pushed since takes every window left before the gap.
    """

    def __init__(self):
        self.queue = []  # [start, end, {cycle: flit}], in cycle order
        self.consumed = self.pushed = 0
        self.gap = None
        self.lost_newest = False

    def push(self, start, length, flits):
        if start != self.pushed:
            raise ValueError(start)
        self.queue.append([start, start + length, dict(flits)])
        self.pushed = start + length
        self.lost_newest = False

    def available(self):
        limit = self.pushed if self.gap is None else self.gap
        return limit - self.consumed

    def pop(self, length):
        if self.available() < length:
            raise LookupError(length)
        end = self.consumed + length
        out = {}
        while self.queue and self.queue[0][0] < end:
            start, stop, flits = self.queue[0]
            out.update((c, f) for c, f in flits.items() if c < end)
            if stop <= end:
                self.queue.pop(0)
            else:
                rest = {c: f for c, f in flits.items() if c >= end}
                self.queue[0] = [end, stop, rest]
        self.consumed = end
        return out

    def discard_tail(self):
        if self.lost_newest:
            lost = [w for w in self.queue if w[0] < self.gap]
            self.queue = []
        else:
            lost = self.queue[-1:]
            del self.queue[-1:]
        if not lost:
            return 0
        if self.gap is None or lost[0][0] < self.gap:
            self.gap = lost[0][0]
        self.lost_newest = True
        return sum(stop - start for start, stop, _ in lost)


#: One step against both endpoints: ("push", length, flit offsets, as a
#: stream, start skew), ("pop", length) or ("discard",).
STEPS = st.one_of(
    st.tuples(
        st.just("push"), st.integers(1, 12),
        st.sets(st.integers(0, 11), max_size=4), st.booleans(),
        st.sampled_from([0, 0, 0, 0, -1, 1]),
    ),
    st.tuples(st.just("pop"), st.integers(1, 16)),
    st.tuples(st.just("discard")),
)


class TestSparseQueueAgainstDenseReference:
    """Holding only windows that carry flits, plus two cursors and the
    newest push's start, is observably the dense queue."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(STEPS, max_size=40))
    def test_random_steps_agree(self, steps):
        link = Link(8)
        link.prime()
        endpoint = link.to_b
        dense = DenseEndpoint()
        dense.push(0, 8, {})
        for step in steps:
            kind = step[0]
            if kind == "push":
                _, length, offsets, stream, skew = step
                start = endpoint._pushed_until + skew
                flits = {
                    start + offset: Flit(("f", start + offset))
                    for offset in offsets if offset < length
                }
                window = (
                    TokenStream.from_flits(start, length, flits) if stream
                    else TokenBatch(start, length, flits)
                )
                try:
                    dense.push(window.start_cycle, length, flits)
                except ValueError:
                    with pytest.raises(ValueError):
                        endpoint.push(window)
                else:
                    endpoint.push(window)
            elif kind == "pop":
                try:
                    expected = dense.pop(step[1])
                except LookupError:
                    with pytest.raises(LookupError):
                        endpoint.pop(step[1])
                else:
                    assert endpoint.pop(step[1]).flits == expected
            else:
                assert link.lose_in_flight("a_to_b") == dense.discard_tail()
            assert link.in_flight("a_to_b") == dense.available()
            assert endpoint.available_tokens == dense.available()
            assert all(window.valid_count for window in endpoint._queue)

    def test_idle_link_loses_its_newest_window_then_the_rest(self):
        link = Link(10)
        link.prime()
        link.send_from_a(TokenBatch(0, 6))
        link.send_from_a(TokenBatch(6, 6))
        assert not link.to_b._queue
        assert link.lose_in_flight("a_to_b") == 6
        assert link.in_flight("a_to_b") == 16
        # No window boundary is kept for idle time: the rest goes whole.
        assert link.lose_in_flight("a_to_b") == 16
        assert link.in_flight("a_to_b") == 0
        assert link.lose_in_flight("a_to_b") == 0
        with pytest.raises(LookupError):
            link.to_b.pop(1)

    def test_loss_after_a_split_pop_takes_the_rest_of_the_window(self):
        link = Link(10)
        link.prime()
        batch = TokenBatch(0, 10)
        batch.add(3, Flit("early"))
        batch.add(8, Flit("late"))
        link.send_from_a(batch)  # lands on cycles [10, 20)
        assert list(link.to_b.pop(14).flits) == [13]
        assert link.lose_in_flight("a_to_b") == 6
        assert link.in_flight("a_to_b") == 0
        assert len(link.to_b._queue) == 0


class TestLink:
    def test_priming_seeds_one_latency_each_way(self):
        link = Link(64)
        link.prime()
        assert link.in_flight("a_to_b") == 64
        assert link.in_flight("b_to_a") == 64

    def test_double_prime_rejected(self):
        link = Link(8)
        link.prime()
        with pytest.raises(RuntimeError):
            link.prime()

    def test_send_relabels_by_latency(self):
        link = Link(100)
        link.prime()
        batch = TokenBatch(0, 100)
        batch.add(37, Flit("m"))
        link.send_from_a(batch)
        link.to_b.pop(100)  # primed tokens
        arrived = link.to_b.pop(100)
        assert list(arrived.flits) == [137]

    def test_in_flight_invariant_over_rounds(self):
        """After priming, consuming Q and producing Q keeps l in flight."""
        link = Link(10)
        link.prime()
        for round_index in range(5):
            start = round_index * 10
            link.to_b.pop(10)
            link.send_from_a(TokenBatch(start, 10))
            assert link.in_flight("a_to_b") == 10

    def test_flit_counters(self):
        link = Link(4)
        link.prime()
        batch = TokenBatch(0, 4)
        batch.add(0, Flit("x", last=True))
        link.send_from_a(batch)
        assert link.flits_a_to_b == 1
        assert link.flits_b_to_a == 0

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ValueError):
            Link(0)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            Link(4).in_flight("sideways")
