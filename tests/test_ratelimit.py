"""NIC token-bucket rate limiter (repro.nic.ratelimit, §III-A2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nic.ratelimit import TokenBucketLimiter, rate_settings_for_bandwidth
from tests.hypothesis_budget import examples


class TestRateSettings:
    def test_paper_bandwidth_points_are_exact(self):
        link = 204.8e9
        assert rate_settings_for_bandwidth(100e9, link) == (125, 256)
        assert rate_settings_for_bandwidth(40e9, link) == (25, 128)
        assert rate_settings_for_bandwidth(10e9, link) == (25, 512)
        assert rate_settings_for_bandwidth(1e9, link) == (5, 1024)

    def test_full_rate(self):
        assert rate_settings_for_bandwidth(204.8e9, 204.8e9) == (1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rate_settings_for_bandwidth(0, 204.8e9)
        with pytest.raises(ValueError):
            rate_settings_for_bandwidth(300e9, 204.8e9)


class TestTokenBucket:
    def test_unlimited_rate_admits_every_cycle(self):
        limiter = TokenBucketLimiter(1, 1)
        for cycle in range(10):
            assert limiter.next_send_cycle(cycle) == cycle
            limiter.consume(cycle)

    def test_half_rate_spacing(self):
        limiter = TokenBucketLimiter(1, 2)
        sends = []
        cycle = 0
        for _ in range(8):
            cycle = limiter.next_send_cycle(cycle)
            limiter.consume(cycle)
            sends.append(cycle)
            cycle += 1
        # One credit every 2 cycles: 8 sends span ~16 cycles.
        assert sends[-1] - sends[0] >= 13

    def test_consume_without_credit_raises(self):
        limiter = TokenBucketLimiter(1, 4)
        limiter.consume(limiter.next_send_cycle(0))
        with pytest.raises(RuntimeError):
            limiter.consume(1)  # no credit until next period tick

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            TokenBucketLimiter(0, 1)
        with pytest.raises(ValueError):
            TokenBucketLimiter(3, 2)  # k > p exceeds link rate

    def test_runtime_reconfiguration(self):
        limiter = TokenBucketLimiter(1, 1)
        limiter.set_rate(1, 4)
        assert limiter.rate_fraction == 0.25

    def test_cap_bounds_idle_accrual(self):
        limiter = TokenBucketLimiter(2, 8)
        # Long idle: credits must not exceed the cap (k).
        limiter.next_send_cycle(10_000)
        assert limiter.available <= limiter.cap

    @pytest.mark.parametrize(
        "k, p, cap", [(5, 64, 0), (5, 64, -3), (0, 64, None), (65, 64, 8)]
    )
    def test_rejected_reconfiguration_changes_nothing(self, k, p, cap):
        limiter = TokenBucketLimiter(25, 128, cap=40)
        limiter.consume(limiter.next_send_cycle(1000))
        before = (limiter.k, limiter.p, limiter.cap, limiter._count)
        with pytest.raises(ValueError):
            limiter.set_rate(k, p, cap)
        assert (limiter.k, limiter.p, limiter.cap, limiter._count) == before
        # Still sending at the old rate.
        assert limiter.next_send_cycle(1001) == 1001

    @settings(max_examples=examples(20))
    @given(
        k=st.integers(min_value=1, max_value=16),
        p_mult=st.integers(min_value=1, max_value=32),
    )
    def test_effective_rate_is_k_over_p(self, k, p_mult):
        """Back-to-back sending achieves k/p of the link rate (§III-A2)."""
        p = k * p_mult
        limiter = TokenBucketLimiter(k, p)
        horizon = 64 * p
        sends = 0
        cycle = limiter.next_send_cycle(0)
        while cycle < horizon:
            limiter.consume(cycle)
            sends += 1
            cycle = limiter.next_send_cycle(cycle + 1)
        expected = horizon * k / p
        assert sends == pytest.approx(expected, rel=0.1)


def per_flit_bursts(limiter, cycle, want, end):
    """The spec of ``send_bursts``: one ``next_send_cycle``/``consume``
    pair per flit, flits admitted back to back joined into runs."""
    bursts = []
    while want:
        send_at = limiter.next_send_cycle(cycle)
        if send_at >= end:
            return bursts, send_at
        limiter.consume(send_at)
        if bursts and bursts[-1][0] + bursts[-1][1] == send_at:
            bursts[-1] = (bursts[-1][0], bursts[-1][1] + 1)
        else:
            bursts.append((send_at, 1))
        cycle = send_at + 1
        want -= 1
    return bursts, cycle


@st.composite
def bucket_script(draw):
    """A bucket shape, its state, and a run of per-frame calls.

    ``k == p`` (unlimited or whole-period runs), ``k < p`` at ``cap ==
    k`` (the NIC's setting, the paper's 40 Gbit/s ``k=25, p=128``
    included) and ``cap > k`` (credit to cross refill ticks) are each
    drawn, as is a bucket holding more than its cap.  Windows reach
    the 6 400-cycle quantum and past it.
    """
    shape = draw(st.sampled_from(["k == p", "k < p", "cap > k"]))
    if shape == "k < p":
        k, p = draw(st.one_of(
            st.just((25, 128)),
            st.integers(2, 256).flatmap(
                lambda p: st.tuples(st.integers(1, p - 1), st.just(p))
            ),
        ))
        cap = None
    else:
        p = draw(st.integers(1, 256))
        k = p if shape == "k == p" else draw(st.integers(1, p))
        cap = draw(st.integers(k + 1, 3 * p + 1)) if shape == "cap > k" else None
    # Credit above the cap is what a rate change that lowers the cap
    # leaves behind until the next refill.
    limit = cap if cap is not None else k
    credit = draw(st.one_of(
        st.integers(0, limit), st.integers(limit + 1, limit + 2 * p)
    ))
    start = p * draw(st.integers(0, 4)) + draw(
        st.one_of(st.just(0), st.integers(0, p - 1))
    )
    calls = draw(st.lists(
        st.tuples(
            st.one_of(  # gap before the call; None: to the next tick
                st.integers(0, 600), st.none()
            ),
            st.integers(1, 400),  # flits wanted
            st.one_of(st.just(6400), st.integers(0, 7000)),  # window
        ),
        min_size=1,
        max_size=6,
    ))
    return (k, p, cap), credit, start, calls


class TestSendBursts:
    @settings(max_examples=examples(300), deadline=None)
    @given(script=bucket_script())
    def test_equals_the_per_flit_loop(self, script):
        rate, credit, start, calls = script
        fast, spec = TokenBucketLimiter(*rate), TokenBucketLimiter(*rate)
        for limiter in (fast, spec):
            limiter.next_send_cycle(start)  # applies the periods so far
            limiter._count = credit
        cycle = start
        for gap, want, window in calls:
            cycle += -cycle % rate[1] if gap is None else gap
            end = cycle + window
            got = fast.send_bursts(cycle, want, end)
            assert got == per_flit_bursts(spec, cycle, want, end)
            assert (fast._count, fast._applied_periods) == (
                spec._count, spec._applied_periods
            )
            bursts, cycle = got
            assert sum(n for _, n in bursts) <= want
            assert all(first + n <= end for first, n in bursts)

    def test_forty_gbit_window(self):
        """Fig 6's NIC setting over 6 400-cycle windows: 25 flits per
        128-cycle period, and the refill on the window boundary is
        applied by the next window's call, not by this one."""
        limiter = TokenBucketLimiter(25, 128)
        bursts, next_cycle = limiter.send_bursts(0, 10_000, 6400)
        assert bursts == [(128 * i, 25) for i in range(50)]
        assert next_cycle == 6400
        assert (limiter._count, limiter._applied_periods) == (0, 49)
        bursts, next_cycle = limiter.send_bursts(6400, 30, 12_800)
        assert bursts == [(6400, 25), (6528, 5)]
        assert next_cycle == 6533
