"""NIC rate limiter: the token-bucket of Section III-A2.

The limiter holds a counter that is decremented every time a network flit
is sent and incremented by ``k`` every ``p`` cycles.  Flits can be
forwarded from input to output so long as the count is greater than zero,
making the effective bandwidth ``k/p`` times the unlimited rate.  ``k``
and ``p`` are set at runtime, allowing simulation of different bandwidths
without resynthesizing RTL.  Unlike external throttling, this internal
throttling backpressures the NIC, so it behaves as if it actually operated
at the set bandwidth.

The implementation is event-driven but *cycle-exact*: credit arrivals are
computed arithmetically at the cycles where the hardware counter would
tick, so the admitted flit schedule is identical to a per-cycle loop.
``next_send_cycle``/``consume`` admit one flit at a time and are the
spec; ``send_bursts`` admits a frame's flits for a whole window at once,
as bursts, and leaves the bucket where the spec would.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple


def rate_settings_for_bandwidth(
    target_bps: float, link_bps: float
) -> Tuple[int, int]:
    """Pick (k, p) so that ``k/p`` of the link rate equals ``target_bps``.

    Uses the smallest exact integer ratio.  For the paper's standard
    Ethernet bandwidths on a 204.8 Gbit/s link (3.2 GHz x 64 bit):

    >>> rate_settings_for_bandwidth(100e9, 204.8e9)
    (125, 256)
    >>> rate_settings_for_bandwidth(40e9, 204.8e9)
    (25, 128)
    """
    if not 0 < target_bps <= link_bps:
        raise ValueError(
            f"target bandwidth {target_bps} must be in (0, {link_bps}]"
        )
    frac = Fraction(target_bps / link_bps).limit_denominator(4096)
    return frac.numerator, frac.denominator


class TokenBucketLimiter:
    """Cycle-exact token-bucket pacing for NIC egress."""

    def __init__(self, k: int = 1, p: int = 1, cap: Optional[int] = None) -> None:
        self.set_rate(k, p, cap)
        self._count = self.cap  # bucket starts full
        self._applied_periods = 0

    def set_rate(self, k: int, p: int, cap: Optional[int] = None) -> None:
        """Runtime reconfiguration (no RTL resynthesis needed).

        Every setting is checked before any is applied, so a rejected
        change leaves the limiter as it was.
        """
        if k < 1 or p < 1:
            raise ValueError(f"k and p must be >= 1, got k={k}, p={p}")
        if k > p:
            raise ValueError(
                f"k={k} > p={p} would exceed the unlimited link rate"
            )
        if cap is not None and cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.k = k
        self.p = p
        self.cap = cap if cap is not None else k

    @property
    def rate_fraction(self) -> float:
        """Effective bandwidth as a fraction of the unlimited link rate."""
        return self.k / self.p

    def _advance(self, cycle: int) -> None:
        periods = cycle // self.p
        if periods > self._applied_periods:
            earned = (periods - self._applied_periods) * self.k
            self._count = min(self.cap, self._count + earned)
            self._applied_periods = periods

    def next_send_cycle(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` at which a flit may be forwarded."""
        if cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {cycle}")
        self._advance(cycle)
        if self._count > 0:
            return cycle
        # Counter is zero: the next credit arrives at the next period tick.
        return (self._applied_periods + 1) * self.p

    def consume(self, cycle: int) -> None:
        """Record a flit forwarded at ``cycle`` (must be admissible)."""
        self._advance(cycle)
        if self._count <= 0:
            raise RuntimeError(
                f"flit sent at cycle {cycle} with empty token bucket"
            )
        self._count -= 1

    def send_bursts(
        self, cycle: int, want: int, end: int
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Admit up to ``want`` flits, each as early as possible, before ``end``.

        The closed form of looping :meth:`next_send_cycle` /
        :meth:`consume` with ``cycle = sent + 1`` from ``cycle``.
        Returns ``(bursts, next_cycle)``: ``bursts`` lists ``(first, n)``
        for each maximal back-to-back run, flits admitted at ``first,
        first + 1, ..``; ``next_cycle`` is where the flit after the last
        admitted one would go — the end of the last burst once all
        ``want`` went, else its earliest cycle, at or after ``end``.  The
        bucket ends exactly where the per-flit loop leaves it.

        Within a refill period a burst is ``min(credit, flits left,
        cycles to the tick, cycles to end)``.  A whole period that goes
        out back to back (``k == p``, or credit >= ``p``) is followed by
        as many more as room and credit allow, at ``p - k`` credits net
        each, in one step.  The bucket is read and written back once.
        """
        k, p, cap = self.k, self.p, self.cap
        count, applied = self._count, self._applied_periods
        tick = (applied + 1) * p  # the next refill not yet applied
        bursts: List[Tuple[int, int]] = []
        burst_end = -1
        while True:
            if cycle >= tick:
                periods = cycle // p
                count += (periods - applied) * k
                if count > cap:
                    count = cap
                applied = periods
                tick = (periods + 1) * p
            if count <= 0:
                # No credit: the next one arrives at the next tick.
                cycle = tick
                if cycle >= end:
                    break
                count += k
                if count > cap:
                    count = cap
                applied += 1
                tick += p
            elif cycle >= end:
                break
            room = end - cycle
            if want < room:
                room = want
            to_tick = tick - cycle
            n = to_tick if to_tick < room else room
            if count < n:
                n = count
            count -= n
            if n == p == to_tick:
                # A whole period went out back to back; each further one
                # costs p - k credits net while the credit lasts.
                periods = (room - n) // p
                credit = count + k
                if periods and p <= credit <= cap:
                    if k < p:
                        most = (credit - p) // (p - k) + 1
                        if most < periods:
                            periods = most
                    n += periods * p
                    count -= periods * (p - k)
                    applied += periods
                    tick += periods * p
            if cycle == burst_end:
                bursts[-1] = (bursts[-1][0], bursts[-1][1] + n)
            else:
                bursts.append((cycle, n))
            cycle = burst_end = cycle + n
            want -= n
            if not want:
                break
        self._count, self._applied_periods = count, applied
        return bursts, cycle

    @property
    def available(self) -> int:
        """Tokens currently in the bucket (as of the last advance)."""
        return self._count
