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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple


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
        """Runtime reconfiguration (no RTL resynthesis needed)."""
        if k < 1 or p < 1:
            raise ValueError(f"k and p must be >= 1, got k={k}, p={p}")
        if k > p:
            raise ValueError(
                f"k={k} > p={p} would exceed the unlimited link rate"
            )
        self.k = k
        self.p = p
        self.cap = cap if cap is not None else max(k, 1)
        if cap is not None and cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")

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

    def send_burst(self, cycle: int, want: int, end: int) -> Tuple[int, int]:
        """Admit up to ``want`` back-to-back flits before ``end`` at once.

        The closed form of looping :meth:`next_send_cycle` /
        :meth:`consume` with ``cycle = sent + 1``: returns ``(first,
        n)`` with flits admitted at ``first, first + 1, ..``, or ``n ==
        0`` when the next flit cannot go before ``end`` (``first >=
        end`` is then its earliest cycle).  A burst is cut at a refill
        tick it cannot cross whole, so callers loop; a follow-up call
        returning ``first + n`` continues the same burst.  The bucket
        ends exactly where the per-flit loop leaves it.
        """
        self._advance(cycle)
        if self._count <= 0:
            cycle = (self._applied_periods + 1) * self.p
            if cycle >= end:
                return cycle, 0
            self._advance(cycle)
        elif cycle >= end:
            return cycle, 0
        k, p = self.k, self.p
        room = min(want, end - cycle)
        to_tick = (self._applied_periods + 1) * p - cycle
        n = min(self._count, room, to_tick)
        self._count -= n
        if n == p == to_tick:
            # A whole refill period went out back to back.  Each further
            # one costs p - k credits net, so the run continues for as
            # many whole periods as room and the remaining credit allow.
            periods = (room - n) // p
            credit = self._count + k
            if periods and p <= credit <= self.cap:
                if k < p:
                    periods = min(periods, (credit - p) // (p - k) + 1)
                n += periods * p
                self._count -= periods * (p - k)
                self._applied_periods += periods
        return cycle, n

    @property
    def available(self) -> int:
        """Tokens currently in the bucket (as of the last advance)."""
        return self._count
