"""Retry policies and the host circuit breaker.

Transient host faults (instance launch, AGFI build, heartbeat loss) are
retried under an exponential-backoff policy with *seeded* jitter: the
jitter draw comes from the caller's deterministic RNG, so a chaos run
retries on a byte-identical schedule every time.  Hosts that keep
failing trip a per-host circuit breaker; the manager quarantines them
and remaps their blades onto fresh instances via the mapper.

The reproduction never sleeps on the host — backoff delays are computed
and *recorded* (``faults.backoff_seconds``), the same way the cost model
records dollars without billing anyone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Set

from repro import ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter and a retry budget.

    Attributes:
        max_retries: attempts after the first failure before giving up.
        base_delay_s: backoff before the first retry.
        multiplier: backoff growth factor per retry.
        max_delay_s: cap on any single backoff delay.
        jitter: fraction of the delay drawn uniformly at random and
            added, from the caller's seeded RNG (0 disables jitter).
    """

    max_retries: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered via ``rng``."""
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter:
            delay += delay * self.jitter * rng.random()
        return delay

    def schedule(self, rng: random.Random) -> List[float]:
        """The full backoff schedule for a worst-case retry sequence."""
        return [
            self.delay_for(attempt, rng)
            for attempt in range(1, self.max_retries + 1)
        ]


class CircuitBreaker:
    """Quarantines hosts that fail repeatedly.

    Counts *consecutive* failures per host; at ``failure_threshold`` the
    host trips open (quarantined) and stays open — in FireSim terms the
    spot instance is abandoned and its simulated blades are remapped,
    because a flaky host would otherwise stall the whole token-coupled
    fleet at the rate of its slowest retries.
    """

    def __init__(self, failure_threshold: int = 3) -> None:
        if failure_threshold < 1:
            raise ConfigError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self._failures: Dict[str, int] = {}
        self.quarantined: Set[str] = set()

    def record_failure(self, host: str) -> bool:
        """Record one failure; returns True if the host just tripped."""
        if host in self.quarantined:
            return False
        count = self._failures.get(host, 0) + 1
        self._failures[host] = count
        if count >= self.failure_threshold:
            self.quarantined.add(host)
            return True
        return False

    def record_success(self, host: str) -> None:
        """A healthy interaction resets the host's consecutive count."""
        self._failures.pop(host, None)

    def is_quarantined(self, host: str) -> bool:
        return host in self.quarantined
