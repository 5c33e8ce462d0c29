"""Retry policy, idempotency allowlist, and circuit breaker.

A transient transport failure (deadline hit, link declared dead) is
only safe to retry when the procedure is idempotent: re-running
``domain.get_info`` is free, re-running ``domain.create`` after a lost
*reply* would double-start the guest.  The allowlist names every
procedure whose effect is the same executed once or twice (the
``idempotent`` column of :mod:`repro.rpc.procedures`); resilient callers
consult it before retrying.

Backoff uses *decorrelated jitter* (delay drawn uniformly between the
base and three times the previous delay, capped), seeded for
deterministic replay under the virtual clock.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, FrozenSet, Optional

from repro.errors import InvalidArgumentError
from repro.rpc.procedures import BY_NAME

#: procedures safe to re-issue after a transport failure: the table's
#: ``idempotent`` column (which a stream-opening row may never set)
IDEMPOTENT_PROCEDURES: FrozenSet[str] = frozenset(
    name for name, row in BY_NAME.items() if row.idempotent
)


def is_idempotent(procedure: str) -> bool:
    return procedure in IDEMPOTENT_PROCEDURES


class RetryPolicy:
    """Exponential backoff with decorrelated jitter, seeded.

    ``max_attempts`` counts the total tries including the first; the
    policy therefore allows ``max_attempts - 1`` retries.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay: float = 0.1,
        max_delay: float = 5.0,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise InvalidArgumentError("max_attempts must be at least 1")
        if base_delay <= 0 or max_delay < base_delay:
            raise InvalidArgumentError(
                "need 0 < base_delay <= max_delay for backoff"
            )
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def next_delay(self, previous: "Optional[float]" = None) -> float:
        """Decorrelated jitter: uniform in [base, 3*previous], capped."""
        prev = self.base_delay if previous is None else max(previous, self.base_delay)
        with self._lock:
            return min(self.max_delay, self._rng.uniform(self.base_delay, prev * 3))

    def max_total_delay(self) -> float:
        """Upper bound on the backoff time one call can accumulate."""
        return self.max_delay * (self.max_attempts - 1)


class CircuitBreaker:
    """Fail fast after repeated failures; probe again after a cooldown.

    States follow the classic pattern: CLOSED (normal) → OPEN after
    ``threshold`` consecutive failures (every request refused) →
    HALF_OPEN once ``reset_timeout`` modelled seconds pass (one probe
    allowed; success closes, failure re-opens).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        now: Callable[[], float],
        threshold: int = 3,
        reset_timeout: float = 30.0,
    ) -> None:
        if threshold < 1:
            raise InvalidArgumentError("breaker threshold must be at least 1")
        if reset_timeout <= 0:
            raise InvalidArgumentError("breaker reset_timeout must be positive")
        self._now = now
        self.threshold = threshold
        self.reset_timeout = reset_timeout
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: "Optional[float]" = None
        self.times_opened = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return self.CLOSED
        if self._now() - self._opened_at >= self.reset_timeout:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self) -> bool:
        """May a request proceed right now?"""
        return self.state != self.OPEN

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            half_open = self._state_locked() == self.HALF_OPEN
            self._failures += 1
            if half_open or self._failures >= self.threshold:
                if self._opened_at is None or half_open:
                    self.times_opened += 1
                self._opened_at = self._now()
