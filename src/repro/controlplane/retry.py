"""Bounded retry with deterministic jitter.

Transient control-plane failures — the owner shard of a request is
crashed, a cross-shard delivery raced a partition — deserve a bounded
number of retries with exponential backoff, not an immediate failure.
But a simulation must stay reproducible: two runs with the same seed
must retry at the same instants.  So the jitter is not random at all; it
is a pure function of the retry *key* (whatever identifies the work —
request kind, app, attempt number) through the same process-invariant
hash (:func:`repro.sim.rng.stable_hash`) the rest of the platform uses
for seeding.  Distinct requests still de-synchronize (no thundering
herd), identical runs still reproduce byte-for-byte.

:class:`TransientError` is the marker exception: a handler that raises
it asks the serialized processor to requeue the request after
``policy.backoff_s(attempt, ...)`` instead of failing its ``done``
event.  Any other exception keeps the old fail-fast contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import stable_hash

#: Resolution of the deterministic jitter fraction.
_JITTER_STEPS = 1_000_000


class TransientError(RuntimeError):
    """An operation failed in a way that is expected to heal itself.

    Raising this from a request handler (or a cross-shard delivery)
    means "retry me within the policy's budget"; exhausting the budget
    converts it into a permanent failure.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: a policy of 4 performs at
    most 3 retries.  Backoff before retry *k* (1-based) is
    ``base_backoff_s * multiplier**(k-1)`` clamped to ``max_backoff_s``,
    then spread by ``±jitter_fraction`` using a hash of the caller's
    key — no RNG state anywhere.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.5
    multiplier: float = 2.0
    max_backoff_s: float = 8.0
    jitter_fraction: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError("need 0 <= base_backoff_s <= max_backoff_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")

    def should_retry(self, attempt: int) -> bool:
        """True while retry *attempt* (1-based) is within budget."""
        return attempt < self.max_attempts

    def backoff_s(self, attempt: int, *key) -> float:
        """Deterministic backoff before retry *attempt* (1-based).

        The same ``(attempt, *key)`` always yields the same delay; keys
        differing in any component land at different points of the
        ``±jitter_fraction`` band around the exponential schedule.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(
            self.base_backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter_fraction == 0.0 or raw == 0.0:
            return raw
        unit = (stable_hash("retry-jitter", attempt, *key) % _JITTER_STEPS) / _JITTER_STEPS
        return raw * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))
