"""Retry backoff policy: exponential growth, deterministic seeded jitter.

Re-launching a failed attempt immediately turns an environmental flake
(an OOM-killed worker, a saturated machine) into a tight crash loop.  :class:`RetryPolicy` spaces attempts
out exponentially and adds *deterministic* jitter: the jitter fraction is
derived from a SHA-256 of ``(seed, variant, attempt)``, so two supervisors
replaying the same campaign schedule identical delays — no process-global
RNG, nothing for the determinism analyzer (DET004) to flag — while
different variants still de-synchronize instead of thundering back in
lockstep.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for a variant's retry attempts.

    ``delay(variant, attempt)`` is the pause before attempt ``attempt + 1``
    after the ``attempt``-th (1-based) attempt failed::

        base * factor**(attempt-1), capped at ``maximum``,
        then scaled by 1 + jitter * u   with u in [0, 1) deterministic.

    ``RetryPolicy.none()`` disables backoff entirely (immediate retries,
    for tests that count wall-clock).
    """

    base: float = 0.05
    factor: float = 2.0
    maximum: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("backoff base must be >= 0 seconds")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.maximum < self.base:
            raise ValueError("backoff maximum must be >= base")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The no-backoff policy: every retry fires immediately."""
        return cls(base=0.0, factor=1.0, maximum=0.0, jitter=0.0)

    def delay(self, variant: int, attempt: int) -> float:
        """Seconds to wait after ``attempt`` (1-based) of ``variant`` failed."""
        if attempt < 1 or self.base == 0.0:
            return 0.0
        raw = self.base * (self.factor ** (attempt - 1))
        capped = min(raw, self.maximum)
        return capped * (1.0 + self.jitter * self._unit(variant, attempt))

    def _unit(self, variant: int, attempt: int) -> float:
        """A stable uniform draw in [0, 1) for (seed, variant, attempt)."""
        digest = hashlib.sha256(
            f"{self.seed}:{variant}:{attempt}".encode("ascii")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "factor": self.factor,
            "maximum": self.maximum,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)
