"""Per-tenant token-bucket rate limits with priority-class costs.

Admission control for the fleet's front door: every tenant owns a
token bucket that refills continuously at ``rate_per_s`` up to
``burst`` tokens, and each submission spends tokens according to its
priority class before it may touch the queue.  A submission that finds
the bucket short is rejected with the exact number of seconds until
enough tokens exist — the HTTP layer turns that into a 429 with a
``Retry-After`` header, so well-behaved clients back off for precisely
as long as the bucket needs and no longer.

Priority classes map to token *costs*, not separate buckets: ``high``
traffic spends fewer tokens per request than ``low``, so under
pressure a tenant's budget naturally tilts toward its urgent work
while one shared bucket still bounds the tenant's total footprint.
(Two buckets per tenant would let a tenant saturate both classes at
once, which is the exact aggregate this limiter exists to cap.)

Time is injectable — tests drive a fake clock and get bit-exact token
arithmetic without sleeping — and the default clock is
``time.monotonic`` so wall-clock steps can never mint or burn tokens.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

DEFAULT_RATE_PER_S = 50.0
DEFAULT_BURST = 100.0

# Token cost per priority class.  `high` is deliberately cheaper than
# `normal`: an interactive probe should survive a tenant's own batch
# flood.  `low` pays double so bulk traffic drains the budget fastest.
DEFAULT_CLASS_COSTS = {"high": 0.5, "normal": 1.0, "low": 2.0}


@dataclass
class Decision:
    """One admission verdict, with everything the HTTP layer needs."""

    allowed: bool
    tenant: str
    priority_class: str
    cost: float
    tokens_left: float
    # Seconds until the bucket holds `cost` tokens again; 0 when
    # admitted.  This is the 429 Retry-After value.
    retry_after_s: float = 0.0


class RateLimited(Exception):
    """Tenant bucket empty; maps to 429 + Retry-After.

    Carries the limiter's decision so the transport can surface the
    exact wait (header and body) instead of a generic backoff hint.
    """

    def __init__(self, decision: Decision):
        self.decision = decision
        super().__init__(
            f"tenant {decision.tenant!r} rate limited; retry in "
            f"{decision.retry_after_s:.3f}s"
        )


class TokenBucket:
    """One continuously refilling bucket (float tokens, no timers)."""

    __slots__ = ("rate_per_s", "burst", "_tokens", "_updated", "_clock")

    def __init__(
        self,
        rate_per_s: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._tokens = float(burst)  # a fresh tenant starts full
        self._clock = clock
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(
                self.burst, self._tokens + elapsed * self.rate_per_s
            )
        self._updated = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_take(self, cost: float = 1.0) -> Tuple[bool, float]:
        """Spend ``cost`` tokens; returns ``(allowed, retry_after_s)``.

        A rejection does not spend anything (no partial debits), so a
        rejected client retrying after the advertised interval finds
        the tokens it was promised.
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        self._refill()
        if cost <= self._tokens:
            self._tokens -= cost
            return True, 0.0
        return False, (cost - self._tokens) / self.rate_per_s


@dataclass
class _TenantLedger:
    bucket: TokenBucket
    admitted: int = 0
    rejected_by_class: Dict[str, int] = field(default_factory=dict)


class TenantRateLimiter:
    """Per-tenant buckets behind one ``admit()`` call.

    ``overrides`` grants specific tenants their own (rate, burst) —
    a paid tier, or a deliberately throttled batch account — while
    every other tenant shares the default shape (each still gets its
    *own* bucket; only the parameters are shared).

    Rejections are counted only in ``repro_fleet_ratelimited_total``
    (per tenant) on ``registry``, a private one when none is shared;
    :meth:`stats` reads them from there.
    """

    def __init__(
        self,
        rate_per_s: float = DEFAULT_RATE_PER_S,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        class_costs: Optional[Dict[str, float]] = None,
        overrides: Optional[Dict[str, Tuple[float, float]]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst) if burst is not None else 2.0 * self.rate_per_s
        self._clock = clock
        self.class_costs = dict(class_costs or DEFAULT_CLASS_COSTS)
        self.overrides = dict(overrides or {})
        self._tenants: Dict[str, _TenantLedger] = {}
        self.admitted_total = 0
        self._rejected = (registry or MetricsRegistry()).counter(
            "repro_fleet_ratelimited_total",
            "Submissions rejected by the per-tenant token bucket",
            labelnames=("tenant",),
        )

    # ------------------------------------------------------------------
    def _ledger(self, tenant: str) -> _TenantLedger:
        ledger = self._tenants.get(tenant)
        if ledger is None:
            rate, burst = self.overrides.get(
                tenant, (self.rate_per_s, self.burst)
            )
            ledger = self._tenants[tenant] = _TenantLedger(
                bucket=TokenBucket(rate, burst, clock=self._clock)
            )
        return ledger

    def admit(self, tenant: str, priority_class: str = "normal") -> Decision:
        """Charge one submission against ``tenant``'s bucket."""
        cost = self.class_costs.get(priority_class, 1.0)
        ledger = self._ledger(tenant)
        allowed, retry_after = ledger.bucket.try_take(cost)
        if allowed:
            ledger.admitted += 1
            self.admitted_total += 1
        else:
            ledger.rejected_by_class[priority_class] = (
                ledger.rejected_by_class.get(priority_class, 0) + 1
            )
            self._rejected.labels(tenant).inc()
        return Decision(
            allowed=allowed,
            tenant=tenant,
            priority_class=priority_class,
            cost=cost,
            tokens_left=ledger.bucket.tokens,
            retry_after_s=retry_after,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``ratelimit`` block `/v1/stats` serves."""
        rejected = {
            tenant: int(child.value)
            for (tenant,), child in self._rejected.items()
        }
        return {
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
            "class_costs": dict(self.class_costs),
            "admitted_total": self.admitted_total,
            "rejected_total": sum(rejected.values()),
            "tenants": {
                tenant: {
                    "tokens": round(ledger.bucket.tokens, 4),
                    "rate_per_s": ledger.bucket.rate_per_s,
                    "burst": ledger.bucket.burst,
                    "admitted": ledger.admitted,
                    "rejected": rejected.get(tenant, 0),
                    "rejected_by_class": dict(ledger.rejected_by_class),
                }
                for tenant, ledger in sorted(self._tenants.items())
            },
        }
