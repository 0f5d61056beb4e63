"""Token-bucket rate limiting: bit-exact arithmetic on a fake clock."""

import pytest

from repro.fleet.ratelimit import (
    CLASS_COSTS,
    TenantRateLimiter,
    TokenBucket,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_bucket_starts_full_and_drains():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_s=10.0, burst=5.0, clock=clock)
    assert bucket.tokens == 5.0
    for _ in range(5):
        allowed, retry = bucket.try_take(1.0)
        assert allowed and retry == 0.0
    allowed, retry = bucket.try_take(1.0)
    assert not allowed
    assert retry == pytest.approx(0.1)  # 1 token at 10/s


def test_refill_is_continuous_and_capped():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_s=10.0, burst=5.0, clock=clock)
    assert bucket.try_take(5.0)[0]
    clock.advance(0.25)
    assert bucket.tokens == pytest.approx(2.5)
    clock.advance(100.0)
    assert bucket.tokens == 5.0  # burst caps the refill


def test_rejection_spends_nothing():
    # No partial debits: a client that waits exactly retry_after_s
    # must find the tokens it was promised.
    clock = FakeClock()
    bucket = TokenBucket(rate_per_s=2.0, burst=4.0, clock=clock)
    assert bucket.try_take(4.0)[0]
    allowed, retry = bucket.try_take(3.0)
    assert not allowed
    assert retry == pytest.approx(1.5)  # 3 tokens at 2/s
    clock.advance(retry)
    assert bucket.try_take(3.0)[0]


def test_retry_after_accounts_for_partial_balance():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_s=4.0, burst=8.0, clock=clock)
    bucket.try_take(7.0)  # 1 token left
    allowed, retry = bucket.try_take(3.0)
    assert not allowed
    assert retry == pytest.approx((3.0 - 1.0) / 4.0)


def test_bucket_validates_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate_per_s=0.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate_per_s=1.0, burst=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate_per_s=1.0, burst=1.0).try_take(-1.0)


def test_monotonic_clock_regression_is_harmless():
    clock = FakeClock(now=100.0)
    bucket = TokenBucket(rate_per_s=10.0, burst=10.0, clock=clock)
    bucket.try_take(5.0)
    clock.now = 99.0  # time never mints tokens going backwards
    assert bucket.tokens == pytest.approx(5.0)


# ----------------------------------------------------------------------
# TenantRateLimiter
# ----------------------------------------------------------------------
def test_tenants_have_independent_buckets():
    clock = FakeClock()
    limiter = TenantRateLimiter(rate_per_s=1.0, burst=2.0, clock=clock)
    assert limiter.admit("a").allowed
    assert limiter.admit("a").allowed
    assert not limiter.admit("a").allowed  # a exhausted...
    assert limiter.admit("b").allowed      # ...b unaffected


def test_priority_class_costs_share_one_bucket():
    clock = FakeClock()
    limiter = TenantRateLimiter(rate_per_s=1.0, burst=4.0, clock=clock)
    # high costs 0.5, low costs 2.0 — the same 4-token budget admits
    # them in different amounts, and they drain each other.
    assert limiter.admit("t", "low").allowed      # 2 left
    assert limiter.admit("t", "high").allowed     # 1.5 left
    assert limiter.admit("t", "normal").allowed   # 0.5 left
    assert limiter.admit("t", "high").allowed     # 0 left
    decision = limiter.admit("t", "normal")
    assert not decision.allowed
    assert decision.retry_after_s == pytest.approx(
        CLASS_COSTS["normal"] / 1.0
    )
    assert decision.cost == CLASS_COSTS["normal"]


def test_decision_carries_the_429_payload():
    clock = FakeClock()
    limiter = TenantRateLimiter(rate_per_s=2.0, burst=1.0, clock=clock)
    ok = limiter.admit("t", "normal")
    assert ok.allowed and ok.retry_after_s == 0.0
    rejected = limiter.admit("t", "normal")
    assert rejected.tenant == "t"
    assert rejected.priority_class == "normal"
    assert rejected.retry_after_s == pytest.approx(0.5)


def test_stats_block_is_deterministic():
    clock = FakeClock()
    limiter = TenantRateLimiter(rate_per_s=1.0, burst=2.0, clock=clock)
    limiter.admit("a", "normal")
    limiter.admit("a", "normal")
    limiter.admit("a", "low")
    limiter.admit("b", "high")
    stats = limiter.stats()
    assert stats["rate_per_s"] == 1.0
    assert stats["burst"] == 2.0
    assert stats["admitted_total"] == 3
    assert stats["rejected_total"] == 1
    assert stats["tenants"]["a"]["admitted"] == 2
    assert stats["tenants"]["a"]["rejected"] == 1
    assert stats["tenants"]["a"]["rejected_by_class"] == {"low": 1}
    assert stats["tenants"]["a"]["tokens"] == 0.0
    assert stats["tenants"]["b"]["tokens"] == pytest.approx(1.5)


def test_default_burst_is_twice_the_rate():
    limiter = TenantRateLimiter(rate_per_s=25.0)
    assert limiter.burst == 50.0
