"""Namespaced deterministic random-number streams.

Every stochastic component in the simulator draws from its own
:class:`RngStream`, derived from a single experiment seed plus a string
namespace.  This keeps experiments reproducible *and* composable: adding
a new component (with a new namespace) does not shift the draws seen by
existing components, so A/B comparisons between policies stay paired.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base_seed: int, namespace: str) -> int:
    """Derive a child seed from ``base_seed`` and a ``namespace`` string.

    Uses SHA-256 so the mapping is stable across Python versions and
    process invocations (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{base_seed}:{namespace}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A seeded random stream bound to one component."""

    def __init__(self, base_seed: int, namespace: str):
        self.namespace = namespace
        self.seed = derive_seed(base_seed, namespace)
        self._rng = random.Random(self.seed)
        # Hot draws are rebound as instance attributes so the wrapper
        # frame below is skipped; the underlying Random produces the
        # same sequence either way.
        self.random = self._rng.random
        self.choice = self._rng.choice
        self.uniform = self._rng.uniform
        self.expovariate = self._rng.expovariate

    def biased_picks(
        self, count: int, hot: Sequence[T], pool: Sequence[T], bias: float
    ) -> List[T]:
        """Draw ``count`` items, each from ``hot`` with probability
        ``bias`` and from ``pool`` otherwise.

        Draw for draw this is the loop every page sampler used to run::

            for _ in range(count):
                if hot and random() < bias:
                    picks.append(choice(hot))
                elif pool:
                    picks.append(choice(pool))

        with ``choice`` unrolled into the ``getrandbits(k)`` rejection
        loop of ``Random._randbelow`` (``k = n.bit_length()``, computed
        once per pool).  An empty ``hot`` consumes no ``random()``
        draw, and an empty ``pool`` picks nothing.
        """
        picks: List[T] = []
        append = picks.append
        getrandbits = self._rng.getrandbits
        n_hot = len(hot)
        n_pool = len(pool)
        k_pool = n_pool.bit_length()
        if not n_hot:
            if n_pool:
                for _ in range(count):
                    r = getrandbits(k_pool)
                    while r >= n_pool:
                        r = getrandbits(k_pool)
                    append(pool[r])
            return picks
        rnd = self._rng.random
        k_hot = n_hot.bit_length()
        for _ in range(count):
            if rnd() < bias:
                r = getrandbits(k_hot)
                while r >= n_hot:
                    r = getrandbits(k_hot)
                append(hot[r])
            elif n_pool:
                r = getrandbits(k_pool)
                while r >= n_pool:
                    r = getrandbits(k_pool)
                append(pool[r])
        return picks

    # Thin, explicit wrappers: the full Random API is intentionally not
    # exposed so components stay easy to audit for stochastic behaviour.
    def random(self) -> float:
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        return self._rng.lognormvariate(mu, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(population, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Draw an index in ``[0, n)`` with a Zipf-like bias toward 0.

        Implemented via inverse-power transform of a uniform draw; exact
        Zipf normalization is unnecessary for workload modeling.
        """
        if n <= 0:
            raise ValueError("zipf_index needs a positive population size")
        u = self._rng.random()
        # Map u in (0,1] through u^(1/(1+skew)) to bias small indices.
        idx = int(n * (u ** (1.0 + skew)))
        return min(idx, n - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStream {self.namespace!r} seed={self.seed}>"


class RngRegistry:
    """Factory handing out one :class:`RngStream` per namespace."""

    def __init__(self, base_seed: int):
        self.base_seed = base_seed
        self._streams: Dict[str, RngStream] = {}

    def stream(self, namespace: str) -> RngStream:
        """Return the stream for ``namespace``, creating it on first use."""
        existing = self._streams.get(namespace)
        if existing is None:
            existing = RngStream(self.base_seed, namespace)
            self._streams[namespace] = existing
        return existing
