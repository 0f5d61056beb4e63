"""The service's unit of work: a canonical, content-addressed run request.

A :class:`RunRequest` captures *everything* that determines a
simulation's outcome — scenario, policy, device, background case and
count, measured/settle windows, seed — and nothing that doesn't (job
priority, deadlines and progress streaming are properties of the
*submission*, not of the simulation, and live on the job instead).

Because the simulator is fully deterministic given these inputs, two
requests with equal fields produce bit-identical results.  The request
therefore canonicalizes to a stable JSON form (sorted keys, normalized
number types) and hashes to a :meth:`cache_key` that the result cache
uses as a content address: submit the same request twice and the second
answer comes from the cache without simulating.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.experiments.cases import BgCase, SCENARIOS

# Bump when the request shape or its semantics change: old cache
# entries must never be served for a request they no longer describe.
SPEC_VERSION = 1

_KEY_PREFIX = f"repro-run-v{SPEC_VERSION}:"


def canonical_dumps(doc: object) -> str:
    """Stable JSON form: sorted keys, no whitespace.

    Used both for the request's content address and for costing cache
    entries (the byte budget charges each entry its canonical-JSON
    size, so the accounting is deterministic and platform-independent
    rather than an estimate of interpreter object overhead).
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canonical_size_bytes(doc: object) -> int:
    """UTF-8 byte length of the canonical JSON form of ``doc``."""
    return len(canonical_dumps(doc).encode("utf-8"))


@dataclass(frozen=True)
class RunRequest:
    """One simulation's complete input set.

    ``scenario`` is a paper scenario id ("S-A".."S-D") or a catalog
    package name; everything after ``policy`` overrides the scenario's
    defaults (device, background population, windows, seed).
    """

    scenario: str
    policy: str = "LRU+CFS"
    device: str = "P20"
    bg_case: str = BgCase.APPS
    bg_count: Optional[int] = None
    seconds: float = 60.0
    settle_s: float = 5.0
    seed: int = 42

    def __post_init__(self) -> None:
        # Normalize numeric types so `seconds=2` and `seconds=2.0`
        # canonicalize (and therefore cache) identically.
        object.__setattr__(self, "seconds", float(self.seconds))
        object.__setattr__(self, "settle_s", float(self.settle_s))
        object.__setattr__(self, "seed", int(self.seed))
        if self.bg_count is not None:
            object.__setattr__(self, "bg_count", int(self.bg_count))
        if not self.scenario or not isinstance(self.scenario, str):
            raise ValueError("scenario must be a non-empty string")
        if not self.policy or not isinstance(self.policy, str):
            raise ValueError("policy must be a non-empty string")
        if self.bg_case not in BgCase.ALL:
            raise ValueError(
                f"unknown bg case {self.bg_case!r}; valid: {list(BgCase.ALL)}"
            )
        if self.seconds <= 0:
            raise ValueError("seconds must be positive")
        if self.settle_s < 0:
            raise ValueError("settle_s must be >= 0")
        if self.bg_count is not None and self.bg_count < 0:
            raise ValueError("bg_count must be >= 0")

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRequest":
        """Build from a JSON body, rejecting unknown keys.

        Silently dropping a misspelled field ("secnds") would run a
        simulation the caller did not ask for *and* cache it under the
        wrong key, so unknown keys are a hard error.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown request field(s): {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(known))}"
            )
        if "scenario" not in payload:
            raise ValueError("request field 'scenario' is required")
        return cls(**payload)

    def canonical_json(self) -> str:
        """The stable serialized form the cache key is derived from."""
        return canonical_dumps(self.to_dict())

    def cache_key(self) -> str:
        """Content address: sha256 over the versioned canonical JSON."""
        digest = hashlib.sha256(
            (_KEY_PREFIX + self.canonical_json()).encode("utf-8")
        )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Short human tag for logs and progress lines."""
        return (
            f"{self.scenario}/{self.policy} on {self.device} "
            f"({self.bg_case}, {self.seconds:g}s, seed {self.seed})"
        )

    def known_scenario(self) -> bool:
        return self.scenario in SCENARIOS
