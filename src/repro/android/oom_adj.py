"""Android oom_score_adj scores (§4.4).

The framework assigns each process an adj score reflecting user
perceptibility: foreground processes get 0, perceptible background
applications (music playback, active downloads) get 200, and cached
applications get scores from 900 upward ordered by recency — the LMK
kills from the highest score down, and ICE's whitelist admits every
application with a score <= 200 (never frozen).
"""

from __future__ import annotations

ADJ_FOREGROUND = 0
ADJ_PERCEPTIBLE = 200
CACHED_APP_MIN_ADJ = 900
CACHED_APP_MAX_ADJ = 999


def cached_adj(recency_rank: int) -> int:
    """Adj for a cached app; rank 0 = most recently foregrounded."""
    if recency_rank < 0:
        raise ValueError("recency rank must be >= 0")
    return min(CACHED_APP_MAX_ADJ, CACHED_APP_MIN_ADJ + recency_rank * 10)
