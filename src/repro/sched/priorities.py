"""Nice values and CFS load weights.

The weight table is the kernel's ``sched_prio_to_weight``: each nice
step changes the weight by ~1.25x, so a nice-0 task gets 1024 and a
nice-10 background task gets ~110 (about 10% of the CPU share when
competing with a nice-0 task).
"""

from __future__ import annotations

NICE_MIN = -20
NICE_MAX = 19
NICE_DEFAULT = 0

# Kernel sched_prio_to_weight table, indices nice -20 .. +19.
_PRIO_TO_WEIGHT = [
    88761, 71755, 56483, 46273, 36291,
    29154, 23254, 18705, 14949, 11916,
    9548, 7620, 6100, 4904, 3906,
    3121, 2501, 1991, 1586, 1277,
    1024, 820, 655, 526, 423,
    335, 272, 215, 172, 137,
    110, 87, 70, 56, 45,
    36, 29, 23, 18, 15,
]


def nice_to_weight(nice: int) -> int:
    """Map a nice value to its CFS load weight."""
    if not NICE_MIN <= nice <= NICE_MAX:
        raise ValueError(f"nice value {nice} outside [{NICE_MIN}, {NICE_MAX}]")
    return _PRIO_TO_WEIGHT[nice - NICE_MIN]
