"""Loadtest internals: mix determinism and percentiles."""

import random
from itertools import islice

import pytest

from repro.fleet.loadtest import (
    _KEEP,
    LoadtestConfig,
    _Samples,
    generate_mix,
)
from repro.metrics.stats import percentile


def take(config, count):
    return list(islice(generate_mix(config), count))


# ----------------------------------------------------------------------
# Mix generation
# ----------------------------------------------------------------------
def test_mix_is_deterministic_per_seed():
    config = LoadtestConfig(seed=7)
    assert take(config, 50) == take(config, 50)
    assert take(config, 50) != take(LoadtestConfig(seed=8), 50)


def test_mix_contains_duplicates_and_valid_fields():
    config = LoadtestConfig(
        seed=3, duplicate_fraction=0.5, tenants=("a", "b"),
    )
    mix = take(config, 200)
    assert len(mix) == 200
    # Duplicate fraction 0.5 must produce real duplicate content
    # addresses (tenant/priority are options, not content).
    cores = [
        (p["scenario"], p["bg_case"], p["seconds"], p["seed"]) for p in mix
    ]
    assert len(set(cores)) < len(cores)
    for payload in mix:
        assert payload["tenant"] in ("a", "b")
        assert payload["priority"] in (5, 10, 20)


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------
def test_level_percentiles_are_the_stats_percentiles():
    samples = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.05, 1.4]
    level = _Samples(random.Random(1))
    for value in samples:
        level.add(value)
    doc = level.doc()
    assert doc["count"] == len(samples)
    mean = sum(samples) / len(samples)
    assert doc["mean_s"] == pytest.approx(mean, abs=1e-4)
    for q in (50, 95, 99):
        assert doc[f"p{q}_s"] == round(percentile(samples, q), 4)


def test_latency_doc_shape():
    level = _Samples(random.Random(1))
    for value in (0.3, 0.1, 0.2):
        level.add(value)
    doc = level.doc()
    assert doc["count"] == 3
    assert doc["p50_s"] == 0.2
    assert doc["mean_s"] == pytest.approx(0.2)


def test_level_samples_stay_bounded():
    level = _Samples(random.Random(1))
    for value in range(10 * _KEEP):
        level.add(float(value))
    assert len(level.values) == _KEEP
    assert level.count == 10 * _KEEP
    # A uniform sample of 0..9999 has its median near the middle.
    assert 3000 < level.doc()["p50_s"] < 7000

