"""Loadtest internals: mix determinism, percentiles, knee, M/M/k model."""

import random
from itertools import islice

import pytest

from repro.fleet.loadtest import (
    _KEEP,
    LoadtestConfig,
    _Samples,
    find_knee,
    generate_mix,
    mmk_model,
)
from repro.metrics.stats import percentile


def take(config, count, salt=""):
    return list(islice(generate_mix(config, salt=salt), count))


# ----------------------------------------------------------------------
# Mix generation
# ----------------------------------------------------------------------
def test_mix_is_deterministic_per_seed():
    config = LoadtestConfig(seed=7)
    assert take(config, 50) == take(config, 50)
    assert take(config, 50) != take(LoadtestConfig(seed=8), 50)


def test_mix_salt_uniquifies_sweep_levels():
    config = LoadtestConfig(seed=7)
    plain = take(config, 30)
    salted = take(config, 30, salt="sweep-4")
    seeds = {p["seed"] for p in plain}
    salted_seeds = {p["seed"] for p in salted}
    assert seeds.isdisjoint(salted_seeds)


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


# ----------------------------------------------------------------------
# Knee detection
# ----------------------------------------------------------------------
def test_find_knee_picks_last_scaling_level():
    sweep = [
        {"concurrency": 1, "throughput_rps": 2.0},
        {"concurrency": 2, "throughput_rps": 3.9},   # +95%
        {"concurrency": 4, "throughput_rps": 7.0},   # +79%
        {"concurrency": 8, "throughput_rps": 7.3},   # +4% — past the knee
        {"concurrency": 16, "throughput_rps": 7.1},
    ]
    assert find_knee(sweep) == 4


def test_find_knee_degenerate_inputs():
    assert find_knee([]) is None
    assert find_knee([{"concurrency": 2, "throughput_rps": 5.0}]) == 2


# ----------------------------------------------------------------------
# M/M/k model
# ----------------------------------------------------------------------
def test_mmk_model_unloaded_system_approaches_service_time():
    # At 1% utilization nobody queues: E[T] ~= 1/mu.
    model = mmk_model(k=4, lambda_rps=0.04, mean_service_s=1.0)
    assert model["rho"] == pytest.approx(0.01)
    assert model["p_wait"] < 1e-4
    assert model["expected_e2e_s"] == pytest.approx(1.0, rel=1e-3)


def test_mmk_model_single_server_matches_mm1():
    # For k=1, Erlang-C reduces to M/M/1: P_wait = rho and
    # E[T] = 1/(mu - lambda).
    model = mmk_model(k=1, lambda_rps=0.5, mean_service_s=1.0)
    assert model["p_wait"] == pytest.approx(0.5)
    assert model["expected_e2e_s"] == pytest.approx(2.0)


def test_mmk_model_queueing_grows_with_load():
    light = mmk_model(k=2, lambda_rps=0.5, mean_service_s=1.0)
    heavy = mmk_model(k=2, lambda_rps=1.8, mean_service_s=1.0)
    assert heavy["p_wait"] > light["p_wait"]
    assert heavy["expected_e2e_s"] > light["expected_e2e_s"]
    assert 0.0 <= light["p_wait"] <= 1.0


def test_mmk_model_saturation_and_degenerate_inputs():
    saturated = mmk_model(k=2, lambda_rps=3.0, mean_service_s=1.0)
    assert saturated["saturated"] is True
    assert "expected_e2e_s" not in saturated
    assert mmk_model(k=0, lambda_rps=1.0, mean_service_s=1.0) is None
    assert mmk_model(k=2, lambda_rps=0.0, mean_service_s=1.0) is None
    assert mmk_model(k=2, lambda_rps=1.0, mean_service_s=None) is None
