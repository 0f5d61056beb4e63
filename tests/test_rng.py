"""Tests for namespaced RNG streams."""

import pytest

from repro.sim.rng import RngRegistry, RngStream, derive_seed


def test_derive_seed_is_deterministic():
    assert derive_seed(42, "foo") == derive_seed(42, "foo")


def test_derive_seed_differs_by_namespace():
    assert derive_seed(42, "foo") != derive_seed(42, "bar")


def test_derive_seed_differs_by_base():
    assert derive_seed(1, "foo") != derive_seed(2, "foo")


def test_streams_reproducible_across_instances():
    a = RngStream(7, "component")
    b = RngStream(7, "component")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_streams_independent_across_namespaces():
    registry = RngRegistry(7)
    a = registry.stream("alpha")
    # Drawing from beta must not perturb alpha's future draws.
    expected = RngStream(7, "alpha")
    expected.random()
    a.random()
    registry.stream("beta").random()
    assert a.random() == expected.random()


def test_registry_returns_same_stream_instance():
    registry = RngRegistry(1)
    assert registry.stream("x") is registry.stream("x")


def test_uniform_within_bounds():
    stream = RngStream(3, "u")
    for _ in range(100):
        value = stream.uniform(2.0, 5.0)
        assert 2.0 <= value <= 5.0


def test_randint_within_bounds():
    stream = RngStream(3, "i")
    for _ in range(100):
        assert 1 <= stream.randint(1, 6) <= 6


def test_zipf_index_within_bounds():
    stream = RngStream(3, "z")
    for _ in range(500):
        assert 0 <= stream.zipf_index(10) < 10


def test_zipf_index_biased_toward_zero():
    stream = RngStream(3, "zb")
    draws = [stream.zipf_index(100, skew=1.0) for _ in range(2000)]
    low = sum(1 for d in draws if d < 20)
    assert low > len(draws) * 0.4  # far above the uniform expectation


def test_zipf_index_empty_population_rejected():
    with pytest.raises(ValueError):
        RngStream(3, "e").zipf_index(0)


def test_sample_and_choice():
    stream = RngStream(3, "s")
    population = list(range(20))
    picked = stream.sample(population, 5)
    assert len(picked) == 5
    assert len(set(picked)) == 5
    assert stream.choice(population) in population


def test_shuffle_is_permutation():
    stream = RngStream(3, "sh")
    items = list(range(30))
    shuffled = list(items)
    stream.shuffle(shuffled)
    assert sorted(shuffled) == items
