"""Tests for the metrics registry and Prometheus exposition
(`repro.obs.metrics`)."""

import threading

import pytest

from repro.obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    MetricsRegistry,
    latency_summary,
    memory_snapshot,
    read_rss_bytes,
    validate_exposition,
)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_counter_increments_monotonically():
    reg = MetricsRegistry()
    counter = reg.counter("jobs_total", "jobs")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    counter = reg.counter("jobs_total", "jobs")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_labels_are_independent_series():
    reg = MetricsRegistry()
    family = reg.counter("hits_total", "hits", labelnames=("tier",))
    family.labels("memory").inc(3)
    family.labels("disk").inc()
    assert family.labels("memory").value == 3
    assert family.labels("disk").value == 1


def test_counter_total_sums_series_and_creates_none():
    reg = MetricsRegistry()
    family = reg.counter("hits_total", "hits", labelnames=("tier",))
    assert family.total == 0
    family.labels("memory").inc(3)
    family.labels("disk").inc()
    assert family.total == 4
    assert [labels for labels, _ in family.items()] == [("disk",), ("memory",)]


def test_wrong_label_arity_raises():
    reg = MetricsRegistry()
    family = reg.counter("hits_total", "hits", labelnames=("tier",))
    with pytest.raises(ValueError):
        family.labels()
    with pytest.raises(ValueError):
        family.labels("a", "b")


# ----------------------------------------------------------------------
# Gauges
# ----------------------------------------------------------------------
def test_gauge_set_and_arithmetic():
    reg = MetricsRegistry()
    gauge = reg.gauge("depth", "queue depth")
    gauge.set(10)
    assert gauge.value == 10.0


def test_gauge_callback_evaluated_at_read():
    state = {"n": 1}
    reg = MetricsRegistry()
    gauge = reg.gauge("live", "live value", fn=lambda: state["n"])
    assert gauge.value == 1
    state["n"] = 7
    assert gauge.value == 7


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_reregistration_returns_same_family():
    reg = MetricsRegistry()
    first = reg.counter("a_total", "a")
    second = reg.counter("a_total", "a")
    assert first is second


def test_reregistration_with_conflicting_shape_raises():
    reg = MetricsRegistry()
    reg.counter("a_total", "a")
    with pytest.raises(ValueError):
        reg.gauge("a_total", "now a gauge?")
    with pytest.raises(ValueError):
        reg.counter("a_total", "a", labelnames=("x",))


def test_invalid_metric_and_label_names_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("bad-name", "dashes are invalid")
    with pytest.raises(ValueError):
        reg.counter("ok_total", "bad label", labelnames=("le-gal?",))


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
def test_histogram_observe_and_percentiles():
    reg = MetricsRegistry()
    family = reg.histogram("lat_seconds", "latency",
                           labelnames=("priority_class",))
    child = family.labels("normal")
    for value in (0.01, 0.02, 0.04, 0.08, 1.0):
        child.observe(value)
    assert child.count == 5
    assert child.sum == pytest.approx(1.15)
    assert child.percentile(50) <= child.percentile(99)
    summary = child.summary()
    assert summary["count"] == 5
    assert summary["max"] == pytest.approx(1.0)


def test_latency_summary_maps_label_values():
    reg = MetricsRegistry()
    family = reg.histogram("lat_seconds", "latency",
                           labelnames=("priority_class",))
    family.labels("high").observe(0.5)
    doc = latency_summary(family)
    assert set(doc) == {"high"}
    assert doc["high"]["count"] == 1


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------
def test_render_is_valid_exposition():
    reg = MetricsRegistry()
    reg.counter("requests_total", "requests",
                labelnames=("status",)).labels("200").inc(3)
    reg.gauge("depth", "queue depth").set(2)
    hist = reg.histogram("wait_seconds", "queue wait",
                         labelnames=("priority_class",))
    hist.labels("normal").observe(0.005)
    hist.labels("normal").observe(0.5)
    text = reg.render()
    types = validate_exposition(text)
    assert types == {
        "requests_total": "counter",
        "depth": "gauge",
        "wait_seconds": "histogram",
    }
    assert 'requests_total{status="200"} 3' in text
    assert "# TYPE wait_seconds histogram" in text
    assert 'le="+Inf"' in text
    assert "wait_seconds_sum" in text and "wait_seconds_count" in text


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    hist = reg.histogram("h_seconds", "h")
    for value in (0.001, 0.002, 0.004, 0.008):
        hist.observe(value)
    lines = [
        line for line in reg.render().splitlines()
        if line.startswith("h_seconds_bucket")
    ]
    counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts), "bucket counts must be cumulative"
    assert counts[-1] == 4  # +Inf bucket sees every observation


def test_unlabeled_families_render_zero_samples_immediately():
    # "counter absent" and "counter is zero" read very differently on a
    # dashboard, so unlabeled families materialize their child eagerly.
    reg = MetricsRegistry()
    reg.counter("c_total", "c")
    reg.histogram("h_seconds", "h")
    text = reg.render()
    validate_exposition(text)
    assert "c_total 0" in text
    assert 'h_seconds_bucket{le="+Inf"} 0' in text
    assert "h_seconds_count 0" in text


def test_labeled_family_with_no_children_is_valid_metadata():
    # A fresh server scrape can expose a labeled histogram before any
    # observation mints a child; that must still validate.
    reg = MetricsRegistry()
    reg.histogram("h_seconds", "h", labelnames=("priority_class",))
    text = reg.render()
    assert "# TYPE h_seconds histogram" in text
    validate_exposition(text)


def test_label_values_are_escaped():
    reg = MetricsRegistry()
    family = reg.counter("c_total", "c", labelnames=("path",))
    family.labels('with"quote\nand\\slash').inc()
    text = reg.render()
    validate_exposition(text)
    assert r"\"quote" in text and r"\n" in text


def test_validate_exposition_rejects_garbage():
    with pytest.raises(ValueError):
        validate_exposition("this is { not } a metric line")
    with pytest.raises(ValueError):
        validate_exposition("# TYPE foo histogram\nfoo_sum 1\nfoo_count 1")


def test_content_type_is_prometheus_text():
    assert EXPOSITION_CONTENT_TYPE.startswith("text/plain")
    assert "version=0.0.4" in EXPOSITION_CONTENT_TYPE


# ----------------------------------------------------------------------
# Memory accounting helpers
# ----------------------------------------------------------------------
def test_read_rss_is_positive_here():
    assert read_rss_bytes() > 0


def test_memory_snapshot_shape():
    doc = memory_snapshot()
    assert doc["rss_bytes"] > 0
    assert set(doc["tracemalloc"]) == {
        "enabled", "current_bytes", "peak_bytes"
    }


# ----------------------------------------------------------------------
# Concurrency smoke
# ----------------------------------------------------------------------
def test_concurrent_label_creation_is_safe():
    reg = MetricsRegistry()
    family = reg.counter("c_total", "c", labelnames=("worker",))

    def hammer(name):
        for _ in range(200):
            family.labels(name).inc()

    threads = [
        threading.Thread(target=hammer, args=(f"w{i % 4}",))
        for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = sum(child.value for _, child in family.items())
    assert total == 8 * 200


# ----------------------------------------------------------------------
# Exposition parsing (the consumer half of promtool-lite)
# ----------------------------------------------------------------------
def test_parse_samples_keys_on_name_plus_labels():
    from repro.obs.metrics import parse_samples

    text = (
        "# HELP x_total things\n"
        "# TYPE x_total counter\n"
        "x_total 3\n"
        'y_total{tier="memory"} 2\n'
        'y_total{tier="disk"} 1.5\n'
    )
    samples = parse_samples(text)
    assert samples["x_total"] == 3.0
    assert samples['y_total{tier="memory"}'] == 2.0
    assert samples['y_total{tier="disk"}'] == 1.5


def test_parse_samples_rejects_garbage():
    from repro.obs.metrics import parse_samples

    with pytest.raises(ValueError, match="malformed sample"):
        parse_samples("not a metric line at all!")


def test_family_total_sums_children_without_prefix_bleed():
    from repro.obs.metrics import family_total, parse_samples

    text = (
        'x_total{a="1"} 2\n'
        'x_total{a="2"} 3\n'
        "x_total_created 99\n"  # different family; must not count
        "x_total 1\n"
    )
    samples = parse_samples(text)
    assert family_total(samples, "x_total") == 6.0
    assert family_total(samples, "missing_total") == 0.0


def test_parse_samples_round_trips_a_real_registry():
    from repro.obs.metrics import family_total, parse_samples

    registry = MetricsRegistry()
    counter = registry.counter("rt_total", "x", labelnames=("k",))
    counter.labels("a").inc(2)
    counter.labels("b").inc(3)
    samples = parse_samples(registry.render())
    assert family_total(samples, "rt_total") == 5.0
