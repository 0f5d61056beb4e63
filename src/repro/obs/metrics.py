"""Process-wide metrics registry with Prometheus text exposition.

The serve control plane (and anything else that wants scrapeable
telemetry) registers three metric kinds here:

* :class:`Counter` — monotonically increasing totals (requests served,
  cache evictions).  Negative increments are rejected: a counter that
  can go down is a gauge wearing the wrong name, and Prometheus rate()
  silently mis-computes over it.
* :class:`Gauge` — point-in-time values, either set explicitly
  (RSS sampled on an interval) or computed at scrape time from a
  callback (queue depth, worker busy count), so the scrape always sees
  the live value without anyone remembering to push updates.
* :class:`HistogramFamily` — latency distributions backed by the
  simulator's own log-bucketed :class:`repro.trace.histogram.Histogram`,
  exposed in the cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
  form Prometheus expects.  The log buckets give constant relative
  resolution from sub-millisecond queue waits to multi-second runs with
  a handful of dict entries per series.

Every metric kind supports label dimensions (``labels("normal")``
returns the per-class child), and :meth:`MetricsRegistry.render`
produces one valid text-exposition document over all families.
:func:`validate_exposition` is a promtool-lite syntax checker used by
tests and CI to keep the endpoint honest.
"""

from __future__ import annotations

import re
import threading
import tracemalloc
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.trace.histogram import Histogram

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _fmt_value(value: float) -> str:
    """Prometheus sample value: integers stay integral, floats compact."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labelnames: Tuple[str, ...], labelvalues: Tuple[str, ...],
                extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{value}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Family:
    """Base: one named metric with zero or more label dimensions."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...] = ()):
        self.name = _check_name(name)
        self.help = help_text
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self):  # pragma: no cover - subclasses override
        raise NotImplementedError

    def labels(self, *values: object):
        """The child series for these label values (created on demand)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label value(s) "
                f"({', '.join(self.labelnames)}), got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def _default(self):
        """The single unlabeled child (only when labelnames is empty)."""
        return self.labels()

    def remove(self, *values: object) -> bool:
        """Drop one label series (e.g. a fleet node that was evicted).

        Counters are per-series monotonic, so deleting a series is the
        only honest way to stop exposing an entity that no longer
        exists; returns False when the series was never created.
        """
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label value(s) "
                f"({', '.join(self.labelnames)}), got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        with self._lock:
            return self._children.pop(key, None) is not None

    def items(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    # ------------------------------------------------------------------
    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help}" if self.help
            else f"# HELP {self.name} (no help)",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labelvalues, child in self.items():
            lines.extend(self._render_child(labelvalues, child))
        return lines

    def _render_child(self, labelvalues, child):  # pragma: no cover
        raise NotImplementedError


class Counter:
    """Monotonic counter child. ``inc`` only goes up."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        self.value += amount


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value

    @property
    def total(self) -> float:
        """Sum over every series; reading creates none."""
        return sum(child.value for _, child in self.items())

    def _render_child(self, labelvalues, child) -> List[str]:
        labels = _fmt_labels(self.labelnames, labelvalues)
        return [f"{self.name}{labels} {_fmt_value(child.value)}"]


class Gauge:
    """Point-in-time gauge child; explicit value or scrape-time callback."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Evaluate ``fn`` at every scrape instead of storing a value."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def set(self, value: float) -> None:
        self._default().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default().set_function(fn)

    @property
    def value(self) -> float:
        return self._default().value

    def _render_child(self, labelvalues, child) -> List[str]:
        labels = _fmt_labels(self.labelnames, labelvalues)
        return [f"{self.name}{labels} {_fmt_value(child.value)}"]


class HistogramChild:
    """One labeled latency series over a log-bucketed histogram."""

    __slots__ = ("hist",)

    def __init__(self, min_value: float, growth: float) -> None:
        self.hist = Histogram(min_value=min_value, growth=growth)

    def observe(self, value: float) -> None:
        self.hist.add(value)

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def sum(self) -> float:
        return self.hist.total

    def percentile(self, pct: float) -> float:
        return self.hist.percentile(pct)

    def summary(self) -> Dict[str, float]:
        """Compact doc for JSON stats: count/mean/p50/p95/p99/max."""
        hist = self.hist
        if hist.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": hist.count,
            "mean": round(hist.mean, 6),
            "p50": round(hist.percentile(50), 6),
            "p95": round(hist.percentile(95), 6),
            "p99": round(hist.percentile(99), 6),
            "max": round(hist.max, 6),
        }


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...] = (),
                 min_value: float = 0.001, growth: float = 2.0):
        super().__init__(name, help_text, labelnames)
        self.min_value = min_value
        self.growth = growth

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self.min_value, self.growth)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def _render_child(self, labelvalues, child) -> List[str]:
        hist = child.hist
        lines: List[str] = []
        cumulative = 0
        for lo, hi, count in hist.buckets():
            cumulative += count
            labels = _fmt_labels(
                self.labelnames, labelvalues, (("le", f"{hi:g}"),)
            )
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
        inf_labels = _fmt_labels(
            self.labelnames, labelvalues, (("le", "+Inf"),)
        )
        lines.append(f"{self.name}_bucket{inf_labels} {hist.count}")
        plain = _fmt_labels(self.labelnames, labelvalues)
        lines.append(f"{self.name}_sum{plain} {_fmt_value(hist.total)}")
        lines.append(f"{self.name}_count{plain} {hist.count}")
        return lines


def latency_summary(family: HistogramFamily) -> Dict[str, dict]:
    """Per-label-value percentile docs for ``/v1/stats`` JSON.

    Keys are the joined label values (for the common single-label
    ``priority_class`` families that is just "high"/"normal"/"low").
    """
    return {
        ",".join(labelvalues) or "all": child.summary()
        for labelvalues, child in family.items()
    }


class MetricsRegistry:
    """A named collection of metric families rendered as one document.

    Registration is idempotent: asking for an existing name returns the
    existing family if the kind and label set match, and raises if they
    don't — two subsystems silently sharing a name with different
    meanings is exactly the bug a registry exists to prevent.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _register(self, cls, name: str, help_text: str,
                  labelnames: Iterable[str], **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = cls(name, help_text, labelnames, **kwargs)
            self._families[name] = family
        # Unlabeled families materialize their single child now so a
        # scrape shows the series at 0 from the very first render —
        # "counter absent" and "counter is zero" read very differently
        # on a dashboard.
        if not labelnames:
            family.labels()
        return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> CounterFamily:
        return self._register(CounterFamily, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = (),
              fn: Optional[Callable[[], float]] = None) -> GaugeFamily:
        family = self._register(GaugeFamily, name, help_text, labelnames)
        if fn is not None:
            family.set_function(fn)
        return family

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  min_value: float = 0.001,
                  growth: float = 2.0) -> HistogramFamily:
        return self._register(
            HistogramFamily, name, help_text, labelnames,
            min_value=min_value, growth=growth,
        )

    # ------------------------------------------------------------------
    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def render(self) -> str:
        """The full Prometheus text-exposition document."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# Memory accounting helpers
# ----------------------------------------------------------------------
def read_rss_bytes() -> int:
    """Resident set size of this process in bytes.

    Prefers ``/proc/self/status`` (current RSS, Linux); falls back to
    ``resource.getrusage`` (peak RSS) elsewhere, and 0 if neither works.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes.
        return usage * 1024 if usage < 1 << 34 else usage
    except Exception:
        return 0


def memory_snapshot() -> dict:
    """One sample of process memory: RSS + tracemalloc (if tracing)."""
    doc = {
        "rss_bytes": read_rss_bytes(),
        "tracemalloc": {"enabled": tracemalloc.is_tracing(),
                        "current_bytes": 0, "peak_bytes": 0},
    }
    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        doc["tracemalloc"]["current_bytes"] = current
        doc["tracemalloc"]["peak_bytes"] = peak
    return doc


# ----------------------------------------------------------------------
# Exposition validation (promtool-lite, for tests and CI)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+(?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))"
    r"(?:\s+[-+]?[0-9]+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$'
)


def validate_exposition(text: str) -> Dict[str, str]:
    """Check Prometheus text-exposition syntax; returns {name: type}.

    Raises :class:`ValueError` on the first malformed line, on samples
    for histogram families missing their ``_bucket``/``_sum``/``_count``
    series, and on histograms without a ``+Inf`` bucket.
    """
    types: Dict[str, str] = {}
    seen_samples: Dict[str, List[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels = match.group("labels")
        if labels:
            inner = labels[1:-1]
            if inner:
                for pair in _split_label_pairs(inner):
                    if not _LABEL_PAIR_RE.match(pair):
                        raise ValueError(
                            f"line {lineno}: malformed label pair {pair!r}"
                        )
        seen_samples.setdefault(match.group("name"), []).append(line)
    for name, kind in types.items():
        if kind == "histogram":
            # Metadata with zero samples is legal (a labeled family with
            # no children yet); but once any series exists, the full
            # _bucket/_sum/_count triple must.
            has_any = any(
                name + suffix in seen_samples
                for suffix in ("_bucket", "_sum", "_count")
            )
            if not has_any:
                continue
            for suffix in ("_bucket", "_sum", "_count"):
                if name + suffix not in seen_samples:
                    raise ValueError(
                        f"histogram {name} missing {name}{suffix} samples"
                    )
            if not any(
                'le="+Inf"' in line for line in seen_samples[name + "_bucket"]
            ):
                raise ValueError(f"histogram {name} missing +Inf bucket")
    return types


def parse_samples(text: str) -> Dict[str, float]:
    """Parse a text exposition into ``{sample_line_key: value}``.

    The key is the sample name with its label set verbatim (e.g.
    ``repro_serve_queue_enqueued_total{priority_class="interactive"}``);
    unlabeled samples key on the bare name.  Comment and metadata lines
    are skipped; malformed sample lines raise :class:`ValueError` (use
    :func:`validate_exposition` for the full lint).  This is the
    consumer half of the promtool-lite pair — soak and consistency
    checks scrape ``/metrics`` and compare these values against
    ``/v1/stats`` totals.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        key = match.group("name") + (match.group("labels") or "")
        samples[key] = float(match.group("value"))
    return samples


def family_total(samples: Dict[str, float], name: str) -> float:
    """Sum every series of one family (all label combinations).

    ``family_total(s, "x_total")`` adds ``x_total`` and every
    ``x_total{...}`` series, but not ``x_total_created`` — the match is
    exact-name-then-brace, not a prefix.
    """
    total = 0.0
    for key, value in samples.items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


def _split_label_pairs(inner: str) -> List[str]:
    """Split 'a="x",b="y,z"' on commas outside quoted values."""
    pairs: List[str] = []
    depth_quote = False
    escaped = False
    current: List[str] = []
    for char in inner:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            depth_quote = not depth_quote
            current.append(char)
            continue
        if char == "," and not depth_quote:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs
