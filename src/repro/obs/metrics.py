"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Every :class:`~repro.lte.signaling.SignalingNode` owns one
:class:`MetricsRegistry`; fleet-wide views are produced by *merging*
registries (:meth:`MetricsRegistry.merged`), never by sharing mutable
state between nodes.  All state is bounded: counters and gauges are one
number each, histograms have a fixed bucket layout chosen at creation.

Instrumented components keep their familiar ``self.some_counter += 1``
attribute style via :class:`CounterAttr`, a descriptor that stores the
value in the owning object's registry — so the registry is the single
source of truth while every legacy accessor (``reliable_stats()``,
``stats()`` and friends) keeps working as a thin view.

Determinism: registries never read the wall clock and snapshots are
emitted in sorted order, so two identical seeded runs produce identical
snapshots byte for byte.
"""

from __future__ import annotations

from typing import Optional

# Fixed default layout for latency histograms (milliseconds): geometric
# buckets from sub-ms crypto legs up to multi-second chaos outliers.
LATENCY_BUCKETS_MS = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items())) if labels else ()


def _format_name(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically growing tally (resettable only by assignment)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value (queue depth, cache size, ...)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram: bounded memory regardless of sample count.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.  Percentiles are estimated
    by linear interpolation inside the winning bucket (exact min/max are
    tracked so the estimate is clamped to observed values).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "min", "max")
    kind = "histogram"

    def __init__(self, name: str, buckets=LATENCY_BUCKETS_MS,
                 labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def percentile(self, pct: float) -> float:
        """Bucket-interpolated percentile estimate (0 if no samples)."""
        if self.count == 0:
            return 0.0
        rank = pct / 100.0 * self.count
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.buckets):
            in_bucket = self.counts[index]
            if cumulative + in_bucket >= rank and in_bucket > 0:
                fraction = (rank - cumulative) / in_bucket
                estimate = lower + fraction * (bound - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
            lower = bound
        return self.max if self.max is not None else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": round(self.mean, 9),
            "p50": round(self.percentile(50.0), 9),
            "p99": round(self.percentile(99.0), 9),
        }


class CounterVec:
    """Family of counters sharing one name, split by a single label.

    Supports the :class:`collections.Counter`-style accessors the
    pre-registry code used (``vec[key] += 1``, ``dict(vec)``), so the
    migration leaves call sites untouched.
    """

    def __init__(self, registry: "MetricsRegistry", name: str, label: str):
        self._registry = registry
        self._name = name
        self._label = label

    def _counter(self, key) -> Counter:
        return self._registry.counter(self._name, **{self._label: key})

    def __getitem__(self, key) -> int:
        return self._counter(key).value

    def __setitem__(self, key, value) -> None:
        self._counter(key).value = value

    def keys(self):
        return [labels[0][1] for kind, name, labels in self._registry.keys()
                if kind == "counter" and name == self._name and labels]

    def items(self):
        return [(key, self[key]) for key in self.keys()]

    def __iter__(self):
        return iter(self.keys())


class MetricsRegistry:
    """A node-scoped set of named metrics, mergeable fleet-wide."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self, node: str = ""):
        self.node = node
        self._metrics: dict[tuple, object] = {}

    # -- get-or-create ----------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict, **kwargs):
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._KINDS[kind](name, labels=key[2], **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, buckets=LATENCY_BUCKETS_MS,
                  **labels) -> Histogram:
        return self._get("histogram", name, labels, buckets=buckets)

    def counter_vec(self, name: str, label: str) -> CounterVec:
        return CounterVec(self, name, label)

    def keys(self):
        return list(self._metrics.keys())

    def find_histogram(self, name: str) -> Optional[Histogram]:
        return self._metrics.get(("histogram", name, ()))

    # -- aggregation ------------------------------------------------------
    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics into this registry (sums counters,
        takes the latest gauge value, adds histogram buckets)."""
        for (kind, name, labels), metric in sorted(other._metrics.items()):
            if kind == "counter":
                self._get(kind, name, dict(labels)).value += metric.value
            elif kind == "gauge":
                self._get(kind, name, dict(labels)).value = metric.value
            else:
                mine = self._get(kind, name, dict(labels),
                                 buckets=metric.buckets)
                if mine.buckets != metric.buckets:
                    raise ValueError(
                        f"histogram {name}: incompatible bucket layouts")
                for index, count in enumerate(metric.counts):
                    mine.counts[index] += count
                mine.count += metric.count
                mine.sum += metric.sum
                for attr in ("min", "max"):
                    theirs = getattr(metric, attr)
                    ours = getattr(mine, attr)
                    if theirs is not None and (
                            ours is None
                            or (attr == "min" and theirs < ours)
                            or (attr == "max" and theirs > ours)):
                        setattr(mine, attr, theirs)

    @classmethod
    def merged(cls, registries) -> "MetricsRegistry":
        """One fleet-wide registry aggregating every input registry."""
        fleet = cls(node="fleet")
        for registry in registries:
            fleet.merge_from(registry)
        return fleet

    # -- export -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic (sorted) name -> value mapping.  Counters and
        gauges map to their number, histograms to a summary dict."""
        out: dict = {}
        for (kind, name, labels), metric in sorted(self._metrics.items()):
            out[_format_name(name, labels)] = metric.snapshot()
        return out


class CounterAttr:
    """Class-level descriptor binding an attribute to a registry counter.

    ``self.requests_sent += 1`` keeps working at every call site while
    the value lives in ``self.metrics`` — one source of truth, legacy
    attribute access preserved.  The owning object must create
    ``self.metrics`` (a :class:`MetricsRegistry`) before first use.
    """

    __slots__ = ("metric_name", "slot")

    def __init__(self, metric_name: str):
        self.metric_name = metric_name
        self.slot = "_ctr_" + metric_name.replace(".", "_")

    def _counter(self, obj) -> Counter:
        counter = obj.__dict__.get(self.slot)
        if counter is None:
            counter = obj.metrics.counter(self.metric_name)
            obj.__dict__[self.slot] = counter
        return counter

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self._counter(obj).value

    def __set__(self, obj, value) -> None:
        self._counter(obj).value = value
