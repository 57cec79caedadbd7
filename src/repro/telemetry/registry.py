"""The metrics registry: counters, gauges, histograms, time series.

One registry per run is the single accounting spine the exporters read.
Instruments are keyed by name plus a small label set (``node=3``,
``kind="tuple"``, ``src=0, dst=2``) and are get-or-create: the first
caller defines the instrument, later callers share it.  Call sites on
hot paths cache the instrument handle once and pay one attribute update
per observation.

Time resolution comes from :meth:`MetricRegistry.sample`: at each
sampling tick (driven by the *simulated* clock) every counter and gauge
appends ``(now, value)`` to its bounded ring-buffered
:class:`TimeSeries`.  Sampling cumulative counter values rather than
deltas keeps the series loss-tolerant: a reader can difference any two
retained points even after the ring dropped the early history.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

SERIES_CAPACITY = 4_096
"""Ring capacity of each per-instrument time series; the system's
sampling cadence stretches so a run's span fits in it."""

LabelSet = Tuple[Tuple[str, str], ...]
"""Canonical label form: ``(("node", "3"), ("stream", "R"))`` -- sorted,
stringified, hashable."""


def label_set(labels: Dict[str, object]) -> LabelSet:
    """Canonicalize a label dict (sorted keys, string values)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(labels: LabelSet) -> str:
    """Human/CSV form: ``node=3;stream=R`` (empty string for no labels)."""
    return ";".join("%s=%s" % (key, value) for key, value in labels)


class TimeSeries:
    """Bounded ring buffer of ``(time, value)`` samples.

    Times and values are kept in two rings of floats, so a sample adds
    no tuple for the garbage collector to track; iteration pairs them.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("series capacity must be >= 1")
        self._times: Deque[float] = deque(maxlen=capacity)
        self._values: Deque[float] = deque(maxlen=capacity)
        self.total_samples = 0

    def append(self, time: float, value: float) -> None:
        self._times.append(time)
        self._values.append(value)
        self.total_samples += 1

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return zip(self._times, self._values)


class Instrument:
    """Common identity of every registry instrument."""

    kind = "abstract"

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.series: Optional[TimeSeries] = None

    def sample_value(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(Instrument):
    """Monotone accumulated count (messages, broadcasts, events)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def sample_value(self) -> float:
        return self.value


class Gauge(Instrument):
    """Point-in-time level (queue depth, backlog seconds, budget)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def sample_value(self) -> float:
        return self.value


DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)


_TOTAL_SCALE_BITS = 1074
"""The smallest positive double is ``2**-1074``."""


class Histogram(Instrument):
    """Fixed-bucket distribution (service times, fan-outs, sizes).

    ``edges`` are upper bucket bounds; one extra open-ended bucket
    catches the tail.  Cumulative counts are produced at export time
    (Prometheus convention), raw per-bucket counts are kept here.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        edges: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        if not edges or list(edges) != sorted(edges):
            raise ConfigurationError("histogram edges must be sorted and non-empty")
        self.edges = tuple(float(edge) for edge in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self._scaled_total = 0
        self.count = 0

    @property
    def total(self) -> float:
        """Sum of observations.

        Accumulated exactly, not as a running float, so the sum does not
        depend on the order of the observations: every finite double is a
        whole multiple of ``2**-_TOTAL_SCALE_BITS``, so the sum is kept as
        one integer count of that unit and rounded once, here (integer
        true division rounds correctly, as ``float(Fraction)`` does).  The
        pinned ``metrics.prom`` exports carry this rounding; a running
        float can differ from it in the last ulp.
        """
        return self._scaled_total / (1 << _TOTAL_SCALE_BITS)

    def observe(self, value: float) -> None:
        # Convert before mutating: NaN and infinity raise here and leave
        # the histogram as it was.
        numerator, denominator = float(value).as_integer_ratio()
        self._scaled_total += numerator << (
            _TOTAL_SCALE_BITS + 1 - denominator.bit_length()
        )
        self.count += 1
        # The first edge >= value; past the last edge, the tail bucket.
        self.counts[bisect_left(self.edges, value)] += 1

    def sample_value(self) -> float:
        return float(self.count)


class MetricRegistry:
    """Get-or-create instrument store plus the sampling loop."""

    def __init__(self, series_capacity: Optional[int] = None) -> None:
        if series_capacity is None:
            series_capacity = SERIES_CAPACITY
        if series_capacity < 1:
            raise ConfigurationError("series_capacity must be >= 1")
        self.series_capacity = series_capacity
        self._instruments: Dict[Tuple[str, LabelSet], Instrument] = {}
        self.samples_taken = 0

    # -- creation ------------------------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, label_set(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ConfigurationError(
                "instrument %r already registered as %s" % (name, instrument.kind)
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        edges: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get(Histogram, name, labels, edges=edges)

    # -- introspection -------------------------------------------------

    def instruments(self) -> List[Instrument]:
        """Every instrument, deterministically ordered by (name, labels)."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def get(self, name: str, **labels: object) -> Optional[Instrument]:
        return self._instruments.get((name, label_set(labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    # -- sampling ------------------------------------------------------

    def sample(self, now: float) -> None:
        """Append ``(now, value)`` to every counter/gauge time series.

        Histograms are sampled by observation count; their bucket shape
        lives in the Prometheus export.
        """
        for instrument in self._instruments.values():
            if instrument.series is None:
                instrument.series = TimeSeries(self.series_capacity)
            instrument.series.append(now, instrument.sample_value())
        self.samples_taken += 1

    def series_rows(self) -> Iterator[Tuple[str, str, float, float]]:
        """Flat ``(metric, labels, time, value)`` rows for the CSV export."""
        for key in sorted(self._instruments):
            instrument = self._instruments[key]
            if instrument.series is None:
                continue
            labels = format_labels(instrument.labels)
            for time, value in instrument.series:
                yield instrument.name, labels, time, value
