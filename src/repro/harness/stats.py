"""Latency statistics shared by sweeps and the workload service driver.

One percentile implementation for the whole repo: the **nearest-rank**
method (the smallest sample whose cumulative rank covers ``p`` percent
of the data).  Nearest-rank always returns an *actual sample* — never
an interpolated value — which keeps aggregate reports byte-identical
across reruns and makes golden-stat assertions meaningful.

:func:`percentiles` is the primitive; :class:`LatencyStats` is the
frozen bundle the service driver embeds in its reports; and
:func:`decision_latency_stats` adapts AMP run results (their
``decision_times`` map is virtual-clock decision latency since start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

from ..core.exceptions import ConfigurationError

#: The default report percentiles: median, tail, far tail.
DEFAULT_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)


def percentiles(
    samples: Iterable[float],
    ps: Sequence[float] = DEFAULT_PERCENTILES,
) -> Dict[float, float]:
    """Nearest-rank percentiles of ``samples``.

    For percentile ``p`` over ``m`` sorted samples, the nearest-rank
    value is the sample at rank ``ceil(p/100 * m)`` (1-based); ``p=0``
    maps to the minimum.  Raises on an empty sample set or a ``p``
    outside ``[0, 100]`` — silently returning a made-up number would
    poison downstream golden stats.

    >>> percentiles([5, 1, 3, 2, 4], ps=(50, 100))
    {50: 3, 100: 5}
    >>> percentiles([1, 2, 3], ps=(33.4,))
    {33.4: 2}
    """
    data = sorted(samples)
    if not data:
        raise ConfigurationError("percentiles of an empty sample set")
    out: Dict[float, float] = {}
    for p in ps:
        if not 0 <= p <= 100:
            raise ConfigurationError(f"percentile {p!r} outside [0, 100]")
        # ceil(p/100 * m) exactly, from p's decimal value: float
        # arithmetic would round 64.4 * 250 / 100 up past 161.
        rank = max(1, math.ceil(Fraction(str(p)) * len(data) / 100))
        out[p] = data[rank - 1]
    return out


@dataclass(frozen=True)
class LatencyStats:
    """A frozen latency summary (virtual-time units unless noted)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "LatencyStats":
        data = sorted(samples)
        if not data:
            raise ConfigurationError("LatencyStats of an empty sample set")
        marks = percentiles(data, ps=(50.0, 90.0, 99.0))
        return cls(
            count=len(data),
            mean=sum(data) / len(data),
            p50=marks[50.0],
            p90=marks[90.0],
            p99=marks[99.0],
            max=data[-1],
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.max,
        }


def decision_latency_stats(results: Iterable[object]) -> LatencyStats:
    """Latency percentiles over per-process decision times of AMP runs.

    Accepts any iterable of objects carrying a ``decision_times``
    mapping (``AmpRunResult`` does): each entry is one sample, the
    virtual time at which that process decided.
    """
    samples = [
        time
        for result in results
        for _, time in sorted(result.decision_times.items())
    ]
    return LatencyStats.from_samples(samples)
