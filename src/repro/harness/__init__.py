"""Shared parallel experiment harness.

Claim-checking at scale means ranging over many seeds, schedules, and
adversaries per task.  :func:`run_many` is the one driver every
benchmark shares: a seed sweep over a picklable factory, parallel when
processes are available, serial otherwise, deterministic either way.
"""

from .. import _exports

_EXPORTS = {
    "parallel": (
        "MultiReportStats", "MultiRunStats", "RunList", "aggregate_amp",
        "aggregate_shm", "run_many",
    ),
    "stats": (
        "DEFAULT_PERCENTILES", "LatencyStats", "decision_latency_stats", "percentiles",
    ),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
