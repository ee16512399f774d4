"""``repro.workload`` — open-loop workloads over replicated services.

The repo's "serve heavy traffic" subsystem: a seeded, open-loop
workload generator (:mod:`repro.workload.generator` — zipf/uniform key
popularity, configurable op mix, client batching with exponential
inter-arrival gaps) and a service driver
(:mod:`repro.workload.service`) that runs the generated load against a
replicated key-value service over pluggable backends:

``scd``
    :class:`~repro.amp.scd.ScdBroadcast` replicas — consensus-free,
    two broadcasts per batch (sync barrier + write set);
``to``
    :class:`~repro.amp.tobroadcast.TOBroadcastNode` replicas — one
    consensus instance per batch wave, totally ordered log;
``abd``
    per-key ABD quorum registers — two quorum round trips per op, no
    cross-key consistency.

Everything is virtual-time deterministic: a :class:`ServiceReport`
carries a sha256 ``stats_digest`` over all schedule-derived fields
(latency percentiles, throughput, payload units, replica state), and
re-running the same spec/seed/backend reproduces it byte-identically.
"""

from .. import _exports

_EXPORTS = {
    "generator": ("Batch", "ClientOp", "WorkloadSpec", "client_batches", "zipf_cdf"),
    "service": (
        "BACKENDS", "AbdKvServiceNode", "ScdKvServiceNode", "ServiceReport",
        "ToKvServiceNode", "run_service",
    ),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
