"""Synchronous message-passing systems: the LOCAL model plus message
adversaries (paper §3).

* :mod:`repro.sync.kernel` — lock-step round execution;
* :mod:`repro.sync.arraykernel` — columnar engine for n = 10⁴–10⁶;
* :mod:`repro.sync.topology` — communication graphs;
* :mod:`repro.sync.flatgraph` — O(n) CSR graph constructors;
* :mod:`repro.sync.adversary` — TREE, TOUR, and friends;
* :mod:`repro.sync.dissemination` — the TREE computability theorem;
* :mod:`repro.sync.equivalence` — TOUR ≃ wait-free read/write;
* :mod:`repro.sync.algorithms` — Cole–Vishkin, flooding, MIS, FloodSet.
"""

from .. import _exports

_EXPORTS = {
    "adversary": (
        "AdaptiveAdversary", "BoundedDropAdversary", "DropAllAdversary",
        "MessageAdversary", "NoAdversary", "TourAdversary", "TreeAdversary",
    ),
    "algorithms": (),
    "arraykernel": ("ColumnarAlgorithm", "ColumnarRunner", "run_columnar"),
    "dissemination": ("DisseminationReport", "run_dissemination", "verify_tree_theorem"),
    "equivalence": (
        "SharedMemoryInTour", "TourSimulationResult", "refute_tour_consensus",
        "run_shared_memory_in_tour", "run_tour_in_shared_memory",
        "starvation_orientation",
    ),
    "flatgraph": (
        "FlatGraph", "flat_from_topology", "flat_random_regular", "flat_ring",
        "flat_torus",
    ),
    "kernel": (
        "Context", "CrashEvent", "SyncAlgorithm", "SyncRunResult", "SynchronousRunner",
        "run_synchronous",
    ),
    "partition": (
        "CliquePartitionAdversary", "MinFloodKSet", "refute_clique_consensus",
        "run_clique_kset",
    ),
    "topology": (
        "Topology", "balanced_tree", "complete", "grid", "path", "random_connected",
        "random_spanning_tree", "ring", "star",
    ),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
