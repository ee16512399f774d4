"""repro — executable basics of distributed computing.

A production-quality reproduction of Michel Raynal's ICDCS 2016 invited
tutorial *"A Look at Basics of Distributed Computing"*.  The paper is a
guided tour of the field's load-bearing concepts; this library makes
every stop on the tour executable:

* :mod:`repro.core` — tasks vs functions, model descriptors,
  linearizability, cores & survivor sets (§2, §5.4);
* :mod:`repro.sync` — the synchronous LOCAL model, locality,
  Cole–Vishkin coloring, message adversaries TREE and TOUR (§3);
* :mod:`repro.shm` — wait-free shared memory, Herlihy's hierarchy and
  universal constructions, progress conditions, abortable objects (§4);
* :mod:`repro.amp` — asynchronous message passing, reliable broadcast,
  ABD registers, FLP, failure detectors, Ω-based and randomized
  consensus, state-machine replication (§5);
* :mod:`repro.harness` — parallel multi-run experiment driver
  (seed sweeps, deterministic aggregation);
* :mod:`repro.trace` — causal event tracing with Lamport/vector
  clocks, happened-before analysis, space-time diagrams, and
  deterministic record/replay across all three kernels.

Quickstart::

    from repro.sync import ring, run_synchronous
    from repro.sync.algorithms import make_ring_colorers, verify_ring_coloring

    topo = ring(64)
    result = run_synchronous(topo, make_ring_colorers(64), [None] * 64)
    verify_ring_coloring([result.outputs[i] for i in range(64)], 64)
"""

from . import _exports

__version__ = "1.0.0"

#: Every subpackage is an attribute, imported on first read; the top
#: level re-exports no names from them.
_EXPORTS = {
    "amp": (), "analyze": (), "core": (), "explore": (), "harness": (), "shm": (),
    "sync": (), "trace": (), "workload": (),
}

__getattr__, __dir__ = _exports.lazy_exports(__name__, _EXPORTS)[:2]
__all__ = ["core", "__version__"]
