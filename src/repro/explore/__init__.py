"""``repro.explore`` — bounded model checking over protocol executions.

One engine, three kernels.  An :class:`ExplorationModel` adapter turns a
kernel's nondeterminism into explicit choice points — the scheduler's
pick in shm, message delivery/timers/crashes in AMP, the message
adversary's per-round choice in sync — and the :class:`Explorer` drives
a strategy (:class:`BFS`/:class:`DFS` exhaustive search, seeded
:class:`RandomWalk`) over the induced graph with canonical-fingerprint
dedup and sleep-set partial-order reduction.  Properties are checked
per unique state (:class:`Invariant`) or per terminal state
(:class:`Eventually`); a failure is materialized as a concrete,
replayable :class:`Counterexample` whose trace hash matches a
byte-identical re-execution through :mod:`repro.trace.replay`.

    >>> from repro.explore import (
    ...     AdoptCommitMachine, ShmMachineModel, adopt_commit_coherence, explore,
    ... )
    >>> model = ShmMachineModel(AdoptCommitMachine(2), inputs=[0, 1])
    >>> result = explore(model, properties=[adopt_commit_coherence()])
    >>> result.ok and result.complete
    True
"""

from .. import _exports

_EXPORTS = {
    "amp_model": ("AmpModel",),
    "counterexample": ("Counterexample",),
    "engine": (
        "Explorer", "ExploreResult", "ExploreStats", "Violation", "VisitedStore",
        "child_sleep_set", "explore", "state_graph",
    ),
    "model": ("ExplorationModel", "Interner"),
    "properties": (
        "Eventually", "Invariant", "Property", "agreement", "termination", "validity",
    ),
    "protocols": (
        "UNSET", "AdoptCommitMachine", "BrokenAdoptCommitMachine", "FloodMinProcess",
        "QuorumAcceptor", "QuorumProposer", "adopt_commit_coherence",
        "adopt_commit_convergence", "adopt_commit_validity", "make_flood_min",
        "make_quorum_commit", "make_scd_nodes", "quorum_commit_agreement",
        "scd_coherence", "scd_termination", "scd_uniform_sets",
    ),
    "sharded": (
        "ShardedExplorer", "ShardedExploreResult", "schedule_key", "shard_of",
    ),
    "shm_model": ("ShmMachineModel",),
    "spill": ("SpillDict",),
    "strategies": ("BFS", "DFS", "RandomWalk", "Strategy"),
    "sync_model": (
        "ScriptedAdversary", "SyncAdversaryModel", "deliver_all_choices",
        "drop_one_choices",
    ),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
