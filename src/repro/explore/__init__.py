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

from .counterexample import Counterexample
from .engine import (
    Explorer,
    ExploreResult,
    ExploreStats,
    Violation,
    VisitedStore,
    child_sleep_set,
    explore,
    state_graph,
)
from .model import ExplorationModel, Interner
from .sharded import (
    ShardedExplorer,
    ShardedExploreResult,
    schedule_key,
    shard_of,
)
from .spill import SpillDict
from .properties import (
    Eventually,
    Invariant,
    Property,
    agreement,
    termination,
    validity,
)
from .strategies import BFS, DFS, RandomWalk, Strategy
from .shm_model import ShmMachineModel
from .amp_model import AmpModel
from .sync_model import (
    ScriptedAdversary,
    SyncAdversaryModel,
    deliver_all_choices,
    drop_one_choices,
)
from .protocols import (
    UNSET,
    AdoptCommitMachine,
    BrokenAdoptCommitMachine,
    FloodMinProcess,
    QuorumAcceptor,
    QuorumProposer,
    adopt_commit_coherence,
    adopt_commit_convergence,
    adopt_commit_validity,
    make_flood_min,
    make_quorum_commit,
    make_scd_nodes,
    quorum_commit_agreement,
    scd_coherence,
    scd_termination,
    scd_uniform_sets,
)

__all__ = [
    "BFS",
    "DFS",
    "RandomWalk",
    "Strategy",
    "ExplorationModel",
    "Interner",
    "Explorer",
    "ExploreResult",
    "ExploreStats",
    "Violation",
    "VisitedStore",
    "child_sleep_set",
    "explore",
    "state_graph",
    "ShardedExplorer",
    "ShardedExploreResult",
    "SpillDict",
    "schedule_key",
    "shard_of",
    "Property",
    "Invariant",
    "Eventually",
    "agreement",
    "validity",
    "termination",
    "Counterexample",
    "ShmMachineModel",
    "AmpModel",
    "SyncAdversaryModel",
    "ScriptedAdversary",
    "deliver_all_choices",
    "drop_one_choices",
    "UNSET",
    "AdoptCommitMachine",
    "BrokenAdoptCommitMachine",
    "FloodMinProcess",
    "QuorumAcceptor",
    "QuorumProposer",
    "adopt_commit_coherence",
    "adopt_commit_convergence",
    "adopt_commit_validity",
    "make_flood_min",
    "make_quorum_commit",
    "make_scd_nodes",
    "quorum_commit_agreement",
    "scd_coherence",
    "scd_termination",
    "scd_uniform_sets",
]
