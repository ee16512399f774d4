"""Asynchronous message passing: impossibilities and escapes (paper §5).

* :mod:`repro.amp.network` — the event-driven ``AMP_{n,t}`` simulator;
* :mod:`repro.amp.broadcast` — (uniform) reliable broadcast, FIFO/causal;
* :mod:`repro.amp.abd` — ABD atomic registers (``t < n/2``);
* :mod:`repro.amp.failure_detectors` — P, ◇P, ◇S, Ω, and liars;
* :mod:`repro.amp.consensus` — FLP + Ben-Or, conditions, Ω, Paxos;
* :mod:`repro.amp.tobroadcast` / :mod:`repro.amp.smr` — total order and
  replicated state machines;
* :mod:`repro.amp.scd` — Set-Constrained Delivery broadcast and the
  snapshot/counter/KV objects it powers consensus-free;
* :mod:`repro.amp.adversary` — process adversaries, A-resilience.
"""

from .. import _exports

_EXPORTS = {
    "abd": ("AbdNode", "DurableAbdNode", "FastReadAbdNode", "OpRecord"),
    "adversary": (
        "AdversaryHarness", "AdversaryReport", "crash_scenarios", "quorum_system",
        "required_quorum_for_liveness",
    ),
    "approximate": ("ApproximateAgreementProcess", "make_approximate_agreement"),
    "broadcast": (
        "CausalOrder", "Delivery", "DurableReliableBroadcast", "FifoOrder",
        "ReliableBroadcast", "UniformReliableBroadcast",
    ),
    "consensus": (),
    "failure_detectors": (
        "AdversarialOmega", "EventuallyPerfectFD", "EventuallyStrongFD",
        "FailureDetector", "HeartbeatOmega", "OmegaFD", "PerfectFD", "ScriptedFD",
    ),
    "links": ("ReliableChannel", "observation_hash", "wrap_reliable"),
    "network": (
        "AmpRunResult", "AsyncProcess", "AsyncRuntime", "Context", "CrashAt",
        "DelayModel", "DuplicatingLink", "FairLossLink", "FixedDelay", "LinkModel",
        "PartialSynchronyDelay", "RecoverAt", "ReliableLink", "ReorderingLossLink",
        "TargetedDelay", "UniformDelay", "run_processes",
    ),
    "quorums": (
        "QuorumAbdNode", "is_live_quorum_system", "is_safe_quorum_system",
        "majority_family",
    ),
    "scd": (
        "DELETED", "Counter", "ScdBroadcast", "ScdKvStore", "ScdMessage", "ScdNode",
        "SnapshotObject", "check_kv_convergence", "check_scd_histories",
        "check_uniform_set_sequences", "make_scd_kv",
    ),
    "smr": (
        "ReplicatedStateMachine", "check_mutual_consistency", "make_replicated_machine",
    ),
    "storage": ("StableStorage",),
    "tobroadcast": ("TOBroadcastNode", "make_to_broadcast"),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
