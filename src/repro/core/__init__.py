"""Core formalism: tasks, models, histories, linearizability, adversaries.

This subpackage implements the paper's §2 framing (tasks vs functions),
the model-descriptor notation used throughout (§3–§5), the
Herlihy–Wing linearizability checker that underpins object correctness,
and the cores/survivor-sets duality of §5.4.
"""

from .. import _exports

_EXPORTS = {
    "cores": (),
    "exceptions": (
        "ConfigurationError", "LivenessViolation", "ModelViolation", "ProtocolAbort",
        "ReproError", "SafetyViolation", "SimulationLimitExceeded",
    ),
    "hierarchy": (),
    "history": ("History", "Operation", "sequential_history"),
    "linearizability": (
        "LinearizationResult", "check_history", "check_object", "is_linearizable",
    ),
    "model": (
        "MessagePassingModel", "ProcessAdversarySpec", "SharedMemoryModel",
        "SynchronousModel", "amp", "asm", "smp",
    ),
    "seqspec": (
        "SequentialSpec", "compare_and_swap_spec", "counter_spec", "fetch_and_add_spec",
        "queue_spec", "register_spec", "set_spec", "spec_by_name", "stack_spec",
        "sticky_bit_spec", "swap_spec", "test_and_set_spec",
    ),
    "task": (
        "NO_OUTPUT", "RelationTask", "RunOutcome", "Task", "TaskCheckResult",
        "binary_consensus_task", "consensus_task", "k_set_agreement_task",
        "leader_election_task", "vector_learning_task",
    ),
    "volume": ("payload_units",),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
