"""Asynchronous shared memory: wait-freedom and universality (paper §4).

* :mod:`repro.shm.runtime` — the step-level execution model;
* :mod:`repro.shm.schedulers` — asynchrony/crash adversaries;
* :mod:`repro.shm.objects` — the base-object zoo of Herlihy's hierarchy;
* :mod:`repro.shm.consensus_number` — the hierarchy, constructively;
* :mod:`repro.shm.bivalence` — FLP executed (exhaustive exploration);
* :mod:`repro.shm.snapshot` — wait-free atomic snapshot;
* :mod:`repro.shm.adoptcommit` / :mod:`repro.shm.kset` —
  obstruction-free agreement (§4.3);
* :mod:`repro.shm.universal` / :mod:`repro.shm.k_universal` —
  universal constructions (§4.2);
* :mod:`repro.shm.progress` — progress-condition test batteries;
* :mod:`repro.shm.abortable` — abortable objects (§4.3);
* :mod:`repro.shm.approximate` — wait-free approximate agreement.
"""

from .. import _exports

_EXPORTS = {
    "abortable": ("ABORTED", "AbortableObject"),
    "adoptcommit": ("ADOPT", "COMMIT", "AdoptCommit"),
    "approximate": ("ApproximateAgreement", "check_epsilon_agreement", "rounds_needed"),
    "bivalence": ("ConfigurationExplorer", "ExplorationReport"),
    "consensus_number": (
        "EMPTY", "CautiousRegisterConsensus", "CompareAndSwapConsensus",
        "EagerRegisterConsensus", "LLSCConsensus", "StickyConsensus",
        "TwoProcessRaceConsensus", "measured_hierarchy", "protocol_for",
        "verify_protocol_exhaustively",
    ),
    "iis": (
        "ImpossibilityCertificate", "ProtocolComplex",
        "consensus_impossibility_certificate", "exhaustive_decision_map_check",
        "ordered_set_partitions",
    ),
    "immediate_snapshot": ("ImmediateSnapshot",),
    "k_universal": ("KLSimultaneousConsensus", "KUniversalConstruction"),
    "kset": (
        "ObstructionFreeConsensus", "ObstructionFreeKSetAgreement",
        "brs_register_bound", "verify_k_set_outputs",
    ),
    "objects": (
        "ConsensusObject", "KSimultaneousConsensusObject", "LLSCObject",
        "new_compare_and_swap", "new_counter", "new_fetch_and_add", "new_queue",
        "new_register", "new_stack", "new_sticky", "new_swap", "new_test_and_set",
        "propose",
    ),
    "progress": (
        "ProgressVerdict", "check_non_blocking", "check_obstruction_free",
        "check_wait_free",
    ),
    "register_constructions": (
        "AtomicFromRegular", "MRSWAtomicFromSWSR", "RegularFromSafe", "SafeBitRegister",
        "check_regular",
    ),
    "renaming": ("Renaming",),
    "runtime": (
        "Invocation", "Program", "RunReport", "Runtime", "Scheduler", "SharedObject",
        "collect", "invoke", "make_registers", "read", "run_protocol", "write",
    ),
    "schedulers": (
        "CrashAfterScheduler", "ListScheduler", "ObstructionScheduler",
        "RandomScheduler", "RoundRobinScheduler", "SoloScheduler", "StarveScheduler",
        "exhaustive_schedules",
    ),
    "snapshot": ("AtomicSnapshot", "snapshot_spec"),
    "statemachine": (
        "NOT_DECIDED", "ProtocolStateMachine", "as_program", "build_objects",
    ),
    "universal": ("UniversalObject", "client_program"),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
