"""Lazy package exports (:mod:`repro._exports`): what an import loads,
and the public API the packages still present.

Each package names its exports in one ``_EXPORTS`` table and imports a
submodule only when one of its names is read.  The closure tests run an
import in a fresh interpreter and pin the exact set of ``repro`` modules
it loads; the parity tests pin every package's ``__all__``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sync",
    "repro.sync.algorithms",
    "repro.shm",
    "repro.amp",
    "repro.amp.consensus",
    "repro.explore",
    "repro.analyze",
    "repro.trace",
    "repro.harness",
    "repro.workload",
]

#: ``sorted(__all__)`` of every package, space-separated.
PUBLIC = {
    "repro": "__version__ core",
    "repro.core": (
        "ConfigurationError History LinearizationResult LivenessViolation "
        "MessagePassingModel ModelViolation NO_OUTPUT Operation ProcessAdversarySpec "
        "ProtocolAbort RelationTask ReproError RunOutcome SafetyViolation "
        "SequentialSpec SharedMemoryModel SimulationLimitExceeded SynchronousModel "
        "Task TaskCheckResult amp asm binary_consensus_task check_history "
        "check_object compare_and_swap_spec consensus_task counter_spec "
        "fetch_and_add_spec is_linearizable k_set_agreement_task leader_election_task "
        "payload_units queue_spec register_spec sequential_history set_spec smp "
        "spec_by_name stack_spec sticky_bit_spec swap_spec test_and_set_spec "
        "vector_learning_task"
    ),
    "repro.sync": (
        "AdaptiveAdversary BoundedDropAdversary CliquePartitionAdversary "
        "ColumnarAlgorithm ColumnarRunner Context CrashEvent DisseminationReport "
        "DropAllAdversary FlatGraph MessageAdversary MinFloodKSet NoAdversary "
        "SharedMemoryInTour SyncAlgorithm SyncRunResult SynchronousRunner Topology "
        "TourAdversary TourSimulationResult TreeAdversary balanced_tree complete "
        "flat_from_topology flat_random_regular flat_ring flat_torus grid path "
        "random_connected random_spanning_tree refute_clique_consensus "
        "refute_tour_consensus ring run_clique_kset run_columnar run_dissemination "
        "run_shared_memory_in_tour run_synchronous run_tour_in_shared_memory star "
        "starvation_orientation verify_tree_theorem"
    ),
    "repro.sync.algorithms": (
        "AggregateFlooding ColeVishkinColoring ColorToMIS ColumnarAggregateFlooding "
        "DeltaMessage EarlyStoppingConsensus FloodMaxLeader FloodSetConsensus "
        "FloodingAlgorithm GreedyColorByID LocalityVerdict LubyMIS MODES "
        "classify_algorithm classify_run cv_iterations expected_rounds "
        "identity_vector log_star make_aggregate_flooders make_early_stopping "
        "make_flood_max make_flooders make_floodset make_luby make_ring_colorers "
        "ring_coloring_lower_bound verify_mis verify_proper_coloring "
        "verify_ring_coloring"
    ),
    "repro.shm": (
        "ABORTED ADOPT AbortableObject AdoptCommit ApproximateAgreement "
        "AtomicFromRegular AtomicSnapshot COMMIT CautiousRegisterConsensus "
        "CompareAndSwapConsensus ConfigurationExplorer ConsensusObject "
        "CrashAfterScheduler EMPTY EagerRegisterConsensus ExplorationReport "
        "ImmediateSnapshot ImpossibilityCertificate Invocation "
        "KLSimultaneousConsensus KSimultaneousConsensusObject KUniversalConstruction "
        "LLSCConsensus LLSCObject ListScheduler MRSWAtomicFromSWSR NOT_DECIDED "
        "ObstructionFreeConsensus ObstructionFreeKSetAgreement ObstructionScheduler "
        "Program ProgressVerdict ProtocolComplex ProtocolStateMachine RandomScheduler "
        "RegularFromSafe Renaming RoundRobinScheduler RunReport Runtime "
        "SafeBitRegister Scheduler SharedObject SoloScheduler StarveScheduler "
        "StickyConsensus TwoProcessRaceConsensus UniversalObject as_program "
        "brs_register_bound build_objects check_epsilon_agreement check_non_blocking "
        "check_obstruction_free check_regular check_wait_free client_program collect "
        "consensus_impossibility_certificate exhaustive_decision_map_check "
        "exhaustive_schedules invoke make_registers measured_hierarchy "
        "new_compare_and_swap new_counter new_fetch_and_add new_queue new_register "
        "new_stack new_sticky new_swap new_test_and_set ordered_set_partitions "
        "propose protocol_for read rounds_needed run_protocol snapshot_spec "
        "verify_k_set_outputs verify_protocol_exhaustively write"
    ),
    "repro.amp": (
        "AbdNode AdversarialOmega AdversaryHarness AdversaryReport AmpRunResult "
        "ApproximateAgreementProcess AsyncProcess AsyncRuntime CausalOrder Context "
        "Counter CrashAt DELETED DelayModel Delivery DuplicatingLink DurableAbdNode "
        "DurableReliableBroadcast EventuallyPerfectFD EventuallyStrongFD "
        "FailureDetector FairLossLink FastReadAbdNode FifoOrder FixedDelay "
        "HeartbeatOmega LinkModel OmegaFD OpRecord PartialSynchronyDelay PerfectFD "
        "QuorumAbdNode RecoverAt ReliableBroadcast ReliableChannel ReliableLink "
        "ReorderingLossLink ReplicatedStateMachine ScdBroadcast ScdKvStore ScdMessage "
        "ScdNode ScriptedFD SnapshotObject StableStorage TOBroadcastNode "
        "TargetedDelay UniformDelay UniformReliableBroadcast check_kv_convergence "
        "check_mutual_consistency check_scd_histories check_uniform_set_sequences "
        "crash_scenarios is_live_quorum_system is_safe_quorum_system majority_family "
        "make_approximate_agreement make_replicated_machine make_scd_kv "
        "make_to_broadcast observation_hash quorum_system "
        "required_quorum_for_liveness run_processes wrap_reliable"
    ),
    "repro.amp.consensus": (
        "BOT BenOrProcess ChandraTouegProcess Condition ConditionConsensusProcess "
        "EagerMinConsensus MessageExplorationReport MessageProtocol "
        "MessageProtocolExplorer OmegaConsensusComponent OmegaConsensusProcess "
        "PaxosNode UnanimityConsensus c_frequency_condition c_max_condition "
        "make_benor make_chandra_toueg make_condition_consensus make_omega_consensus "
        "make_paxos"
    ),
    "repro.explore": (
        "AdoptCommitMachine AmpModel BFS BrokenAdoptCommitMachine Counterexample DFS "
        "Eventually ExplorationModel ExploreResult ExploreStats Explorer "
        "FloodMinProcess Interner Invariant Property QuorumAcceptor QuorumProposer "
        "RandomWalk ScriptedAdversary ShardedExploreResult ShardedExplorer "
        "ShmMachineModel SpillDict Strategy SyncAdversaryModel UNSET Violation "
        "VisitedStore adopt_commit_coherence adopt_commit_convergence "
        "adopt_commit_validity agreement child_sleep_set deliver_all_choices "
        "drop_one_choices explore make_flood_min make_quorum_commit make_scd_nodes "
        "quorum_commit_agreement scd_coherence scd_termination scd_uniform_sets "
        "schedule_key shard_of state_graph termination validity"
    ),
    "repro.analyze": (
        "Baseline Finding FrozenDict FrozenList FrozenMutationError FrozenSetView "
        "MODULE_KINDS ModuleInfo NoqaDirective PROTOCOL_KINDS Rule all_rules "
        "analyze_paths analyze_source apply_noqa classify_path deep_freeze get_rule "
        "is_frozen known_rule_ids main rule scan_noqa"
    ),
    "repro.trace": (
        "AggregateSink CRASH DECIDE DELIVER DROP HappenedBeforeDAG JsonlSink KINDS "
        "MemorySink READ RECOVER ROUND_BEGIN ROUND_END ReplayDivergence ReplayRuntime "
        "SEND SNAPSHOT STEP SYSTEM ShmReplayScheduler TIMER TraceEvent TraceSink "
        "WRITE causal_chain check_agreement check_termination check_validity "
        "concurrent crashed_pids critical_path decisions dump_trace event_from_json "
        "event_to_json events_for happened_before load_trace recovered_pids "
        "render_space_time replay schedule_of trace_hash vc_leq"
    ),
    "repro.harness": (
        "DEFAULT_PERCENTILES LatencyStats MultiReportStats MultiRunStats RunList "
        "aggregate_amp aggregate_shm decision_latency_stats percentiles run_many"
    ),
    "repro.workload": (
        "AbdKvServiceNode BACKENDS Batch ClientOp ScdKvServiceNode ServiceReport "
        "ToKvServiceNode WorkloadSpec client_batches run_service zipf_cdf"
    ),
}

#: An import, the exact ``repro`` modules it loads, and standard-library
#: modules it must not load.
CLOSURES = [
    (
        "import repro.sync.kernel",
        "repro repro._exports repro.analyze repro.analyze.freeze repro.core "
        "repro.core.exceptions repro.core.volume repro.sync repro.sync.adversary "
        "repro.sync.kernel repro.sync.topology",
        (),
    ),
    (
        "import repro.amp.network",
        "repro repro._exports repro.amp repro.amp.network repro.amp.storage "
        "repro.analyze repro.analyze.freeze repro.core repro.core.exceptions "
        "repro.core.volume",
        (),
    ),
    (
        "from repro.workload import run_service",
        "repro repro._exports repro.amp repro.amp.abd repro.amp.broadcast "
        "repro.amp.consensus repro.amp.consensus.omega repro.amp.failure_detectors "
        "repro.amp.links repro.amp.network repro.amp.scd repro.amp.storage "
        "repro.amp.tobroadcast repro.analyze repro.analyze.freeze repro.core "
        "repro.core.exceptions repro.core.history repro.core.volume repro.harness "
        "repro.harness.stats repro.workload repro.workload.generator "
        "repro.workload.service",
        ("multiprocessing",),
    ),
    (
        "from repro.explore import explore, ShmMachineModel",
        "repro repro._exports repro.analyze repro.analyze.freeze repro.core "
        "repro.core.exceptions repro.core.history repro.core.seqspec repro.explore "
        "repro.explore.counterexample repro.explore.engine repro.explore.model "
        "repro.explore.properties repro.explore.shm_model repro.explore.strategies "
        "repro.shm repro.shm.runtime repro.shm.schedulers repro.shm.statemachine "
        "repro.trace repro.trace.analysis repro.trace.diagram repro.trace.events "
        "repro.trace.sink",
        ("multiprocessing", "sqlite3"),
    ),
    (
        "from repro.explore import AmpModel, explore, make_scd_nodes, scd_coherence",
        "repro repro._exports repro.amp repro.amp.network repro.amp.storage "
        "repro.analyze repro.analyze.freeze repro.core repro.core.exceptions "
        "repro.core.volume repro.explore repro.explore.amp_model "
        "repro.explore.amp_protocols repro.explore.counterexample "
        "repro.explore.engine repro.explore.model repro.explore.properties "
        "repro.explore.strategies repro.trace repro.trace.analysis "
        "repro.trace.diagram repro.trace.events repro.trace.sink",
        ("multiprocessing", "sqlite3"),
    ),
]


def in_fresh_interpreter(code):
    """Run ``code`` in a new interpreter on this source tree; return the
    JSON value it prints."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("statement, expected, absent", CLOSURES, ids=[c[0] for c in CLOSURES])
def test_import_loads_only_its_closure(statement, expected, absent):
    loaded = in_fresh_interpreter(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert sorted(m for m in loaded if m.split(".")[0] == "repro") == expected.split()
    assert [m for m in absent if m in loaded] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_unchanged(package):
    assert sorted(importlib.import_module(package).__all__) == PUBLIC[package].split()


@pytest.mark.parametrize("package", PACKAGES)
def test_names_resolve_to_their_submodule(package):
    module = importlib.import_module(package)
    for sub, names in module._EXPORTS.items():
        home = importlib.import_module(f"{package}.{sub}")
        for name in names:
            assert getattr(module, name) is getattr(home, name), f"{package}.{name}"
    assert set(module.__all__) | set(module._EXPORTS) <= set(dir(module))


def test_every_submodule_is_an_attribute():
    # A fresh interpreter, so each package's submodules are read before
    # anything else has imported them.
    missing = in_fresh_interpreter(
        "import importlib, json, pkgutil, sys\n"
        f"packages = {PACKAGES!r}\n"
        "missing = []\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    for info in pkgutil.iter_modules(package.__path__):\n"
        "        if info.name == '__main__':\n"
        "            continue\n"
        "        value = getattr(package, info.name, None)\n"
        "        sub = sys.modules.get(f'{name}.{info.name}')\n"
        "        if sub is None or value not in (sub, getattr(sub, info.name, sub)):\n"
        "            missing.append(f'{name}.{info.name}')\n"
        "print(json.dumps(missing))\n"
    )
    assert missing == []


def test_star_import_binds_all():
    namespace = {}
    exec("from repro.sync import *", namespace)
    assert set(repro.sync.__all__) <= set(namespace)
    assert namespace["ring"] is importlib.import_module("repro.sync.topology").ring


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.sync.no_such_name
    assert not hasattr(repro.amp, "no_such_name")
    with pytest.raises(ImportError):
        from repro.explore import no_such_name  # noqa: F401


def test_export_named_like_its_submodule_is_the_export():
    # Importing the submodule repro.trace.replay directly, as the
    # explorer's adapters do, leaves the package attribute the function
    # it exports.
    import repro.trace.replay  # noqa: F401
    from repro.trace import replay

    assert replay is sys.modules["repro.trace.replay"].replay


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    """A lazily exporting package with a broken submodule and a submodule
    that exports its own name."""
    package = tmp_path / "lazytoy"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent('''
        from repro._exports import lazy_exports

        _EXPORTS = {"broken": ("thing",), "tool": ("tool",)}

        __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
    '''))
    (package / "broken.py").write_text("import lazytoy_missing_dependency\nthing = 1\n")
    (package / "tool.py").write_text("def tool():\n    return 'tool'\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("lazytoy")
    for name in [m for m in sys.modules if m.split(".")[0] == "lazytoy"]:
        del sys.modules[name]


def test_missing_dependency_is_not_hidden(toy_package):
    with pytest.raises(ModuleNotFoundError, match="lazytoy_missing_dependency"):
        toy_package.thing


def test_direct_submodule_import_keeps_the_export(toy_package):
    import lazytoy.tool  # noqa: F401  (binds the submodule on the package)

    assert toy_package.tool() == "tool"
    assert sys.modules["lazytoy.tool"].tool is toy_package.tool
