"""Both FLP explorers on one graph walk, checked differentially.

The references keep the code both explorers ran before they moved onto
:func:`repro.explore.engine.state_graph` and
:func:`repro.explore.engine.decision_scan`, verbatim but for their
names: the message-passing explorer's own frontier loop, its report
(which still has ``truncated``) and its valence fixpoint
(``_ReferenceMessageExplorer``), and the shared-memory explorer's
valence fixpoint, ``explore`` and ``find_bivalent_initial_input``
(``_ReferenceConfigurationExplorer``).

A hypothesis property generates finite, deterministic message protocols
from random transition tables (n 2–3, t 0–2, sends on deliveries and at
start-up, decisions that are sometimes outside the inputs) and requires
the same graph, built in the same order, and every report field and the
initial valence equal to the reference's; where the reference
truncates, the explorer must raise
:class:`~repro.core.exceptions.SimulationLimitExceeded`, and only there.
The shared-memory explorer is compared on every machine of
:mod:`repro.shm.consensus_number` and every binary input vector.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.amp.consensus import (
    EagerMinConsensus,
    MessageProtocolExplorer,
    UnanimityConsensus,
)
from repro.amp.consensus.flp import NOT_DECIDED, Config, MessageProtocol
from repro.core.exceptions import SimulationLimitExceeded
from repro.explore.engine import decision_scan, state_graph
from repro.shm import consensus_number
from repro.shm.bivalence import (
    ConfigurationExplorer,
    ExplorationReport,
    find_bivalent_initial_input,
)


# ---------------------------------------------------------------------------
# References: the code before the port
# ---------------------------------------------------------------------------


@dataclass
class _ReferenceReport:
    """Verdicts of the exhaustive message-passing exploration."""

    configurations: int
    decision_values: FrozenSet[object]
    agreement_violation: Optional[Tuple[object, object]]
    validity_violation: Optional[object]
    stuck_configurations: int
    initial_bivalent: bool
    truncated: bool

    @property
    def safe(self) -> bool:
        return self.agreement_violation is None and self.validity_violation is None

    @property
    def always_terminates(self) -> bool:
        """No fair execution ends with a live process undecided."""
        return self.stuck_configurations == 0 and not self.truncated


class _ReferenceMessageExplorer:
    """Exhaustive exploration over delivery orders and ≤ t crashes."""

    def __init__(
        self,
        protocol: MessageProtocol,
        inputs: Sequence[object],
        t: int = 1,
        max_configurations: int = 300_000,
    ) -> None:
        if not 0 <= t <= len(inputs):
            raise ConfigurationError(f"need 0 <= t <= n, got t={t}")
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self.n = len(inputs)
        self.t = t
        self.max_configurations = max_configurations

    # -- configuration mechanics ------------------------------------------

    def initial_configuration(self) -> Config:
        states = tuple(
            self.protocol.initial_state(pid, self.inputs[pid])
            for pid in range(self.n)
        )
        transit: List[Tuple[int, int, object]] = []
        for pid in range(self.n):
            for dst, payload in self.protocol.initial_messages(pid, states[pid]):
                transit.append((pid, dst, payload))
        return (states, frozenset(), tuple(sorted(transit, key=repr)))

    def successors(self, config: Config) -> List[Config]:
        states, crashed, transit = config
        out: List[Config] = []
        # Deliveries: each distinct in-transit message may arrive next.
        seen_moves: Set[int] = set()
        for index, (src, dst, payload) in enumerate(transit):
            if (src, dst, payload) in (transit[i] for i in seen_moves):
                continue
            seen_moves.add(index)
            remaining = transit[:index] + transit[index + 1 :]
            if dst in crashed:
                out.append((states, crashed, remaining))
                continue
            new_state, sends = self.protocol.on_message(
                dst, states[dst], src, payload
            )
            new_states = states[:dst] + (new_state,) + states[dst + 1 :]
            new_transit = list(remaining)
            for to, msg in sends:
                new_transit.append((dst, to, msg))
            out.append(
                (new_states, crashed, tuple(sorted(new_transit, key=repr)))
            )
        # Crashes: any live process, while the budget lasts.  Two variants
        # per victim: the crash happens after its sends completed (its
        # in-transit messages survive) or mid-send (they are lost) — the
        # latter is the classic "crashed during a broadcast" case.
        if len(crashed) < self.t:
            for pid in range(self.n):
                if pid not in crashed:
                    out.append((states, crashed | {pid}, transit))
                    without = tuple(
                        entry for entry in transit if entry[0] != pid
                    )
                    if without != transit:
                        out.append((states, crashed | {pid}, without))
        return out

    def decisions(self, config: Config) -> Dict[int, object]:
        states, crashed, _ = config
        out: Dict[int, object] = {}
        for pid in range(self.n):
            value = self.protocol.decision(pid, states[pid])
            if value is not NOT_DECIDED:
                out[pid] = value
        return out

    def is_stuck(self, config: Config) -> bool:
        """Live undecided process + nothing deliverable to live processes."""
        states, crashed, transit = config
        live_undecided = [
            pid
            for pid in range(self.n)
            if pid not in crashed
            and self.protocol.decision(pid, states[pid]) is NOT_DECIDED
        ]
        if not live_undecided:
            return False
        deliverable = any(dst not in crashed for (_, dst, _) in transit)
        return not deliverable

    # -- exploration ---------------------------------------------------------

    def explore(self) -> _ReferenceReport:
        initial = self.initial_configuration()
        graph: Dict[Config, List[Config]] = {}
        frontier = [initial]
        truncated = False
        while frontier:
            config = frontier.pop()
            if config in graph:
                continue
            if len(graph) >= self.max_configurations:
                truncated = True
                break
            succ = self.successors(config)
            graph[config] = succ
            for nxt in succ:
                if nxt not in graph:
                    frontier.append(nxt)

        all_values: Set[object] = set()
        agreement_violation: Optional[Tuple[object, object]] = None
        validity_violation: Optional[object] = None
        stuck = 0
        input_set = set(self.inputs)
        for config in graph:
            decided = self.decisions(config)
            all_values |= set(decided.values())
            distinct = set(decided.values())
            if len(distinct) > 1 and agreement_violation is None:
                pair = sorted(distinct, key=repr)[:2]
                agreement_violation = (pair[0], pair[1])
            for value in distinct:
                if value not in input_set and validity_violation is None:
                    validity_violation = value
            if self.is_stuck(config):
                stuck += 1

        # Initial valence: reachable decision values per initial branch.
        valence = self._initial_valence(graph, initial)
        return _ReferenceReport(
            configurations=len(graph),
            decision_values=frozenset(all_values),
            agreement_violation=agreement_violation,
            validity_violation=validity_violation,
            stuck_configurations=stuck,
            initial_bivalent=len(valence) > 1,
            truncated=truncated,
        )

    def _initial_valence(
        self, graph: Dict[Config, List[Config]], initial: Config
    ) -> FrozenSet[object]:
        values: Dict[Config, Set[object]] = {
            config: set(self.decisions(config).values()) for config in graph
        }
        changed = True
        while changed:
            changed = False
            for config, successors in graph.items():
                bucket = values[config]
                before = len(bucket)
                for nxt in successors:
                    if nxt in values:
                        bucket |= values[nxt]
                if len(bucket) != before:
                    changed = True
        return frozenset(values.get(initial, set()))


class _ReferenceConfigurationExplorer(ConfigurationExplorer):
    """The valence fixpoint and the ``explore`` that read it."""

    def valence(
        self, graph: Dict[Config, List[Tuple[int, Config]]]
    ) -> Dict[Config, FrozenSet[object]]:
        """Reachable decision values from each configuration.

        Computed by reverse propagation to a fixed point (the graph may
        have cycles, so a simple recursion will not do).
        """
        values: Dict[Config, Set[object]] = {
            config: set(self.decisions(config).values()) for config in graph
        }
        changed = True
        while changed:
            changed = False
            for config, successors in graph.items():
                bucket = values[config]
                before = len(bucket)
                for _, nxt in successors:
                    bucket |= values[nxt]
                if len(bucket) != before:
                    changed = True
        return {config: frozenset(v) for config, v in values.items()}

    def explore(self) -> ExplorationReport:
        """Run the full analysis and bundle the verdicts."""
        graph = self.reachable()
        all_values: Set[object] = set()
        agreement_violation: Optional[Tuple[object, object]] = None
        validity_violation: Optional[object] = None
        terminal = 0
        input_set = set(self.inputs)
        for config in graph:
            decided = self.decisions(config)
            all_values |= set(decided.values())
            distinct = set(decided.values())
            if len(distinct) > 1 and agreement_violation is None:
                pair = sorted(distinct, key=repr)[:2]
                agreement_violation = (pair[0], pair[1])
            for value in distinct:
                if value not in input_set and validity_violation is None:
                    validity_violation = value
            if not self.enabled(config):
                terminal += 1
        valences = self.valence(graph)
        initial = self.initial_configuration()
        cycles = {
            pid: self.nondeciding_cycle_exists(graph, pid) for pid in range(self.n)
        }
        return ExplorationReport(
            configurations=len(graph),
            terminal_configurations=terminal,
            decision_values=frozenset(all_values),
            agreement_violation=agreement_violation,
            validity_violation=validity_violation,
            initial_bivalent=len(valences[initial]) > 1,
            nondeciding_cycle=cycles,
        )


def _reference_find_bivalent_initial_input(
    machine_factory,
    input_space: Sequence[Sequence[object]],
    max_configurations: int = 500_000,
) -> Optional[Tuple[object, ...]]:
    """First input vector whose initial configuration is bivalent.

    The FLP proof's Lemma-2 step: some initial configuration must be
    bivalent (found here by direct search instead of the adjacency
    argument).  Returns ``None`` if every initial configuration is
    univalent — which for a correct consensus protocol with equal inputs
    is expected.
    """
    for inputs in input_space:
        machine = machine_factory()
        explorer = _ReferenceConfigurationExplorer(machine, inputs, max_configurations)
        graph = explorer.reachable()
        valences = explorer.valence(graph)
        if len(valences[explorer.initial_configuration()]) > 1:
            return tuple(inputs)
    return None


class _CapturingReference(_ReferenceMessageExplorer):
    """Records the graph the reference built and the valence it read."""

    graph: Optional[Dict[Config, List[Config]]] = None
    valence: Optional[FrozenSet[object]] = None

    def _initial_valence(self, graph, initial):
        self.graph = graph
        self.valence = super()._initial_valence(graph, initial)
        return self.valence


# ---------------------------------------------------------------------------
# Generated message protocols
# ---------------------------------------------------------------------------

STATES = 3
PAYLOADS = 2


class TableProtocol(MessageProtocol):
    """A deterministic protocol read off fixed transition tables."""

    name = "table"

    def __init__(self, initial, start_sends, transitions, decide):
        self.initial = initial            # (pid, input) -> state
        self.start_sends = start_sends    # (pid, state) -> ((dst, payload), ...)
        self.transitions = transitions    # (pid, state, src, payload) -> (state, sends)
        self.decide = decide              # (pid, state) -> value or None

    def initial_state(self, pid, input_value):
        return self.initial[(pid, input_value)]

    def initial_messages(self, pid, state):
        return list(self.start_sends[(pid, state)])

    def on_message(self, pid, state, src, payload):
        new_state, sends = self.transitions[(pid, state, src, payload)]
        return new_state, list(sends)

    def decision(self, pid, state):
        value = self.decide[(pid, state)]
        return NOT_DECIDED if value is None else value


def _sends(code, n):
    """Decode ``((dst, payload), ...)``: mostly none, else one or two."""
    count = (0, 0, 0, 1, 2)[code % 5]
    code //= 5
    messages = []
    for _ in range(count):
        messages.append((code % n, code // n % PAYLOADS))
        code //= n * PAYLOADS
    return tuple(messages)


@st.composite
def protocol_cases(draw):
    """A table protocol, its inputs, t and a budget.

    Each table entry is decoded from one drawn integer (drawing the
    entries structurally makes generation the slow part of the test).
    Silence is likely, so most tables give finite graphs.
    """
    n = draw(st.integers(2, 3))
    t = draw(st.integers(0, min(2, n)))
    pids = range(n)
    keys = {
        "initial": [(p, v) for p in pids for v in (0, 1)],
        "start": [(p, s) for p in pids for s in range(STATES)],
        "step": [
            (p, s, src, payload)
            for p in pids
            for s in range(STATES)
            for src in pids
            for payload in range(PAYLOADS)
        ],
        "decide": [(p, s) for p in pids for s in range(STATES)],
    }
    codes = {
        table: draw(
            st.lists(st.integers(0, 2**12 - 1), min_size=len(k), max_size=len(k))
        )
        for table, k in keys.items()
    }
    initial = {
        key: code % STATES for key, code in zip(keys["initial"], codes["initial"])
    }
    start_sends = {
        key: _sends(code, n) for key, code in zip(keys["start"], codes["start"])
    }
    transitions = {
        key: (code % STATES, _sends(code // STATES, n))
        for key, code in zip(keys["step"], codes["step"])
    }
    # 2 and 3 are never inputs: deciding them violates validity.
    decide = {
        key: (None, None, 0, 1, 2, 3)[code % 6]
        for key, code in zip(keys["decide"], codes["decide"])
    }
    inputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    budget = draw(st.sampled_from([1, 5, 40, 300]))
    protocol = TableProtocol(initial, start_sends, transitions, decide)
    return protocol, tuple(inputs), t, budget


def assert_same_verdicts(protocol, inputs, t, budget):
    reference = _CapturingReference(protocol, inputs, t, budget)
    expected = reference.explore()
    explorer = MessageProtocolExplorer(protocol, inputs, t, budget)
    if expected.truncated:
        with pytest.raises(SimulationLimitExceeded):
            explorer.explore()
        return expected
    report = explorer.explore()
    # The same walk: configurations first expanded in the same order,
    # each with the same successors in the same order.
    graph = state_graph(explorer, max_states=budget)
    assert list(graph) == list(reference.graph)
    for config, successors in graph.items():
        assert [nxt for _, nxt in successors] == reference.graph[config]
    assert report.configurations == expected.configurations
    assert report.decision_values == expected.decision_values
    assert report.agreement_violation == expected.agreement_violation
    assert report.validity_violation == expected.validity_violation
    assert report.stuck_configurations == expected.stuck_configurations
    assert report.initial_bivalent == expected.initial_bivalent
    assert report.safe == expected.safe
    assert report.always_terminates == expected.always_terminates
    # The initial valence is every value decided in the graph.
    assert report.decision_values == reference.valence
    return expected


class TestMessageExplorerMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(case=protocol_cases())
    def test_generated_protocols(self, case):
        assert_same_verdicts(*case)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [0, 1, 2])
    @pytest.mark.parametrize("budget", [10, 300_000])
    def test_dichotomy_protocols(self, n, t, budget):
        for inputs in itertools.product((0, 1), repeat=n):
            for protocol in (EagerMinConsensus(n, 1), UnanimityConsensus(n)):
                assert_same_verdicts(protocol, inputs, t, budget)

    def test_pinned_instances(self):
        # (protocol, inputs, t) -> (configurations, stuck, agreement, bivalent)
        cases = [
            (UnanimityConsensus(3), (0, 1, 1), 1, (820, 81, None, False)),
            (EagerMinConsensus(3, 1), (0, 1, 1), 1, (893, 0, (0, 1), True)),
            (EagerMinConsensus(2, 1), (0, 1), 1, (12, 0, (0, 1), True)),
        ]
        for protocol, inputs, t, pinned in cases:
            report = assert_same_verdicts(protocol, inputs, t, 300_000)
            assert (
                report.configurations,
                report.stuck_configurations,
                report.agreement_violation,
                report.initial_bivalent,
            ) == pinned

    def test_truncated_verdict_was_unsound(self):
        """The reference called a truncated exploration safe; the full
        graph has an agreement violation, so the explorer raises."""
        truncated = _ReferenceMessageExplorer(
            EagerMinConsensus(3, 1), (0, 1, 1), t=1, max_configurations=10
        ).explore()
        assert truncated.truncated and truncated.safe
        assert not truncated.initial_bivalent
        with pytest.raises(SimulationLimitExceeded):
            MessageProtocolExplorer(
                EagerMinConsensus(3, 1), (0, 1, 1), t=1, max_configurations=10
            ).explore()
        full = MessageProtocolExplorer(
            EagerMinConsensus(3, 1), (0, 1, 1), t=1
        ).explore()
        assert full.agreement_violation == (0, 1) and full.initial_bivalent


class TestDecisionScan:
    def test_first_pair_and_first_invalid_value_in_graph_order(self):
        decided = {"a": {}, "b": {0: 2, 1: 1}, "c": {0: 0, 1: 1, 2: 3}}
        values, agreement, validity = decision_scan(
            decided, decided.__getitem__, (0, 1)
        )
        assert values == {0, 1, 2, 3}
        assert agreement == (1, 2)
        assert validity == 2

    def test_univalent_graph(self):
        decided = {"a": {}, "b": {1: 0}}
        assert decision_scan(decided, decided.__getitem__, (0, 1)) == (
            frozenset({0}),
            None,
            None,
        )


# ---------------------------------------------------------------------------
# The shared-memory explorer on the consensus-number machines
# ---------------------------------------------------------------------------

#: name -> (factory, the process counts it supports)
MACHINES = {
    **{
        f"race[{kind}]": (
            lambda kind=kind: consensus_number.TwoProcessRaceConsensus(kind),
            (2,),
        )
        for kind in sorted(consensus_number._RACE_RULES)
    },
    "compare&swap": (consensus_number.CompareAndSwapConsensus, (2, 3)),
    "sticky": (consensus_number.StickyConsensus, (2, 3)),
    "LL/SC": (consensus_number.LLSCConsensus, (2, 3)),
    "eager-register": (consensus_number.EagerRegisterConsensus, (2,)),
    "cautious-register": (consensus_number.CautiousRegisterConsensus, (2,)),
}

MACHINE_CASES = [
    (name, n) for name, (_, ns) in MACHINES.items() for n in ns
]


class TestConfigurationExplorerMatchesReference:
    @pytest.mark.parametrize("name,n", MACHINE_CASES)
    def test_reports_and_bivalent_inputs(self, name, n):
        factory, _ = MACHINES[name]
        space = list(itertools.product((0, 1), repeat=n))
        for inputs in space:
            reference = _ReferenceConfigurationExplorer(factory(), inputs)
            explorer = ConfigurationExplorer(factory(), inputs)
            assert explorer.explore() == reference.explore()
            graph = explorer.reachable()
            valence = reference.valence(graph)[explorer.initial_configuration()]
            assert explorer.explore().decision_values == valence
        assert find_bivalent_initial_input(
            factory, space
        ) == _reference_find_bivalent_initial_input(factory, space)
