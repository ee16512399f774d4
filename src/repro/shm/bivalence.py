"""Exhaustive schedule exploration: FLP's argument, executed (§2.4, §4.2).

The FLP theorem (and its shared-memory analogue of Loui–Abu-Amara and
Herlihy) says no deterministic protocol solves consensus with even one
crash, over read/write communication.  The proof machinery — valence of
configurations, the existence of a bivalent initial configuration, and
schedules that preserve bivalence forever — is finite-branching, so for a
*concrete* protocol and tiny ``n`` it can be executed exhaustively rather
than merely cited.

Given a :class:`~repro.shm.statemachine.ProtocolStateMachine`, this
module builds the complete configuration graph with
:func:`repro.explore.engine.state_graph` — the walk the message-passing
explorer (:mod:`repro.amp.consensus.flp`) runs on too — and reports:

* **safety** — does any reachable configuration contain two different
  decided values (agreement violation) or a value nobody proposed
  (validity violation)?
* **initial valence** — every configuration of the graph is reachable
  from the initial one, so its valence is the set of values decided
  anywhere in the graph; more than one makes it bivalent (the FLP
  starting point);
* **non-termination** — does some schedule keep a chosen process running
  forever without deciding (a reachable cycle along which the process
  takes steps but stays undecided)?  For a correct wait-free protocol the
  answer must be *no*; for any register-only consensus protocol that is
  always-safe, the answer is provably *yes* — which is exactly the FLP
  dichotomy, and the tests exhibit it on both sides.

A graph larger than ``max_configurations`` raises
:class:`~repro.core.exceptions.SimulationLimitExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.seqspec import SequentialSpec
from .statemachine import ProtocolStateMachine

Config = Tuple[Tuple[object, ...], Tuple[object, ...]]  # (process states, shared states)


@dataclass
class ExplorationReport:
    """Everything the exhaustive exploration discovered."""

    configurations: int
    terminal_configurations: int
    decision_values: FrozenSet[object]
    agreement_violation: Optional[Tuple[object, object]]
    validity_violation: Optional[object]
    initial_bivalent: bool
    nondeciding_cycle: Dict[int, bool] = field(default_factory=dict)

    @property
    def safe(self) -> bool:
        return self.agreement_violation is None and self.validity_violation is None

    @property
    def always_terminates(self) -> bool:
        """True when no process can be kept stepping forever undecided."""
        return not any(self.nondeciding_cycle.values())


class ConfigurationExplorer:
    """Breadth-first exploration of every schedule of a protocol.

    The configuration mechanics and graph enumeration delegate to
    :class:`repro.explore.shm_model.ShmMachineModel` and
    :func:`repro.explore.engine.state_graph` (the model hash-conses
    equal state tuples, which only saves memory); the safety verdicts
    and the initial valence come from
    :func:`repro.explore.engine.decision_scan`.  The cycle and
    worst-case analyses run on the same graph.
    """

    def __init__(
        self,
        machine: ProtocolStateMachine,
        inputs: Sequence[object],
        max_configurations: int = 2_000_000,
    ) -> None:
        self.machine = machine
        self.inputs = tuple(inputs)
        self.n = len(inputs)
        self.max_configurations = max_configurations
        self._object_names = sorted(machine.shared_objects())
        self._specs: Dict[str, SequentialSpec] = machine.shared_objects()
        self._model = None

    @property
    def model(self):
        """The :class:`~repro.explore.shm_model.ShmMachineModel` adapter.

        Built lazily — ``repro.shm`` imports this module at package
        init, so a module-level import of ``repro.explore`` (which
        imports ``repro.shm`` submodules) would be circular.
        """
        if self._model is None:
            from ..explore.shm_model import ShmMachineModel

            self._model = ShmMachineModel(self.machine, self.inputs)
        return self._model

    # -- configuration mechanics ------------------------------------------

    def initial_configuration(self) -> Config:
        return self.model.initial()

    def enabled(self, config: Config) -> List[int]:
        """Processes with a pending operation (undecided)."""
        return self.model.enabled(config)

    def step(self, config: Config, pid: int) -> Config:
        """The configuration after ``pid`` takes its one enabled step."""
        return self.model.step(config, pid)

    def decisions(self, config: Config) -> Dict[int, object]:
        """Decided values in a configuration, by pid."""
        return self.model.decisions(config)

    # -- exploration ---------------------------------------------------------

    def reachable(self) -> Dict[Config, List[Tuple[int, Config]]]:
        """The full configuration graph: config → [(pid, successor)]."""
        from ..explore.engine import state_graph

        return state_graph(self.model, max_states=self.max_configurations)

    def nondeciding_cycle_exists(
        self, graph: Dict[Config, List[Tuple[int, Config]]], pid: int
    ) -> bool:
        """Can the adversary keep ``pid`` stepping forever without deciding?

        True iff the subgraph of configurations where ``pid`` is undecided
        contains a reachable cycle that includes at least one step *by*
        ``pid``.  (Steps by others inside the cycle are free: the
        adversary may interleave them.)

        Implementation: find the strongly connected components of the
        undecided subgraph; a qualifying cycle exists iff some SCC either
        has an internal pid-step edge, or is a self-loop via pid.
        """
        sub_nodes = [
            config
            for config in graph
            if self.machine.next_op(pid, config[0][pid]) is not None
        ]
        node_set = set(sub_nodes)
        edges: Dict[Config, List[Tuple[int, Config]]] = {
            config: [
                (stepper, nxt)
                for (stepper, nxt) in graph[config]
                if nxt in node_set
            ]
            for config in sub_nodes
        }
        sccs = _tarjan(sub_nodes, edges)
        for component in sccs:
            members = set(component)
            if len(component) == 1:
                config = component[0]
                if any(
                    nxt == config and stepper == pid for stepper, nxt in edges[config]
                ):
                    return True
                continue
            for config in component:
                for stepper, nxt in edges[config]:
                    if stepper == pid and nxt in members:
                        return True
        return False

    def worst_case_steps(
        self, graph: Dict[Config, List[Tuple[int, Config]]], pid: int
    ) -> Optional[int]:
        """Exact worst-case number of ``pid``-steps before ``pid`` halts.

        ``None`` when the adversary can schedule ``pid`` forever without
        a decision (see :meth:`nondeciding_cycle_exists`) — i.e. the
        protocol is not wait-free for ``pid``.  Otherwise every cycle in
        the configuration graph is free of ``pid``-steps, so the maximum
        is computed by dynamic programming over Tarjan's SCC condensation
        (configurations inside one SCC share a value).
        """
        if self.nondeciding_cycle_exists(graph, pid):
            return None
        nodes = list(graph)
        edges = {config: graph[config] for config in nodes}
        sccs = _tarjan(nodes, edges)
        component_of: Dict[Config, int] = {}
        for index, component in enumerate(sccs):
            for config in component:
                component_of[config] = index
        # Tarjan emits SCCs in reverse topological order: successors of a
        # component appear before it in `sccs`.
        best: Dict[int, int] = {}
        for index, component in enumerate(sccs):
            value = 0
            for config in component:
                for stepper, nxt in graph[config]:
                    weight = 1 if stepper == pid else 0
                    target = component_of[nxt]
                    if target == index:
                        # Intra-SCC edge: cycle; guaranteed pid-step-free.
                        continue
                    value = max(value, best[target] + weight)
            best[index] = value
        initial = self.initial_configuration()
        return best[component_of[initial]]

    def explore(self) -> ExplorationReport:
        """Run the full analysis and bundle the verdicts.

        Raises :class:`~repro.core.exceptions.SimulationLimitExceeded`
        when the graph has more than ``max_configurations``
        configurations.
        """
        from ..explore.engine import decision_scan

        graph = self.reachable()
        values, agreement, validity = decision_scan(
            graph, self.decisions, self.inputs
        )
        return ExplorationReport(
            configurations=len(graph),
            terminal_configurations=sum(
                1 for successors in graph.values() if not successors
            ),
            decision_values=values,
            agreement_violation=agreement,
            validity_violation=validity,
            initial_bivalent=len(values) > 1,
            nondeciding_cycle={
                pid: self.nondeciding_cycle_exists(graph, pid)
                for pid in range(self.n)
            },
        )


def _tarjan(
    nodes: Sequence[Config], edges: Dict[Config, List[Tuple[int, Config]]]
) -> List[List[Config]]:
    """Iterative Tarjan SCC (recursion-free: graphs can be deep)."""
    index: Dict[Config, int] = {}
    lowlink: Dict[Config, int] = {}
    on_stack: Set[Config] = set()
    stack: List[Config] = []
    result: List[List[Config]] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[Config, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = edges.get(node, [])
            while child_index < len(successors):
                _, successor = successors[child_index]
                child_index += 1
                if successor not in index:
                    work[-1] = (node, child_index)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work[-1] = (node, child_index)
            if child_index >= len(successors):
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: List[Config] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    result.append(component)
    return result


def find_bivalent_initial_input(
    machine_factory,
    input_space: Sequence[Sequence[object]],
    max_configurations: int = 500_000,
) -> Optional[Tuple[object, ...]]:
    """First input vector whose initial configuration is bivalent.

    The FLP proof's Lemma-2 step: some initial configuration must be
    bivalent (found here by direct search instead of the adjacency
    argument: an initial configuration is bivalent iff its graph decides
    more than one value).  Returns ``None`` if every initial
    configuration is univalent — which for a correct consensus protocol
    with equal inputs is expected.
    """
    from ..explore.engine import decision_scan

    for inputs in input_space:
        explorer = ConfigurationExplorer(
            machine_factory(), inputs, max_configurations
        )
        values, _, _ = decision_scan(
            explorer.reachable(), explorer.decisions, inputs
        )
        if len(values) > 1:
            return tuple(inputs)
    return None
