"""FLP in message passing, executed exhaustively (paper §2.4, §5.1, [23]).

Fischer–Lynch–Paterson: no deterministic algorithm solves consensus in
``AMP_{n,1}`` — one potential crash suffices.  As in the shared-memory
case (:mod:`repro.shm.bivalence`), the proof's machinery is
finite-branching for a concrete protocol: the adversary's moves are
*which in-transit message to deliver next* and *whom to crash* (within
the resilience budget ``t``).

:class:`MessageProtocolExplorer` is the model
:func:`repro.explore.engine.state_graph` walks — the walk that builds
the shared-memory explorer's graph too.  Its choices are
``("deliver", src, dst, payload)``, one per distinct in-transit message,
and ``("crash", pid, mid_send)``.  On the complete configuration graph
of a :class:`MessageProtocol` it reports:

* agreement/validity violations in any reachable configuration;
* **stuck configurations** — some live process undecided while no
  message to any live process is in transit (a fair execution that ends
  undecided: the termination failure mode of "wait for everyone"
  protocols under a crash);
* initial bivalence: every configuration of the graph is reachable from
  the initial one, so the initial valence is the set of values decided
  anywhere in the graph.

A graph larger than ``max_configurations`` raises
:class:`~repro.core.exceptions.SimulationLimitExceeded`: a verdict on
part of the graph would not be sound.

Concrete protocols exhibiting the FLP dichotomy:

* :class:`EagerMinConsensus` — decide min of the first ``n − t`` values:
  always terminates, *violates agreement* (found by the explorer);
* :class:`UnanimityConsensus` — decide only on a unanimous quorum:
  always safe, but the explorer finds reachable stuck/livelocked
  configurations — with one crash it cannot terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ...core.exceptions import ConfigurationError

#: Sentinel: a process that has not decided.
NOT_DECIDED = object()

Transit = Tuple[Tuple[int, int, object], ...]  # sorted (src, dst, payload)
Config = Tuple[Tuple[object, ...], FrozenSet[int], Transit]
#: ``("deliver", src, dst, payload)`` or ``("crash", pid, mid_send)``.
Choice = Tuple[object, ...]


class MessageProtocol:
    """A deterministic message-driven protocol for exhaustive checking."""

    name = "message-protocol"

    def initial_state(self, pid: int, input_value: object) -> object:
        raise NotImplementedError

    def initial_messages(self, pid: int, state: object) -> List[Tuple[int, object]]:
        """Messages sent spontaneously at startup."""
        return []

    def on_message(
        self, pid: int, state: object, src: int, payload: object
    ) -> Tuple[object, List[Tuple[int, object]]]:
        """Handle a delivery; return (new state, messages to send)."""
        raise NotImplementedError

    def decision(self, pid: int, state: object) -> object:
        """The decided value, or :data:`NOT_DECIDED`."""
        return NOT_DECIDED


@dataclass
class MessageExplorationReport:
    """Verdicts of the exhaustive message-passing exploration."""

    configurations: int
    decision_values: FrozenSet[object]
    agreement_violation: Optional[Tuple[object, object]]
    validity_violation: Optional[object]
    stuck_configurations: int
    initial_bivalent: bool

    @property
    def safe(self) -> bool:
        return self.agreement_violation is None and self.validity_violation is None

    @property
    def always_terminates(self) -> bool:
        """No fair execution ends with a live process undecided."""
        return self.stuck_configurations == 0


class MessageProtocolExplorer:
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

    # -- the model state_graph walks -------------------------------------

    def initial(self) -> Config:
        states = tuple(
            self.protocol.initial_state(pid, self.inputs[pid])
            for pid in range(self.n)
        )
        transit: List[Tuple[int, int, object]] = []
        for pid in range(self.n):
            for dst, payload in self.protocol.initial_messages(pid, states[pid]):
                transit.append((pid, dst, payload))
        return (states, frozenset(), tuple(sorted(transit, key=repr)))

    def enabled(self, config: Config) -> List[Choice]:
        """Deliveries of each distinct in-transit message, then crashes.

        Any live process may crash while the budget lasts, in two
        variants: after its sends completed (its in-transit messages
        survive) or mid-send (they are lost) — the latter is the classic
        "crashed during a broadcast" case, offered only when it loses
        something.
        """
        _, crashed, transit = config
        choices: List[Choice] = [
            ("deliver",) + entry for entry in dict.fromkeys(transit)
        ]
        if len(crashed) < self.t:
            for pid in range(self.n):
                if pid not in crashed:
                    choices.append(("crash", pid, False))
                    if any(entry[0] == pid for entry in transit):
                        choices.append(("crash", pid, True))
        return choices

    def step(self, config: Config, choice: Choice) -> Config:
        states, crashed, transit = config
        if choice[0] == "crash":
            _, pid, mid_send = choice
            if mid_send:
                transit = tuple(entry for entry in transit if entry[0] != pid)
            return (states, crashed | {pid}, transit)
        _, src, dst, payload = choice
        index = transit.index((src, dst, payload))
        remaining = transit[:index] + transit[index + 1 :]
        if dst in crashed:
            return (states, crashed, remaining)
        new_state, sends = self.protocol.on_message(dst, states[dst], src, payload)
        new_states = states[:dst] + (new_state,) + states[dst + 1 :]
        new_transit = list(remaining)
        for to, msg in sends:
            new_transit.append((dst, to, msg))
        return (new_states, crashed, tuple(sorted(new_transit, key=repr)))

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

    def explore(self) -> MessageExplorationReport:
        """Walk the whole graph and bundle the verdicts.

        Raises :class:`~repro.core.exceptions.SimulationLimitExceeded`
        when the graph has more than ``max_configurations``
        configurations.
        """
        # Imported here: ``import repro.amp`` loads this module in every
        # KV workload, which never explores.
        from ...explore.engine import decision_scan, state_graph

        graph = state_graph(self, max_states=self.max_configurations)
        values, agreement, validity = decision_scan(
            graph, self.decisions, self.inputs
        )
        return MessageExplorationReport(
            configurations=len(graph),
            decision_values=values,
            agreement_violation=agreement,
            validity_violation=validity,
            stuck_configurations=sum(map(self.is_stuck, graph)),
            initial_bivalent=len(values) > 1,
        )


# ---------------------------------------------------------------------------
# The dichotomy protocols
# ---------------------------------------------------------------------------


class EagerMinConsensus(MessageProtocol):
    """Decide min of the first ``n − t`` values heard (own included).

    Terminates in every fair execution with ≤ t crashes — and the
    explorer finds the agreement violation FLP promises a terminating
    protocol must have.
    """

    name = "eager-min-consensus"

    def __init__(self, n: int, t: int) -> None:
        self.n = n
        self.t = t

    def initial_state(self, pid: int, input_value: object):
        # (own value, frozenset of (src, value) heard, decision)
        heard = frozenset([(pid, input_value)])
        decision = None
        if len(heard) >= self.n - self.t:
            decision = input_value
        return (input_value, heard, decision)

    def initial_messages(self, pid: int, state):
        value, _, _ = state
        return [(dst, value) for dst in range(self.n) if dst != pid]

    def on_message(self, pid: int, state, src: int, payload):
        value, heard, decision = state
        if decision is not None:
            return state, []
        heard = heard | {(src, payload)}
        if len(heard) >= self.n - self.t:
            decision = min(v for _, v in heard)
        return (value, heard, decision), []

    def decision(self, pid: int, state):
        return state[2] if state[2] is not None else NOT_DECIDED


class UnanimityConsensus(MessageProtocol):
    """Decide only when ALL ``n`` values are known and equal-safe.

    Waits for every process's value and decides the minimum — trivially
    safe, but a single crash leaves everyone waiting forever: the
    explorer counts the stuck configurations.
    """

    name = "unanimity-consensus"

    def __init__(self, n: int) -> None:
        self.n = n

    def initial_state(self, pid: int, input_value: object):
        return (input_value, frozenset([(pid, input_value)]), None)

    def initial_messages(self, pid: int, state):
        value, _, _ = state
        return [(dst, value) for dst in range(self.n) if dst != pid]

    def on_message(self, pid: int, state, src: int, payload):
        value, heard, decision = state
        if decision is not None:
            return state, []
        heard = heard | {(src, payload)}
        if len(heard) == self.n:
            decision = min(v for _, v in heard)
        return (value, heard, decision), []

    def decision(self, pid: int, state):
        return state[2] if state[2] is not None else NOT_DECIDED
