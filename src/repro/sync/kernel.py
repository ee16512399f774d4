"""Round-based synchronous kernel — the LOCAL model (paper §3.1).

Processes advance in lock-step rounds, each round made of the paper's
three phases:

1. **send** — each process sends one message to any subset of neighbors;
2. **receive** — messages sent in round ``r`` arrive in round ``r``
   (the fundamental synchrony property), unless a message adversary
   suppresses them (§3.3);
3. **compute** — each process updates its local state from what arrived.

The kernel also supports *crash schedules* (used by the §6-pointer
synchronous consensus algorithm): a process may crash in the middle of
its send phase, so only a prefix of its recipients get its message —
the classic source of difficulty for synchronous agreement.

Algorithms subclass :class:`SyncAlgorithm`; the kernel owns all timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace.sink import TraceSink

from ..analyze.freeze import deep_freeze
from ..core.exceptions import (
    ConfigurationError,
    ModelViolation,
    SimulationLimitExceeded,
)
from ..core.volume import payload_units
from .topology import Edge, Topology

Outbox = Dict[int, object]
DirectedEdge = Tuple[int, int]


class Context:
    """Per-process view handed to the algorithm on every call.

    Exposes exactly what the LOCAL model grants a process: its identity,
    its input, its neighborhood, the current round number, and the means
    to decide an output and to halt.
    """

    def __init__(self, pid: int, input_value: object, neighbors: FrozenSet[int], n: int) -> None:
        self.pid = pid
        self.input = input_value
        self.neighbors = neighbors
        self.n = n
        self.round = 0
        self.output: object = None
        self.decided = False
        self.halted = False

    def decide(self, value: object) -> None:
        """Record this process's output (may be called once)."""
        if self.decided:
            raise ModelViolation(f"process {self.pid} decided twice")
        self.decided = True
        self.output = value

    def halt(self) -> None:
        """Stop participating: no further sends or computation."""
        self.halted = True

    def broadcast(self, message: object) -> Outbox:
        """Outbox sending ``message`` to every neighbor.

        Neighbors are sorted: outbox insertion order is the kernel's send
        order, and set iteration order is a hashing artifact no run
        should depend on (trace hashes observe send order).
        """
        return {neighbor: message for neighbor in sorted(self.neighbors)}


class SyncAlgorithm:
    """Base class for synchronous per-process algorithms.

    Subclasses implement :meth:`on_start` (messages for round 1) and
    :meth:`on_round` (handle round ``r``'s deliveries, emit round ``r+1``'s
    messages).  Returning an empty dict sends nothing.
    """

    def on_start(self, ctx: Context) -> Outbox:
        """Messages to send in round 1."""
        return {}

    def on_round(self, ctx: Context, received: Mapping[int, object]) -> Outbox:
        """Handle round ``ctx.round`` deliveries; return next round's sends."""
        return {}

    def local_state(self) -> object:
        """State exposed to the (omniscient) message adversary (§3.3)."""
        return None


@dataclass(frozen=True)
class CrashEvent:
    """Crash of ``pid`` during the send phase of round ``round``.

    Only recipients in ``delivered_to`` (intersected with the actual
    outbox) receive the round's message; afterwards the process is gone.
    ``delivered_to=None`` means the crash happens after all sends.
    """

    pid: int
    round: int
    delivered_to: Optional[FrozenSet[int]] = None


def index_crash_schedule(
    crash_schedule: Sequence[CrashEvent], n: int
) -> Dict[int, List[CrashEvent]]:
    """Validate a crash schedule for ``n`` processes and index it by round.

    Every pid must lie in ``range(n)``, crash at most once, and crash in
    a round ``>= 1``; anything else raises
    :class:`~repro.core.exceptions.ConfigurationError` before the run
    starts.  Both synchronous runners call this.
    """
    seen_pids = set()
    by_round: Dict[int, List[CrashEvent]] = {}
    for event in crash_schedule:
        if not 0 <= event.pid < n:
            raise ConfigurationError(
                f"crash pid {event.pid} out of range for n={n}"
            )
        if event.pid in seen_pids:
            raise ConfigurationError(f"process {event.pid} crashes twice")
        if event.round < 1:
            raise ConfigurationError("crash rounds start at 1")
        seen_pids.add(event.pid)
        by_round.setdefault(event.round, []).append(event)
    return by_round


@dataclass
class SyncRunResult:
    """Everything observable about a completed synchronous run.

    ``message_count`` / ``messages_sent`` count messages delivered / sent;
    ``payload_delivered`` / ``payload_sent`` meter the same traffic in
    payload units (see :func:`repro.core.volume.payload_units`) — the
    honest cost measure for full-information protocols, whose messages
    carry whole views.
    """

    outputs: List[object]
    decided: List[bool]
    rounds: int
    halted: List[bool]
    crashed: Set[int]
    communication_graphs: List[FrozenSet[DirectedEdge]] = field(default_factory=list)
    message_count: int = 0
    messages_sent: int = 0
    payload_sent: int = 0
    payload_delivered: int = 0

    def output_vector(self) -> Tuple[object, ...]:
        from ..core.task import NO_OUTPUT

        return tuple(
            o if d else NO_OUTPUT for o, d in zip(self.outputs, self.decided)
        )

    def all_decided(self) -> bool:
        return all(self.decided)


class SynchronousRunner:
    """Executes one synchronous run of an algorithm over a topology.

    Parameters
    ----------
    topology:
        The communication graph ``G``.
    algorithms:
        One :class:`SyncAlgorithm` instance per process.
    inputs:
        Private inputs, one per process.
    adversary:
        Optional message adversary (see :mod:`repro.sync.adversary`).
    crash_schedule:
        Optional crash events (at most one per process, pids in
        ``range(n)``).
    max_rounds:
        Safety budget; exceeding it raises
        :class:`~repro.core.exceptions.SimulationLimitExceeded`.
    record_graphs:
        Record each round's delivered communication graph ``G_r`` (needed
        by adversary tests; off by default to save memory).
    sink:
        Optional :class:`~repro.trace.sink.TraceSink` receiving the
        run's structured events (round markers, sends, deliveries,
        drops, crashes, decisions) with causal clocks.  ``None``
        (default) adds one ``if`` per event site.
    sanitize:
        Aliasing sanitizer (off by default): every outbox message is
        deep-frozen as it is collected
        (:func:`repro.analyze.freeze.deep_freeze`), so a protocol that
        mutates a message after handing it over raises
        :class:`~repro.analyze.freeze.FrozenMutationError` at the
        mutation site — and the in-flight value is captured at send
        time, as a serializing network would.  Off, it costs one ``if``
        per outbox.
    """

    def __init__(
        self,
        topology: Topology,
        algorithms: Sequence[SyncAlgorithm],
        inputs: Sequence[object],
        adversary: Optional["MessageAdversary"] = None,
        crash_schedule: Sequence[CrashEvent] = (),
        max_rounds: int = 10_000,
        record_graphs: bool = False,
        sink: Optional["TraceSink"] = None,
        sanitize: bool = False,
    ) -> None:
        n = topology.n
        if len(algorithms) != n or len(inputs) != n:
            raise ConfigurationError(
                f"need exactly {n} algorithms and inputs, got "
                f"{len(algorithms)} / {len(inputs)}"
            )
        self.topology = topology
        self.algorithms = list(algorithms)
        self.adversary = adversary
        self.crash_by_round = index_crash_schedule(crash_schedule, n)
        self.max_rounds = max_rounds
        self.record_graphs = record_graphs
        self._sanitize = sanitize
        self._sink = sink
        if sink is not None:
            sink.bind(n)
        self._decide_recorded = [False] * n
        self.contexts = [
            Context(pid, inputs[pid], topology.neighbors(pid), n) for pid in range(n)
        ]
        # Hot-loop containers, allocated once and reused every round:
        # per-process inbox dicts (cleared via the dirty list rather than
        # reallocated — ``received`` mappings are only valid during the
        # ``on_round`` call that gets them), an active-membership mask,
        # and the send maps.  Reuse does not change any iteration order:
        # a cleared dict refills in insertion order exactly like a fresh
        # one, so delivered-edge frozensets (and trace hashes) are
        # byte-identical to the allocate-per-round loop.
        self._inboxes: List[Dict[int, object]] = [{} for _ in range(n)]
        self._inbox_dirty: List[int] = []
        self._active_mask = bytearray(b"\x01") * n
        self._sends: Dict[DirectedEdge, object] = {}
        self._send_units: Dict[DirectedEdge, int] = {}

    def run(self) -> SyncRunResult:
        """Run rounds until every live process halts or decides-and-halts."""
        n = self.topology.n
        crashed: Set[int] = set()
        graphs: List[FrozenSet[DirectedEdge]] = []
        message_count = 0
        messages_sent = 0
        payload_sent = 0
        payload_delivered = 0

        # Only processes that still have something to send keep an outbox
        # entry; halted/crashed processes are dropped instead of carrying
        # empty dicts through every remaining round.  ``active`` (pid order)
        # are the processes that still compute: not crashed, not halted.
        outboxes: Dict[int, Outbox] = {}
        active: List[int] = []
        for pid in range(n):
            ctx = self.contexts[pid]
            outboxes[pid] = self._finalize_outbox(
                pid, self.algorithms[pid].on_start(ctx) or {}
            )
            active.append(pid)
            if self._sink is not None:
                self._note_decides(pid, 0)

        round_no = 0
        while True:
            round_no += 1
            if round_no > self.max_rounds:
                raise SimulationLimitExceeded(
                    f"synchronous run exceeded {self.max_rounds} rounds"
                )
            for pid in active:
                self.contexts[pid].round = round_no
            if self._sink is not None:
                self._sink.sync_round_begin(round_no)

            # --- send phase (with mid-send crashes) -----------------------
            crashing_now = {e.pid: e for e in self.crash_by_round.get(round_no, [])}
            sends = self._sends
            send_units = self._send_units
            sends.clear()
            send_units.clear()
            for pid, outbox in outboxes.items():
                # A process that halted during the previous round's compute
                # still gets its final outbox delivered ("send, then halt").
                allowed: Optional[FrozenSet[int]] = None
                if pid in crashing_now:
                    allowed = crashing_now[pid].delivered_to
                for target, message in outbox.items():
                    if allowed is not None and target not in allowed:
                        if self._sink is not None:
                            # The crash cut this send off mid-broadcast.
                            self._sink.sync_drop(
                                round_no, pid, target, reason="crash-mid-send"
                            )
                        continue
                    sends[(pid, target)] = message
                    units = payload_units(message)
                    send_units[(pid, target)] = units
                    payload_sent += units
                    if self._sink is not None:
                        self._sink.sync_send(round_no, pid, target, message, units)
            messages_sent += len(sends)
            if crashing_now:
                crashed.update(crashing_now)
                for pid in crashing_now:
                    self._active_mask[pid] = 0
                active = [pid for pid in active if pid not in crashing_now]
                if self._sink is not None:
                    for pid in crashing_now:
                        self._sink.sync_crash(pid, round_no)
            # Final outboxes (halted last round) are now delivered; crashed
            # processes send nothing further either.
            for pid in [
                p for p in outboxes if p in crashed or self.contexts[p].halted
            ]:
                del outboxes[pid]

            # --- adversary filtering (§3.3) -------------------------------
            if self.adversary is not None:
                states = [alg.local_state() for alg in self.algorithms]
                delivered_edges = self.adversary.filter(
                    round_no, frozenset(sends), states, self.topology
                )
                illegal = delivered_edges - frozenset(sends)
                if illegal:
                    raise ModelViolation(
                        f"adversary created messages on {sorted(illegal)}"
                    )
            else:
                delivered_edges = frozenset(sends)
            message_count += len(delivered_edges)
            for edge in delivered_edges:
                payload_delivered += send_units[edge]
            if self.record_graphs:
                graphs.append(delivered_edges)
            if self._sink is not None:
                for edge in sorted(frozenset(sends) - delivered_edges):
                    self._sink.sync_drop(round_no, *edge, reason="adversary")
                for (src, dst) in sorted(delivered_edges):
                    self._sink.sync_deliver(round_no, src, dst, sends[(src, dst)])

            # --- receive + compute phases ----------------------------------
            inboxes = self._inboxes
            active_mask = self._active_mask
            for pid in self._inbox_dirty:
                inboxes[pid].clear()
            del self._inbox_dirty[:]
            for (src, dst) in delivered_edges:
                if active_mask[dst]:
                    box = inboxes[dst]
                    if not box:
                        self._inbox_dirty.append(dst)
                    box[src] = sends[(src, dst)]

            still_active: List[int] = []
            for pid in active:
                ctx = self.contexts[pid]
                outbox = self._finalize_outbox(
                    pid, self.algorithms[pid].on_round(ctx, inboxes[pid]) or {}
                )
                if ctx.halted:
                    # Keep the final outbox for one more send phase only.
                    if outbox:
                        outboxes[pid] = outbox
                    else:
                        outboxes.pop(pid, None)
                    active_mask[pid] = 0
                else:
                    outboxes[pid] = outbox
                    still_active.append(pid)
                if self._sink is not None:
                    self._note_decides(pid, round_no)
            active = still_active
            if self._sink is not None:
                self._sink.sync_round_end(round_no)
            if not active:
                break

        return SyncRunResult(
            outputs=[ctx.output for ctx in self.contexts],
            decided=[ctx.decided for ctx in self.contexts],
            rounds=round_no,
            halted=[ctx.halted for ctx in self.contexts],
            crashed=crashed,
            communication_graphs=graphs,
            message_count=message_count,
            messages_sent=messages_sent,
            payload_sent=payload_sent,
            payload_delivered=payload_delivered,
        )

    def _note_decides(self, pid: int, round_no: int) -> None:
        ctx = self.contexts[pid]
        if ctx.decided and not self._decide_recorded[pid]:
            self._decide_recorded[pid] = True
            self._sink.sync_decide(pid, round_no, ctx.output)

    def _finalize_outbox(self, pid: int, outbox: Outbox) -> Outbox:
        ctx = self.contexts[pid]
        for target in outbox:
            if target not in ctx.neighbors:
                raise ModelViolation(
                    f"process {pid} sent to non-neighbor {target} "
                    f"(LOCAL model forbids this)"
                )
        if self._sanitize:
            return {
                target: deep_freeze(message)
                for target, message in outbox.items()
            }
        return dict(outbox)


def run_synchronous(
    topology: Topology,
    algorithms: Sequence[SyncAlgorithm],
    inputs: Sequence[object],
    **kwargs,
) -> SyncRunResult:
    """Convenience wrapper: build a :class:`SynchronousRunner` and run it."""
    return SynchronousRunner(topology, algorithms, inputs, **kwargs).run()


# Imported at the bottom to avoid a cycle (adversary needs Topology types).
from .adversary import MessageAdversary  # noqa: E402  (re-export for typing)
