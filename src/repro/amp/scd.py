"""Set-Constrained Delivery broadcast and the objects it powers.

SCD-broadcast (Imbs–Mostéfaoui–Perrin–Raynal, arXiv:1706.05267) is the
proven intermediate rung between reliable broadcast and total-order
broadcast in the paper's §5.1 hierarchy: processes deliver **sets of
messages** rather than individual messages, under one ordering rule —

  **MS-Ordering**: if ``p_i`` delivers a set containing ``m`` strictly
  before a set containing ``m'``, then no process delivers ``m'``
  strictly before ``m`` (delivering both *in the same set* is always
  allowed).

Together with Validity (only broadcast messages are delivered),
Integrity (each message is delivered at most once), and Termination
(every message a correct process broadcasts — and every message any
process delivers — is eventually delivered by all correct processes),
this is strong enough to build **snapshot objects and the
counter/key-value family consensus-free**, yet strictly weaker than
total order: two processes may legitimately deliver ``{m} {m'}`` and
``{m, m'}`` — a divergence TO-broadcast forbids and the explorer
exhibits as a replayable counterexample (see
:func:`repro.explore.amp_protocols.make_scd_nodes`).

Implementation (the IMPR message pattern, ``t < n/2``):

* every process *forwards* every message exactly once, stamping each
  forward with its monotonically increasing local **forward clock** —
  so a forwarder's forwards carry consecutive clocks 1, 2, 3, …;
* receivers process each forwarder's forwards **in clock order**
  (a per-forwarder reordering buffer absorbs non-FIFO links), so
  "``p_f`` forwarded ``m`` before ``m'``" is decidable from a local,
  gap-free prefix: if ``p_i`` processed ``p_f``'s forward of ``m`` at
  clock ``c``, any forward of a message ``p_i`` has *not* processed
  from ``p_f`` necessarily carries a clock ``> c``;
* a message is **stable** once forwarded by a majority; a set of stable
  messages is delivered only when, for every excluded undelivered
  message ``m'``, a majority of forwarders provably forwarded every
  included ``m`` before ``m'``.  Two majorities intersect, so two
  processes can never establish opposite strict orders — MS-Ordering
  holds on every link model and schedule (the explorer checks this
  exhaustively at ``n = 3``);
* the delivery pass runs only when a forward just processed is of a
  stable undelivered message: a forward carries its forwarder's newest
  clock, so it changes no order proof but its own message's, and any
  other pass would deliver nothing.  Forwards that arrive in clock order
  skip the reorder buffer.

The object layer reproduces the paper's abstraction-power results:
:class:`SnapshotObject` (MWMR snapshot memory), :class:`Counter`, and
:class:`ScdKvStore` — all consensus-free.  Writes are made atomic with
a *sync-then-write* pattern: a ``SYNC`` barrier (one SCD-broadcast that
the caller waits out) brings the local copy up to date — MS-Ordering
guarantees everything delivered before the barrier was issued arrives
no later than the barrier — after which the write's timestamp
``(date, pid)`` dominates every earlier write.  Reads and snapshots are
a single barrier.  State merges (timestamp-max per register, sum for
counters) are commutative, so processes whose delivered *sets* split
differently still converge to identical object states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.exceptions import ConfigurationError, ModelViolation
from ..core.history import History
from .abd import OpRecord
from .network import AsyncProcess, Context

MessageId = Tuple[int, int]  # (origin pid, origin sequence number)

#: Tombstone a :class:`ScdKvStore` delete writes (a tuple no user value
#: collides with).
DELETED = ("<deleted>",)


@dataclass(frozen=True)
class ScdMessage:
    """One message inside a delivered message set."""

    origin: int
    seq: int
    payload: object

    @property
    def message_id(self) -> MessageId:
        return (self.origin, self.seq)


#: A delivered message set: messages sorted by ``(origin, seq)``.
MessageSet = Tuple[ScdMessage, ...]


class ScdBroadcast:
    """SCD-broadcast component, embeddable in any
    :class:`~repro.amp.network.AsyncProcess` (tag-routed messages, like
    :class:`~repro.amp.broadcast.ReliableBroadcast`).

    Parameters
    ----------
    pid, n:
        Identity and system size (requires a live majority: ``t < n/2``).
    tag:
        Wire tag; distinct instances in one process need distinct tags.
    on_deliver:
        Optional callback ``(ctx, message_set)`` fired at each set
        delivery (sets are also returned from :meth:`handle` and
        accumulated on :attr:`delivered_sets`).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        tag: str = "scd",
        on_deliver: Optional[Callable[[Context, MessageSet], None]] = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError("SCD-broadcast needs n >= 1")
        if not 0 <= pid < n:
            raise ConfigurationError(f"pid {pid} outside 0..{n - 1}")
        self.pid = pid
        self.n = n
        self.tag = tag
        self.on_deliver = on_deliver
        self._next_seq = 0
        #: my forward clock: consecutive stamps 1, 2, 3, … per forward
        self.clock = 0
        #: mid → {forwarder → forward clock}, processed forwards only
        self._forwards: Dict[MessageId, Dict[int, int]] = {}
        #: mid → payload, learned at first processed forward
        self._payloads: Dict[MessageId, object] = {}
        #: messages I already forwarded (each is forwarded exactly once)
        self._forwarded: Set[MessageId] = set()
        #: per-forwarder reordering buffer: clock → (mid, payload)
        self._reorder: Dict[int, Dict[int, Tuple[MessageId, object]]] = {}
        #: next unprocessed clock per forwarder (their stamps start at 1)
        self._next_clock: Dict[int, int] = {}
        self._delivered_ids: Set[MessageId] = set()
        #: known-but-undelivered ids, maintained incrementally — the
        #: delivery pass iterates this, not every id ever seen.
        self._undelivered: Set[MessageId] = set()
        #: undelivered ids forwarded by a majority: the pass's candidates.
        #: Derived from ``_forwards`` and the delivered ids, so not in repr.
        self._stable: Set[MessageId] = set()
        self.delivered_sets: List[MessageSet] = []

    @property
    def quorum(self) -> int:
        return self.n // 2 + 1

    def __repr__(self) -> str:
        # Deterministic, address-free, and covering the full protocol
        # state: AmpModel fingerprints hash ``repr(vars(process))``, so
        # hosts embedding an ScdBroadcast stay explorable with dedup.
        return (
            f"ScdBroadcast(pid={self.pid}, n={self.n}, tag={self.tag!r}, "
            f"seq={self._next_seq}, clock={self.clock}, "
            f"forwards={sorted((m, sorted(c.items())) for m, c in self._forwards.items())}, "
            f"payloads={sorted((m, repr(p)) for m, p in self._payloads.items())}, "
            f"forwarded={sorted(self._forwarded)}, "
            f"reorder={sorted((f, sorted(b.items())) for f, b in self._reorder.items())}, "
            f"next_clock={sorted(self._next_clock.items())}, "
            f"delivered={self.delivered_sets!r})"
        )

    # -- broadcasting ------------------------------------------------------

    def broadcast(self, ctx: Context, payload: object) -> MessageId:
        """SCD-broadcast ``payload``; returns its message id.

        The local delivery of the message (in some set) is signalled
        through :meth:`handle`'s return / ``on_deliver`` once enough
        forwards arrive; with ``n = 1`` it is delivered synchronously
        inside this call.
        """
        message_id = (self.pid, self._next_seq)
        self._next_seq += 1
        self._payloads[message_id] = payload
        self._undelivered.add(message_id)
        self._record_own_forward(ctx, message_id, payload)
        if message_id in self._stable:  # n = 1: my forward is a majority
            self._try_deliver(ctx)
        return message_id

    def _record_own_forward(
        self, ctx: Context, message_id: MessageId, payload: object
    ) -> None:
        """Forward once: stamp my next clock, count myself, tell peers.

        My own forwards never travel the network (I process them here,
        at stamp time, trivially in clock order); peers receive them as
        ``FORWARD`` messages and reorder into my clock sequence.
        """
        self._forwarded.add(message_id)
        self.clock += 1
        clocks = self._forwards.setdefault(message_id, {})
        clocks[self.pid] = self.clock
        if len(clocks) >= self.quorum:  # I forward at first sight: undelivered
            self._stable.add(message_id)
        ctx.broadcast(
            (self.tag, "fwd", message_id, payload, self.pid, self.clock),
            include_self=False,
        )

    # -- receiving ---------------------------------------------------------

    def handle(self, ctx: Context, src: int, message: object) -> List[MessageSet]:
        """Feed a raw network message; returns newly delivered sets."""
        if not (isinstance(message, tuple) and message and message[0] == self.tag):
            return []
        _, _, message_id, payload, forwarder, fwd_clock = message
        if forwarder == self.pid:
            return []  # a wire reflection of my own forward: already counted
        next_clock = self._next_clock.setdefault(forwarder, 1)
        if fwd_clock < next_clock:
            return []  # link-level duplicate of an already processed forward
        buffer = self._reorder.setdefault(forwarder, {})
        if fwd_clock > next_clock:
            buffer[fwd_clock] = (message_id, payload)
            return []  # wait for the forwarder's earlier clocks
        # In clock order: process it at once, then what it unblocked.
        self._next_clock[forwarder] = fwd_clock + 1
        self._process_forward(ctx, message_id, payload, forwarder, fwd_clock)
        deliverable = message_id in self._stable
        while fwd_clock + 1 in buffer:
            fwd_clock += 1
            mid, pay = buffer.pop(fwd_clock)
            self._next_clock[forwarder] = fwd_clock + 1
            self._process_forward(ctx, mid, pay, forwarder, fwd_clock)
            deliverable = deliverable or mid in self._stable
        if not deliverable:
            return []
        return self._try_deliver(ctx)

    def _process_forward(
        self,
        ctx: Context,
        message_id: MessageId,
        payload: object,
        forwarder: int,
        fwd_clock: int,
    ) -> None:
        self._payloads.setdefault(message_id, payload)
        clocks = self._forwards.setdefault(message_id, {})
        clocks[forwarder] = fwd_clock
        if message_id not in self._delivered_ids:
            self._undelivered.add(message_id)
            if len(clocks) >= self.quorum:
                self._stable.add(message_id)
        if message_id not in self._forwarded:
            self._record_own_forward(ctx, message_id, payload)

    # -- delivery ----------------------------------------------------------

    def _orders_before(self, first: MessageId, second: MessageId) -> int:
        """Forwarders provably ordering ``first`` before ``second``.

        A forwarder ``f`` counts iff I processed its forward of
        ``first`` and either processed its forward of ``second`` with a
        larger clock, or have not processed one at all — in which case
        the gap-free prefix guarantees any such forward carries a
        larger clock.
        """
        seconds = self._forwards.get(second, {})
        count = 0
        for f, clock in self._forwards[first].items():
            other = seconds.get(f)
            if other is None or other > clock:
                count += 1
        return count

    def _try_deliver(self, ctx: Context) -> List[MessageSet]:
        # Fixpoint: drop any stable candidate that cannot be proven (by a
        # majority of forwarders) to precede every excluded undelivered
        # message.  The largest surviving set is unique, whatever the
        # removal order.  Why callers may skip a pass: right after one,
        # nothing more is deliverable; a processed forward of x carries
        # its forwarder's newest clock, so it changes no order proof but
        # x's own — the next pass can deliver only once such an x is stable.
        quorum = self.quorum
        candidate = set(self._stable)
        excluded = self._undelivered - candidate
        changed = True
        while changed:
            changed = False
            for mid in list(candidate):
                for other in excluded:
                    if self._orders_before(mid, other) < quorum:
                        break
                else:
                    continue
                candidate.discard(mid)
                excluded.add(mid)
                changed = True
        if not candidate:
            return []
        message_set: MessageSet = tuple(
            ScdMessage(mid[0], mid[1], self._payloads[mid])
            for mid in sorted(candidate)
        )
        self._delivered_ids.update(candidate)
        self._undelivered.difference_update(candidate)
        self._stable.difference_update(candidate)
        self.delivered_sets.append(message_set)
        if self.on_deliver is not None:
            self.on_deliver(ctx, message_set)
        return [message_set]


# ---------------------------------------------------------------------------
# History checkers (used by tests and the explorer properties)
# ---------------------------------------------------------------------------


def check_scd_histories(
    histories: Sequence[Sequence[MessageSet]],
) -> Optional[str]:
    """Check Integrity + MS-Ordering across per-process set sequences.

    Returns ``None`` when the histories are SCD-consistent, else a
    description of the violation.  ``histories[i]`` is process ``i``'s
    sequence of delivered message sets, in delivery order.
    """
    positions: List[Dict[MessageId, int]] = []
    for pid, sets in enumerate(histories):
        seen: Dict[MessageId, int] = {}
        for index, message_set in enumerate(sets):
            for message in message_set:
                if message.message_id in seen:
                    return (
                        f"integrity violated: process {pid} delivered "
                        f"{message.message_id} twice (sets "
                        f"{seen[message.message_id]} and {index})"
                    )
                seen[message.message_id] = index
        positions.append(seen)
    for i in range(len(histories)):
        for j in range(i + 1, len(histories)):
            common = sorted(set(positions[i]) & set(positions[j]))
            for a_index, first in enumerate(common):
                for second in common[a_index + 1 :]:
                    de_i = positions[i][first] - positions[i][second]
                    de_j = positions[j][first] - positions[j][second]
                    if (de_i < 0 and de_j > 0) or (de_i > 0 and de_j < 0):
                        return (
                            f"MS-ordering violated on {first} vs {second}: "
                            f"process {i} orders them "
                            f"{positions[i][first]}/{positions[i][second]}, "
                            f"process {j} orders them "
                            f"{positions[j][first]}/{positions[j][second]}"
                        )
    return None


def check_uniform_set_sequences(
    histories: Sequence[Sequence[MessageSet]],
) -> Optional[str]:
    """Check the *total-order* strengthening SCD does **not** provide.

    Holds iff all processes' delivered set sequences are prefix
    compatible (what TO-broadcast — singleton sets, identical order —
    guarantees).  SCD-broadcast admits executions violating this: the
    explorer materializes one as a replayable counterexample, which is
    the repo's "strictly between RB and TO" evidence.
    """
    ids = [
        [tuple(m.message_id for m in message_set) for message_set in sets]
        for sets in histories
    ]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            shorter = min(len(ids[i]), len(ids[j]))
            if ids[i][:shorter] != ids[j][:shorter]:
                return (
                    f"set sequences diverge: process {i} delivered "
                    f"{ids[i][:shorter]}, process {j} delivered {ids[j][:shorter]}"
                )
    return None


# ---------------------------------------------------------------------------
# Plain broadcasting node (tests / exploration)
# ---------------------------------------------------------------------------


class ScdNode(AsyncProcess):
    """A bare SCD-broadcast participant: injects payloads, records sets.

    ``expected`` (total message count across the run) lets the node
    ``decide`` its canonical delivery history once everything arrived,
    so runs quiesce and the explorer can compare terminal histories.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        payloads: Sequence[object] = (),
        expected: Optional[int] = None,
    ) -> None:
        self.pid = pid
        self.n = n
        self.payloads = list(payloads)
        self.expected = expected
        self.scd = ScdBroadcast(pid, n, on_deliver=self._count)
        self.delivered_count = 0

    def _count(self, ctx: Context, message_set: MessageSet) -> None:
        self.delivered_count += len(message_set)

    @property
    def delivered_sets(self) -> List[MessageSet]:
        return self.scd.delivered_sets

    def on_start(self, ctx: Context) -> None:
        for payload in self.payloads:
            self.scd.broadcast(ctx, payload)
        self._maybe_settle(ctx)

    def on_message(self, ctx: Context, src: int, message: object) -> None:
        self.scd.handle(ctx, src, message)
        self._maybe_settle(ctx)

    def _maybe_settle(self, ctx: Context) -> None:
        if (
            self.expected is not None
            and self.delivered_count >= self.expected
            and not ctx.decided
        ):
            ctx.decide(
                tuple(
                    tuple(m.message_id for m in message_set)
                    for message_set in self.scd.delivered_sets
                )
            )


# ---------------------------------------------------------------------------
# The object layer: snapshot / counter / KV, consensus-free
# ---------------------------------------------------------------------------

Timestamp = Tuple[int, int]  # (date, writer pid) — lexicographic order


class _ScdScriptedNode(AsyncProcess):
    """Op-engine base: executes a script of operations over SCD-broadcast.

    Each operation is one or two SCD-broadcasts the client waits out
    (tracked by the returned message id); completions are recorded as
    :class:`~repro.amp.abd.OpRecord` (latency in virtual time) and, when
    a shared :class:`~repro.core.history.History` is attached, as
    invoke/respond pairs for the linearizability checker.  The node
    ``decide``\\ s the list of results when its script completes.
    """

    TAG = "scd-obj"

    def __init__(
        self,
        pid: int,
        n: int,
        script: Sequence[Tuple] = (),
        history: Optional[History] = None,
    ) -> None:
        self.pid = pid
        self.n = n
        self.script = list(script)
        self.history = history
        self.scd = ScdBroadcast(pid, n, tag=self.TAG, on_deliver=self._on_set)
        self._script_index = 0
        self._op: Optional[Tuple] = None
        self._phase: Optional[str] = None
        self._await_mid: Optional[MessageId] = None
        self._op_start = 0.0
        self._ticket: Optional[int] = None
        self.op_log: List[OpRecord] = []
        self.results: List[object] = []

    @property
    def delivered_sets(self) -> List[MessageSet]:
        return self.scd.delivered_sets

    # -- script driver -----------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self._advance(ctx)

    def on_message(self, ctx: Context, src: int, message: object) -> None:
        self.scd.handle(ctx, src, message)

    def _advance(self, ctx: Context) -> None:
        if self._script_index >= len(self.script):
            if not ctx.decided:
                ctx.decide(list(self.results))
            return
        op = self.script[self._script_index]
        self._script_index += 1
        self._op = op
        self._op_start = ctx.time
        if self.history is not None:
            self._ticket = self.history.invoke(
                self.pid, self._history_object(op), op[0], *op[1:]
            )
        self._begin(ctx, op)

    def _complete(self, ctx: Context, result: object) -> None:
        op = self._op
        self._op = None
        self._phase = None
        self._await_mid = None
        self.op_log.append(
            OpRecord(op[0], tuple(op[1:]), result, self._op_start, ctx.time)
        )
        self.results.append(result)
        if self.history is not None and self._ticket is not None:
            self.history.respond(self._ticket, result)
            self._ticket = None
        self._advance(ctx)

    # -- barriers ----------------------------------------------------------

    def _barrier(self, ctx: Context, phase: str) -> None:
        """Issue a SYNC and wait for its own delivery (MS-Ordering then
        guarantees every earlier-completed operation is reflected)."""
        self._phase = phase
        self._await_mid = self.scd.broadcast(ctx, ("sync", self.pid))

    def _on_set(self, ctx: Context, message_set: MessageSet) -> None:
        for message in message_set:
            self._apply_payload(message.payload)
        awaited = self._await_mid
        if awaited is not None and any(
            m.message_id == awaited for m in message_set
        ):
            self._phase_done(ctx, self._phase)

    # -- subclass hooks ----------------------------------------------------

    def _history_object(self, op: Tuple) -> str:
        """Name of the history object an operation acts on."""
        return "scd-object"

    def _begin(self, ctx: Context, op: Tuple) -> None:
        raise NotImplementedError

    def _apply_payload(self, payload: object) -> None:
        raise NotImplementedError

    def _phase_done(self, ctx: Context, phase: Optional[str]) -> None:
        raise NotImplementedError


class _TimestampedStore(_ScdScriptedNode):
    """Shared write-path machinery for snapshot memory and the KV store.

    State is a map ``key → (timestamp, value)`` merged by timestamp-max
    (commutative — convergence does not depend on how delivered sets
    split).  A write is sync-then-write: barrier, then broadcast the
    write stamped ``(local date + 1, pid)``; the barrier makes the new
    timestamp dominate every write that completed before this one began.
    """

    def __init__(self, pid, n, script=(), history=None, initial=()):
        super().__init__(pid, n, script, history)
        self.store: Dict[object, Tuple[Timestamp, object]] = dict(initial)
        self._pending_write: Optional[Tuple[object, object]] = None

    def _lookup(self, key: object) -> object:
        entry = self.store.get(key)
        return None if entry is None or entry[1] == DELETED else entry[1]

    def _start_write(self, ctx: Context, key: object, value: object) -> None:
        self._pending_write = (key, value)
        self._barrier(ctx, "write-sync")

    def _issue_write(self, ctx: Context) -> None:
        key, value = self._pending_write
        self._pending_write = None
        entry = self.store.get(key)
        date = entry[0][0] + 1 if entry is not None else 1
        self._phase = "write"
        self._await_mid = self.scd.broadcast(
            ctx, ("write", key, value, (date, self.pid))
        )

    def _apply_payload(self, payload: object) -> None:
        if payload[0] != "write":
            return
        _, key, value, ts = payload
        ts = tuple(ts)
        entry = self.store.get(key)
        if entry is None or ts > entry[0]:
            self.store[key] = (ts, value)

    def visible_state(self) -> Tuple[Tuple[object, object], ...]:
        return tuple(
            (key, entry[1])
            for key, entry in sorted(self.store.items())
            if entry[1] != DELETED
        )


class SnapshotObject(_TimestampedStore):
    """The paper's flagship SCD construction: an MWMR snapshot object.

    Script ops: ``("write", r, v)`` and ``("snapshot",)``.  A snapshot
    is one barrier; a write is a barrier plus one stamped write — both
    consensus-free, both linearizable (see the module docstring for the
    MS-Ordering argument).
    """

    TAG = "scd-snap"

    def _history_object(self, op: Tuple) -> str:
        return "snapshot"

    def _begin(self, ctx: Context, op: Tuple) -> None:
        kind = op[0]
        if kind == "write":
            self._start_write(ctx, op[1], op[2])
        elif kind == "snapshot":
            self._barrier(ctx, "snapshot")
        else:
            raise ConfigurationError(f"snapshot object: unknown op {op!r}")

    def _phase_done(self, ctx: Context, phase: Optional[str]) -> None:
        if phase == "write-sync":
            self._issue_write(ctx)
        elif phase == "write":
            self._complete(ctx, None)
        elif phase == "snapshot":
            self._complete(ctx, self.visible_state())


class Counter(_ScdScriptedNode):
    """A consensus-free replicated counter over SCD-broadcast.

    Script ops: ``("incr", amount)`` (one broadcast, no barrier — sums
    are commutative) and ``("read",)`` (one barrier).
    """

    TAG = "scd-ctr"

    def __init__(self, pid, n, script=(), history=None):
        super().__init__(pid, n, script, history)
        self.value = 0

    def _history_object(self, op: Tuple) -> str:
        return "counter"

    def _begin(self, ctx: Context, op: Tuple) -> None:
        kind = op[0]
        if kind == "incr":
            amount = op[1] if len(op) > 1 else 1
            self._phase = "incr"
            self._await_mid = self.scd.broadcast(ctx, ("incr", amount))
        elif kind == "read":
            self._barrier(ctx, "read")
        else:
            raise ConfigurationError(f"counter: unknown op {op!r}")

    def _apply_payload(self, payload: object) -> None:
        if payload[0] == "incr":
            self.value += payload[1]

    def _phase_done(self, ctx: Context, phase: Optional[str]) -> None:
        if phase == "incr":
            self._complete(ctx, None)
        elif phase == "read":
            self._complete(ctx, self.value)


class ScdKvStore(_TimestampedStore):
    """A replicated key-value store over SCD-broadcast (consensus-free).

    Script ops: ``("put", k, v)``, ``("get", k)``, ``("delete", k)``,
    ``("snapshot",)``.  Gets and snapshots are one barrier; puts and
    deletes are sync-then-write (deletes write the :data:`DELETED`
    tombstone).  Per-op histories recorded under the *key's* name, so
    the linearizability checker can verify each key as an atomic
    register — exactly where the paper promises linearizable reads.
    """

    TAG = "scd-kv"

    def _history_object(self, op: Tuple) -> str:
        return repr(op[1]) if len(op) > 1 else "kv-snapshot"

    def _begin(self, ctx: Context, op: Tuple) -> None:
        kind = op[0]
        if kind == "put":
            self._start_write(ctx, op[1], op[2])
        elif kind == "delete":
            self._start_write(ctx, op[1], DELETED)
        elif kind == "get":
            self._phase = f"get:{op[1]!r}"
            self._barrier(ctx, self._phase)
        elif kind == "snapshot":
            self._barrier(ctx, "snapshot")
        else:
            raise ConfigurationError(f"kv store: unknown op {op!r}")

    def _phase_done(self, ctx: Context, phase: Optional[str]) -> None:
        if phase == "write-sync":
            self._issue_write(ctx)
        elif phase == "write":
            self._complete(ctx, None)
        elif phase == "snapshot":
            self._complete(ctx, self.visible_state())
        elif phase is not None and phase.startswith("get:"):
            self._complete(ctx, self._lookup(self._op[1]))


def make_scd_kv(
    n: int,
    scripts: Sequence[Sequence[Tuple]],
    history: Optional[History] = None,
) -> List[ScdKvStore]:
    """One :class:`ScdKvStore` replica per pid, each running its script."""
    if len(scripts) != n:
        raise ConfigurationError(f"need {n} scripts, got {len(scripts)}")
    return [ScdKvStore(pid, n, scripts[pid], history) for pid in range(n)]


def check_kv_convergence(nodes: Sequence["_TimestampedStore"]) -> None:
    """Raise unless all replicas converged to the same visible state."""
    views = {node.visible_state() for node in nodes}
    if len(views) > 1:
        raise ModelViolation(
            f"replicated stores diverged: {sorted(views, key=repr)!r}"
        )
