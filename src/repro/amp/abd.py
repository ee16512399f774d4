"""ABD: atomic registers over message passing (paper §5.1, [4]).

Attiya–Bar-Noy–Dolev: an atomic read/write register can be emulated in
``AMP_{n,t}`` **iff** ``t < n/2``.  The emulation is majority-quorum
based, with the famous rule *"a reader has to write the value it
returns"* (the write-back phase), giving the paper's cost accounting:

* write — 1 round trip: **2Δ**;
* read  — 2 round trips (query + write-back): **4Δ**.

Every node is both a *server* (stores a timestamped copy) and a *client*
(executes a script of read/write operations, recording start/end virtual
times and a linearizability history).

``quorum_size`` defaults to a majority.  Setting it lower (as liveness
under ``t ≥ n/2`` would force) lets the test suite *demonstrate the
impossibility half* of the theorem: with two disjoint "quorums" the
emulation stays live but the Wing–Gong checker finds the atomicity
violation a partition produces.

Timestamps are ``(counter, pid)`` pairs, so the same code provides both
the SWMR register of the original paper and the MWMR generalization
(writers first query the current maximum — their write then costs 4Δ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.exceptions import ConfigurationError
from ..core.history import History
from .network import AsyncProcess, Context

Timestamp = Tuple[int, int]  # (counter, writer pid) — lexicographic order

#: Script entries: ("write", value) or ("read",) or ("pause", duration).
ScriptOp = Tuple


@dataclass
class OpRecord:
    """Latency/accounting record for one completed client operation."""

    op: str
    args: Tuple[object, ...]
    result: object
    start: float
    end: float

    @property
    def latency(self) -> float:
        return self.end - self.start


class AbdNode(AsyncProcess):
    """One ABD participant: register server + scripted client.

    Parameters
    ----------
    pid, n:
        Identity and system size.
    script:
        Client operations executed sequentially; the node "decides" the
        list of results when the script completes.
    quorum_size:
        Acks/replies awaited per phase (default majority ``n//2 + 1``).
    history:
        Shared :class:`~repro.core.history.History` for linearizability
        checking across all nodes.
    multi_writer:
        When True, writes first query the highest timestamp (MWMR, 4Δ
        writes); when False the writer trusts its local counter (SWMR,
        2Δ writes — only sound with a single writer per register).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        script: Sequence[ScriptOp] = (),
        quorum_size: Optional[int] = None,
        history: Optional[History] = None,
        multi_writer: bool = False,
        register_name: str = "R",
    ) -> None:
        self.pid = pid
        self.n = n
        self.script = list(script)
        self.quorum = quorum_size if quorum_size is not None else n // 2 + 1
        if not 1 <= self.quorum <= n:
            raise ConfigurationError(f"quorum {self.quorum} outside 1..{n}")
        self.history = history
        self.multi_writer = multi_writer
        self.register_name = register_name
        # Server state.
        self.stored_ts: Timestamp = (0, -1)
        self.stored_value: object = None
        # Client state.
        self._script_index = 0
        self._op_seq = 0
        self._phase: Optional[str] = None
        self._replies: Dict[Tuple[int, str], List[Tuple[Timestamp, object]]] = {}
        # Quorum progress is counted per *responder*, never per message:
        # a retransmitted or link-duplicated reply must not let one
        # server stand in for two (QRM002).
        self._reply_senders: Dict[Tuple[int, str], Set[int]] = {}
        self._current_start = 0.0
        self._current_ticket: Optional[int] = None
        self._pending_write_value: object = None
        self._write_counter = 0
        self.op_log: List[OpRecord] = []
        self.results: List[object] = []

    # -- client driver -----------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self._advance_script(ctx)

    def _advance_script(self, ctx: Context) -> None:
        if self._script_index >= len(self.script):
            if not ctx.decided:
                ctx.decide(list(self.results))
            return
        op = self.script[self._script_index]
        self._script_index += 1
        kind = op[0]
        if kind == "pause":
            ctx.set_timer(op[1], ("resume",))
            return
        self._current_start = ctx.time
        self._op_seq += 1
        if self.history is not None:
            args = op[1:] if len(op) > 1 else ()
            self._current_ticket = self.history.invoke(
                self.pid, self.register_name, kind, *args
            )
        if kind == "write":
            self._pending_write_value = op[1]
            if self.multi_writer:
                self._start_query(ctx, purpose="write")
            else:
                self._write_counter += 1
                self._start_store(
                    ctx, (self._write_counter, self.pid), op[1], purpose="write"
                )
        elif kind == "read":
            self._start_query(ctx, purpose="read")
        else:
            raise ConfigurationError(f"unknown script op {op!r}")

    def on_timer(self, ctx: Context, name: object) -> None:
        if isinstance(name, tuple) and name and name[0] == "resume":
            self._advance_script(ctx)

    # -- quorum phases ---------------------------------------------------------

    def _start_query(self, ctx: Context, purpose: str) -> None:
        self._phase = f"query:{purpose}"
        key = (self._op_seq, "query")
        self._replies[key] = []
        self._reply_senders[key] = set()
        ctx.broadcast(("abd", "query", self.pid, self._op_seq))

    def _start_store(
        self, ctx: Context, ts: Timestamp, value: object, purpose: str
    ) -> None:
        self._phase = f"store:{purpose}"
        key = (self._op_seq, "store")
        self._reply_senders[key] = set()
        ctx.broadcast(("abd", "store", self.pid, self._op_seq, ts, value))

    def _quorum_reached(self, responders: Set[int]) -> bool:
        """Whether ``responders`` complete the current phase.

        Called once per new responder; the phase moves on the first time
        it holds, so later replies of the same phase are ignored."""
        return len(responders) >= self.quorum

    # -- message handling ----------------------------------------------------------

    def on_message(self, ctx: Context, src: int, message: object) -> None:
        if not (isinstance(message, tuple) and message and message[0] == "abd"):
            return
        kind = message[1]
        if kind == "query":
            _, _, client, seq = message
            ctx.send(
                client, ("abd", "reply", self.pid, seq, self.stored_ts, self.stored_value)
            )
        elif kind == "store":
            _, _, client, seq, ts, value = message
            self._apply_store(ctx, ts, value)
            ctx.send(client, ("abd", "ack", self.pid, seq))
        elif kind == "reply":
            self._handle_reply(ctx, message)
        elif kind == "ack":
            self._handle_ack(ctx, message)

    def _apply_store(self, ctx: Context, ts: Timestamp, value: object) -> None:
        """Adopt ``(ts, value)`` if it is newer than the stored copy.

        The single server-side mutation point — subclasses hook it to
        make the copy durable (:class:`DurableAbdNode`)."""
        if ts > self.stored_ts:
            self.stored_ts = ts
            self.stored_value = value

    def _handle_reply(self, ctx: Context, message: object) -> None:
        _, _, server, seq, ts, value = message
        if seq != self._op_seq or not (self._phase or "").startswith("query"):
            return
        key = (seq, "query")
        senders = self._reply_senders.setdefault(key, set())
        if server in senders:
            return  # duplicate delivery: this server already counted
        senders.add(server)
        self._replies[key].append((ts, value))
        if not self._quorum_reached(senders):
            return
        purpose = self._phase.split(":")[1]
        max_ts, max_value = max(self._replies[key], key=lambda pair: pair[0])
        if purpose == "read":
            self._after_read_query(ctx, max_ts, max_value, self._replies[key])
        else:  # MWMR write: bump the highest timestamp seen
            new_ts = (max_ts[0] + 1, self.pid)
            self._start_store(ctx, new_ts, self._pending_write_value, purpose="write")

    def _after_read_query(
        self,
        ctx: Context,
        max_ts: Timestamp,
        max_value: object,
        replies: List[Tuple[Timestamp, object]],
    ) -> None:
        """Default readers always write back (the 4Δ rule)."""
        self._read_result = max_value
        self._start_store(ctx, max_ts, max_value, purpose="read")

    def _handle_ack(self, ctx: Context, message: object) -> None:
        _, _, server, seq = message
        if seq != self._op_seq or not (self._phase or "").startswith("store"):
            return
        key = (seq, "store")
        senders = self._reply_senders.setdefault(key, set())
        if server in senders:
            return  # duplicate delivery: this server already counted
        senders.add(server)
        if not self._quorum_reached(senders):
            return
        purpose = self._phase.split(":")[1]
        self._phase = None
        if purpose == "write":
            self._complete(ctx, "write", (self._pending_write_value,), None)
        else:
            self._complete(ctx, "read", (), self._read_result)

    def _complete(self, ctx: Context, op: str, args: tuple, result: object) -> None:
        self.op_log.append(
            OpRecord(op, args, result, self._current_start, ctx.time)
        )
        self.results.append(result)
        if self.history is not None and self._current_ticket is not None:
            self.history.respond(self._current_ticket, result)
            self._current_ticket = None
        self._advance_script(ctx)


class DurableAbdNode(AbdNode):
    """ABD whose *server* copy survives crash-recovery.

    The plain :class:`AbdNode` keeps ``(stored_ts, stored_value)`` in
    memory: under the crash-**stop** model that is exactly right (a
    crashed server is silent forever, and ``t < n/2`` live majorities
    cover for it).  Under crash-**recovery** it is a bug — a recovered
    server answers queries with the *initial* timestamp, un-writing
    everything it had acknowledged, and a quorum that counts such a
    server can return stale values.

    The fix is one write-ahead rule: persist the copy to ``ctx.stable``
    *before* acknowledging a store, and reload it in ``on_recover``.
    Client-side state (an in-progress script) stays volatile: a
    recovering client simply abandons unfinished operations, which is
    safe — it acknowledged nothing.
    """

    def _apply_store(self, ctx: Context, ts: Timestamp, value: object) -> None:
        if ts > self.stored_ts:
            self.stored_ts = ts
            self.stored_value = value
            ctx.stable.put("abd-copy", (ts, value))

    def on_recover(self, ctx: Context) -> None:
        copy = ctx.stable.get("abd-copy")
        if copy is not None:
            self.stored_ts, self.stored_value = copy


class FastReadAbdNode(AbdNode):
    """ABD with the fast-read optimization (paper §5.1, [49] in spirit).

    When every reply in the read quorum carries the *same* timestamp, the
    value is already stored at a majority, so the write-back is redundant
    and the read returns after one round trip — **2Δ** in the paper's
    "good circumstances", falling back to 4Δ under write contention.
    (Mostéfaoui–Raynal's PODC'16 algorithm achieves the same latency
    envelope with two-bit messages; this implementation reproduces the
    latency shape with plain timestamped messages.)
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fast_reads = 0
        self.slow_reads = 0

    def _after_read_query(self, ctx, max_ts, max_value, replies):
        if all(ts == max_ts for ts, _ in replies):
            self.fast_reads += 1
            self._phase = None
            self._complete(ctx, "read", (), max_value)
            return
        self.slow_reads += 1
        super()._after_read_query(ctx, max_ts, max_value, replies)
