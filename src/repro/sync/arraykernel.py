"""Columnar synchronous engine for mega-scale runs (n = 10⁴–10⁶).

The per-process runner (:class:`~repro.sync.kernel.SynchronousRunner`)
gives every process one :class:`~repro.sync.kernel.Context`, one
algorithm instance and its own inbox and outbox dicts, which is right
for clarity and for the adversary/crash test matrix, but the
per-process Python objects and calls cap realistic n in the low
thousands.  This module runs the *same* round structure (the paper's
send → receive → compute phases, §3.1) against flat columns:

* per-process status — ``bytearray`` columns (``halted``, ``decided``,
  ``crashed``) and a live-process counter, outputs in one list;
* adjacency — CSR ``(indptr, indices)`` arrays built once from a
  :class:`~repro.sync.topology.Topology` or
  :class:`~repro.sync.flatgraph.FlatGraph`;
* messages — per-round parallel ``(src, dst, payload)`` buffers
  delivered in one batched pass, instead of per-process dict-of-dicts
  shuffling;
* crash prefixes and adversary suppression — masks applied over the
  send buffers before delivery.

One :class:`ColumnarAlgorithm` instance owns all n processes and works
directly on the columns (``eng.broadcast(pid, msg)``,
``eng.decide_all(values)``) through :class:`ColumnarRunner`, which
removes the per-process call fan-out entirely.  Adversaries and crash
schedules apply as in the per-process runner, and a crash schedule goes
through the same validator
(:func:`~repro.sync.kernel.index_crash_schedule`).  Equivalence with
the per-process runner is asserted on results and counters
(``tests/test_sync_arraykernel.py``); the trace granularity differs by
construction.

The engine works with a plain :class:`~repro.sync.topology.Topology` or
with the O(n) CSR constructors in :mod:`repro.sync.flatgraph`; stdlib
``array``/``bytearray`` only, no numpy required.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.exceptions import (
    ConfigurationError,
    ModelViolation,
    SimulationLimitExceeded,
)
from ..core.volume import payload_units
from .kernel import CrashEvent, DirectedEdge, SyncRunResult, index_crash_schedule


class ColumnarAlgorithm:
    """A whole-system algorithm operating on the engine's flat columns.

    Where :class:`~repro.sync.kernel.SyncAlgorithm` is instantiated once
    per process, a columnar algorithm is instantiated once per *run* and
    owns all n processes — the LOCAL-model restriction (a process sends
    only to neighbors, computes only from its deliveries) is a contract
    the implementation upholds, optionally checked by the engine's
    ``validate_sends`` mode.

    Hooks:

    * :meth:`setup` — read ``eng.inputs``, queue round-1 sends
      (``eng.broadcast`` / ``eng.send``);
    * :meth:`on_round` — handle round ``eng.round``'s deliveries, given
      as three parallel lists (sources, destinations, payloads), and
      queue the next round's sends;
    * :meth:`local_states` — per-pid state column exposed to message
      adversaries (read-only to them), mirroring
      :meth:`~repro.sync.kernel.SyncAlgorithm.local_state`.

    ``payload_units_per_message`` may be set to a constant when every
    message costs the same — the engine then skips the per-message
    :func:`~repro.core.volume.payload_units` call on the hot path.
    Algorithms must queue at most one message per directed edge per
    round and must append sends deterministically (ascending source pid
    keeps send order — and thus adversary RNG draws and traces — aligned
    with the object kernel).
    """

    payload_units_per_message: Optional[int] = None

    def setup(self, eng: "ColumnarRunner") -> None:
        """Queue the sends for round 1 (and any immediate decisions)."""

    def on_round(
        self,
        eng: "ColumnarRunner",
        src: List[int],
        dst: List[int],
        payloads: List[object],
    ) -> None:
        """Handle round ``eng.round`` deliveries; queue next round's sends."""

    def local_states(self, eng: "ColumnarRunner") -> Sequence[object]:
        """Per-pid state column for the (omniscient) message adversary."""
        return [None] * eng.n


class ColumnarRunner:
    """Batched flat-column executor for :class:`ColumnarAlgorithm`.

    The round loop is the paper's same three phases, executed over
    parallel send buffers: the algorithm's queued ``(src, dst, payload)``
    triples are crash-prefix masked, optionally adversary-filtered, and
    delivered in one pass to live, unhalted destinations.  Per-round
    allocation is three fresh list objects — everything else is columns.

    ``validate_sends`` (default on) checks each queued send against the
    CSR adjacency (binary search, no per-process sets) and rejects sends
    from halted/crashed processes; mega-scale benchmarks switch it off
    once an algorithm is trusted.
    """

    def __init__(
        self,
        graph,
        algorithm: ColumnarAlgorithm,
        inputs: Sequence[object],
        adversary=None,
        crash_schedule: Sequence[CrashEvent] = (),
        max_rounds: int = 10_000,
        record_graphs: bool = False,
        sink=None,
        validate_sends: bool = True,
    ) -> None:
        n = graph.n
        if len(inputs) != n:
            raise ConfigurationError(
                f"need exactly {n} inputs, got {len(inputs)}"
            )
        self.n = n
        self.graph = graph
        self.indptr, self.indices = graph.csr()
        self.algorithm = algorithm
        self.inputs = list(inputs)
        self.adversary = adversary
        self.crash_by_round = index_crash_schedule(crash_schedule, n)
        self.max_rounds = max_rounds
        self.record_graphs = record_graphs
        self._validate = validate_sends
        self._sink = sink
        if sink is not None:
            sink.bind(n)
        self.round = 0
        self.rounds = 0
        self.outputs: List[object] = [None] * n
        self._halted = bytearray(n)
        self._decided = bytearray(n)
        self._crashed_mask = bytearray(n)
        self._crashed: Set[int] = set()
        self._live_active = n
        self._out_src: List[int] = []
        self._out_dst: List[int] = []
        self._out_msg: List[object] = []
        self.message_count = 0
        self.messages_sent = 0
        self.payload_sent = 0
        self.payload_delivered = 0

    # -- algorithm-facing API ----------------------------------------------

    def is_neighbor(self, u: int, v: int) -> bool:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        indices = self.indices
        while lo < hi:
            mid = (lo + hi) // 2
            if indices[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < self.indptr[u + 1] and indices[lo] == v

    def _check_sender(self, src: int) -> None:
        if self._halted[src] or self._crashed_mask[src]:
            raise ModelViolation(
                f"process {src} queued a send after halting/crashing"
            )

    def send(self, src: int, dst: int, message: object) -> None:
        """Queue one message from ``src`` to neighbor ``dst``."""
        if self._validate:
            self._check_sender(src)
            if not self.is_neighbor(src, dst):
                raise ModelViolation(
                    f"process {src} sent to non-neighbor {dst} "
                    f"(LOCAL model forbids this)"
                )
        self._out_src.append(src)
        self._out_dst.append(dst)
        self._out_msg.append(message)

    def broadcast(self, src: int, message: object) -> None:
        """Queue ``message`` from ``src`` to all its neighbors (CSR order)."""
        if self._validate:
            self._check_sender(src)
        out_src, out_dst = self._out_src, self._out_dst
        out_msg = self._out_msg
        indices = self.indices
        for j in range(self.indptr[src], self.indptr[src + 1]):
            out_src.append(src)
            out_dst.append(indices[j])
            out_msg.append(message)

    def decide(self, pid: int, value: object) -> None:
        """Record ``pid``'s output (once per process; crashed = no-op)."""
        if self._crashed_mask[pid]:
            return
        if self._decided[pid]:
            raise ModelViolation(f"process {pid} decided twice")
        self._decided[pid] = 1
        self.outputs[pid] = value
        if self._sink is not None:
            self._sink.sync_decide(pid, self.round, value)

    def halt(self, pid: int) -> None:
        """Stop ``pid``: no further deliveries or sends (crashed = no-op)."""
        if self._crashed_mask[pid] or self._halted[pid]:
            return
        self._halted[pid] = 1
        self._live_active -= 1

    def decide_all(self, values: Sequence[object]) -> None:
        """Every live, unhalted, undecided process decides its value."""
        decided = self._decided
        crashed = self._crashed_mask
        halted = self._halted
        for pid in range(self.n):
            if not (decided[pid] or crashed[pid] or halted[pid]):
                self.decide(pid, values[pid])

    def halt_all(self) -> None:
        """Every live, unhalted process halts."""
        for pid in range(self.n):
            self.halt(pid)

    # -- the batched round loop --------------------------------------------

    def run(self) -> SyncRunResult:
        alg = self.algorithm
        sink = self._sink
        halted = self._halted
        crashed_mask = self._crashed_mask
        graphs: List[FrozenSet[DirectedEdge]] = []
        fixed_units = alg.payload_units_per_message

        alg.setup(self)

        round_no = 0
        while True:
            round_no += 1
            if round_no > self.max_rounds:
                raise SimulationLimitExceeded(
                    f"synchronous run exceeded {self.max_rounds} rounds"
                )
            self.round = round_no
            if sink is not None:
                sink.sync_round_begin(round_no)

            # --- send phase: take the queued buffers, apply crash prefixes
            src_l, dst_l, msg_l = self._out_src, self._out_dst, self._out_msg
            self._out_src, self._out_dst, self._out_msg = [], [], []
            crashing_now = {
                e.pid: e for e in self.crash_by_round.get(round_no, [])
            }
            if crashing_now:
                kept_src: List[int] = []
                kept_dst: List[int] = []
                kept_msg: List[object] = []
                for k in range(len(src_l)):
                    src = src_l[k]
                    dst = dst_l[k]
                    event = crashing_now.get(src)
                    if (
                        event is not None
                        and event.delivered_to is not None
                        and dst not in event.delivered_to
                    ):
                        if sink is not None:
                            sink.sync_drop(
                                round_no, src, dst, reason="crash-mid-send"
                            )
                        continue
                    kept_src.append(src)
                    kept_dst.append(dst)
                    kept_msg.append(msg_l[k])
                src_l, dst_l, msg_l = kept_src, kept_dst, kept_msg
            self.messages_sent += len(src_l)
            # Payload accounting over the surviving sends.
            if fixed_units is not None:
                units_l: List[int] = [fixed_units] * len(src_l)
                self.payload_sent += fixed_units * len(src_l)
            else:
                units_l = [payload_units(m) for m in msg_l]
                self.payload_sent += sum(units_l)
            if sink is not None:
                for k in range(len(src_l)):
                    sink.sync_send(
                        round_no, src_l[k], dst_l[k], msg_l[k], units_l[k]
                    )
            if crashing_now:
                for pid in crashing_now:
                    crashed_mask[pid] = 1
                    self._crashed.add(pid)
                    if not halted[pid]:
                        self._live_active -= 1
                    if sink is not None:
                        sink.sync_crash(pid, round_no)

            # --- adversary filtering (§3.3): mask over the edge buffers ---
            if self.adversary is not None:
                by_edge: Dict[DirectedEdge, Tuple[object, int]] = {}
                for k in range(len(src_l)):
                    by_edge[(src_l[k], dst_l[k])] = (msg_l[k], units_l[k])
                states = alg.local_states(self)
                delivered_edges = self.adversary.filter(
                    round_no, frozenset(by_edge), states, self.graph
                )
                illegal = delivered_edges - frozenset(by_edge)
                if illegal:
                    raise ModelViolation(
                        f"adversary created messages on {sorted(illegal)}"
                    )
                if sink is not None:
                    for edge in sorted(frozenset(by_edge) - delivered_edges):
                        sink.sync_drop(round_no, *edge, reason="adversary")
                kept = sorted(delivered_edges)
                src_l = [edge[0] for edge in kept]
                dst_l = [edge[1] for edge in kept]
                msg_l = [by_edge[edge][0] for edge in kept]
                units_l = [by_edge[edge][1] for edge in kept]
            self.message_count += len(src_l)
            if fixed_units is not None:
                self.payload_delivered += fixed_units * len(src_l)
            else:
                self.payload_delivered += sum(units_l)
            if self.record_graphs:
                graphs.append(frozenset(zip(src_l, dst_l)))

            # --- receive: one batched pass to live, unhalted destinations -
            d_src: List[int] = []
            d_dst: List[int] = []
            d_msg: List[object] = []
            for k in range(len(src_l)):
                dst = dst_l[k]
                if halted[dst] or crashed_mask[dst]:
                    continue
                d_src.append(src_l[k])
                d_dst.append(dst)
                d_msg.append(msg_l[k])
            if sink is not None:
                for k in range(len(d_src)):
                    sink.sync_deliver(round_no, d_src[k], d_dst[k], d_msg[k])

            # --- compute ---------------------------------------------------
            alg.on_round(self, d_src, d_dst, d_msg)
            if sink is not None:
                sink.sync_round_end(round_no)
            if self._live_active == 0:
                break

        self.rounds = round_no
        return SyncRunResult(
            outputs=list(self.outputs),
            decided=[bool(flag) for flag in self._decided],
            rounds=round_no,
            halted=[bool(flag) for flag in self._halted],
            crashed=set(self._crashed),
            communication_graphs=graphs,
            message_count=self.message_count,
            messages_sent=self.messages_sent,
            payload_sent=self.payload_sent,
            payload_delivered=self.payload_delivered,
        )


def run_columnar(
    graph,
    algorithm: ColumnarAlgorithm,
    inputs: Sequence[object],
    **kwargs,
) -> SyncRunResult:
    """Convenience wrapper: build a :class:`ColumnarRunner` and run it."""
    return ColumnarRunner(graph, algorithm, inputs, **kwargs).run()
