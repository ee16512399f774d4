"""Replicated KV service driver: one workload, three backends.

Each replica process doubles as a client driving its share of the
open-loop workload (batch arrival timers fire regardless of service
progress; a busy client queues arrivals, so queueing delay shows up in
the latency tail exactly as it would in a real open-loop benchmark).

Backends and their per-batch costs:

``scd`` — :class:`ScdKvServiceNode` over :class:`~repro.amp.scd.ScdBroadcast`.
    A batch is **two** SCD-broadcasts: a sync barrier (MS-ordering
    makes the local copy current — reads in the batch complete here)
    and one write-set message carrying every put/delete, timestamped
    ``(date, pid)`` and merged ts-max at every replica.  Consensus-free.
``to`` — :class:`ToKvServiceNode` over :class:`~repro.amp.tobroadcast.TOBroadcastNode`.
    A batch is URB-disseminated, then ordered by the next consensus
    instance; ops apply in log order at every replica, and the whole
    batch completes when the issuing replica applies it.
``abd`` — :class:`AbdKvServiceNode`, per-key quorum registers.
    Every op is two quorum round trips (query, then store/write-back).
    Keys are independently atomic but there is **no cross-key
    consistency** — the backend answers no snapshot-style questions.

:func:`run_service` runs one backend under a chosen delay/link/crash
menu and returns a :class:`ServiceReport` whose ``stats_digest`` hashes
every schedule-derived number — identical spec+seed ⇒ identical digest.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..amp.abd import OpRecord
from ..amp.failure_detectors import OmegaFD
from ..amp.links import wrap_reliable
from ..amp.network import (
    AsyncProcess,
    Context,
    LinkModel,
    UniformDelay,
    run_processes,
)
from ..amp.scd import DELETED, MessageSet, ScdBroadcast
from ..amp.tobroadcast import TOBroadcastNode
from ..core.exceptions import ConfigurationError, ModelViolation
from ..harness.stats import LatencyStats
from .generator import Batch, ClientOp, WorkloadSpec, client_batches

Timestamp = Tuple[int, int]  # (date, writer pid)

BACKENDS = ("scd", "to", "abd")

_ARRIVAL = "wl-arrival"


class _BatchClient:
    """Open-loop batch bookkeeping shared by every backend node.

    Arrival timers are chained (each firing schedules the next), the
    queue absorbs arrivals while an earlier batch is in flight, and
    :attr:`op_log` records one :class:`~repro.amp.abd.OpRecord` per
    completed op with ``start`` = the batch's *arrival* time.
    """

    def __init__(self, batches: Sequence[Batch]) -> None:
        self.batches = list(batches)
        self.next_arrival = 0
        self.queue: List[Tuple[float, Tuple[ClientOp, ...]]] = []
        self.busy = False
        self.completed_batches = 0
        self.op_log: List[OpRecord] = []

    def schedule_next(self, ctx: Context) -> None:
        if self.next_arrival < len(self.batches):
            arrival, _ = self.batches[self.next_arrival]
            ctx.set_timer(max(0.0, arrival - ctx.time), (_ARRIVAL,))

    def on_arrival(self, ctx: Context) -> Optional[Tuple[float, Tuple[ClientOp, ...]]]:
        """Record the arrival; returns a batch to start, if idle."""
        arrival, ops = self.batches[self.next_arrival]
        self.next_arrival += 1
        self.schedule_next(ctx)
        self.queue.append((arrival, ops))
        if self.busy:
            return None
        self.busy = True
        return self.queue.pop(0)

    def record(
        self, ctx: Context, arrival: float, op: ClientOp, result: object
    ) -> None:
        self.op_log.append(
            OpRecord(op[0], tuple(op[1:]), result, arrival, ctx.time)
        )

    def batch_done(
        self, ctx: Context
    ) -> Optional[Tuple[float, Tuple[ClientOp, ...]]]:
        """Mark the in-flight batch done; returns the next one, if any."""
        self.completed_batches += 1
        if self.queue:
            return self.queue.pop(0)
        self.busy = False
        if self.completed_batches == len(self.batches) and not ctx.decided:
            ctx.decide(("served", len(self.op_log)))
        return None

    @property
    def drained(self) -> bool:
        return self.completed_batches == len(self.batches)


def _apply_tsmax(
    store: Dict[object, Tuple[Timestamp, object]],
    key: object,
    value: object,
    ts: Timestamp,
) -> None:
    entry = store.get(key)
    if entry is None or ts > entry[0]:
        store[key] = (ts, value)


def _visible(store: Dict[object, Tuple[Timestamp, object]]) -> Tuple:
    return tuple(
        sorted((k, v) for k, (_, v) in store.items() if v != DELETED)
    )


class ScdKvServiceNode(AsyncProcess):
    """Replica + open-loop client over SCD-broadcast (sync-then-write)."""

    def __init__(self, pid: int, n: int, batches: Sequence[Batch] = ()) -> None:
        if n < 2:
            # n=1 delivers synchronously inside broadcast(); a long
            # batch script would then recurse once per batch.
            raise ConfigurationError("service nodes need n >= 2")
        self.pid = pid
        self.n = n
        self.client = _BatchClient(batches)
        self.scd = ScdBroadcast(pid, n, tag="svc-scd", on_deliver=self._on_set)
        self.store: Dict[object, Tuple[Timestamp, object]] = {}
        self._arrival = 0.0
        self._ops: Tuple[ClientOp, ...] = ()
        self._await: Optional[Tuple[int, int]] = None
        self._phase: Optional[str] = None  # "sync" | "write"
        self._sync_seq = 0

    # -- network plumbing --------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.client.schedule_next(ctx)

    def on_timer(self, ctx: Context, name: object) -> None:
        if isinstance(name, tuple) and name and name[0] == _ARRIVAL:
            started = self.client.on_arrival(ctx)
            if started is not None:
                self._start_batch(ctx, started)

    def on_message(self, ctx: Context, src: int, message: object) -> None:
        self.scd.handle(ctx, src, message)

    # -- batch engine ------------------------------------------------------

    def _start_batch(self, ctx: Context, batch: Tuple[float, Tuple[ClientOp, ...]]) -> None:
        self._arrival, self._ops = batch
        self._phase = "sync"
        self._sync_seq += 1
        self._await = self.scd.broadcast(ctx, ("sync", self._sync_seq))

    def _on_set(self, ctx: Context, message_set: MessageSet) -> None:
        for message in message_set:
            payload = message.payload
            if payload[0] == "w":
                for key, value, ts in payload[1]:
                    _apply_tsmax(self.store, key, value, ts)
        if self._await is None:
            return
        origin, seq = self._await
        for message in message_set:
            if message.seq == seq and message.origin == origin:
                self._await = None
                self._advance(ctx)
                return

    def _advance(self, ctx: Context) -> None:
        if self._phase == "sync":
            # Barrier passed: the local copy is current — answer reads,
            # then ship every write of the batch in one broadcast.
            writes: Dict[object, object] = {}
            for op in self._ops:
                if op[0] == "get":
                    entry = self.store.get(op[1])
                    visible = (
                        None
                        if entry is None or entry[1] == DELETED
                        else entry[1]
                    )
                    # A read of a key this batch already wrote sees the
                    # batch's own (not yet broadcast) value.
                    if op[1] in writes:
                        pending = writes[op[1]]
                        visible = None if pending == DELETED else pending
                    self.client.record(ctx, self._arrival, op, visible)
                elif op[0] == "put":
                    writes[op[1]] = op[2]
                else:  # delete
                    writes[op[1]] = DELETED
            if not writes:
                self._finish_batch(ctx)
                return
            stamped = tuple(
                (key, value, (self._date(key) + 1, self.pid))
                for key, value in sorted(writes.items())
            )
            self._phase = "write"
            self._await = self.scd.broadcast(ctx, ("w", stamped))
        elif self._phase == "write":
            for op in self._ops:
                if op[0] != "get":
                    self.client.record(ctx, self._arrival, op, None)
            self._finish_batch(ctx)

    def _date(self, key: object) -> int:
        entry = self.store.get(key)
        return 0 if entry is None else entry[0][0]

    def _finish_batch(self, ctx: Context) -> None:
        self._phase = None
        next_batch = self.client.batch_done(ctx)
        if next_batch is not None:
            self._start_batch(ctx, next_batch)

    def visible_state(self) -> Tuple:
        return _visible(self.store)


class ToKvServiceNode(TOBroadcastNode):
    """Replica + open-loop client over TO-broadcast (log-ordered batches)."""

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        batches: Sequence[Batch] = (),
        poll_interval: float = 0.5,
    ) -> None:
        super().__init__(
            pid, n, t, on_deliver=self._apply_batch, poll_interval=poll_interval
        )
        self.client = _BatchClient(batches)
        self.store: Dict[object, Tuple[Timestamp, object]] = {}
        self._applied_log = 0

    def on_start(self, ctx: Context) -> None:
        self.client.schedule_next(ctx)

    def on_timer(self, ctx: Context, name: object) -> None:
        if isinstance(name, tuple) and name and name[0] == _ARRIVAL:
            # Open-loop TO clients never wait: the batch goes on the
            # wire at arrival (the log orders concurrent batches), so
            # the client-side queue/busy machinery is bypassed.
            client = self.client
            arrival, ops = client.batches[client.next_arrival]
            client.next_arrival += 1
            client.schedule_next(ctx)
            self.urb.broadcast(ctx, ("batch", self.pid, arrival, ops))
            return
        super().on_timer(ctx, name)

    def _apply_batch(self, ctx: Context, origin: int, payload: object) -> None:
        _, client_pid, arrival, ops = payload
        mine = client_pid == self.pid
        position = len(self.log)  # log index = total-order timestamp
        for op in ops:
            if op[0] == "put":
                _apply_tsmax(self.store, op[1], op[2], (position, client_pid))
                if mine:
                    self.client.record(ctx, arrival, op, None)
            elif op[0] == "delete":
                _apply_tsmax(self.store, op[1], DELETED, (position, client_pid))
                if mine:
                    self.client.record(ctx, arrival, op, None)
            else:  # get — answered at the batch's log position
                if mine:
                    entry = self.store.get(op[1])
                    visible = (
                        None
                        if entry is None or entry[1] == DELETED
                        else entry[1]
                    )
                    self.client.record(ctx, arrival, op, visible)
        if mine:
            self.client.completed_batches += 1
            if self.client.drained and not ctx.decided:
                ctx.decide(("served", len(self.client.op_log)))

    def visible_state(self) -> Tuple:
        return _visible(self.store)


class AbdKvServiceNode(AsyncProcess):
    """Replica + open-loop client over per-key ABD quorum registers.

    Every op runs the MWMR two-phase dance: a query round (learn the
    highest timestamp from a majority) and a store round (put/delete
    install ``(date+1, pid)``; get writes back what it returns — the
    ABD read rule).  Ops inside a batch run sequentially.
    """

    def __init__(self, pid: int, n: int, batches: Sequence[Batch] = ()) -> None:
        if n < 2:
            raise ConfigurationError("service nodes need n >= 2")
        self.pid = pid
        self.n = n
        self.quorum = n // 2 + 1
        self.client = _BatchClient(batches)
        self.store: Dict[object, Tuple[Timestamp, object]] = {}
        self._arrival = 0.0
        self._ops: List[ClientOp] = []
        self._op_index = 0
        self._seq = 0
        self._phase: Optional[str] = None  # "query" | "store"
        self._replies: List[Tuple[Timestamp, object]] = []
        self._acks = 0
        self._result: object = None

    # -- client engine -----------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.client.schedule_next(ctx)

    def on_timer(self, ctx: Context, name: object) -> None:
        if isinstance(name, tuple) and name and name[0] == _ARRIVAL:
            started = self.client.on_arrival(ctx)
            if started is not None:
                self._start_batch(ctx, started)

    def _start_batch(self, ctx: Context, batch: Tuple[float, Tuple[ClientOp, ...]]) -> None:
        self._arrival, ops = batch
        self._ops = list(ops)
        self._op_index = 0
        self._next_op(ctx)

    def _next_op(self, ctx: Context) -> None:
        if self._op_index >= len(self._ops):
            next_batch = self.client.batch_done(ctx)
            if next_batch is not None:
                self._start_batch(ctx, next_batch)
            return
        self._seq += 1
        self._phase = "query"
        self._replies = []
        ctx.broadcast(("akv", "q", self.pid, self._seq, self._ops[self._op_index][1]))

    # -- message handling --------------------------------------------------

    def on_message(self, ctx: Context, src: int, message: object) -> None:
        if not (isinstance(message, tuple) and message and message[0] == "akv"):
            return
        kind = message[1]
        if kind == "q":
            _, _, client, seq, key = message
            entry = self.store.get(key, ((0, -1), None))
            ctx.send(client, ("akv", "r", self.pid, seq, key, entry[0], entry[1]))
        elif kind == "s":
            _, _, client, seq, key, ts, value = message
            _apply_tsmax(self.store, key, value, ts)
            ctx.send(client, ("akv", "a", self.pid, seq))
        elif kind == "r":
            _, _, _, seq, key, ts, value = message
            if seq != self._seq or self._phase != "query":
                return
            self._replies.append((ts, value))
            if len(self._replies) >= self.quorum:
                self._finish_query(ctx)
        elif kind == "a":
            _, _, _, seq = message
            if seq != self._seq or self._phase != "store":
                return
            self._acks += 1
            if self._acks >= self.quorum:
                self._finish_store(ctx)

    def _finish_query(self, ctx: Context) -> None:
        op = self._ops[self._op_index]
        max_ts, max_value = max(self._replies, key=lambda r: r[0])
        if op[0] == "put":
            ts, value = (max_ts[0] + 1, self.pid), op[2]
            self._result = None
        elif op[0] == "delete":
            ts, value = (max_ts[0] + 1, self.pid), DELETED
            self._result = None
        else:  # get: write back what we return
            ts, value = max_ts, max_value
            self._result = None if value in (None, DELETED) else value
        self._phase = "store"
        self._acks = 0
        _apply_tsmax(self.store, op[1], value, ts)
        ctx.broadcast(("akv", "s", self.pid, self._seq, op[1], ts, value), include_self=False)
        self._acks += 1  # my own copy is installed
        if self._acks >= self.quorum:
            self._finish_store(ctx)

    def _finish_store(self, ctx: Context) -> None:
        op = self._ops[self._op_index]
        self.client.record(ctx, self._arrival, op, self._result)
        self._phase = None
        self._op_index += 1
        self._next_op(ctx)

    def visible_state(self) -> Tuple:
        return _visible(self.store)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceReport:
    """One backend × workload run, with a reproducibility digest.

    ``wall_s`` is the only wall-clock field; everything else derives
    from the virtual-time schedule and feeds :attr:`stats_digest`.
    """

    backend: str
    n: int
    seed: int
    total_ops: int
    completed_ops: int
    op_counts: Tuple[Tuple[str, int], ...]
    final_time: float
    throughput: float  # completed ops per virtual time unit
    messages_sent: int
    payload_sent: int
    payload_delivered: int
    latency: LatencyStats
    state_digest: str
    decided: Tuple[int, ...]
    crashed: Tuple[int, ...]
    stats_digest: str = ""
    wall_s: float = 0.0

    def digest_fields(self) -> Tuple:
        return (
            self.backend,
            self.n,
            self.seed,
            self.total_ops,
            self.completed_ops,
            self.op_counts,
            self.final_time,
            self.throughput,
            self.messages_sent,
            self.payload_sent,
            self.payload_delivered,
            self.latency,
            self.state_digest,
            self.decided,
            self.crashed,
        )

    def summary(self) -> str:
        return (
            f"{self.backend:>4}: {self.completed_ops}/{self.total_ops} ops, "
            f"thr {self.throughput:.2f} ops/t, "
            f"lat p50 {self.latency.p50:.2f} p99 {self.latency.p99:.2f}, "
            f"payload {self.payload_sent}u, digest {self.stats_digest[:12]}"
        )


def _make_nodes(
    backend: str,
    n: int,
    spec: WorkloadSpec,
    poll_interval: float,
) -> List[AsyncProcess]:
    per_client = [client_batches(spec, c) for c in range(spec.clients)]
    nodes: List[AsyncProcess] = []
    for pid in range(n):
        batches = per_client[pid] if pid < spec.clients else ()
        if backend == "scd":
            nodes.append(ScdKvServiceNode(pid, n, batches))
        elif backend == "to":
            nodes.append(
                ToKvServiceNode(
                    pid, n, (n - 1) // 2, batches, poll_interval=poll_interval
                )
            )
        else:
            nodes.append(AbdKvServiceNode(pid, n, batches))
    return nodes


def run_service(
    spec: WorkloadSpec,
    backend: str = "scd",
    n: int = 3,
    seed: int = 0,
    delay_model=None,
    link_model: Optional[LinkModel] = None,
    crashes: Sequence[object] = (),
    failure_detector: Optional[object] = None,
    retry_every: float = 2.0,
    poll_interval: float = 0.5,
    max_events: int = 50_000_000,
) -> ServiceReport:
    """Run ``spec`` against one backend; return the deterministic report.

    ``link_model`` other than reliable wraps every node in a
    :class:`~repro.amp.links.ReliableChannel` (retransmit + dedup) —
    none of the backends is loss-tolerant bare, which is the point of
    the PR 6 equivalence result.  ``crashes`` passes through to the
    runtime (``CrashAt``/``RecoverAt``); crashed clients simply stop
    completing ops, surviving replicas keep serving.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}, pick one of {BACKENDS}"
        )
    if spec.clients > n:
        raise ConfigurationError(
            f"{spec.clients} clients need at least that many replicas, got n={n}"
        )
    if delay_model is None:
        delay_model = UniformDelay(0.05, 0.5)
    if backend == "to" and failure_detector is None:
        # The consensus layer needs Ω; a stable leader from the start
        # keeps the baseline comparison about ordering cost, not
        # leader-election noise.
        failure_detector = OmegaFD(n, tau=0.0, seed=seed)
    nodes = _make_nodes(backend, n, spec, poll_interval)
    processes: Sequence[AsyncProcess] = nodes
    if link_model is not None:
        processes = wrap_reliable(nodes, retry_every=retry_every)
    wall_start = _time.perf_counter()
    result = run_processes(
        processes,
        delay_model=delay_model,
        link_model=link_model,
        seed=seed,
        crashes=list(crashes),
        failure_detector=failure_detector,
        max_events=max_events,
        quiesce_when_decided=False,
    )
    wall_s = _time.perf_counter() - wall_start

    surviving = [
        node
        for pid, node in enumerate(nodes)
        if pid not in result.crashed or pid in result.recovered
    ]
    if backend in ("scd", "to") and not crashes:
        states = {node.visible_state() for node in surviving}
        if len(states) > 1:
            raise ModelViolation(
                f"{backend} replicas diverged after drain: {sorted(states)!r}"
            )
    reference = surviving[0] if surviving else nodes[0]
    state_digest = hashlib.sha256(
        repr(reference.visible_state()).encode("utf-8")
    ).hexdigest()

    records: List[OpRecord] = []
    op_counts: Dict[str, int] = {}
    for node in nodes:
        client = getattr(node, "client", None)
        if client is None:
            continue
        records.extend(client.op_log)
        for record in client.op_log:
            op_counts[record.op] = op_counts.get(record.op, 0) + 1
    if not records:
        raise ModelViolation("no operation completed — workload stalled")
    latency = LatencyStats.from_samples(r.latency for r in records)
    final_time = result.final_time
    report = ServiceReport(
        backend=backend,
        n=n,
        seed=seed,
        total_ops=spec.total_ops,
        completed_ops=len(records),
        op_counts=tuple(sorted(op_counts.items())),
        final_time=final_time,
        throughput=len(records) / final_time if final_time else 0.0,
        messages_sent=result.messages_sent,
        payload_sent=result.payload_sent,
        payload_delivered=result.payload_delivered,
        latency=latency,
        state_digest=state_digest,
        decided=tuple(pid for pid in range(n) if result.decided[pid]),
        crashed=tuple(sorted(result.crashed)),
        wall_s=wall_s,
    )
    stats_digest = hashlib.sha256(
        repr(report.digest_fields()).encode("utf-8")
    ).hexdigest()
    return replace(report, stats_digest=stats_digest)
