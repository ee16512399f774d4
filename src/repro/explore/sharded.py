"""Sharded superstep exploration: hash-partitioned parallel BFS.

The classic distributed-model-checking layout (Stern–Dill style): the
canonical-fingerprint space is partitioned by a **stable hash** across
``W`` shard workers; each worker owns one slice of the visited set and
everything about a state happens at its owner.  The search proceeds in
depth-synchronous **supersteps**:

::

    coordinator                    worker 0 .. worker W-1
    -----------                    -----------------------
    route initial state ──────────▶ shard = owner(fp(initial))
    loop per BFS depth d:
      send ("step", inbox_s) ─────▶ each shard s:
                                      merge inbox + own local_next
                                      group by fingerprint
                                      expand level d (the search core)
                                      route children: own shard → keep,
                                        other shard → outbox[dest]
      collect replies ◀──────────── (outboxes, stats, violations, ...)
      route outboxes into inboxes; merge stats; pick violations;
      stop at barrier on budget / violation / empty frontier

Each shard runs the serial engine's own per-state code,
:class:`~repro.explore.engine.SearchCore` (dedup and wake-up, property
checks, sleep sets, depth cut), which also owns the shard's visited
slice, its spill file and its :class:`~repro.explore.engine.ExploreStats`;
the coordinator folds those with
:meth:`~repro.explore.engine.ExploreStats.merge`.  Sleep sets travel
with frontier entries, so a child landing on a remote shard arrives
with the sleep set the serial engine would have given it: the two
engines differ only in frontier order and in where children go.

Workers are **forked**, not spawned: models and properties close over
protocol factories and are not picklable, so the worker state crosses
the process boundary by memory inheritance (a module global set just
before the fork).  Frontier entries — ``(fingerprint, config,
schedule, sleep)`` — are plain picklable data for every shipped
adapter (AMP configs are choice prefixes, shm configs are canonical
tuples).  Where fork or the pool is unavailable the engine runs the
*identical* superstep algorithm over all ``W`` shards in-process, and
records the degradation as ``pool_fallback`` (the
:class:`~repro.harness.parallel.RunList` pattern) — results are the
same either way, by construction.

**Shard routing** uses ``zlib.crc32`` over the fingerprint's ``repr``
bytes (:func:`shard_of`), never builtin ``hash()``: string hashing is
salted per process, so ``hash()`` would route the same state to
different owners in different workers.

**Determinism across worker counts.**  All entries for a fingerprint
produced at depth ``d`` meet at its owner in the same superstep,
wherever they were produced.  The owner merges the group canonically —
sleep sets by intersection (the same fixpoint the serial engine's
sequential revisit-wake rule converges to), the representative
schedule as the minimum under :func:`schedule_key` — and processes
groups in sorted fingerprint order.  By induction over depth, the
per-level state sets, stored sleep sets, and expansions are partition-
independent, so ``workers ∈ {1, 2, 4}`` yield identical verdicts,
state counts, stats, and byte-identical counterexamples.  This is what
lets the bench assert serial/sharded parity as a gate.

**What moves at the barrier (vs the serial engine).**  Budgets are
checked per superstep, so ``max_states`` can overshoot by up to one
BFS level; ``stop_on_first`` finishes the current level before
stopping and keeps the *canonical* (shortest, then lexicographically
least) violation of that level rather than the incidental first one;
``deduped``/``transitions`` counters can differ from serial because a
group merge does in one visit what serial does as visit-plus-revisits.
One rule is shared with the serial engine: under ``stop_on_first`` a
state that fails a property is not expanded (the rest of its level
still is).  Verdict, state count, and counterexample schedules (BFS
finds minimum-length ones in both engines) are preserved — the parity
tests pin exactly that contract.

**Serial/sharded POR parity needs stable choice labels.**  Determinism
across worker counts holds unconditionally, but matching the *serial*
engine's reduced state count additionally requires that a logical move
keeps one label on every prefix reaching a fingerprint (true for shm
pid choices; false for AMP send seqs on protocols whose sends depend
on deliveries, e.g. SCD-broadcast — there the per-fingerprint sleep
sets alias choices and each engine prunes a different, deterministic
subset).  With ``reduce=False`` both engines visit the exact reachable
set and agree byte-for-byte; the A10 bench asserts SCD parity that
way.  See docs/EXPLORER.md, "The stability caveat".
"""

from __future__ import annotations

import os
import time
import traceback
import warnings
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..harness.parallel import POOL_ERRORS, fork_context
from .engine import (
    Child,
    ExploreResult,
    ExploreStats,
    RawViolation,
    SearchCore,
    build_violations,
)
from .model import Choice, ExplorationModel
from .properties import Property
from .strategies import BFS, Strategy

__all__ = [
    "ShardedExplorer",
    "ShardedExploreResult",
    "shard_of",
    "schedule_key",
]

#: One frontier entry: (fingerprint, config, schedule, sleep set).
Entry = Tuple[Any, Any, Tuple[Choice, ...], FrozenSet[Choice]]

#: One shard's superstep reply: its outboxes, its stats so far, the
#: violations of this level, whether the depth bound cut branches, and
#: how many children it kept for itself.
Reply = Tuple[Dict[int, List[Entry]], ExploreStats, List[RawViolation], bool, int]


def shard_of(fingerprint: Any, shards: int) -> int:
    """Stable owner shard of a canonical fingerprint.

    CRC32 over the ``repr`` bytes — builtin ``hash()`` is salted per
    process (PYTHONHASHSEED) and would scatter one state across owners.
    """
    return zlib.crc32(repr(fingerprint).encode("utf-8")) % shards


def schedule_key(schedule: Sequence[Choice]) -> Tuple[int, Tuple[str, ...]]:
    """Total order on schedules: shortest first, then lexicographic.

    Choices are compared by ``repr`` so heterogeneous choice types
    (tuples, ints) never hit an unorderable comparison.
    """
    return (len(schedule), tuple(repr(choice) for choice in schedule))


class _WorkerError(RuntimeError):
    """A shard worker raised; carries the remote traceback text."""


class _Shard:
    """One shard: its slice of the search, as a
    :class:`~repro.explore.engine.SearchCore`, plus the routing.

    Lives inside a worker process (pool mode) or in the coordinator
    (in-process emulation) — same code either way.
    """

    def __init__(
        self,
        shard_id: int,
        model: ExplorationModel,
        properties: Sequence[Property],
        strategy: Strategy,
        reduce: bool,
        stop_on_first: bool,
        shards: int,
        spill_dir: Optional[str],
        spill_entries: int,
    ) -> None:
        self.shard_id = shard_id
        self.shards = shards
        self.core = SearchCore(
            model, properties, reduce, stop_on_first, strategy.max_depth,
            spill_path=(
                None if spill_dir is None
                else os.path.join(spill_dir, f"shard-{shard_id:03d}.sqlite")
            ),
            spill_entries=spill_entries,
        )
        #: children that stay on this shard — never serialized.
        self.local_next: List[Entry] = []

    def superstep(self, incoming: List[Entry]) -> Reply:
        """Process one BFS level of this shard."""
        core = self.core
        model = core.model

        # Canonical per-fingerprint merge: all same-depth entries for a
        # state meet here (the owner), wherever they were produced, so
        # the merged (config, schedule, sleep) — and everything computed
        # from it — is independent of how the space was partitioned.
        groups: Dict[Any, List[Any]] = {}
        for fp, config, schedule, sleep in self.local_next + incoming:
            group = groups.get(fp)
            if group is None:
                groups[fp] = [config, schedule, sleep]
            else:
                if schedule_key(schedule) < schedule_key(group[1]):
                    group[0] = config
                    group[1] = schedule
                group[2] = group[2] & sleep
        self.local_next = []

        outboxes: Dict[int, List[Entry]] = defaultdict(list)

        def route(child: Child) -> None:
            config, schedule, sleep = child
            fp = model.fingerprint(config)
            dest = shard_of(fp, self.shards)
            entry = (fp, config, schedule, sleep)
            if dest == self.shard_id:
                self.local_next.append(entry)
            else:
                outboxes[dest].append(entry)

        for fp in sorted(groups, key=repr):
            core.expand(fp, *groups[fp], route)
        violations, core.violations = core.violations, []
        return dict(outboxes), core.totals(), violations, core.cut, len(self.local_next)

    def close(self) -> None:
        self.core.close()


# Worker state crosses the process boundary by fork inheritance, not
# pickling: models and properties close over protocol factories.  Set
# immediately before the fork, cleared immediately after.
_WORKER_STATE: Optional[Dict[str, Any]] = None


def _worker_main(shard_id: int, conn) -> None:
    """Shard worker loop: ("step", entries) → ("ok", reply)."""
    shard = _Shard(shard_id=shard_id, **_WORKER_STATE)
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            try:
                reply = shard.superstep(message[1])
            except Exception:
                # Reply rather than die: an unreplied recv() would
                # deadlock the coordinator's collection loop.
                conn.send(("error", traceback.format_exc()))
                continue
            conn.send(("ok", reply))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        shard.close()
        conn.close()


class _PoolTransport:
    """Fork-start shard workers, one duplex pipe each."""

    def __init__(self, ctx, shards: int, state: Dict[str, Any]) -> None:
        global _WORKER_STATE
        self.conns = []
        self.procs = []
        _WORKER_STATE = state
        try:
            for shard_id in range(shards):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(shard_id, child_conn),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
        finally:
            _WORKER_STATE = None

    def step_all(self, incoming: List[List[Entry]]) -> List[Reply]:
        # Send to every worker before collecting any reply: the sends
        # are what lets the W supersteps actually overlap.
        for conn, batch in zip(self.conns, incoming):
            conn.send(("step", batch))
        replies = []
        for shard_id, conn in enumerate(self.conns):
            reply = conn.recv()
            if reply[0] == "error":
                raise _WorkerError(f"shard {shard_id} worker failed:\n{reply[1]}")
            replies.append(reply[1])
        return replies

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
            conn.close()
        self.conns = []
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
        self.procs = []


class _LocalTransport:
    """All shards in this process — the fallback, and ``workers=1``.

    Runs the byte-for-byte same superstep code as the pool workers, so
    a fallback (or a fork-less platform) changes wall-clock time only,
    never results.
    """

    def __init__(self, shards: int, state: Dict[str, Any]) -> None:
        self.shards = [
            _Shard(shard_id=shard_id, **state) for shard_id in range(shards)
        ]

    def step_all(self, incoming: List[List[Entry]]) -> List[Reply]:
        return [
            shard.superstep(batch) for shard, batch in zip(self.shards, incoming)
        ]

    def close(self) -> None:
        for shard in self.shards:
            shard.close()


@dataclass
class ShardedExploreResult(ExploreResult):
    """An :class:`~repro.explore.engine.ExploreResult` plus shard metadata.

    ``pool_fallback`` mirrors :class:`~repro.harness.parallel.RunList`:
    ``None`` normally, else a short description of why the requested
    worker pool degraded to in-process execution — surfaced in
    :meth:`report` so a silently serial "parallel" run stays visible.
    """

    workers: int = 1          #: workers requested
    workers_used: int = 1     #: worker processes that actually ran
    shards: int = 1           #: visited-set partitions (== workers)
    supersteps: int = 0       #: BFS levels processed
    pool_fallback: Optional[str] = None

    def report(self) -> str:
        if self.pool_fallback is not None:
            detail = f"in-process fallback: {self.pool_fallback}"
        elif self.workers_used > 1:
            detail = f"{self.workers_used} workers"
        else:
            detail = "1 worker"
        sharded = (
            f"  sharded: {self.shards} shard(s), {detail}, "
            f"{self.supersteps} superstep(s)"
        )
        if self.stats.spilled:
            sharded += f", {self.stats.spilled} spilled to disk"
        head, *rest = super().report().split("\n")
        return "\n".join([head, sharded] + rest)


class ShardedExplorer:
    """Drives the sharded superstep search; mirrors :class:`Explorer`.

    Parameters beyond the serial engine's:

    workers:
        Shard workers (and visited-set partitions).  ``workers=1`` runs
        the superstep algorithm on one in-process shard — the baseline
        the determinism tests compare 2 and 4 workers against.
    spill_dir / spill_entries:
        Per-shard :class:`~repro.explore.spill.SpillDict` overflow.

    Only :class:`~repro.explore.strategies.BFS` is supported: the
    superstep design *is* level-synchronous breadth-first search (DFS
    would serialize on the single deepest path; random walks don't
    partition).
    """

    def __init__(
        self,
        model: ExplorationModel,
        properties: Sequence[Property] = (),
        strategy: Optional[Strategy] = None,
        reduce: bool = True,
        stop_on_first: bool = True,
        workers: int = 1,
        spill_dir: Optional[str] = None,
        spill_entries: int = 200_000,
    ) -> None:
        strategy = strategy if strategy is not None else BFS()
        if not isinstance(strategy, BFS):
            raise ConfigurationError(
                f"the sharded engine is breadth-first only; "
                f"got strategy {strategy.name!r} (use BFS(...) or workers=None)"
            )
        if not isinstance(workers, int) or workers < 1:
            raise ConfigurationError(f"workers must be an int >= 1, got {workers!r}")
        self.model = model
        self.properties = list(properties)
        self.strategy = strategy
        self.reduce = reduce
        self.stop_on_first = stop_on_first
        self.workers = workers
        self.shards = workers
        self.spill_dir = spill_dir
        self.spill_entries = spill_entries

    # -- entry point -------------------------------------------------------

    def run(self) -> ShardedExploreResult:
        start = time.perf_counter()
        state = dict(
            model=self.model,
            properties=self.properties,
            strategy=self.strategy,
            reduce=self.reduce,
            stop_on_first=self.stop_on_first,
            shards=self.shards,
            spill_dir=self.spill_dir,
            spill_entries=self.spill_entries,
        )

        transport = None
        pool_fallback: Optional[str] = None
        workers_used = 1
        if self.workers > 1:
            ctx, reason = fork_context()
            if ctx is None:
                pool_fallback = reason
            else:
                try:
                    transport = _PoolTransport(ctx, self.shards, state)
                    workers_used = self.workers
                except POOL_ERRORS as exc:
                    pool_fallback = f"{type(exc).__name__}: {exc}"
        if transport is None:
            if pool_fallback is not None:
                self._warn_fallback(pool_fallback)
            transport = _LocalTransport(self.shards, state)

        try:
            try:
                result = self._drive(transport)
            except (_WorkerError, *POOL_ERRORS) as exc:
                # Pool died mid-search (or entries turned out to be
                # unpicklable for a custom model).  The search is a pure
                # function of (model, strategy), so restart it from
                # scratch in-process: same results, just slower — and a
                # worker-side model bug will re-raise here with a native
                # traceback.
                transport.close()
                pool_fallback = (
                    str(exc) if isinstance(exc, _WorkerError)
                    else f"{type(exc).__name__}: {exc}"
                )
                self._warn_fallback(pool_fallback)
                workers_used = 1
                transport = _LocalTransport(self.shards, state)
                result = self._drive(transport)
        finally:
            transport.close()

        result.stats.elapsed = time.perf_counter() - start
        result.workers = self.workers
        result.workers_used = workers_used
        result.pool_fallback = pool_fallback
        return result

    def _warn_fallback(self, reason: str) -> None:
        warnings.warn(
            f"sharded explore: worker pool unavailable ({reason.splitlines()[0]}); "
            f"running all {self.shards} shard(s) in-process",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- the coordinator loop ----------------------------------------------

    def _drive(self, transport) -> ShardedExploreResult:
        model = self.model
        shards = self.shards
        raw_violations: List[RawViolation] = []
        complete = True

        initial = model.initial()
        initial_fp = model.fingerprint(initial)
        incoming: List[List[Entry]] = [[] for _ in range(shards)]
        incoming[shard_of(initial_fp, shards)].append(
            (initial_fp, initial, (), frozenset())
        )

        supersteps = 0
        while True:
            replies = transport.step_all(incoming)
            supersteps += 1
            stats = ExploreStats.merge(reply[1] for reply in replies)

            incoming = [[] for _ in range(shards)]
            level_violations: List[RawViolation] = []
            kept = 0
            for outboxes, _, violations, cut, local_next in replies:
                for dest, entries in outboxes.items():
                    incoming[dest].extend(entries)
                level_violations.extend(violations)
                complete = complete and not cut
                kept += local_next

            if level_violations:
                # Canonical pick: shortest schedule, then lexicographic,
                # then property order — partition-independent, so every
                # worker count reports the same violation(s).
                level_violations.sort(key=lambda v: (schedule_key(v[3]), v[0]))
                if self.stop_on_first:
                    raw_violations = level_violations[:1]
                    break
                raw_violations.extend(level_violations)

            if stats.states > self.strategy.max_states:
                complete = False
                break
            if kept == 0 and not any(incoming):
                break

        violations = build_violations(model, raw_violations)
        return ShardedExploreResult(
            ok=not violations,
            complete=complete and not violations,
            violations=violations,
            stats=stats,
            strategy=(
                self.strategy.name
                + ("+sleep" if self.reduce else "")
                + f"+sharded[{shards}]"
            ),
            workers=self.workers,
            workers_used=1,
            shards=shards,
            supersteps=supersteps,
        )
