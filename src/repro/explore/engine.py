"""The bounded search engine: dedup, sleep sets, budgets, verdicts.

Everything that happens at one visited state lives in one place,
:class:`SearchCore`: the visited-set dedup, the ``on_state`` and
``on_terminal`` property checks, sleep-set filtering, Godefroid's
revisit wake-up, the depth cut and the children's sleep sets.  The core
owns the visited store (and its disk spill) and the
:class:`ExploreStats`.  Every engine runs on it and differs only in its
frontier: the serial :class:`Explorer` pops one deque (BFS and DFS
differ only in which end), and the sharded engine
(:mod:`repro.explore.sharded`, reached via ``explore(..., workers=N)``)
runs one core per shard, level by level, routing each child to the
shard that owns its fingerprint.  Two reductions keep the search
tractable:

* **visited-set dedup** — configurations are keyed by their canonical
  fingerprint, which each model adapter hash-conses with its own
  :class:`~repro.explore.model.Interner`; a revisited state is not
  re-expanded.  This alone collapses the naive schedule *tree* (every
  interleaving spelled out) to the configuration *graph*.
* **sleep sets** (Godefroid) — when two enabled choices commute
  (:meth:`~repro.explore.model.ExplorationModel.independent`), only one
  of their two orders is executed; the other is put to sleep in the
  child.  Combined with state caching this needs the classic fix:
  the sleep set is stored with each visited state, and a revisit with a
  *smaller* sleep set wakes exactly the stored-minus-new choices.
  When choice labels are stable across converging prefixes (shm pid
  choices, grid axes), sleep sets preserve every reachable state — the
  reduction is purely in transitions.  Labels that embed
  prefix-dependent identity (AMP send sequence numbers, on protocols
  whose sends depend on deliveries) alias in the per-fingerprint
  stored sleep sets, making the pruned state set traversal-order
  dependent; use ``reduce=False`` for exhaustive claims on such
  models (docs/EXPLORER.md, "The stability caveat").

Properties (:mod:`repro.explore.properties`) are checked once per
unique state.  Under ``stop_on_first`` a state that fails one is not
expanded, in every engine.  Each violation's schedule is materialized
into a replayable :class:`~repro.explore.counterexample.Counterexample`
when the search ends.  ``spill_dir=`` swaps the visited backing for a
disk-spilling LRU store (:class:`~repro.explore.spill.SpillDict`).

:func:`state_graph` is the unreduced enumeration (config →
successors), kept for clients that need the whole graph: both FLP
explorers (:mod:`repro.shm.bivalence` and
:mod:`repro.amp.consensus.flp`) run on it, and raise like it when the
graph is over budget.  :func:`decision_scan` reads a graph's verdicts
for them: the values decided in it — the initial configuration's
valence, since every configuration of the graph is reachable from the
initial one — its first agreement pair and its first invalid value.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.exceptions import ConfigurationError, SimulationLimitExceeded
from .counterexample import Counterexample
from .model import Choice, Config, ExplorationModel
from .properties import Property
from .strategies import BFS, DFS, RandomWalk, Strategy

_EMPTY: FrozenSet[Choice] = frozenset()

#: A property failure as the core records it: (property index, property
#: name, message, schedule).  The index lets the sharded engine's
#: canonical pick follow the user's property order.
RawViolation = Tuple[int, str, str, Tuple[Choice, ...]]

#: A child as the core hands it to its engine: (config, schedule, sleep).
Child = Tuple[Config, Tuple[Choice, ...], FrozenSet[Choice]]


@dataclass
class ExploreStats:
    """Search effort accounting (the currency of EXPERIMENTS.md A5/A10)."""

    states: int = 0           #: unique configurations visited
    transitions: int = 0      #: model.step executions
    deduped: int = 0          #: frontier entries killed by the visited set
    sleep_pruned: int = 0     #: enabled choices skipped by sleep sets
    terminals: int = 0        #: configurations with no enabled choice
    max_depth_seen: int = 0   #: longest schedule prefix reached
    elapsed: float = 0.0      #: wall-clock seconds
    spilled: int = 0          #: visited entries evicted to the disk store

    def states_per_second(self) -> float:
        # Clamped, not inf: a sub-millisecond run can legitimately see a
        # zero-duration clock, and "inf states/s" in a report is noise.
        return self.states / self.elapsed if self.elapsed > 0 else 0.0

    def merge_in(self, other: "ExploreStats") -> None:
        """Fold another stats block into this one (field-wise).

        Counters add; ``max_depth_seen`` and ``elapsed`` take the max —
        shard workers run concurrently, so summing their wall clocks
        would double-count time.  The sharded engine folds its shards'
        stats with it at every barrier; the fold is order-insensitive,
        so the merged result is identical at any worker count.
        """
        self.states += other.states
        self.transitions += other.transitions
        self.deduped += other.deduped
        self.sleep_pruned += other.sleep_pruned
        self.terminals += other.terminals
        self.spilled += other.spilled
        if other.max_depth_seen > self.max_depth_seen:
            self.max_depth_seen = other.max_depth_seen
        if other.elapsed > self.elapsed:
            self.elapsed = other.elapsed

    @classmethod
    def merge(cls, parts: Iterable["ExploreStats"]) -> "ExploreStats":
        """Deterministic fold of many stats blocks (see :meth:`merge_in`)."""
        total = cls()
        for part in parts:
            total.merge_in(part)
        return total


class VisitedStore:
    """The dedup seam: fingerprint → stored sleep set, with the revisit rule.

    Encapsulates the one stateful decision of the search — *have we been
    here, and with which sleep set?* — Godefroid's state-caching fix:

    * first visit: store the sleep set, explore ``enabled - sleep``;
    * revisit with a smaller sleep set: the stored-minus-new choices
      were slept when this state was expanded but are awake now — they
      must be (re)explored or the reduction would miss their futures;
      the stored set shrinks to the intersection;
    * revisit with nothing to wake: pure dedup.

    ``backing`` is any mapping with ``get``/``__setitem__``/``__len__``
    — a plain dict (default) or a :class:`~repro.explore.spill.SpillDict`
    when the visited set must not be RAM-bound.
    """

    _MISSING = object()

    def __init__(self, backing=None) -> None:
        self._store = {} if backing is None else backing

    def __len__(self) -> int:
        return len(self._store)

    def visit(
        self, fingerprint: Hashable, sleep: FrozenSet[Choice]
    ) -> Tuple[bool, Optional[FrozenSet[Choice]]]:
        """Returns ``(first_visit, wake)``.

        ``(True, None)`` — new state, now stored with ``sleep``;
        ``(False, wake)`` — revisit: ``wake`` is the set of stored-but-
        no-longer-slept choices (empty = plain dedup, nothing to do).
        """
        stored = self._store.get(fingerprint, self._MISSING)
        if stored is self._MISSING:
            self._store[fingerprint] = sleep
            return True, None
        wake = stored - sleep
        if wake:
            self._store[fingerprint] = stored & sleep
        return False, wake


def child_sleep_set(
    model: ExplorationModel,
    config: Config,
    sleep: FrozenSet[Choice],
    executed: Sequence[Choice],
    choice: Choice,
) -> FrozenSet[Choice]:
    """The sleep set a child inherits.

    A sibling choice stays asleep in ``choice``'s child iff it commutes
    with ``choice`` from here — both orders reach the same state, and
    the other order is (or will be) explored from a sibling branch.
    """
    return frozenset(
        other
        for other in sleep.union(executed)
        if model.independent(config, other, choice)
    )


@dataclass
class Violation:
    """One property failure, located by its schedule."""

    property: str
    message: str
    schedule: Tuple[Choice, ...]
    counterexample: Optional[Counterexample] = None

    def report(self) -> str:
        lines = [f"{self.property}: {self.message}"]
        if self.counterexample is not None:
            lines.append(self.counterexample.report())
        else:
            lines.append(f"  schedule: {list(self.schedule)!r}")
        return "\n".join(lines)


def build_violations(
    model: ExplorationModel, raws: Iterable[RawViolation]
) -> List[Violation]:
    """Materialize recorded failures, each with a replayable counterexample.

    Only the schedule is recorded during the search (it is all that
    crosses a shard worker's process boundary); the counterexample is
    rebuilt here from the caller's own model, so counterexamples from
    every engine replay byte-identically.
    """
    violations = []
    for _, name, message, schedule in raws:
        try:
            counterexample = model.counterexample(schedule)
        except ConfigurationError:
            counterexample = None
        violations.append(Violation(name, message, schedule, counterexample))
    return violations


@dataclass
class ExploreResult:
    """Everything one search run established."""

    ok: bool                      #: no property violated
    complete: bool                #: the search exhausted the state space
    violations: List[Violation]
    stats: ExploreStats
    strategy: str

    def report(self) -> str:
        rate = self.stats.states_per_second()
        head = (
            f"[{self.strategy}] "
            f"{'OK' if self.ok else f'{len(self.violations)} violation(s)'}"
            f"{' (exhaustive)' if self.complete else ' (bounded)'} — "
            f"{self.stats.states} states, {self.stats.transitions} transitions, "
            f"{self.stats.deduped} deduped, {self.stats.sleep_pruned} slept"
            + (f", {rate:,.0f} states/s" if rate > 0 else "")
        )
        return "\n".join([head] + [v.report() for v in self.violations])


class SearchCore:
    """What happens at one visited state, for every engine.

    Owns the visited store (spilled to ``spill_path`` when given), the
    :class:`ExploreStats` and the recorded violations.  An engine feeds
    it frontier entries through :meth:`expand` and decides only where
    the children go (the ``push`` it passes) and in which order they
    come back.

    ``max_states`` is checked at each first visit, before the state's
    properties; the sharded engine leaves it unbounded and checks the
    global count at its barriers instead.  ``cut`` records that the
    depth bound dropped branches, so the verdict is bounded.
    """

    def __init__(
        self,
        model: ExplorationModel,
        properties: Sequence[Property],
        reduce: bool = True,
        stop_on_first: bool = True,
        max_depth: Optional[int] = None,
        max_states: float = math.inf,
        spill_path: Optional[str] = None,
        spill_entries: int = 200_000,
    ) -> None:
        self.model = model
        self.properties = list(properties)
        self.reduce = reduce
        self.stop_on_first = stop_on_first
        self.max_depth = max_depth
        self.max_states = max_states
        self.backing = None
        if spill_path is not None:
            from .spill import SpillDict

            os.makedirs(os.path.dirname(spill_path), exist_ok=True)
            self.backing = SpillDict(spill_path, max_entries=spill_entries)
        #: fingerprint → the sleep set this state was (last) expanded with.
        self.visited = VisitedStore(self.backing)
        self.stats = ExploreStats()
        self.violations: List[RawViolation] = []
        self.cut = False

    def check(
        self, config: Config, schedule: Tuple[Choice, ...], terminal: bool = False
    ) -> bool:
        """Run the ``on_state`` (or ``on_terminal``) checks; True when
        the search must stop."""
        model = self.model
        for prop in self.properties:
            if terminal:
                message = prop.on_terminal(model, config)
            else:
                message = prop.on_state(model, config)
            if message is not None:
                # Looked up on a failure only: this loop runs at every state.
                index = self.properties.index(prop)
                self.violations.append((index, prop.name, message, schedule))
                if self.stop_on_first:
                    return True
        return False

    def expand(
        self,
        fingerprint: Hashable,
        config: Config,
        schedule: Tuple[Choice, ...],
        sleep: FrozenSet[Choice],
        push: Callable[[Child], None],
    ) -> bool:
        """Visit one frontier entry and ``push`` each child to explore.

        Returns False when the search stops at this state: it is over
        the state budget, or it failed a property under
        ``stop_on_first`` (and is not expanded).  Without the reduction
        every sleep set is empty, so the filters below keep every
        choice.
        """
        model, stats = self.model, self.stats
        depth = len(schedule)
        if depth > stats.max_depth_seen:
            stats.max_depth_seen = depth
        first, wake = self.visited.visit(fingerprint, sleep)
        if first:
            if len(self.visited) > self.max_states or self.check(config, schedule):
                return False
            enabled = model.enabled(config)
            if not enabled:
                stats.terminals += 1
                return not self.check(config, schedule, terminal=True)
            to_explore = [c for c in enabled if c not in sleep]
            stats.sleep_pruned += len(enabled) - len(to_explore)
        elif wake:
            # Revisit with a smaller sleep set: the choices slept on the
            # first visit but awake now must be explored, or the
            # reduction would miss their futures (VisitedStore.visit).
            to_explore = [c for c in model.enabled(config) if c in wake]
        else:
            stats.deduped += 1
            return True

        if self.max_depth is not None and depth >= self.max_depth:
            if to_explore:
                self.cut = True
            return True

        reduce = self.reduce
        executed: List[Choice] = []
        for choice in to_explore:
            push((
                model.step(config, choice),
                schedule + (choice,),
                child_sleep_set(model, config, sleep, executed, choice)
                if reduce else _EMPTY,
            ))
            executed.append(choice)
        stats.transitions += len(executed)
        return True

    def totals(self) -> ExploreStats:
        """The stats so far, with the state and spill counts read off
        the visited store."""
        self.stats.states = len(self.visited)
        if self.backing is not None:
            self.stats.spilled = self.backing.spilled
        return self.stats

    def close(self) -> None:
        if self.backing is not None:
            self.backing.close()


class Explorer:
    """Drives one strategy over one model, checking properties.

    Parameters
    ----------
    model:
        The kernel adapter (see :mod:`repro.explore.model`).
    properties:
        :class:`~repro.explore.properties.Property` instances; checked
        once per unique configuration (invariants) or per terminal
        configuration (eventualities).
    strategy:
        :class:`~repro.explore.strategies.BFS` (default),
        :class:`~repro.explore.strategies.DFS`, or
        :class:`~repro.explore.strategies.RandomWalk`.
    reduce:
        Enable the sleep-set reduction (on by default; harmless when a
        model's ``independent`` is the always-``False`` default).
    stop_on_first:
        Stop at the first violation (default) instead of collecting all.
    spill_dir:
        When set, back the visited set with a
        :class:`~repro.explore.spill.SpillDict` in this directory so the
        search is no longer RAM-bound (``spill_entries`` caps the hot
        cache).  Evictions show up as ``stats.spilled``.  Exhaustive
        strategies only: a random walk keeps no visited set to spill.
    """

    def __init__(
        self,
        model: ExplorationModel,
        properties: Sequence[Property] = (),
        strategy: Optional[Strategy] = None,
        reduce: bool = True,
        stop_on_first: bool = True,
        spill_dir: Optional[str] = None,
        spill_entries: int = 200_000,
    ) -> None:
        self.model = model
        self.properties = list(properties)
        self.strategy = strategy if strategy is not None else BFS()
        self.reduce = reduce
        self.stop_on_first = stop_on_first
        self.spill_dir = spill_dir
        self.spill_entries = spill_entries
        if spill_dir is not None and isinstance(self.strategy, RandomWalk):
            raise ConfigurationError(
                "spill_dir needs an exhaustive strategy (BFS or DFS); "
                "random walks do not spill"
            )

    # -- entry point -------------------------------------------------------

    def run(self) -> ExploreResult:
        start = time.perf_counter()
        if isinstance(self.strategy, RandomWalk):
            result = self._run_walks(self.strategy)
        else:
            result = self._run_exhaustive(self.strategy)
        result.stats.elapsed = time.perf_counter() - start
        return result

    def _result(self, core: SearchCore, complete: bool, strategy: str) -> ExploreResult:
        violations = build_violations(self.model, core.violations)
        return ExploreResult(
            ok=not violations,
            complete=complete and not core.cut and not violations,
            violations=violations,
            stats=core.totals(),
            strategy=strategy,
        )

    # -- exhaustive BFS/DFS with dedup + sleep sets ------------------------

    def _run_exhaustive(self, strategy: Strategy) -> ExploreResult:
        model = self.model
        core = SearchCore(
            model, self.properties, self.reduce, self.stop_on_first,
            strategy.max_depth, strategy.max_states,
            spill_path=(
                None if self.spill_dir is None
                else os.path.join(self.spill_dir, "visited.sqlite")
            ),
            spill_entries=self.spill_entries,
        )
        frontier: deque = deque([(model.initial(), (), _EMPTY)])
        pop = frontier.pop if isinstance(strategy, DFS) else frontier.popleft
        push = frontier.append
        complete = True
        try:
            while frontier:
                config, schedule, sleep = pop()
                fingerprint = model.fingerprint(config)
                if not core.expand(fingerprint, config, schedule, sleep, push):
                    complete = False
                    break
        finally:
            core.close()
        return self._result(
            core, complete, strategy.name + ("+sleep" if self.reduce else "")
        )

    # -- seeded random walks ----------------------------------------------

    def _run_walks(self, strategy: RandomWalk) -> ExploreResult:
        model = self.model
        core = SearchCore(model, self.properties, stop_on_first=self.stop_on_first)
        stats, visited = core.stats, core.visited
        rng = strategy.rng()
        stopped = False

        for _ in range(strategy.walks):
            if stopped:
                break
            config = model.initial()
            schedule: Tuple[Choice, ...] = ()
            for depth in range(strategy.max_depth + 1):
                if depth > stats.max_depth_seen:
                    stats.max_depth_seen = depth
                fingerprint = model.fingerprint(config)
                if visited.visit(fingerprint, _EMPTY)[0]:
                    if len(visited) > strategy.max_states or core.check(
                        config, schedule
                    ):
                        stopped = True
                        break
                else:
                    stats.deduped += 1
                enabled = model.enabled(config)
                if not enabled:
                    stats.terminals += 1
                    stopped = core.check(config, schedule, terminal=True)
                    break
                if depth >= strategy.max_depth:
                    break
                choice = enabled[rng.randrange(len(enabled))]
                config = model.step(config, choice)
                stats.transitions += 1
                schedule = schedule + (choice,)

        # Sampling proves nothing exhaustively: never complete.
        return self._result(core, False, strategy.name)


def explore(
    model: ExplorationModel,
    properties: Sequence[Property] = (),
    strategy: Optional[Strategy] = None,
    reduce: bool = True,
    stop_on_first: bool = True,
    workers: Optional[int] = None,
    spill_dir: Optional[str] = None,
    spill_entries: int = 200_000,
) -> ExploreResult:
    """One-call front door: build an :class:`Explorer` and run it.

    ``workers=None`` (default) runs the serial engine in-process.  Any
    integer ``workers >= 1`` routes to the sharded superstep engine
    (:class:`~repro.explore.sharded.ShardedExplorer`), which is
    breadth-first only — including ``workers=1``, which runs the same
    superstep algorithm on one shard and is the baseline the
    determinism tests compare against.

    ``spill_dir`` works in both modes: the visited set (or each visited
    shard) overflows to SQLite files in that directory.
    """
    options = dict(
        properties=properties, strategy=strategy, reduce=reduce,
        stop_on_first=stop_on_first, spill_dir=spill_dir,
        spill_entries=spill_entries,
    )
    if workers is not None:
        from .sharded import ShardedExplorer

        return ShardedExplorer(model, workers=workers, **options).run()
    return Explorer(model, **options).run()


def state_graph(
    model: ExplorationModel, max_states: int = 2_000_000
) -> Dict[Config, List[Tuple[Choice, Config]]]:
    """The full configuration graph: config → ``[(choice, successor)]``.

    No reduction — the verdicts need every configuration and the cycle
    analyses every edge.  Both FLP explorers build their graphs here:
    the shm adapter for :mod:`repro.shm.bivalence`, and
    :class:`~repro.amp.consensus.flp.MessageProtocolExplorer`, which is
    its own model.  Every configuration is reachable from
    ``model.initial()``, and configurations are inserted in the order
    the walk first expands them.  Configurations are used as keys
    directly, so the model's configurations must be hashable and
    canonical (true for the shm adapter, whose fingerprint *is* the
    configuration).  More than ``max_states`` configurations raise
    :class:`~repro.core.exceptions.SimulationLimitExceeded`.
    """
    initial = model.initial()
    graph: Dict[Config, List[Tuple[Choice, Config]]] = {}
    frontier: List[Config] = [initial]
    while frontier:
        config = frontier.pop()
        if config in graph:
            continue
        successors = [
            (choice, model.step(config, choice))
            for choice in model.enabled(config)
        ]
        graph[config] = successors
        if len(graph) > max_states:
            raise SimulationLimitExceeded(
                f"exploration exceeded {max_states} configurations"
            )
        for _, nxt in successors:
            if nxt not in graph:
                frontier.append(nxt)
    return graph


def decision_scan(
    graph: Iterable[Config],
    decisions: Callable[[Config], Dict[int, object]],
    inputs: Iterable[object],
) -> Tuple[FrozenSet[object], Optional[Tuple[object, object]], Optional[object]]:
    """What a graph's configurations decide, scanned in the graph's order.

    Returns ``(values, agreement, validity)``: every value decided in
    some configuration; the two least-by-``repr`` values of the first
    configuration that decides more than one; and the first decided
    value outside ``inputs``.  On a :func:`state_graph` the values are
    the initial configuration's valence, as every configuration is
    reachable from it: the initial configuration is bivalent iff there
    is more than one.
    """
    values: Set[object] = set()
    agreement: Optional[Tuple[object, object]] = None
    validity: Optional[object] = None
    allowed = set(inputs)
    for config in graph:
        decided = set(decisions(config).values())
        values |= decided
        if agreement is None and len(decided) > 1:
            first, second = sorted(decided, key=repr)[:2]
            agreement = (first, second)
        for value in decided:
            if validity is None and value not in allowed:
                validity = value
    return frozenset(values), agreement, validity
