"""One search core for both explorers, checked differentially.

``_ReferenceExplorer`` keeps the serial engine's per-state loop, its
property helpers and ``child_sleep_set`` as they were before the loop
moved into :class:`~repro.explore.engine.SearchCore` (verbatim; only
the spill import is absolute).  A hypothesis property runs both over generated
cyclic graph models — random labelled edges, a pseudo-random but
fixed independence relation, and invariants and an eventuality that
fail at random states — under BFS and DFS, with and without the
reduction, with and without ``stop_on_first``, and unbounded or
bounded by depth or by states, and requires identical results.  On a
sample of the same models the sharded engine must agree with itself at
``workers`` 1 and 2, and visit the serial engine's states.
"""

import dataclasses
import itertools
import os
import zlib
from collections import deque
from typing import FrozenSet, List, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError
from repro.explore import (
    BFS,
    DFS,
    Eventually,
    Explorer,
    ExploreResult,
    ExploreStats,
    Interner,
    Invariant,
    Violation,
    VisitedStore,
    explore,
)
from repro.explore.model import Choice, Config, ExplorationModel
from repro.explore.strategies import Strategy


def child_sleep_set(
    model: ExplorationModel,
    config: Config,
    sleep: FrozenSet[Choice],
    executed: Sequence[Choice],
    choice: Choice,
) -> FrozenSet[Choice]:
    return frozenset(
        other
        for other in (set(sleep) | set(executed))
        if model.independent(config, other, choice)
    )


class _ReferenceExplorer(Explorer):
    """The serial engine before the search core: exhaustive runs only."""

    # -- shared property plumbing -----------------------------------------

    def _check_state(
        self, config: Config, schedule: Tuple[Choice, ...],
        violations: List[Violation],
    ) -> bool:
        """Run on_state checks; returns True when the search must stop."""
        for prop in self.properties:
            message = prop.on_state(self.model, config)
            if message is not None:
                violations.append(
                    self._violation(prop.name, message, schedule)
                )
                if self.stop_on_first:
                    return True
        return False

    def _check_terminal(
        self, config: Config, schedule: Tuple[Choice, ...],
        violations: List[Violation],
    ) -> bool:
        for prop in self.properties:
            message = prop.on_terminal(self.model, config)
            if message is not None:
                violations.append(
                    self._violation(prop.name, message, schedule)
                )
                if self.stop_on_first:
                    return True
        return False

    def _violation(
        self, name: str, message: str, schedule: Tuple[Choice, ...]
    ) -> Violation:
        try:
            counterexample = self.model.counterexample(schedule)
        except ConfigurationError:
            counterexample = None
        return Violation(
            property=name, message=message, schedule=schedule,
            counterexample=counterexample,
        )

    # -- exhaustive BFS/DFS with dedup + sleep sets ------------------------

    def _run_exhaustive(self, strategy: Strategy) -> ExploreResult:
        model = self.model
        stats = ExploreStats()
        violations: List[Violation] = []
        intern = Interner()
        backing = None
        if self.spill_dir is not None:
            from repro.explore.spill import SpillDict

            os.makedirs(self.spill_dir, exist_ok=True)
            backing = SpillDict(
                os.path.join(self.spill_dir, "visited.sqlite"),
                max_entries=self.spill_entries,
            )
        #: fingerprint → the sleep set this state was (last) expanded with.
        visited = VisitedStore(backing)
        empty: FrozenSet[Choice] = frozenset()
        frontier: deque = deque()
        frontier.append((model.initial(), (), empty))
        pop = frontier.pop if isinstance(strategy, DFS) else frontier.popleft
        complete = True
        stopped = False

        while frontier and not stopped:
            config, schedule, sleep = pop()
            fingerprint = intern(model.fingerprint(config))
            depth = len(schedule)
            if depth > stats.max_depth_seen:
                stats.max_depth_seen = depth

            first, wake = visited.visit(
                fingerprint, sleep if self.reduce else empty
            )
            if first:
                if len(visited) > strategy.max_states:
                    complete = False
                    break
                stopped = self._check_state(config, schedule, violations)
                if stopped:
                    break
                enabled = model.enabled(config)
                if not enabled:
                    stats.terminals += 1
                    stopped = self._check_terminal(config, schedule, violations)
                    continue
                if self.reduce:
                    to_explore = [c for c in enabled if c not in sleep]
                    stats.sleep_pruned += len(enabled) - len(to_explore)
                else:
                    to_explore = list(enabled)
            else:
                if not wake:
                    stats.deduped += 1
                    continue
                # Revisit with a smaller sleep set: the choices slept on
                # the first visit but awake now must be explored, or the
                # reduction would miss their futures (Godefroid's
                # state-caching fix — see VisitedStore.visit).
                to_explore = [c for c in model.enabled(config) if c in wake]

            if strategy.max_depth is not None and depth >= strategy.max_depth:
                if to_explore:
                    complete = False  # cut branches: the verdict is bounded
                continue

            executed: List[Choice] = []
            for choice in to_explore:
                child = model.step(config, choice)
                stats.transitions += 1
                if self.reduce:
                    child_sleep = child_sleep_set(
                        model, config, sleep, executed, choice
                    )
                else:
                    child_sleep = empty
                frontier.append((child, schedule + (choice,), child_sleep))
                executed.append(choice)

        stats.states = len(visited)
        if backing is not None:
            stats.spilled = backing.spilled
            backing.close()
        if stopped or violations:
            complete = False
        return ExploreResult(
            ok=not violations,
            complete=complete,
            violations=violations,
            stats=stats,
            strategy=strategy.name + ("+sleep" if self.reduce else ""),
        )


class GraphModel(ExplorationModel):
    """A generated graph: ``edges[node]`` maps a label to its successor.

    Edges may point anywhere, the node itself included, so the graph
    has cycles and converging paths; nodes without edges are terminal.
    """

    def __init__(self, edges, salt):
        self.edges = edges
        self.salt = salt

    def initial(self):
        return 0

    def enabled(self, config):
        return sorted(self.edges[config])

    def step(self, config, choice):
        return self.edges[config][choice]

    def independent(self, config, a, b):
        # CRC32, not hash(): string hashing is salted per process, and the
        # relation must be the same in every run and every shard worker.
        key = repr((self.salt, config) + tuple(sorted((a, b))))
        return a != b and zlib.crc32(key.encode("utf-8")) % 2 == 0


@st.composite
def graph_cases(draw):
    """A model plus two invariants and an eventuality, in any order."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = []
    for _ in range(n):
        degree = draw(st.integers(0, 3))  # a quarter of the nodes are terminal
        edges.append(
            draw(
                st.dictionaries(
                    st.sampled_from("abcd"), node,
                    min_size=degree, max_size=degree,
                )
            )
        )

    def failing_at(message):
        nodes = draw(st.frozensets(node, max_size=2))
        return lambda model, config: (
            f"{message} {config}" if config in nodes else None
        )

    properties = [
        Invariant("never-bad", failing_at("bad")),
        Invariant("never-odd", failing_at("odd")),
        Eventually("not-stuck", failing_at("stuck")),
    ]
    properties = draw(st.permutations(properties))
    return GraphModel(edges, draw(st.integers(0, 2**16))), properties


def signature(result, strategy=True):
    stats = dataclasses.asdict(result.stats)
    del stats["elapsed"]
    return (
        result.ok,
        result.complete,
        result.strategy if strategy else None,
        tuple(sorted(stats.items())),
        tuple(
            (v.property, v.message, v.schedule, v.counterexample)
            for v in result.violations
        ),
    )


class TestSerialEngineMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        case=graph_cases(),
        max_depth=st.integers(0, 4),
        max_states=st.integers(1, 6),
    )
    def test_identical_results(self, case, max_depth, max_states):
        model, properties = case
        budgets = ({}, {"max_depth": max_depth}, {"max_states": max_states})
        for make, budget, reduce, stop in itertools.product(
            (BFS, DFS), budgets, (True, False), (True, False)
        ):
            options = dict(reduce=reduce, stop_on_first=stop)
            new = Explorer(model, properties, make(**budget), **options).run()
            old = _ReferenceExplorer(
                model, properties, make(**budget), **options
            ).run()
            assert signature(new) == signature(old), (make, budget, options)


class TestShardedEngineOnGeneratedModels:
    @settings(max_examples=40, deadline=None)
    @given(case=graph_cases(), max_depth=st.one_of(st.none(), st.integers(0, 4)))
    def test_worker_counts_agree_and_match_serial_states(self, case, max_depth):
        model, properties = case
        strategy = BFS(max_depth=max_depth)
        for reduce, stop in itertools.product((True, False), (True, False)):
            one, two = (
                explore(
                    model, properties, strategy, reduce=reduce,
                    stop_on_first=stop, workers=workers,
                )
                for workers in (1, 2)
            )
            assert signature(one, strategy=False) == signature(
                two, strategy=False
            ), (reduce, stop)
        # Unreduced and without stopping, both engines visit exactly the
        # reachable set within the depth bound.
        serial, sharded = (
            explore(
                model, properties, strategy, reduce=False,
                stop_on_first=False, workers=workers,
            )
            for workers in (None, 2)
        )
        assert (sharded.ok, sharded.complete) == (serial.ok, serial.complete)
        assert sharded.stats.states == serial.stats.states
        assert sharded.stats.transitions == serial.stats.transitions
        assert sorted(v.schedule for v in sharded.violations) == sorted(
            v.schedule for v in serial.violations
        )
