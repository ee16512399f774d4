"""Engine mechanics on toy abstract models: dedup, sleep sets, budgets."""

import pytest

from repro.core import ConfigurationError
from repro.explore import (
    BFS,
    DFS,
    Eventually,
    ExplorationModel,
    Explorer,
    Interner,
    Invariant,
    RandomWalk,
    explore,
    state_graph,
)


class GridModel(ExplorationModel):
    """Walk from (0, 0) to (w, h); the two axes fully commute.

    The schedule *tree* has C(w+h, w) leaves but only (w+1)(h+1)
    distinct states — the classic dedup/POR showcase.
    """

    def __init__(self, w, h):
        self.w, self.h = w, h

    def initial(self):
        return (0, 0)

    def enabled(self, config):
        x, y = config
        choices = []
        if x < self.w:
            choices.append("x")
        if y < self.h:
            choices.append("y")
        return choices

    def step(self, config, choice):
        x, y = config
        return (x + 1, y) if choice == "x" else (x, y + 1)

    def independent(self, config, a, b):
        return a != b

    def decisions(self, config):
        return {}


class ChainModel(ExplorationModel):
    """A single path 0 → 1 → … → length (no branching)."""

    def __init__(self, length):
        self.length = length

    def initial(self):
        return 0

    def enabled(self, config):
        return ["tick"] if config < self.length else []

    def step(self, config, choice):
        return config + 1

    def decisions(self, config):
        return {0: config} if config >= self.length else {}


class TestInterner:
    def test_equal_values_share_identity(self):
        intern = Interner()
        a = intern((1, (2, 3)))
        b = intern((1, (2, 3)))
        assert a is b
        assert len(intern) == 1


class TestDedupAndSleepSets:
    def test_grid_state_count_is_exact(self):
        result = explore(GridModel(3, 3), reduce=False)
        assert result.complete
        assert result.stats.states == 16  # (3+1) * (3+1)
        assert result.stats.deduped > 0  # the tree collapsed onto the grid

    def test_sleep_sets_preserve_states_and_cut_transitions(self):
        reduced = explore(GridModel(3, 3), strategy=BFS())
        naive = explore(GridModel(3, 3), reduce=False)
        assert reduced.stats.states == naive.stats.states
        assert reduced.stats.transitions < naive.stats.transitions
        assert reduced.stats.sleep_pruned > 0
        assert reduced.strategy == "bfs+sleep"

    def test_dfs_agrees_with_bfs(self):
        bfs = explore(GridModel(2, 4), strategy=BFS())
        dfs = explore(GridModel(2, 4), strategy=DFS())
        assert bfs.stats.states == dfs.stats.states == 15

    def test_terminal_count(self):
        result = explore(GridModel(2, 2))
        assert result.stats.terminals == 1  # only (2, 2) is terminal


class TestBudgets:
    def test_max_states_marks_incomplete(self):
        result = explore(GridModel(5, 5), strategy=BFS(max_states=5))
        assert not result.complete
        assert result.stats.states <= 6

    def test_max_depth_marks_incomplete(self):
        result = explore(ChainModel(10), strategy=BFS(max_depth=3))
        assert not result.complete
        assert result.stats.max_depth_seen == 3

    def test_deep_enough_depth_stays_complete(self):
        result = explore(ChainModel(4), strategy=BFS(max_depth=10))
        assert result.complete

    def test_bad_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            BFS(max_states=0)
        with pytest.raises(ConfigurationError):
            DFS(max_depth=-1)


class TestProperties:
    def test_invariant_violation_carries_schedule(self):
        bad = Invariant(
            "never-3", lambda model, config: "hit 3" if config == 3 else None
        )
        result = explore(ChainModel(5), properties=[bad])
        assert not result.ok
        assert not result.complete  # stopped early
        violation = result.violations[0]
        assert violation.property == "never-3"
        assert violation.schedule == ("tick",) * 3
        # The abstract model has no replay machinery: no counterexample,
        # but the report still shows the schedule.
        assert violation.counterexample is None
        assert "never-3" in result.report()
        assert "tick" in violation.report()

    def test_eventually_checked_only_at_terminals(self):
        prop = Eventually(
            "ends-at-4", lambda model, config: None if config == 4 else "early"
        )
        assert explore(ChainModel(4), properties=[prop]).ok
        assert not explore(ChainModel(3), properties=[prop]).ok

    def test_stop_on_first_false_collects_all(self):
        bad = Invariant(
            "never-odd",
            lambda model, config: "odd" if config % 2 else None,
        )
        result = explore(ChainModel(4), properties=[bad], stop_on_first=False)
        assert len(result.violations) == 2  # states 1 and 3
        assert result.complete is False


class TestRandomWalk:
    def test_walks_find_planted_violation(self):
        bad = Invariant(
            "never-corner",
            lambda model, config: "corner" if config == (2, 2) else None,
        )
        result = explore(
            GridModel(2, 2), properties=[bad],
            strategy=RandomWalk(walks=50, max_depth=10, seed=7),
        )
        assert not result.ok
        assert not result.complete  # sampling never proves exhaustiveness

    def test_walks_are_seed_deterministic(self):
        runs = [
            explore(GridModel(3, 3), strategy=RandomWalk(walks=5, seed=42))
            for _ in range(2)
        ]
        assert runs[0].stats.states == runs[1].stats.states
        assert runs[0].stats.transitions == runs[1].stats.transitions

    def test_unbounded_depth_rejected(self):
        # A walk needs a length: max_depth=None used to surface as a bare
        # TypeError from range(None + 1) once explore() ran.
        with pytest.raises(ConfigurationError, match="max_depth"):
            RandomWalk(walks=3, max_depth=None)

    def test_spill_dir_rejected(self, tmp_path):
        # Walks keep no visited set to spill: the directory used to be
        # ignored without a word (no file, spilled == 0).
        with pytest.raises(ConfigurationError, match="spill_dir"):
            explore(
                GridModel(2, 2), strategy=RandomWalk(walks=3),
                spill_dir=str(tmp_path),
            )
        assert list(tmp_path.iterdir()) == []


class RaisingGridModel(GridModel):
    """A grid whose step out of (4, 4) fails: a model bug mid-search."""

    def step(self, config, choice):
        if config == (4, 4):
            raise RuntimeError("model bug")
        return super().step(config, choice)


class TestSpillLifecycle:
    @pytest.mark.parametrize("failing", ["property", "model"])
    def test_store_closed_when_the_search_raises(
        self, tmp_path, monkeypatch, failing
    ):
        from repro.explore import spill

        stores = []
        original_init = spill.SpillDict.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            stores.append(self)

        monkeypatch.setattr(spill.SpillDict, "__init__", recording_init)

        def buggy(model, config):
            if config == (4, 4):
                raise RuntimeError("property bug")
            return None

        if failing == "property":
            model, properties = GridModel(6, 6), [Invariant("buggy", buggy)]
        else:
            model, properties = RaisingGridModel(6, 6), []
        with pytest.raises(RuntimeError, match=f"{failing} bug"):
            explore(
                model, properties=properties,
                spill_dir=str(tmp_path), spill_entries=4,
            )
        (store,) = stores
        assert store.spilled > 0  # the SQLite file was opened and written
        assert store._db is None  # ... and its connection closed


class TestStateGraph:
    def test_full_graph_edges(self):
        graph = state_graph(GridModel(1, 1))
        assert len(graph) == 4
        assert sorted(choice for choice, _ in graph[(0, 0)]) == ["x", "y"]
        assert graph[(1, 1)] == []

    def test_graph_budget_enforced(self):
        from repro.core import SimulationLimitExceeded

        with pytest.raises(SimulationLimitExceeded):
            state_graph(GridModel(10, 10), max_states=5)


class TestExplorerObject:
    def test_stats_timing_and_rate(self):
        result = Explorer(GridModel(2, 2)).run()
        assert result.stats.elapsed >= 0.0
        assert result.stats.states_per_second() > 0

    def test_zero_duration_rate_is_clamped(self):
        # Regression: a sub-ms run can see elapsed == 0.0; the rate must
        # clamp to 0, not report float("inf") states/s.
        from repro.explore import ExploreStats

        stats = ExploreStats(states=100, elapsed=0.0)
        assert stats.states_per_second() == 0.0
        import math

        assert not math.isinf(stats.states_per_second())

    def test_report_includes_rate_only_when_measurable(self):
        result = Explorer(GridModel(2, 2)).run()
        assert "states/s" in result.report()
        result.stats.elapsed = 0.0
        assert "inf" not in result.report()
        assert "states/s" not in result.report()
