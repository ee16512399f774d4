"""Sharded engine: serial parity, worker-count determinism, spill, fallback.

The contracts under test (the bench gates depend on them):

* **serial parity** — for exhaustive searches, the sharded engine
  reaches the same verdict over the same number of states as the serial
  engine, whatever the worker count;
* **worker-count determinism** — ``workers ∈ {1, 2, 4}`` agree on
  verdict, state count, every additive stat, and (for failing
  properties) on a counterexample that replays to the same trace hash
  as the serial engine's;
* **fallback equivalence** — a machine without usable fork workers gets
  identical results from the in-process emulation, and the degradation
  is recorded (``pool_fallback``) and warned, never silent.
"""

import warnings

import pytest

from repro.core import ConfigurationError
from repro.explore import (
    BFS,
    DFS,
    AdoptCommitMachine,
    AmpModel,
    BrokenAdoptCommitMachine,
    Eventually,
    ExplorationModel,
    ExploreStats,
    Invariant,
    RandomWalk,
    ShardedExploreResult,
    ShardedExplorer,
    ShmMachineModel,
    SpillDict,
    adopt_commit_coherence,
    agreement,
    explore,
    make_flood_min,
    make_scd_nodes,
    schedule_key,
    shard_of,
)

WORKER_COUNTS = (1, 2, 4)


class GridModel(ExplorationModel):
    """Walk (0,0) → (w,h); the axes commute — the dedup/POR showcase."""

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


def adopt_commit(n, machine=AdoptCommitMachine):
    return ShmMachineModel(machine(n), inputs=list(range(n)))


def result_signature(result):
    """Everything that must be identical across worker counts."""
    stats = result.stats
    return (
        result.ok,
        result.complete,
        stats.states,
        stats.transitions,
        stats.deduped,
        stats.sleep_pruned,
        stats.terminals,
        stats.max_depth_seen,
        tuple((v.property, v.message, v.schedule) for v in result.violations),
    )


class TestSerialParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_grid_verdict_and_state_count(self, workers):
        serial = explore(GridModel(4, 4))
        sharded = explore(GridModel(4, 4), workers=workers)
        assert isinstance(sharded, ShardedExploreResult)
        assert (sharded.ok, sharded.complete) == (serial.ok, serial.complete)
        assert sharded.stats.states == serial.stats.states == 25

    @pytest.mark.parametrize("n", [2, 3])
    def test_adopt_commit_parity(self, n):
        serial = explore(adopt_commit(n), properties=[adopt_commit_coherence()])
        sharded = explore(
            adopt_commit(n), properties=[adopt_commit_coherence()], workers=2
        )
        assert serial.ok and serial.complete
        assert (sharded.ok, sharded.complete) == (True, True)
        assert sharded.stats.states == serial.stats.states

    def test_amp_parity_including_transitions(self):
        # Flood-min's reachable graph is revisit-free at equal depth, so
        # even the transition count matches the serial engine exactly.
        model = lambda: AmpModel(make_flood_min([3, 1, 2], quorum=3))
        serial = explore(model(), properties=[agreement()])
        sharded = explore(model(), properties=[agreement()], workers=4)
        assert serial.ok and sharded.ok
        assert sharded.stats.states == serial.stats.states
        assert sharded.stats.transitions == serial.stats.transitions

    def test_unreduced_parity(self):
        serial = explore(GridModel(3, 3), reduce=False)
        sharded = explore(GridModel(3, 3), reduce=False, workers=2)
        assert sharded.stats.states == serial.stats.states
        assert sharded.stats.transitions == serial.stats.transitions

    def test_scd_choice_label_aliasing(self):
        # SCD is the documented case where POR state counts are
        # traversal-order-dependent: AMP deliveries are labelled with
        # send seqs that differ across converging prefixes while
        # fingerprints ignore them, so per-fingerprint sleep sets alias
        # choices (docs/EXPLORER.md, "The stability caveat").  The
        # parity contract there is stated at reduce=False, where both
        # engines visit the exact reachable set — and POR's
        # under-exploration is pinned so a fix to choice labelling
        # shows up here as a deliberate test update, not silent drift.
        model = lambda: AmpModel(make_scd_nodes([["a"], ["b"], []]))
        truth = explore(model(), reduce=False)
        sharded = explore(model(), reduce=False, workers=2)
        assert truth.complete and sharded.complete
        assert sharded.stats.states == truth.stats.states == 4037
        assert sharded.stats.transitions == truth.stats.transitions == 10690
        reduced = explore(model(), reduce=True)
        assert reduced.stats.states == 3295  # < 4037: aliasing prunes states


class TestWorkerCountDeterminism:
    def test_passing_search_identical_across_worker_counts(self):
        signatures = {
            result_signature(
                explore(
                    adopt_commit(2),
                    properties=[adopt_commit_coherence()],
                    workers=workers,
                )
            )
            for workers in WORKER_COUNTS
        }
        assert len(signatures) == 1

    def test_shm_counterexample_hash_matches_serial(self):
        broken = lambda: adopt_commit(2, machine=BrokenAdoptCommitMachine)
        serial = explore(broken(), properties=[adopt_commit_coherence()])
        serial_hash = serial.violations[0].counterexample.trace_hash
        for workers in WORKER_COUNTS:
            result = explore(
                broken(), properties=[adopt_commit_coherence()], workers=workers
            )
            assert not result.ok
            (violation,) = result.violations
            assert violation.counterexample is not None
            assert violation.counterexample.trace_hash == serial_hash
            assert violation.counterexample.replays_identically()

    def test_amp_counterexample_hash_matches_serial(self):
        # quorum=1 lets each process decide its own value: agreement breaks.
        broken = lambda: AmpModel(make_flood_min([3, 1], quorum=1))
        serial = explore(broken(), properties=[agreement()])
        serial_hash = serial.violations[0].counterexample.trace_hash
        for workers in WORKER_COUNTS:
            result = explore(broken(), properties=[agreement()], workers=workers)
            assert not result.ok
            assert result.violations[0].counterexample.trace_hash == serial_hash
            assert result.violations[0].counterexample.replays_identically()

    def test_terminal_violations_identical(self):
        never = Eventually(
            "never-satisfied", lambda model, config: "terminal reached"
        )
        signatures = {
            result_signature(
                explore(
                    GridModel(2, 2),
                    properties=[never],
                    workers=workers,
                    stop_on_first=False,
                )
            )
            for workers in WORKER_COUNTS
        }
        assert len(signatures) == 1


class TestSharedStopRule:
    def test_violating_state_is_not_expanded_in_either_engine(self):
        # quorum=1: every process decides its own value at start-up, so
        # the initial state already breaks agreement.  Under
        # stop_on_first neither engine expands it: the sharded engine
        # used to go on and count it as a terminal.
        broken = lambda: AmpModel(make_flood_min([3, 1], quorum=1))
        results = [
            explore(broken(), properties=[agreement()], workers=workers)
            for workers in (None, 1, 2)
        ]
        signatures = {
            (result_signature(result), result.stats.spilled)
            for result in results
        }
        assert len(signatures) == 1
        serial = results[0]
        assert not serial.ok
        assert (serial.stats.states, serial.stats.terminals) == (1, 0)
        assert serial.violations[0].schedule == ()


class TestValidation:
    def test_dfs_rejected(self):
        with pytest.raises(ConfigurationError):
            explore(GridModel(2, 2), strategy=DFS(), workers=2)

    def test_random_walk_rejected(self):
        with pytest.raises(ConfigurationError):
            explore(GridModel(2, 2), strategy=RandomWalk(walks=3), workers=2)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedExplorer(GridModel(2, 2), workers=0)


class TestBudgets:
    def test_max_states_marks_incomplete(self):
        result = explore(GridModel(6, 6), strategy=BFS(max_states=10), workers=2)
        assert not result.complete
        assert result.ok  # no property violated, just bounded

    def test_max_depth_marks_incomplete(self):
        result = explore(GridModel(4, 4), strategy=BFS(max_depth=3), workers=2)
        assert not result.complete

    def test_deep_enough_budget_stays_complete(self):
        result = explore(GridModel(3, 3), strategy=BFS(max_depth=6), workers=2)
        assert result.complete


class TestFallback:
    def test_forced_fallback_matches_pool_results(self, monkeypatch):
        import repro.explore.sharded as sharded_module

        pooled = explore(
            adopt_commit(2), properties=[adopt_commit_coherence()], workers=2
        )
        assert pooled.pool_fallback is None
        assert pooled.workers_used == 2

        monkeypatch.setattr(
            sharded_module,
            "fork_context",
            lambda: (None, "fork start method unavailable: forced by test"),
        )
        with pytest.warns(RuntimeWarning, match="in-process"):
            fallen = explore(
                adopt_commit(2), properties=[adopt_commit_coherence()], workers=2
            )
        assert fallen.pool_fallback is not None
        assert fallen.workers_used == 1
        assert fallen.workers == 2
        assert result_signature(fallen) == result_signature(pooled)

    def test_fallback_surfaces_in_report(self, monkeypatch):
        import repro.explore.sharded as sharded_module

        monkeypatch.setattr(
            sharded_module, "fork_context", lambda: (None, "no fork: test")
        )
        with pytest.warns(RuntimeWarning):
            result = explore(GridModel(2, 2), workers=2)
        assert "in-process fallback" in result.report()

    def test_workers_1_is_local_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = explore(GridModel(3, 3), workers=1)
        assert result.pool_fallback is None
        assert result.workers_used == 1
        assert "sharded" in result.report()


class TestSpill:
    def test_sharded_spill_matches_unspilled(self, tmp_path):
        model = lambda: AmpModel(make_flood_min([3, 1, 2], quorum=3))
        plain = explore(model(), workers=2)
        spilled = explore(
            model(), workers=2, spill_dir=str(tmp_path), spill_entries=20
        )
        assert spilled.stats.spilled > 0
        assert spilled.stats.states == plain.stats.states
        assert spilled.stats.transitions == plain.stats.transitions
        assert (tmp_path / "shard-000.sqlite").exists()

    def test_serial_spill_matches_unspilled(self, tmp_path):
        plain = explore(GridModel(8, 8))
        spilled = explore(
            GridModel(8, 8), spill_dir=str(tmp_path), spill_entries=10
        )
        assert spilled.stats.spilled > 0
        assert spilled.stats.states == plain.stats.states == 81
        assert spilled.stats.transitions == plain.stats.transitions


class TestSpillDict:
    def test_roundtrip_within_hot_cache(self, tmp_path):
        store = SpillDict(tmp_path / "kv.sqlite", max_entries=100)
        store["a"] = frozenset({1})
        assert store.get("a") == frozenset({1})
        assert "a" in store and "b" not in store
        assert len(store) == 1
        assert store.spilled == 0
        store.close()

    def test_eviction_and_promotion(self, tmp_path):
        store = SpillDict(tmp_path / "kv.sqlite", max_entries=8)
        for i in range(40):
            store[("key", i)] = frozenset({i})
        assert store.spilled > 0
        assert len(store) == 40
        # Cold keys come back from disk, bit-exact, and promote to hot.
        for i in range(40):
            assert store.get(("key", i)) == frozenset({i})
        assert len(store) == 40
        store.close()

    def test_overwrite_cold_entry_keeps_len_exact(self, tmp_path):
        store = SpillDict(tmp_path / "kv.sqlite", max_entries=4)
        for i in range(16):
            store[i] = frozenset({i})
        store[0] = frozenset({"updated"})  # 0 is cold by now
        assert store.get(0) == frozenset({"updated"})
        assert len(store) == 16
        store.close()

    def test_stale_file_is_discarded_on_reopen(self, tmp_path):
        path = tmp_path / "kv.sqlite"
        first = SpillDict(path, max_entries=1)
        first["a"] = frozenset({1})
        first["b"] = frozenset({2})  # forces "a" to disk
        first.close()
        second = SpillDict(path, max_entries=1)
        # A SpillDict is scratch storage: reopening must not resurrect
        # a previous (possibly aborted) run's visited entries.
        assert second.get("a") is None
        assert len(second) == 0
        second.close()

    def test_iteration_is_rejected(self, tmp_path):
        store = SpillDict(tmp_path / "kv.sqlite")
        with pytest.raises(TypeError):
            list(store)
        store.close()

    def test_bad_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SpillDict(tmp_path / "kv.sqlite", max_entries=0)


class TestHelpers:
    def test_shard_of_is_stable_and_in_range(self):
        fingerprints = [("cfg", i, (i, i + 1)) for i in range(200)]
        owners = [shard_of(fp, 4) for fp in fingerprints]
        assert owners == [shard_of(fp, 4) for fp in fingerprints]
        assert set(owners) == {0, 1, 2, 3}  # 200 keys spread over 4 shards
        assert all(shard_of(fp, 1) == 0 for fp in fingerprints)

    def test_schedule_key_orders_short_then_lexicographic(self):
        assert schedule_key(("b",)) < schedule_key(("a", "a"))
        assert schedule_key(("a", "a")) < schedule_key(("a", "b"))

    def test_explore_stats_merge(self):
        merged = ExploreStats.merge(
            [
                ExploreStats(states=3, transitions=5, elapsed=1.0, max_depth_seen=2),
                ExploreStats(states=4, transitions=1, elapsed=0.5, max_depth_seen=7),
            ]
        )
        assert merged.states == 7
        assert merged.transitions == 6
        assert merged.elapsed == 1.0  # concurrent shards: max, not sum
        assert merged.max_depth_seen == 7
