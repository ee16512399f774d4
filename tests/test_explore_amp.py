"""AMP exploration: delivery orders, crashes, losses, duplications,
recovery, and byte-identical replay."""

import re

import pytest

from repro.core import ConfigurationError
from repro.explore import (
    AmpModel,
    agreement,
    explore,
    make_flood_min,
    make_quorum_commit,
    quorum_commit_agreement,
    termination,
    validity,
)
from repro.trace.events import DECIDE, DELIVER, SEND


class TestFloodMinCorrect:
    def test_full_quorum_verified_exhaustively(self):
        values = [3, 1, 2]
        result = explore(
            AmpModel(make_flood_min(values)),
            properties=[agreement(), validity(values), termination(3)],
        )
        assert result.ok
        assert result.complete
        assert result.stats.terminals >= 1

    def test_every_terminal_decides_the_min(self):
        model = AmpModel(make_flood_min([5, 2, 9]))
        graph_checked = []

        def all_decide_two(m, config):
            decided = m.decisions(config)
            graph_checked.append(decided)
            if decided and set(decided.values()) != {2}:
                return f"decided {decided!r}, expected the min 2"
            return None

        from repro.explore import Eventually

        result = explore(model, properties=[Eventually("min", all_decide_two)])
        assert result.ok and result.complete
        assert graph_checked  # terminals were actually inspected

    def test_n2_state_space_is_tiny(self):
        result = explore(AmpModel(make_flood_min([1, 0])))
        assert result.complete
        # 2 messages in flight, each deliverable in either order; dedup
        # collapses the two orders into one final state.
        assert result.stats.states <= 8


class TestFloodMinPlantedBug:
    def test_premature_quorum_violates_agreement(self):
        result = explore(
            AmpModel(make_flood_min([3, 1, 2], quorum=2)),
            properties=[agreement()],
        )
        assert not result.ok
        violation = result.violations[0]
        assert violation.property == "agreement"
        assert violation.counterexample is not None

    def test_counterexample_replays_byte_identically(self):
        result = explore(
            AmpModel(make_flood_min([3, 1, 2], quorum=2)),
            properties=[agreement()],
        )
        cx = result.violations[0].counterexample
        assert cx.kernel == "amp"
        replayed_hash, replayed_events = cx.replay()
        assert replayed_hash == cx.trace_hash
        assert [e.kind for e in replayed_events] == [e.kind for e in cx.events]
        assert cx.replays_identically()

    def test_counterexample_trace_is_structurally_sound(self):
        result = explore(
            AmpModel(make_flood_min([3, 1, 2], quorum=2)),
            properties=[agreement()],
        )
        cx = result.violations[0].counterexample
        kinds = [e.kind for e in cx.events]
        assert kinds.count(SEND) == 6  # 3 processes broadcast to 2 peers
        assert kinds.count(DELIVER) == len(cx.schedule)
        assert kinds.count(DECIDE) >= 2


class TestCrashExploration:
    def test_crash_choices_respect_budget(self):
        model = AmpModel(make_flood_min([1, 0]), max_crashes=1)
        initial = model.initial()
        crashes = [c for c in model.enabled(initial) if c[0] == "crash"]
        assert len(crashes) == 2
        after = model.step(initial, ("crash", 0))
        assert not any(c[0] == "crash" for c in model.enabled(after))
        assert model.crashed(after) == frozenset({0})

    def test_termination_exempts_crashed(self):
        values = [1, 0]
        result = explore(
            AmpModel(make_flood_min(values), max_crashes=1),
            properties=[agreement(), termination(2)],
        )
        # A crashed process never decides, but termination() exempts it
        # via model.crashed(); quorum=n runs where someone crashed before
        # flooding finished leave the survivor undecided forever, which
        # is flood-min's real (lack of) fault tolerance — so restrict to
        # the crash-free obligation here:
        crash_free = explore(
            AmpModel(make_flood_min(values), max_crashes=0),
            properties=[agreement(), termination(2)],
        )
        assert crash_free.ok and crash_free.complete
        # With crashes enabled, agreement still holds on every branch.
        only_agreement = explore(
            AmpModel(make_flood_min(values), max_crashes=1),
            properties=[agreement()],
        )
        assert only_agreement.ok and only_agreement.complete
        assert result is not None  # the combined run completed without error

    def test_negative_crash_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            AmpModel(make_flood_min([1, 0]), max_crashes=-1)


class TestModelMechanics:
    def test_fingerprints_dedup_commuting_deliveries(self):
        model = AmpModel(make_flood_min([1, 0]))
        initial = model.initial()
        deliveries = [c for c in model.enabled(initial) if c[0] == "deliver"]
        assert len(deliveries) == 2
        a, b = deliveries
        ab = model.step(model.step(initial, a), b)
        ba = model.step(model.step(initial, b), a)
        assert ab != ba  # different prefixes...
        assert model.fingerprint(ab) == model.fingerprint(ba)  # ...same state

    def test_independence_distinguishes_targets(self):
        model = AmpModel(make_flood_min([1, 0, 2]), max_crashes=2)
        initial = model.initial()
        choices = model.enabled(initial)
        to_p1 = next(c for c in choices if c[0] == "deliver" and c[2] == 1)
        to_p2 = next(c for c in choices if c[0] == "deliver" and c[2] == 2)
        assert model.independent(initial, to_p1, to_p2)
        assert not model.independent(initial, ("crash", 0), ("crash", 1))

    def test_sleep_sets_preserve_amp_states(self):
        make = lambda: AmpModel(make_flood_min([3, 1, 2]))
        reduced = explore(make())
        naive = explore(make(), reduce=False)
        assert reduced.stats.states == naive.stats.states
        assert reduced.stats.transitions <= naive.stats.transitions

    def test_invalid_choice_rejected(self):
        model = AmpModel(make_flood_min([1, 0]))
        # step() is lazy (a prefix append); materialization validates.
        bad = model.step(model.initial(), ("warp", 3))
        with pytest.raises(ConfigurationError):
            model.enabled(bad)
        runtime_misuse = model._run(())
        with pytest.raises(ConfigurationError):
            runtime_misuse.run()

    @pytest.mark.parametrize(
        "prefix",
        [
            (("warp",),),
            (("deliver",),),
            (("deliver", 99, 1),),
            (("timer", 0, 1),),
            (("lose", 99, 0),),
            (("dup", 99, 0),),
            (("crash", 7),),
            (("recover", 0),),
            (("crash", 0), ("crash", 0)),
            (("crash", 1), ("deliver", 0, 1)),
        ],
    )
    def test_unchecked_choice_raises_as_replay_does(self, prefix):
        """A choice the fold cannot check goes to ``_run``, so every query
        raises the error the replay raises, each time it is asked."""
        model = AmpModel(make_flood_min([1, 0]), max_crashes=2)
        with pytest.raises(Exception) as replayed:
            model._run(prefix)
        error = type(replayed.value), re.escape(str(replayed.value))
        for query in (model.fingerprint, model.enabled, model.fingerprint):
            with pytest.raises(error[0], match=error[1]):
                query(prefix)

    def test_describe_choice(self):
        model = AmpModel(make_flood_min([1, 0]))
        assert model.describe_choice(("deliver", 0, 1)) == "deliver #0→p1"
        assert model.describe_choice(("timer", 2, 0)) == "timer #2@p0"
        assert model.describe_choice(("crash", 1)) == "crash p1"
        assert model.describe_choice(("lose", 0, 1)) == "lose #0→p1"
        assert model.describe_choice(("dup", 0, 1)) == "dup #0→p1"
        assert model.describe_choice(("recover", 1)) == "recover p1"


class TestLinkFaultExploration:
    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            AmpModel(make_flood_min([1, 0]), max_losses=-1)
        with pytest.raises(ConfigurationError):
            AmpModel(make_flood_min([1, 0]), max_duplications=-1)

    def test_lose_choice_discards_the_message(self):
        model = AmpModel(make_flood_min([1, 0]), max_losses=1)
        initial = model.initial()
        losses = [c for c in model.enabled(initial) if c[0] == "lose"]
        assert len(losses) == 2  # one per pending message
        after = model.step(initial, losses[0])
        # The budget is spent and the message is gone: no second lose,
        # one fewer deliver.
        enabled = model.enabled(after)
        assert not any(c[0] == "lose" for c in enabled)
        assert sum(1 for c in enabled if c[0] == "deliver") == 1

    def test_dup_choice_clones_the_message(self):
        model = AmpModel(make_flood_min([1, 0]), max_duplications=1)
        initial = model.initial()
        dups = [c for c in model.enabled(initial) if c[0] == "dup"]
        assert len(dups) == 2
        after = model.step(initial, dups[0])
        enabled = model.enabled(after)
        assert not any(c[0] == "dup" for c in enabled)
        # The clone is independently deliverable (new seq, same dst).
        assert sum(1 for c in enabled if c[0] == "deliver") == 3

    def test_first_choice_loss_replays_identically(self):
        """The explorer's loss comes a tick after its send, with nothing
        recorded in between; replay must write the drop at that tick,
        not take it for the event loop's inline loss at the send's."""
        model = AmpModel(make_flood_min([1, 0]), max_losses=1)
        assert model.counterexample((("lose", 1, 0),)).replays_identically()

    def test_no_fault_budgets_means_no_fault_choices(self):
        model = AmpModel(make_flood_min([1, 0]))
        choices = model.enabled(model.initial())
        assert not any(c[0] in ("lose", "dup") for c in choices)

    def test_flood_min_agreement_robust_to_duplication(self):
        """Deciding on a *set* of values is idempotent: duplicated
        deliveries cannot break agreement, and exploration proves it."""
        result = explore(
            AmpModel(make_flood_min([1, 0]), max_duplications=1),
            properties=[agreement()],
        )
        assert result.ok and result.complete

    def test_flood_min_loss_starves_termination(self):
        """Losing one flood message leaves some process short of its
        full quorum forever — the explorer finds the starving branch."""
        result = explore(
            AmpModel(make_flood_min([1, 0]), max_losses=1),
            properties=[termination(2)],
        )
        assert not result.ok
        violation = result.violations[0]
        assert violation.property == "termination"
        assert any(c[0] == "lose" for c in violation.counterexample.schedule)


class TestRecoveryExploration:
    def test_allow_recovery_needs_crash_budget(self):
        with pytest.raises(ConfigurationError):
            AmpModel(make_flood_min([1, 0]), allow_recovery=True)

    def test_recover_choice_requires_a_crash(self):
        model = AmpModel(
            make_flood_min([1, 0]), max_crashes=1, allow_recovery=True
        )
        initial = model.initial()
        assert not any(c[0] == "recover" for c in model.enabled(initial))
        crashed = model.step(initial, ("crash", 0))
        assert ("recover", 0) in model.enabled(crashed)
        with pytest.raises(ConfigurationError):
            model.enabled(model.step(initial, ("recover", 0)))

    def test_recover_once_per_pid_keeps_space_finite(self):
        model = AmpModel(
            make_flood_min([1, 0]), max_crashes=1, allow_recovery=True
        )
        initial = model.initial()
        state = model.step(initial, ("crash", 0))
        state = model.step(state, ("recover", 0))
        # The pid may crash again, but not come back a second time.
        state = model.step(state, ("crash", 0))
        assert not any(c[0] == "recover" for c in model.enabled(state))

    def test_only_recovering_pids_are_snapshotted(self):
        # A recovery snapshot deep-copies a process: take one only for
        # the pids the materialized schedule brings back.
        model = AmpModel(
            make_quorum_commit(durable=False), max_crashes=1, allow_recovery=True
        )
        assert model._run((("crash", 1),))._initial_state == {}
        recovered = model._run((("crash", 0), ("recover", 0)))
        assert set(recovered._initial_state) == {0}

    def test_volatile_quorum_state_violates_agreement_under_recovery(self):
        """The acceptance demo: a memory-only one-vote acceptor grants
        twice across a crash-recovery cycle; the explorer exhibits a
        schedule committing two different values, and the counterexample
        replays byte-identically."""
        result = explore(
            AmpModel(
                make_quorum_commit(durable=False),
                max_crashes=1,
                allow_recovery=True,
            ),
            properties=[quorum_commit_agreement()],
        )
        assert not result.ok
        violation = result.violations[0]
        assert violation.property == "quorum-commit-agreement"
        assert "two different values committed" in violation.message
        schedule = violation.counterexample.schedule
        assert any(c[0] == "crash" for c in schedule)
        assert any(c[0] == "recover" for c in schedule)
        assert violation.counterexample.replays_identically()

    def test_stable_storage_variant_is_verified_clean(self):
        result = explore(
            AmpModel(
                make_quorum_commit(durable=True),
                max_crashes=1,
                allow_recovery=True,
            ),
            properties=[quorum_commit_agreement()],
        )
        assert result.ok and result.complete
