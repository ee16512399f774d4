"""Tests for the synchronous round kernel (paper §3.1)."""

import pytest

from repro.core import ConfigurationError, ModelViolation, SimulationLimitExceeded
from repro.sync import (
    Context,
    CrashEvent,
    SyncAlgorithm,
    SynchronousRunner,
    complete,
    path,
    ring,
    run_synchronous,
)


class EchoOnce(SyncAlgorithm):
    """Round 1: broadcast input; round 2: decide set of received values."""

    def __init__(self):
        self.received = {}

    def on_start(self, ctx):
        return ctx.broadcast(ctx.input)

    def on_round(self, ctx, received):
        self.received = dict(received)
        ctx.decide(frozenset(received.values()))
        ctx.halt()
        return {}


class Silent(SyncAlgorithm):
    def on_start(self, ctx):
        ctx.decide(ctx.input)
        ctx.halt()
        return {}


class SendToStranger(SyncAlgorithm):
    def on_start(self, ctx):
        return {(ctx.pid + 2) % ctx.n: "hi"}  # non-neighbor on a ring


class Forever(SyncAlgorithm):
    def on_round(self, ctx, received):
        return {}


class TestRoundSemantics:
    def test_messages_delivered_same_round(self):
        """The fundamental synchrony property (§3.1)."""
        topo = complete(3)
        algs = [EchoOnce() for _ in range(3)]
        result = run_synchronous(topo, algs, ["a", "b", "c"])
        assert result.outputs[0] == frozenset({"b", "c"})
        assert result.outputs[1] == frozenset({"a", "c"})
        assert result.rounds == 1  # sent and received within the same round

    def test_neighbors_only_receive(self):
        topo = path(3)
        algs = [EchoOnce() for _ in range(3)]
        result = run_synchronous(topo, algs, ["a", "b", "c"])
        assert result.outputs[0] == frozenset({"b"})
        assert result.outputs[1] == frozenset({"a", "c"})

    def test_halt_without_messages(self):
        result = run_synchronous(ring(3), [Silent()] * 3, [1, 2, 3])
        assert result.outputs == [1, 2, 3]
        assert result.all_decided()

    def test_send_to_non_neighbor_is_model_violation(self):
        with pytest.raises(ModelViolation):
            run_synchronous(ring(5), [SendToStranger() for _ in range(5)], [0] * 5)

    def test_round_budget_enforced(self):
        with pytest.raises(SimulationLimitExceeded):
            run_synchronous(
                ring(3), [Forever() for _ in range(3)], [0] * 3, max_rounds=10
            )

    def test_double_decide_rejected(self):
        class DecideTwice(SyncAlgorithm):
            def on_start(self, ctx):
                ctx.decide(1)
                ctx.decide(2)
                return {}

        with pytest.raises(ModelViolation):
            run_synchronous(ring(3), [DecideTwice() for _ in range(3)], [0] * 3)

    def test_message_count_tracked(self):
        result = run_synchronous(complete(4), [EchoOnce() for _ in range(4)], [0] * 4)
        assert result.message_count == 12  # 4 processes × 3 neighbors, round 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SynchronousRunner(ring(3), [Silent()] * 2, [0] * 3)
        with pytest.raises(ConfigurationError):
            SynchronousRunner(ring(3), [Silent()] * 3, [0] * 2)


class CollectAll(SyncAlgorithm):
    """Gossip for a fixed number of rounds, then decide known set."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.known = set()

    def on_start(self, ctx):
        self.known = {ctx.input}
        return ctx.broadcast(frozenset(self.known))

    def on_round(self, ctx, received):
        for values in received.values():
            self.known |= values
        if ctx.round >= self.rounds:
            ctx.decide(frozenset(self.known))
            ctx.halt()
            return {}
        return ctx.broadcast(frozenset(self.known))


class TestCrashes:
    def test_crash_stops_participation(self):
        topo = complete(4)
        algs = [CollectAll(3) for _ in range(4)]
        result = run_synchronous(
            topo,
            algs,
            ["a", "b", "c", "d"],
            crash_schedule=[CrashEvent(pid=0, round=2)],
        )
        assert 0 in result.crashed
        assert not result.decided[0]
        # Round-1 messages of p0 were delivered before the crash.
        assert "a" in result.outputs[1]

    def test_crash_mid_send_partial_delivery(self):
        """The classic mid-broadcast crash: only a prefix of recipients hear."""
        topo = complete(4)
        algs = [CollectAll(1) for _ in range(4)]
        result = run_synchronous(
            topo,
            algs,
            ["a", "b", "c", "d"],
            crash_schedule=[
                CrashEvent(pid=0, round=1, delivered_to=frozenset({1}))
            ],
        )
        assert "a" in result.outputs[1]
        assert "a" not in result.outputs[2]
        assert "a" not in result.outputs[3]

    def test_crash_round_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            SynchronousRunner(
                ring(3),
                [Silent()] * 3,
                [0] * 3,
                crash_schedule=[CrashEvent(pid=0, round=0)],
            )

    @pytest.mark.parametrize("pid", [-1, 3])
    def test_crash_pid_out_of_range_rejected(self, pid):
        with pytest.raises(ConfigurationError, match="out of range"):
            SynchronousRunner(
                ring(3),
                [Silent()] * 3,
                [0] * 3,
                crash_schedule=[CrashEvent(pid=pid, round=1)],
            )

    def test_double_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            SynchronousRunner(
                ring(3),
                [Silent()] * 3,
                [0] * 3,
                crash_schedule=[CrashEvent(0, 1), CrashEvent(0, 2)],
            )

    def test_crashed_process_receives_nothing_after(self):
        topo = complete(3)
        algs = [CollectAll(4) for _ in range(3)]
        result = run_synchronous(
            topo,
            algs,
            ["a", "b", "c"],
            crash_schedule=[CrashEvent(pid=2, round=1, delivered_to=frozenset())],
        )
        # p2 crashed during round 1 before sending anything.
        assert "c" not in result.outputs[0]
        assert "c" not in result.outputs[1]


class TestRecordGraphs:
    def test_graphs_recorded_when_enabled(self):
        topo = ring(4)
        algs = [CollectAll(2) for _ in range(4)]
        runner = SynchronousRunner(topo, algs, [0, 1, 2, 3], record_graphs=True)
        result = runner.run()
        assert len(result.communication_graphs) == result.rounds
        # Full delivery on a ring: 8 directed edges per round.
        assert all(len(g) == 8 for g in result.communication_graphs)
