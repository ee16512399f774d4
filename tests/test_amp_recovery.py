"""Crash-recovery processes and stable storage (tentpole of this PR).

The crash-**recovery** model: a crashed process may come back
(:class:`RecoverAt`), resuming from its *constructed* state — everything
in memory is wiped, timers die with the old incarnation, and only what
the protocol explicitly wrote to ``ctx.stable`` survives.  The demos at
the bottom are the point: ABD, reliable broadcast, and state-machine
replication are all **correct under crash-stop and broken under
crash-recovery**, and each is repaired by one write-ahead rule into
stable storage.
"""

import pytest

from repro.core import ConfigurationError
from repro.amp import (
    AbdNode,
    AsyncProcess,
    AsyncRuntime,
    CrashAt,
    DurableAbdNode,
    DurableReliableBroadcast,
    FixedDelay,
    OmegaFD,
    RecoverAt,
    ReliableBroadcast,
    ScdNode,
    StableStorage,
    TargetedDelay,
    UniformDelay,
    run_processes,
)
from repro.amp.smr import (
    ReplicatedStateMachine,
    check_mutual_consistency,
    make_replicated_machine,
)
from repro.core.seqspec import register_spec
from repro.explore import AmpModel, make_scd_nodes
from repro.trace import DROP, MemorySink, recovered_pids, replay, trace_hash


class Counter(AsyncProcess):
    """Ticks five times, then decides the count.  ``durable`` checkpoints
    every tick to stable storage and reloads it on recovery."""

    def __init__(self, durable=False):
        self.durable = durable
        self.count = 0

    def on_start(self, ctx):
        ctx.set_timer(1.0, "tick")

    def on_timer(self, ctx, name):
        self.count += 1
        if self.durable:
            ctx.stable.put("count", self.count)
        if self.count < 5:
            ctx.set_timer(1.0, "tick")
        elif not ctx.decided:
            ctx.decide(self.count)

    def on_recover(self, ctx):
        if self.durable:
            self.count = ctx.stable.get("count", 0)
        ctx.set_timer(1.0, "tick")  # timers are volatile: re-arm ourselves


class TestScheduleValidation:
    def test_recover_without_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncRuntime([Counter()], crashes=[RecoverAt(0, 2.0)])

    def test_recover_before_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncRuntime(
                [Counter()],
                crashes=[CrashAt(0, 3.0), RecoverAt(0, 2.0)],
                max_crashes=1,
            )

    def test_double_recover_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncRuntime(
                [Counter()],
                crashes=[CrashAt(0, 1.0), RecoverAt(0, 2.0), RecoverAt(0, 3.0)],
                max_crashes=1,
            )

    def test_crash_recover_crash_alternation_accepted(self):
        AsyncRuntime(
            [Counter()],
            crashes=[
                CrashAt(0, 1.0),
                RecoverAt(0, 2.0),
                CrashAt(0, 3.0),
                RecoverAt(0, 4.0),
            ],
            max_crashes=1,
        )

    def test_budget_is_concurrent_crashes_not_total(self):
        """With recovery, ``max_crashes`` bounds how many processes are
        down *at once* — the sequential schedule below crashes both pids
        but never two concurrently."""
        schedule = [
            CrashAt(0, 1.0),
            RecoverAt(0, 2.0),
            CrashAt(1, 3.0),
            RecoverAt(1, 4.0),
        ]
        AsyncRuntime([Counter(), Counter()], crashes=schedule, max_crashes=1)
        overlapping = [CrashAt(0, 1.0), CrashAt(1, 1.5), RecoverAt(0, 2.0)]
        with pytest.raises(ConfigurationError):
            AsyncRuntime(
                [Counter(), Counter()], crashes=overlapping, max_crashes=1
            )

    def test_recover_pid_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncRuntime(
                [Counter()],
                crashes=[CrashAt(0, 1.0), RecoverAt(5, 2.0)],
                max_crashes=1,
            )


class TestRecoverySemantics:
    def run_counter(self, durable, sink=None):
        procs = [Counter(durable=durable)]
        runtime = AsyncRuntime(
            procs,
            crashes=[CrashAt(0, 2.2), RecoverAt(0, 2.8)],
            max_crashes=1,
            sink=sink,
        )
        return procs[0], runtime.run()

    def test_volatile_state_is_wiped(self):
        proc, result = self.run_counter(durable=False)
        # Two ticks happened before the crash; the recovered incarnation
        # restarts from the constructed count=0 and ticks five more times.
        assert result.outputs[0] == 5
        assert proc.count == 5
        assert result.recovered == frozenset({0})
        assert result.crashed == frozenset()
        assert result.decision_times[0] == pytest.approx(7.8)

    def test_stable_storage_survives(self):
        proc, result = self.run_counter(durable=True)
        # The checkpoint remembers the two pre-crash ticks: only three
        # more are needed after recovery (re-armed at 2.8, fires 3.8...).
        assert result.outputs[0] == 5
        assert result.decision_times[0] == pytest.approx(5.8)

    def test_pre_crash_timer_dropped_as_stale(self):
        """The tick armed at t=2 fires at t=3 — after recovery at 2.8 —
        but belongs to the dead incarnation: dropped, with a trace."""
        sink = MemorySink()
        self.run_counter(durable=False, sink=sink)
        stale = [
            e
            for e in sink.events
            if e.kind == DROP
            and e.data.get("reason") == "stale"
            and "timer_seq" in e.data
        ]
        assert len(stale) == 1

    def test_recover_event_traced_and_accessor(self):
        sink = MemorySink()
        self.run_counter(durable=False, sink=sink)
        assert recovered_pids(sink.events) == {0}

    def test_recovery_trace_replays_byte_identically(self):
        sink = MemorySink()
        _, original = self.run_counter(durable=False, sink=sink)
        replay_sink = MemorySink()
        replayed = replay(
            [Counter(durable=False)], sink.events, sink=replay_sink
        )
        assert replayed.outputs == original.outputs
        assert replayed.recovered == original.recovered
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)

    def test_durable_recovery_trace_replays_byte_identically(self):
        sink = MemorySink()
        _, original = self.run_counter(durable=True, sink=sink)
        replay_sink = MemorySink()
        replayed = replay([Counter(durable=True)], sink.events, sink=replay_sink)
        assert replayed.outputs == original.outputs
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)

    def test_decision_is_irrevocable_halt_is_not(self):
        """A recovered process keeps its decision (decisions are
        outputs, not memory) but loses its halt (halting is a local,
        volatile condition)."""

        class DecideThenNap(AsyncProcess):
            def __init__(self):
                self.post_recovery_actions = 0

            def on_start(self, ctx):
                ctx.decide("done")
                ctx.halt()

            def on_recover(self, ctx):
                assert ctx.decided and ctx.output == "done"
                ctx.set_timer(1.0, "alive-again")

            def on_timer(self, ctx, name):
                self.post_recovery_actions += 1

        procs = [DecideThenNap(), Counter()]
        result = AsyncRuntime(
            procs,
            crashes=[CrashAt(0, 1.0), RecoverAt(0, 2.0)],
            max_crashes=1,
            quiesce_when_decided=False,
        ).run()
        assert result.outputs[0] == "done"
        assert procs[0].post_recovery_actions == 1  # un-halted and active

    def test_stable_storage_metering(self):
        storage = StableStorage()
        storage.put("a", (1, 2, 3))
        storage.put("a", (4, 5, 6))
        storage.delete("missing")  # idempotent
        assert storage.get("a") == (4, 5, 6)
        assert storage.writes == 2
        assert storage.payload_units_written > 0
        assert "a" in storage and len(storage) == 1
        assert storage.snapshot() == {"a": (4, 5, 6)}


class TestRecoveryKeepsBoundCallbacks:
    """An SCD node hands its ``ScdBroadcast`` its own bound ``_count``.
    Recovery must bind the restored callback to the live node, not to a
    clone of it that deep-copying the snapshot built on the side."""

    @staticmethod
    def assert_bound_to_itself(node):
        assert node.scd.on_deliver.__self__ is node
        assert node.delivered_count == sum(map(len, node.delivered_sets))

    # Down at 0.05, the node recovers before any set is delivered to it;
    # down at 0.3, after one was.
    @pytest.mark.parametrize("down, up", [(0.05, 0.55), (0.3, 0.8)])
    def test_event_loop(self, down, up):
        procs = [ScdNode(pid, 3, [f"m{pid}"], expected=3) for pid in range(3)]
        result = run_processes(
            procs,
            crashes=[CrashAt(0, down), RecoverAt(0, up)],
            delay_model=UniformDelay(0.1, 1.0),
            seed=1,
            quiesce_when_decided=False,
        )
        assert result.recovered == {0}
        self.assert_bound_to_itself(procs[0])

    def test_explorer(self):
        model = AmpModel(
            make_scd_nodes([["a"], ["b"], []]), max_crashes=1, allow_recovery=True
        )
        prefix = (("crash", 2), ("recover", 2))
        delivery = next(
            c for c in model.enabled(prefix) if c[0] == "deliver" and c[2] == 2
        )
        self.assert_bound_to_itself(model.processes(prefix + (delivery,))[2])


# -- the three protocol demos: broken volatile, repaired durable ------------


class TestAbdUnderRecovery:
    """A quorum member that forgets its copy un-writes acknowledged data."""

    def run_abd(self, node_cls):
        n = 3
        nodes = [node_cls(pid, n) for pid in range(n)]
        nodes[0] = node_cls(0, n, script=[("write", "A")])
        nodes[2] = node_cls(2, n, script=[("pause", 100.0), ("read",)])
        # p0's messages to p2 crawl: the reader's quorum is {itself, p1},
        # and p1 is exactly the server that crashed and recovered.
        delay = TargetedDelay(FixedDelay(1.0), {(0, 2): 500.0})
        result = AsyncRuntime(
            nodes,
            delay_model=delay,
            crashes=[CrashAt(1, 3.0), RecoverAt(1, 5.0)],
            max_crashes=1,
        ).run()
        return nodes, result

    def test_volatile_abd_serves_a_stale_read(self):
        _, result = self.run_abd(AbdNode)
        assert result.outputs[0] == [None]  # the write completed at t=2...
        # ...yet a read that *starts* at t=100 returns the initial value:
        # p1 acked the write, crashed, recovered with empty memory, and
        # still counts toward the read quorum.  Atomicity is gone.
        assert result.outputs[2] == [None]
        assert result.recovered == frozenset({1})

    def test_durable_abd_survives_the_same_schedule(self):
        _, result = self.run_abd(DurableAbdNode)
        assert result.outputs[0] == [None]
        assert result.outputs[2] == ["A"]  # the write-ahead copy answers
        assert result.recovered == frozenset({1})


class RbHost(AsyncProcess):
    """Reliable-broadcast host that journals deliveries to stable
    storage — the journal is the *observer* (it survives recovery so the
    test can see across incarnations); the RB layer's own durability is
    the variable under test."""

    def __init__(self, pid, n, durable):
        rb_cls = DurableReliableBroadcast if durable else ReliableBroadcast
        self.rb = rb_cls(pid, n)

    def on_start(self, ctx):
        if ctx.pid == 0:
            self.rb.broadcast(ctx, "m")

    def on_message(self, ctx, src, message):
        for d in self.rb.handle(ctx, src, message):
            ctx.stable.put("log", ctx.stable.get("log", ()) + (d.message_id,))

    def on_recover(self, ctx):
        if isinstance(self.rb, DurableReliableBroadcast):
            self.rb.restore(ctx)


class TestReliableBroadcastUnderRecovery:
    """No-duplication is enforced by a volatile seen-set: a recovered
    process delivers the same broadcast twice."""

    def run_rb(self, durable):
        n = 3
        procs = [RbHost(pid, n, durable) for pid in range(n)]
        # p2's relay to p1 dawdles until after p1's recovery.
        delay = TargetedDelay(FixedDelay(1.0), {(2, 1): 4.0})
        runtime = AsyncRuntime(
            procs,
            delay_model=delay,
            crashes=[CrashAt(1, 1.5), RecoverAt(1, 2.5)],
            max_crashes=1,
            quiesce_when_decided=False,
        )
        runtime.run()
        return runtime.storages[1].get("log", ())

    def test_volatile_rb_delivers_twice(self):
        assert self.run_rb(durable=False) == ((0, 0), (0, 0))

    def test_durable_rb_delivers_once(self):
        assert self.run_rb(durable=True) == ((0, 0),)


class DurableReplica(ReplicatedStateMachine):
    """SMR repaired for crash-recovery: checkpoint the replica after
    every applied command, reload it on recovery.  (Safety only: the
    recovered replica rejoins with its object intact; re-arming the
    TO-broadcast machinery to keep *submitting* is a liveness concern
    beyond this demo.)"""

    def _apply(self, ctx, origin, payload):
        super()._apply(ctx, origin, payload)
        ctx.stable.put("state", self.replica_state)
        ctx.stable.put("applied", tuple(self.applied))
        ctx.stable.put("responses", tuple(self.my_responses))

    def on_recover(self, ctx):
        self.replica_state = ctx.stable.get("state", self.replica_state)
        self.applied = list(ctx.stable.get("applied", ()))
        self.my_responses = list(ctx.stable.get("responses", ()))


class TestSmrUnderRecovery:
    """'Identical logs ⇒ identical replicas' assumes replicas remember
    their logs: a recovered replica claims to be a replica of an object
    it has entirely forgotten."""

    COMMANDS = [[("write", (10,))], [("write", (20,))], [("write", (30,))]]

    def run_smr(self, replica_cls):
        def spec():
            return register_spec(0)

        replicas = [
            replica_cls(pid, 3, 1, spec(), self.COMMANDS[pid])
            for pid in range(3)
        ]
        for replica in replicas:
            replica.expected_count = 3
        result = AsyncRuntime(
            replicas,
            delay_model=FixedDelay(1.0),
            failure_detector=OmegaFD(3, tau=2.0),
            seed=2,
            crashes=[CrashAt(2, 8.0), RecoverAt(2, 10.0)],
            max_crashes=1,
            quiesce_when_decided=False,
        ).run()
        return replicas, result

    def test_baseline_without_recovery_agrees(self):
        def spec():
            return register_spec(0)

        replicas = make_replicated_machine(3, 1, spec, self.COMMANDS)
        AsyncRuntime(
            replicas,
            delay_model=FixedDelay(1.0),
            failure_detector=OmegaFD(3, tau=2.0),
            seed=2,
        ).run()
        check_mutual_consistency(replicas)
        assert [r.replica_state for r in replicas] == [30, 30, 30]

    def test_volatile_replica_forgets_the_object(self):
        replicas, result = self.run_smr(ReplicatedStateMachine)
        assert result.recovered == frozenset({2})
        states = [r.replica_state for r in replicas]
        assert states[0] == states[1] == 30
        assert states[2] == 0  # back to the initial object: divergence
        assert replicas[2].applied == []

    def test_durable_replica_rejoins_consistent(self):
        replicas, result = self.run_smr(DurableReplica)
        assert result.recovered == frozenset({2})
        assert [r.replica_state for r in replicas] == [30, 30, 30]
        check_mutual_consistency(replicas)
        assert [len(r.applied) for r in replicas] == [3, 3, 3]
