"""Tests for the asynchronous message-passing simulator (paper §5.1)."""

import hashlib
import heapq
import importlib
import random
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analyze.freeze import deep_freeze
from repro.core import ConfigurationError, ModelViolation, payload_units
from repro.amp import (
    AsyncProcess,
    AsyncRuntime,
    CrashAt,
    DuplicatingLink,
    FairLossLink,
    FixedDelay,
    PartialSynchronyDelay,
    RecoverAt,
    ReliableLink,
    ReorderingLossLink,
    TargetedDelay,
    UniformDelay,
    run_processes,
)
from repro.amp.network import DrivenRuntime
from repro.explore import (
    BFS,
    DFS,
    AmpModel,
    RandomWalk,
    explore,
    make_flood_min,
    make_quorum_commit,
    make_scd_nodes,
)
from repro.trace import MemorySink, replay, trace_hash


class Ping(AsyncProcess):
    def __init__(self, pid, n):
        self.pid = pid
        self.n = n
        self.heard = []

    def on_start(self, ctx):
        if ctx.pid == 0:
            ctx.broadcast("ping", include_self=False)

    def on_message(self, ctx, src, payload):
        self.heard.append((src, payload, ctx.time))
        if payload == "ping":
            ctx.send(src, "pong")
        elif not ctx.decided:
            ctx.decide(("got-pong", src))
            ctx.halt()


class TimerProcess(AsyncProcess):
    def on_start(self, ctx):
        ctx.set_timer(2.5, "wake")

    def on_timer(self, ctx, name):
        ctx.decide((name, ctx.time))
        ctx.halt()


class TestEventLoop:
    def test_ping_pong_round_trip(self):
        n = 3
        procs = [Ping(pid, n) for pid in range(n)]
        result = run_processes(procs, delay_model=FixedDelay(1.0))
        assert result.decided[0]
        assert result.outputs[0][0] == "got-pong"
        assert result.decision_times[0] == 2.0  # exactly 2Δ round trip

    def test_messages_counted(self):
        n = 3
        procs = [Ping(pid, n) for pid in range(n)]
        result = run_processes(procs, delay_model=FixedDelay(1.0))
        assert result.messages_sent >= 3

    def test_timers_fire_at_virtual_time(self):
        result = run_processes([TimerProcess()])
        assert result.outputs[0] == ("wake", 2.5)

    def test_send_to_unknown_process_rejected(self):
        class Bad(AsyncProcess):
            def on_start(self, ctx):
                ctx.send(99, "hi")

        with pytest.raises(ModelViolation):
            run_processes([Bad(), Bad()])

    def test_double_decide_rejected(self):
        class Bad(AsyncProcess):
            def on_start(self, ctx):
                ctx.decide(1)
                ctx.decide(2)

        with pytest.raises(ModelViolation):
            run_processes([Bad()])

    def test_budget_truncates(self):
        class Chatter(AsyncProcess):
            def on_start(self, ctx):
                ctx.broadcast("x")

            def on_message(self, ctx, src, payload):
                ctx.broadcast("x")

        result = run_processes(
            [Chatter(), Chatter()], max_events=100, quiesce_when_decided=False
        )
        assert result.messages_delivered <= 101

    def test_run_until_preserves_future_events(self):
        """Stopping at a deadline must not swallow the event after it."""
        from repro.amp import AsyncRuntime

        runtime = AsyncRuntime([TimerProcess()])
        result = runtime.run(until=1.0)
        assert not result.decided[0]
        # Resume: the 2.5s timer must still fire.
        result = runtime.run()
        assert result.outputs[0] == ("wake", 2.5)

    def test_seeded_runs_are_reproducible(self):
        def run_once():
            procs = [Ping(pid, 3) for pid in range(3)]
            return run_processes(
                procs, delay_model=UniformDelay(0.1, 2.0), seed=42
            ).final_time

        assert run_once() == run_once()

    def test_segmented_run_equals_one_shot(self):
        """run(until=t) then run() must observe exactly what run() does."""

        def make_runtime():
            procs = [Ping(pid, 3) for pid in range(3)]
            return AsyncRuntime(procs, delay_model=UniformDelay(0.1, 2.0), seed=9)

        one_shot = make_runtime().run()
        segmented = make_runtime()
        segmented.run(until=0.7)
        segmented.run(until=1.4)
        assert segmented.run() == one_shot

    def test_deferred_event_not_charged_to_budget(self):
        """An event pushed past ``until`` is not processed, so it must not
        consume the event budget of the run that deferred it."""

        class TwoTimers(AsyncProcess):
            def on_start(self, ctx):
                ctx.set_timer(0.5, "a")
                ctx.set_timer(2.5, "b")

            def on_timer(self, ctx, name):
                if name == "b":
                    ctx.decide(ctx.time)
                    ctx.halt()

        runtime = AsyncRuntime([TwoTimers()], max_events=1, strict_budget=True)
        # Exactly one event (timer "a") fits before the deadline; peeking at
        # "b" must not raise the strict budget.
        result = runtime.run(until=1.0)
        assert not result.decided[0] and result.final_time == 1.0
        result = runtime.run()
        assert result.outputs[0] == 2.5

    def test_process_rngs_distinct_and_reproducible(self):
        """Explicit seed derivation: distinct (seed, pid) pairs never alias,
        and the per-process streams are stable across runtimes."""
        draws = {}
        for seed in range(10):
            runtime = AsyncRuntime([Gossip() for _ in range(10)], seed=seed)
            for pid in range(10):
                draws[(seed, pid)] = runtime._process_rng(pid).random()
        assert len(set(draws.values())) == len(draws)
        again = AsyncRuntime([Gossip() for _ in range(10)], seed=3)
        assert again._process_rng(7).random() == draws[(3, 7)]


class TestQuiescentClock:
    """Regression: ``run(until=t)`` used to leave the clock at the last
    event's time when the queue drained before the deadline, so a later
    segment resumed from the wrong virtual time and ``final_time`` under-
    reported the elapsed run."""

    def test_clock_advances_to_until_on_quiescence(self):
        runtime = AsyncRuntime([TimerProcess()], quiesce_when_decided=False)
        result = runtime.run(until=10.0)  # timer fires at 2.5, queue drains
        assert result.decided[0]
        assert result.final_time == 10.0

    def test_quiescent_segments_keep_monotonic_clock(self):
        runtime = AsyncRuntime([TimerProcess()], quiesce_when_decided=False)
        assert runtime.run(until=10.0).final_time == 10.0
        # Resuming an already-drained runtime must not rewind the clock.
        assert runtime.run().final_time == 10.0
        assert runtime.run(until=12.0).final_time == 12.0

    def test_unbounded_run_still_ends_at_last_event(self):
        result = AsyncRuntime([TimerProcess()]).run()
        assert result.final_time == 2.5

    def test_deferred_segment_still_stops_at_until(self):
        """The companion (always-correct) branch: an event beyond the
        deadline defers and the clock parks exactly at ``until``."""
        runtime = AsyncRuntime([TimerProcess()])
        assert runtime.run(until=1.0).final_time == 1.0
        assert runtime.run().final_time == 2.5


class TestTimerDrops:
    """Regression: timers addressed to crashed/halted processes used to
    vanish silently; they now leave a DROP event so traces account for
    every scheduled occurrence."""

    def _drops(self, events, reason):
        from repro.trace import DROP

        return [
            e
            for e in events
            if e.kind == DROP
            and e.data.get("reason") == reason
            and "timer_seq" in e.data
        ]

    def test_crashed_process_timer_drop_recorded(self):
        from repro.trace import MemorySink

        sink = MemorySink()
        AsyncRuntime(
            [TimerProcess(), Gossip()],
            crashes=[CrashAt(pid=0, time=1.0)],
            max_crashes=1,
            seed=0,
            sink=sink,
        ).run()
        assert self._drops(sink.events, "dead-dst")

    def test_halted_process_timer_drop_recorded(self):
        from repro.trace import MemorySink

        class HaltWithPendingTimer(AsyncProcess):
            def on_start(self, ctx):
                ctx.set_timer(5.0, "never")
                if ctx.pid == 0:
                    ctx.send(1, "halt-now")

            def on_message(self, ctx, src, payload):
                ctx.decide("halted-early")
                ctx.halt()

        sink = MemorySink()
        AsyncRuntime(
            [HaltWithPendingTimer(), HaltWithPendingTimer()],
            delay_model=FixedDelay(1.0),
            quiesce_when_decided=False,
            sink=sink,
        ).run()
        drops = self._drops(sink.events, "dead-dst")
        assert len(drops) == 1  # p1's orphaned timer; p0's fires normally

    def test_timer_drop_trace_replays_byte_identically(self):
        from repro.trace import MemorySink, replay, trace_hash

        def make():
            return [TimerProcess(), Gossip()]

        sink = MemorySink()
        original = AsyncRuntime(
            make(),
            crashes=[CrashAt(pid=0, time=1.0)],
            max_crashes=1,
            seed=3,
            sink=sink,
        ).run()
        assert self._drops(sink.events, "dead-dst")
        replay_sink = MemorySink()
        replayed = replay(make(), sink.events, seed=3, sink=replay_sink)
        assert replayed.crashed == original.crashed
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)


class TestDelayModels:
    def test_fixed_delay_validation(self):
        with pytest.raises(ConfigurationError):
            FixedDelay(0)

    def test_uniform_delay_bounds(self):
        import random

        model = UniformDelay(0.5, 1.5)
        rng = random.Random(0)
        for _ in range(100):
            assert 0.5 <= model.delay(0, 1, 0.0, rng) <= 1.5

    def test_uniform_validation(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(2.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        low=st.floats(min_value=1e-3, max_value=10.0),
        span=st.floats(min_value=0.0, max_value=10.0),
        seed=st.integers(0, 2**31),
    )
    def test_uniform_draws_match_random_uniform(self, low, span, seed):
        """The delay is exactly what ``rng.uniform(low, high)`` returns,
        draw for draw, so seeded runs keep their event timelines."""
        model = UniformDelay(low, low + span)
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert model.delay(0, 1, 0.0, ours) == ref.uniform(low, low + span)

    def test_partial_synchrony_bounded_after_gst(self):
        import random

        model = PartialSynchronyDelay(gst=10.0, delta=1.0, chaos_max=20.0)
        rng = random.Random(1)
        for _ in range(50):
            assert model.delay(0, 1, 12.0, rng) <= 1.0

    def test_partial_synchrony_chaos_before_gst(self):
        import random

        model = PartialSynchronyDelay(gst=10.0, delta=1.0, chaos_max=20.0)
        rng = random.Random(1)
        delays = [model.delay(0, 1, 0.0, rng) for _ in range(50)]
        assert max(delays) > 1.0

    def test_targeted_overrides(self):
        import random

        model = TargetedDelay(FixedDelay(1.0), {(0, 1): 9.0})
        rng = random.Random(0)
        assert model.delay(0, 1, 0.0, rng) == 9.0
        assert model.delay(1, 0, 0.0, rng) == 1.0

    def test_targeted_override_must_be_positive(self):
        """A non-positive override is rejected when the model is built,
        not at the first send on that link."""
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigurationError):
                TargetedDelay(FixedDelay(1.0), {(1, 0): 2.0, (0, 1): bad})

    @settings(max_examples=200, deadline=None)
    @given(
        gst=st.floats(min_value=0.5, max_value=50.0),
        delta=st.floats(min_value=0.1, max_value=5.0),
        chaos_max=st.floats(min_value=10.0, max_value=100.0),
        send_frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partial_synchrony_dls_arrival_bound(
        self, gst, delta, chaos_max, send_frac, seed
    ):
        """The DLS contract: every message *arrives* by GST + Δ (pre-GST
        sends) or within Δ of sending (post-GST sends).  Regression for
        the clamp that used to allow pre-GST arrivals as late as
        GST + 2Δ, contradicting the model's documented bound."""
        model = PartialSynchronyDelay(gst=gst, delta=delta, chaos_max=chaos_max)
        rng = random.Random(seed)
        send_time = gst * send_frac  # anywhere in the chaotic era
        for _ in range(20):
            arrival = send_time + model.delay(0, 1, send_time, rng)
            assert arrival <= gst + delta + 1e-9

    def test_partial_synchrony_delay_stays_positive(self):
        """Clamping to the arrival bound must never make a delay
        non-positive, even for sends just before GST."""
        model = PartialSynchronyDelay(gst=10.0, delta=1.0, chaos_max=20.0)
        rng = random.Random(7)
        for send_time in (0.0, 9.0, 9.999, 10.0, 15.0):
            for _ in range(50):
                assert model.delay(0, 1, send_time, rng) > 0.0


class Gossip(AsyncProcess):
    """Everyone broadcasts its id once; records everything heard."""

    def __init__(self):
        self.heard = set()

    def on_start(self, ctx):
        ctx.broadcast(("id", ctx.pid), include_self=False)

    def on_message(self, ctx, src, payload):
        self.heard.add(src)


class TestCrashes:
    def test_crashed_process_stops_sending_and_receiving(self):
        procs = [Gossip() for _ in range(3)]

        class LateGossip(Gossip):
            def on_start(self, ctx):
                ctx.set_timer(5.0, "later")

            def on_timer(self, ctx, name):
                ctx.broadcast(("id", ctx.pid), include_self=False)

        procs[2] = LateGossip()
        result = run_processes(
            procs,
            delay_model=FixedDelay(1.0),
            crashes=[CrashAt(pid=0, time=3.0)],
            max_crashes=1,
            quiesce_when_decided=False,
        )
        assert 0 in result.crashed
        # p0's initial broadcast (t=0) arrived before the crash...
        assert 0 in procs[1].heard
        # ...but p2's late broadcast (t=5) never reaches the crashed p0,
        # and p0 heard nothing after crashing.
        assert procs[0].heard <= {1, 2}

    def test_crash_mid_broadcast_drops_in_flight(self):
        class WideBroadcast(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.broadcast("data", include_self=False)

        receivers = [Gossip() for _ in range(5)]
        procs = [WideBroadcast()] + receivers[1:]
        result = run_processes(
            procs,
            delay_model=FixedDelay(1.0),
            crashes=[CrashAt(pid=0, time=0.5, drop_in_flight=0.5)],
            max_crashes=1,
            quiesce_when_decided=False,
        )
        heard = [0 in p.heard for p in procs[1:]]
        assert any(heard) and not all(heard)  # a strict subset received

    def test_drop_counts_exact_and_newest_first(self):
        """drop_in_flight drops exactly round(f * pending), newest send
        first — the tail of the interrupted broadcast."""

        class WideBroadcast(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.broadcast("data", include_self=False)

        for drop, expect_heard in (
            (0.0, {1, 2, 3, 4}),
            (0.5, {1, 2}),       # 4 pending, 2 dropped: dsts 4 then 3
            (0.75, {1}),         # round(3.0) = 3 dropped: dsts 4, 3, 2
            (1.0, set()),
        ):
            procs = [WideBroadcast()] + [Gossip() for _ in range(4)]
            run_processes(
                procs,
                delay_model=FixedDelay(1.0),
                crashes=[CrashAt(pid=0, time=0.5, drop_in_flight=drop)],
                max_crashes=1,
                quiesce_when_decided=False,
            )
            heard = {pid for pid in range(1, 5) if 0 in procs[pid].heard}
            assert heard == expect_heard, f"drop={drop}"

    def test_already_delivered_messages_never_dropped(self):
        """Only messages still in flight at crash time can be dropped."""

        class WideBroadcast(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.broadcast("data", include_self=False)

        # dsts 1 and 2 receive before the crash; dropping "all" in-flight
        # only kills the two still-travelling messages (to 3 and 4).
        delay = TargetedDelay(FixedDelay(1.0), {(0, 1): 0.2, (0, 2): 0.3})
        procs = [WideBroadcast()] + [Gossip() for _ in range(4)]
        run_processes(
            procs,
            delay_model=delay,
            crashes=[CrashAt(pid=0, time=0.5, drop_in_flight=1.0)],
            max_crashes=1,
            quiesce_when_decided=False,
        )
        heard = {pid for pid in range(1, 5) if 0 in procs[pid].heard}
        assert heard == {1, 2}

    def test_crash_pid_out_of_range_rejected(self):
        for pid in (-1, 2, 99):
            with pytest.raises(ConfigurationError):
                AsyncRuntime([Gossip(), Gossip()], crashes=[CrashAt(pid, 1.0)])

    def test_drop_fraction_out_of_range_rejected(self):
        for fraction in (-0.1, 1.5):
            with pytest.raises(ConfigurationError):
                AsyncRuntime(
                    [Gossip(), Gossip()],
                    crashes=[CrashAt(0, 1.0, drop_in_flight=fraction)],
                )

    def test_crash_budget_validated(self):
        with pytest.raises(ConfigurationError):
            AsyncRuntime(
                [Gossip(), Gossip()],
                crashes=[CrashAt(0, 1.0), CrashAt(1, 1.0)],
                max_crashes=1,
            )

    def test_double_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncRuntime(
                [Gossip(), Gossip()],
                crashes=[CrashAt(0, 1.0), CrashAt(0, 2.0)],
            )

    def test_no_failure_detector_raises_on_query(self):
        class Query(AsyncProcess):
            def on_start(self, ctx):
                ctx.failure_detector()

        with pytest.raises(ConfigurationError):
            run_processes([Query()])


# ---------------------------------------------------------------------------
# The multi-destination send primitive
# ---------------------------------------------------------------------------


class _PerDestinationRuntime(AsyncRuntime):
    """The reference: the single-destination ``AsyncRuntime._send`` body
    from before ``_send`` took a destination list, verbatim in
    ``_send_one``, run once per destination in order."""

    def _send(self, src, dsts, payload):
        for dst in dsts:
            self._send_one(src, dst, payload)

    def _send_one(self, src: int, dst: int, payload: object) -> None:
        if not 0 <= dst < self.n:
            raise ModelViolation(f"process {src} sent to unknown process {dst}")
        if src in self.crashed:
            return  # a crashed process sends nothing
        if self._sanitize:
            payload = deep_freeze(payload)
        # Units ride along in the event so delivery never re-measures.
        units = payload_units(payload)
        # sent/payload_sent meter *logical* sends: what the protocol paid,
        # independent of what the wire did (loss and duplication show up in
        # the delivered counters instead).
        self.messages_sent += 1
        self.payload_sent += units
        fates = self.link_model.fates(src, dst, self.now, self._rng)
        if not fates:
            # Lost on the wire.  Consume an event id anyway so event-id
            # streams (and hence replays) don't depend on the sink being
            # attached; a lost message draws no transfer delay.
            event_id = next(self._event_seq)
            if self._sink is not None:
                self._sink.amp_send(event_id, src, dst, payload, units, self.now)
                self._sink.amp_drop(event_id, self.now, reason="loss")
            return
        first_id: Optional[int] = None
        for extra in fates:
            delay = self.delay_model.delay(src, dst, self.now, self._rng)
            if delay <= 0:
                raise ConfigurationError("delay model produced non-positive delay")
            event_id = self._push(
                self.now + delay + extra, "deliver", (src, dst, payload, units)
            )
            if self._sink is not None:
                if first_id is None:
                    self._sink.amp_send(event_id, src, dst, payload, units, self.now)
                else:
                    # A wire duplicate shares the original's send_seq.
                    self._sink.amp_send_dup(event_id, first_id)
            if first_id is None:
                first_id = event_id


class Scripted(AsyncProcess):
    """Runs one scripted action at start and one per delivery or timer
    until the script is spent: ``("send", k, payload)`` sends to
    ``k mod n``, ``("bcast", include_self, payload)`` broadcasts,
    ``("timer", delay, payload)`` sets a timer.  Decides on its second
    delivery, so quiescence and decisions are both exercised."""

    def __init__(self, script):
        self.script = script
        self.step = 0
        self.heard = []

    def _act(self, ctx):
        if self.step < len(self.script):
            kind, arg, payload = self.script[self.step]
            self.step += 1
            message = (ctx.pid, self.step, payload)
            if kind == "send":
                ctx.send(arg % ctx.n, message)
            elif kind == "bcast":
                ctx.broadcast(message, include_self=arg)
            else:
                ctx.set_timer(arg, message)

    def on_start(self, ctx):
        self._act(ctx)

    def on_message(self, ctx, src, payload):
        self.heard.append((src, payload))
        # A recovered process hears afresh, but its decision stands.
        if len(self.heard) == 2 and not ctx.decided:
            ctx.decide(tuple(self.heard))
        self._act(ctx)

    def on_timer(self, ctx, name):
        self._act(ctx)


_leaves = st.integers(-3, 3) | st.text("ab", max_size=2) | st.none()
_payloads = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
_actions = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 4), _payloads),
    st.tuples(st.just("bcast"), st.booleans(), _payloads),
)
_protocols = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.lists(_actions, max_size=4), min_size=n, max_size=n)
)

_LINKS = {
    "reliable": lambda: ReliableLink(),
    "fair-loss": lambda: FairLossLink(0.3, max_consecutive_losses=2),
    "duplicating": lambda: DuplicatingLink(0.4),
    "reordering-loss": lambda: ReorderingLossLink(0.2, 0.3, jitter=1.5),
}


class TestMultiDestinationSend:
    """``_send(src, dsts, payload)`` measures a send call's payload once
    and fans it out in one loop; runs must be indistinguishable from one
    single-destination send per copy."""

    @staticmethod
    def _run(runtime_cls, scripts, link, crash, seed, sanitize):
        sink = MemorySink()
        result = runtime_cls(
            [Scripted(script) for script in scripts],
            delay_model=UniformDelay(0.1, 2.0),
            link_model=_LINKS[link](),
            crashes=[crash],
            max_crashes=1,
            seed=seed,
            sink=sink,
            sanitize=sanitize,
        ).run()
        return result, sink.events

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("link", sorted(_LINKS))
    @settings(max_examples=25, deadline=None)
    @given(
        scripts=_protocols,
        data=st.data(),
        drop=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_one_send_per_destination(
        self, link, sanitize, scripts, data, drop, seed
    ):
        crash = CrashAt(
            pid=data.draw(st.integers(0, len(scripts) - 1)),
            time=data.draw(st.sampled_from([0.05, 0.5, 1.5])),
            drop_in_flight=drop,
        )
        new, new_events = self._run(
            AsyncRuntime, scripts, link, crash, seed, sanitize
        )
        ref, ref_events = self._run(
            _PerDestinationRuntime, scripts, link, crash, seed, sanitize
        )
        assert trace_hash(new_events) == trace_hash(ref_events)
        assert new == ref
        for events in (new_events, ref_events):
            replay_sink = MemorySink()
            replayed = replay(
                [Scripted(script) for script in scripts],
                events,
                seed=seed,
                sink=replay_sink,
            )
            assert trace_hash(replay_sink.events) == trace_hash(events)
            assert replayed.messages_sent == new.messages_sent
            assert replayed.payload_sent == new.payload_sent

    def test_one_payload_measure_per_send_call(self, monkeypatch):
        """Each runtime measures a send call's payload once, however many
        copies it fans out to; the counters still charge every copy."""
        calls = []

        def counting(payload):
            calls.append(payload)
            return payload_units(payload)

        # The event loop, replay and the explorer all measure in
        # ``repro.amp.network``: replay and the explorer drive its
        # ``DrivenRuntime``.
        for module in ("repro.amp.network",):
            monkeypatch.setattr(importlib.import_module(module), "payload_units", counting)

        class Chatty(AsyncProcess):
            """Counts its own send and broadcast calls."""

            def __init__(self):
                self.send_calls = 0

            def on_start(self, ctx):
                ctx.broadcast(("hi", ctx.pid))
                ctx.send((ctx.pid + 1) % ctx.n, ("one", ctx.pid))
                ctx.broadcast(("all-but-me", ctx.pid), include_self=False)
                self.send_calls += 3

        def make():
            return [Chatty() for _ in range(4)]

        procs = make()
        sink = MemorySink()
        result = AsyncRuntime(procs, sink=sink, quiesce_when_decided=False).run()
        send_calls = sum(p.send_calls for p in procs)
        assert len(calls) == send_calls == 12
        assert result.messages_sent == 4 * (4 + 1 + 3)

        del calls[:]
        procs = make()
        replayed = replay(procs, sink.events)
        assert len(calls) == sum(p.send_calls for p in procs) == 12
        assert replayed.messages_sent == result.messages_sent

        del calls[:]
        procs = make()
        explorer = DrivenRuntime(procs)
        explorer.start()
        assert len(calls) == sum(p.send_calls for p in procs) == 12
        assert explorer.messages_sent == result.messages_sent
        assert len(explorer.pending) == result.messages_sent


# ---------------------------------------------------------------------------
# Crash drops: the heap scan against the per-sender index
# ---------------------------------------------------------------------------


class _PerSenderIndexRuntime(_PerDestinationRuntime):
    """The crash-path reference: the per-sender index of undelivered
    copies that ``AsyncRuntime`` kept before its crash handler scanned
    the heap.  Each copy's event id is added when the send queues it,
    discarded when it is delivered, and read by ``_handle_crash``, whose
    body is the old one verbatim."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: event ids of undelivered messages per sender (for crash drops);
        #: ids are monotonically increasing, so max = newest send.  With a
        #: duplicating link every physical copy has its own id here.
        self._in_flight = {pid: set() for pid in range(self.n)}

    def _push(self, time, kind, data):
        event_id = super()._push(time, kind, data)
        if kind == "deliver":
            self._in_flight[data[0]].add(event_id)
        return event_id

    def _handle_delivery(self, event_id, src, dst, payload, units=1):
        self._in_flight[src].discard(event_id)
        super()._handle_delivery(event_id, src, dst, payload, units)

    def _handle_crash(self, pid, drop_fraction):
        if pid in self.crashed:
            return
        if self.max_crashes is not None and len(self.crashed) >= self.max_crashes:
            raise ModelViolation(f"crash budget t={self.max_crashes} exhausted")
        self.crashed.add(pid)
        self._epoch[pid] += 1
        if self._sink is not None:
            self._sink.amp_crash(pid, self.now)
        pending = self._in_flight[pid]
        drop_count = int(round(drop_fraction * len(pending)))
        if drop_count:
            for event_id in heapq.nlargest(drop_count, pending):
                pending.discard(event_id)
                self._cancelled.add(event_id)
                if self._sink is not None:
                    self._sink.amp_drop(event_id, self.now, reason="crash")


_timed_actions = _actions | st.tuples(
    st.just("timer"), st.sampled_from([0.0, 0.3, 1.0]), _payloads
)
_timed_protocols = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.lists(_timed_actions, max_size=4), min_size=n, max_size=n)
)
_drops = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def _crash_cases(draw):
    """Protocols with timers, a crash schedule and the ``run(until=...)``
    split points.  One or two pids crash; each may recover and crash
    again soon after, while its first incarnation's copies are still
    queued."""
    scripts = draw(_timed_protocols)
    crashes = []
    victims = st.lists(
        st.integers(0, len(scripts) - 1), min_size=1, max_size=2, unique=True
    )
    for pid in draw(victims):
        time = draw(st.sampled_from([0.05, 0.5, 1.5]))
        crashes.append(CrashAt(pid, time, draw(_drops)))
        if draw(st.booleans()):
            time += draw(st.sampled_from([0.1, 0.4]))
            crashes.append(RecoverAt(pid, time))
            time += draw(st.sampled_from([0.1, 0.4]))
            crashes.append(CrashAt(pid, time, draw(_drops)))
    splits = st.lists(st.sampled_from([0.3, 0.7, 1.2, 2.0]), max_size=2, unique=True)
    return scripts, crashes, sorted(draw(splits))


class TestCrashDropsMatchPerSenderIndex:
    """``_handle_crash`` finds a crashing sender's undelivered copies with
    one pass over the heap; runs must be indistinguishable from the
    kernel that indexed them per sender on every send and delivery."""

    @staticmethod
    def _run(runtime_cls, link, case, quiesce, seed):
        scripts, crashes, splits = case
        sink = MemorySink()
        runtime = runtime_cls(
            [Scripted(script) for script in scripts],
            delay_model=UniformDelay(0.2, 3.0),
            link_model=_LINKS[link](),
            crashes=crashes,
            seed=seed,
            sink=sink,
            quiesce_when_decided=quiesce,
        )
        results = [runtime.run(until=until) for until in splits]
        results.append(runtime.run())
        return results, sink.events

    @pytest.mark.parametrize("link", sorted(_LINKS))
    @settings(max_examples=100, deadline=None)
    @given(case=_crash_cases(), quiesce=st.booleans(), seed=st.integers(0, 2**16))
    # Always tried: p0 broadcasts, its crash drops the newest copies, and
    # it crashes again while those are still queued; p1 crashes with only
    # a timer pending.
    @example(
        case=(
            [[("bcast", False, "x")], [("timer", 1.0, "t")], [], []],
            [
                CrashAt(0, 0.05, 0.5),
                RecoverAt(0, 0.15),
                CrashAt(0, 0.25, 1.0),
                CrashAt(1, 0.05, 1.0),
            ],
            [0.7],
        ),
        quiesce=False,
        seed=0,
    )
    def test_matches_per_sender_index(self, link, case, quiesce, seed):
        new, new_events = self._run(AsyncRuntime, link, case, quiesce, seed)
        ref, ref_events = self._run(_PerSenderIndexRuntime, link, case, quiesce, seed)
        assert trace_hash(new_events) == trace_hash(ref_events)
        assert new == ref


class TestExplorerReplayRoundTrip:
    """The explorer and replay step the same runtime, so every explorer
    walk, over all six choice kinds, replays byte-identically."""

    @settings(max_examples=100, deadline=None)
    @given(
        scripts=st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.lists(_timed_actions, max_size=4), min_size=n, max_size=n
            )
        ),
        data=st.data(),
    )
    def test_every_walk_replays_identically(self, scripts, data):
        model = AmpModel(
            lambda: [Scripted(script) for script in scripts],
            max_crashes=1,
            allow_recovery=True,
            max_losses=1,
            max_duplications=1,
            stop_when_settled=False,
        )
        walk = ()
        for _ in range(data.draw(st.integers(0, 12))):
            choices = model.enabled(walk)
            if not choices:
                break
            walk += (data.draw(st.sampled_from(choices)),)
        assert model.counterexample(walk).replays_identically()


# ---------------------------------------------------------------------------
# Lockstep test of the explorer's memoized fold
# ---------------------------------------------------------------------------


class _ReferenceAmpModel(AmpModel):
    """``AmpModel`` before the per-process memo: each query replays its
    prefix with ``_run`` and reads that runtime, and the fingerprint
    renders every process.  Kept verbatim (save that it materializes
    with ``_run``) as the reference the memoized fold must match byte for
    byte."""

    _ref_prefix = None

    def _materialize(self, prefix):
        if prefix != self._ref_prefix:
            self._ref_runtime = self._run(prefix)
            self._ref_prefix = prefix
        return self._ref_runtime

    def fingerprint(self, prefix):
        runtime = self._materialize(prefix)
        parts = []
        for pid in range(self.n):
            parts.append(sorted(
                (k, repr(v)) for k, v in vars(runtime.processes[pid]).items()
            ))
            ctx = runtime.contexts[pid]
            parts.append((ctx.decided, repr(ctx.output), ctx.halted))
            rng = runtime._proc_rngs.get(pid)
            if rng is not None:
                parts.append(repr(rng.getstate()))
        parts.append(sorted(runtime.crashed))
        parts.append(sorted(runtime.recovered))
        parts.append((runtime.losses, runtime.duplicated))
        parts.append([
            sorted(
                (repr(k), repr(v))
                for k, v in runtime.storages[pid].snapshot().items()
            )
            for pid in range(self.n)
        ])
        parts.append(sorted(
            (src, dst, repr(payload))
            for (src, dst, payload, _) in runtime.pending.values()
        ))
        parts.append(sorted(
            (pid, repr(name)) for (pid, name) in runtime.pending_timers.values()
        ))
        digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
        return self._intern(digest)

    def enabled(self, prefix):
        runtime = self._materialize(prefix)
        settled = self.stop_when_settled and runtime._all_settled()
        choices = []
        if not settled:
            for seq in sorted(runtime.pending):
                dst = runtime.pending[seq][1]
                if dst not in runtime.crashed and not runtime.contexts[dst].halted:
                    choices.append(("deliver", seq, dst))
                if runtime.losses < self.max_losses:
                    choices.append(("lose", seq, dst))
                if runtime.duplicated < self.max_duplications:
                    choices.append(("dup", seq, dst))
            for seq in sorted(runtime.pending_timers):
                pid, _ = runtime.pending_timers[seq]
                if pid not in runtime.crashed and not runtime.contexts[pid].halted:
                    choices.append(("timer", seq, pid))
            if len(runtime.crashed) < self.max_crashes:
                for pid in range(self.n):
                    if pid not in runtime.crashed:
                        choices.append(("crash", pid))
        if self.allow_recovery:
            for pid in sorted(runtime.crashed):
                if pid not in runtime.recovered:
                    choices.append(("recover", pid))
        return choices

    def processes(self, prefix):
        return list(self._materialize(prefix).processes)

    def decisions(self, prefix):
        runtime = self._materialize(prefix)
        return {
            pid: runtime.contexts[pid].output
            for pid in range(self.n)
            if runtime.contexts[pid].decided
        }

    def crashed(self, prefix):
        return frozenset(self._materialize(prefix).crashed)


class _LockstepAmpModel(AmpModel):
    """Checks every fingerprinted prefix against the reference, on a
    separate reference model: the digest, ``enabled()``, ``decisions()``,
    ``crashed()`` and each process's attributes.  Counts its own
    ``_run`` calls, the replays the memo could not avoid."""

    def __init__(self, factory, **budgets):
        super().__init__(factory, **budgets)
        self.reference = _ReferenceAmpModel(factory, **budgets)
        self.checked = 0
        self.runs = 0

    def _run(self, schedule, sink=None):
        self.runs += 1
        return super()._run(schedule, sink)

    def fingerprint(self, prefix):
        digest = super().fingerprint(prefix)
        reference = self.reference
        assert digest == reference.fingerprint(prefix), prefix
        assert self.enabled(prefix) == reference.enabled(prefix), prefix
        assert self.decisions(prefix) == reference.decisions(prefix), prefix
        assert self.crashed(prefix) == reference.crashed(prefix), prefix
        assert [repr(vars(p)) for p in self.processes(prefix)] == [
            repr(vars(p)) for p in reference.processes(prefix)
        ], prefix
        self.checked += 1
        return digest

    def check_replays(self):
        """One replay for the root, then one per memo entry (a miss)."""
        assert self.runs <= len(self._steps) + 1


class _Tossing(Scripted):
    """``Scripted`` that draws from its RNG before each action, so the
    fingerprint carries that RNG's state."""

    def _act(self, ctx):
        if self.step < len(self.script):
            ctx.random().random()
        super()._act(ctx)


class _Clocked(Scripted):
    """``Scripted`` that records ``ctx.time`` at each action, as SCD
    object nodes do: a step's outcome depends on its tick."""

    def __init__(self, script):
        super().__init__(script)
        self.times = []

    def _act(self, ctx):
        self.times.append(ctx.time)
        super()._act(ctx)


class _Durable(Scripted):
    """``Scripted`` that keeps its script position in stable storage and
    resumes from there: after a recovery its attributes restart, but its
    next action depends on storage they do not show."""

    def _act(self, ctx):
        self.step = ctx.stable.get("step", self.step)
        super()._act(ctx)
        ctx.stable.put("step", self.step)


_VARIANTS = (Scripted, _Tossing, _Clocked, _Durable)

_STRATEGIES = {
    "bfs": lambda: BFS(max_states=150),
    "dfs": lambda: DFS(max_states=150),
    "walk": lambda: RandomWalk(walks=12, max_depth=12, seed=5),
}


class TestIncrementalFingerprint:
    """The memoized fold agrees with a full replay on every prefix every
    engine fingerprints (digest, enabled choices, decisions, crashed set,
    process attributes), and replays only on a memo miss."""

    @pytest.mark.parametrize("strategy", sorted(_STRATEGIES))
    @settings(max_examples=40, deadline=None)
    @given(
        # 1..n distinct (variant, script) pairs dealt round-robin to the n
        # pids, so some protocols run one script on several pids: their
        # renders can be equal while what they send names their pid.
        scripts=st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.sampled_from(_VARIANTS), st.lists(_timed_actions, max_size=4)
                ),
                min_size=1,
                max_size=n,
            ).map(lambda drawn: [drawn[pid % len(drawn)] for pid in range(n)])
        ),
        settled=st.booleans(),
    )
    def test_matches_full_render(self, strategy, scripts, settled):
        model = _LockstepAmpModel(
            lambda: [variant(list(script)) for variant, script in scripts],
            max_crashes=1,
            allow_recovery=True,
            max_losses=1,
            max_duplications=1,
            stop_when_settled=settled,
        )
        explore(model, strategy=_STRATEGIES[strategy](), reduce=False)
        assert model.checked > 0
        model.check_replays()

    #: name -> (factory, model budgets, max_states); the budgets of the
    #: first and the last two exceed their state counts (104, 1,072 and
    #: 592), so those searches are exhaustive, and every budget bounds the
    #: search when a wrong digest defeats dedup.
    _CASES = {
        "scd-crash": (make_scd_nodes([["a"], [], []]), dict(max_crashes=1), 2_000),
        "scd-recovery": (
            make_scd_nodes([["a"], [], []]),
            dict(max_crashes=1, allow_recovery=True),
            400,
        ),
        "flood-min-recovery": (
            make_flood_min([3, 1, 2]),
            dict(max_crashes=1, allow_recovery=True),
            600,
        ),
        "flood-min-links": (
            make_flood_min([3, 1, 2]),
            dict(max_losses=1, max_duplications=1),
            600,
        ),
        "quorum-commit-volatile": (
            make_quorum_commit(durable=False),
            dict(max_crashes=1, allow_recovery=True),
            2_000,
        ),
        "quorum-commit-durable": (
            make_quorum_commit(durable=True),
            dict(max_crashes=1, allow_recovery=True),
            2_000,
        ),
    }

    @pytest.mark.parametrize("engine", ["bfs", "dfs", "walk", "workers=2"])
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_protocols(self, case, engine):
        factory, budgets, max_states = self._CASES[case]
        model = _LockstepAmpModel(factory, **budgets)
        if engine == "walk":
            walks = RandomWalk(walks=30, max_depth=14, seed=2, max_states=max_states)
            explore(model, strategy=walks)
        elif engine == "workers=2":
            # A worker's failed check reruns the search in-process, where
            # it fails again.
            explore(model, strategy=BFS(max_states), reduce=False, workers=2)
        else:
            strategy = (BFS if engine == "bfs" else DFS)(max_states)
            explore(model, strategy=strategy, reduce=False)
        if engine != "workers=2":
            assert model.checked > 0
            model.check_replays()
