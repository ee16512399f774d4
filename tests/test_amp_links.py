"""Link models and the retransmit+dedup reliable-channel layer.

The acceptance bar: retransmit + dedup (:class:`ReliableChannel`) over a
fair-loss link is *observationally equivalent* to the bare protocol over
the paper's reliable link — pinned as golden ``observation_hash`` values
for flooding, reliable broadcast, and ABD, across seeds and under a
crash schedule.  The channel numbers each send call once; the
per-destination channel it replaced is kept below as the differential
reference for every crash-stop run.
"""

import importlib
import random
from typing import Dict, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError
from repro.core.volume import payload_units
from repro.amp import (
    AbdNode,
    AsyncProcess,
    AsyncRuntime,
    Context,
    CrashAt,
    DuplicatingLink,
    FairLossLink,
    FixedDelay,
    LinkModel,
    RecoverAt,
    ReliableBroadcast,
    ReliableChannel,
    ReliableLink,
    ReorderingLossLink,
    UniformDelay,
    observation_hash,
    wrap_reliable,
)
from repro.trace import DELIVER, DROP, SEND, MemorySink, replay, trace_hash
from tests.test_amp_network import Scripted, _payloads


class LoseFirst(LinkModel):
    """Deterministic adversary: lose the first ``k`` physical sends."""

    def __init__(self, k):
        self.k = k
        self._count = 0

    def fates(self, src, dst, send_time, rng):
        self._count += 1
        return () if self._count <= self.k else (0.0,)


class Recorder(AsyncProcess):
    """Logs every delivery — works bare or as a channel's inner process."""

    def __init__(self):
        self.got = []

    def on_message(self, ctx, src, payload):
        self.got.append((src, payload))


class Burst(AsyncProcess):
    def on_start(self, ctx):
        if ctx.pid == 0:
            ctx.broadcast("blast", include_self=False)


class Gossip(AsyncProcess):
    def __init__(self):
        self.heard = []

    def on_start(self, ctx):
        ctx.broadcast(("id", ctx.pid), include_self=False)

    def on_message(self, ctx, src, payload):
        self.heard.append(src)


class TestLinkModelValidation:
    def test_fair_loss_probability_range(self):
        for loss in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                FairLossLink(loss)

    def test_fair_loss_streak_cap_positive(self):
        with pytest.raises(ConfigurationError):
            FairLossLink(0.5, max_consecutive_losses=0)

    def test_duplicating_validation(self):
        with pytest.raises(ConfigurationError):
            DuplicatingLink(duplicate=1.5)
        with pytest.raises(ConfigurationError):
            DuplicatingLink(copies=1)

    def test_reordering_jitter_nonnegative(self):
        with pytest.raises(ConfigurationError):
            ReorderingLossLink(jitter=-1.0)

    def test_channel_retry_period_positive(self):
        with pytest.raises(ConfigurationError):
            ReliableChannel(Recorder(), retry_every=0.0)


class TestLinkModelFates:
    def test_reliable_link_is_one_copy_no_extra_delay(self):
        rng = random.Random(0)
        assert ReliableLink().fates(0, 1, 0.0, rng) == (0.0,)
        assert LinkModel().fates(0, 1, 0.0, rng) == (0.0,)

    def test_fair_loss_mixes_loss_and_delivery(self):
        link = FairLossLink(0.5)
        rng = random.Random(1)
        fates = [link.fates(0, 1, 0.0, rng) for _ in range(200)]
        assert any(f == () for f in fates) and any(f == (0.0,) for f in fates)

    def test_fair_loss_streak_cap_bounds_consecutive_losses(self):
        """With the cap, "retransmit forever" succeeds on *every* seed,
        not just with probability 1."""
        link = FairLossLink(0.99, max_consecutive_losses=3)
        rng = random.Random(2)
        streak = worst = 0
        for _ in range(500):
            if link.fates(0, 1, 0.0, rng) == ():
                streak += 1
                worst = max(worst, streak)
            else:
                streak = 0
        assert worst == 3  # p=.99 surely hits the cap, never exceeds it

    def test_streak_cap_is_per_channel(self):
        link = FairLossLink(0.99, max_consecutive_losses=1)
        rng = random.Random(3)
        # Interleave two channels: each gets its own streak budget.
        for _ in range(50):
            a = link.fates(0, 1, 0.0, rng)
            b = link.fates(0, 2, 0.0, rng)
            assert a == () or b == () or True  # no crash; bound below
        assert link._streak.get((0, 1), 0) <= 1
        assert link._streak.get((0, 2), 0) <= 1

    def test_duplicating_copies(self):
        rng = random.Random(0)
        assert DuplicatingLink(1.0, copies=3).fates(0, 1, 0.0, rng) == (
            0.0,
            0.0,
            0.0,
        )
        assert DuplicatingLink(0.0).fates(0, 1, 0.0, rng) == (0.0,)

    def test_reordering_jitter_bounds(self):
        link = ReorderingLossLink(loss=0.3, duplicate=0.3, jitter=2.0)
        rng = random.Random(4)
        for _ in range(200):
            for extra in link.fates(0, 1, 0.0, rng):
                assert 0.0 <= extra <= 2.0


class TestLinkRuntimeIntegration:
    def test_seeded_lossy_runs_reproduce(self):
        def run_once():
            return AsyncRuntime(
                [Gossip() for _ in range(4)],
                delay_model=UniformDelay(0.1, 2.0),
                link_model=ReorderingLossLink(loss=0.3, duplicate=0.3),
                seed=5,
                quiesce_when_decided=False,
            ).run()

        assert run_once() == run_once()

    def test_losses_traced_and_replayable(self):
        def make():
            return [Gossip() for _ in range(4)]

        sink = MemorySink()
        original = AsyncRuntime(
            make(),
            delay_model=FixedDelay(1.0),
            link_model=FairLossLink(0.5),
            seed=1,
            quiesce_when_decided=False,
            sink=sink,
        ).run()
        losses = [
            e
            for e in sink.events
            if e.kind == DROP and e.data.get("reason") == "loss"
        ]
        assert losses, "seed 1 at 50% loss must lose something"
        # Logical sends are all recorded; only deliveries are fewer.
        assert original.messages_sent == 12
        assert original.messages_delivered == 12 - len(losses)
        replay_sink = MemorySink()
        replayed = replay(make(), sink.events, seed=1, sink=replay_sink)
        assert replayed == original
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)

    def test_duplicates_share_send_seq_and_replay(self):
        def make():
            return [Gossip(), Gossip()]

        sink = MemorySink()
        original = AsyncRuntime(
            make(),
            delay_model=FixedDelay(1.0),
            link_model=DuplicatingLink(1.0, copies=2),
            seed=0,
            quiesce_when_decided=False,
            sink=sink,
        ).run()
        sends = [e for e in sink.events if e.kind == SEND]
        delivers = [e for e in sink.events if e.kind == DELIVER]
        # Every logical send is traced once; each physical copy delivers
        # against the *same* send_seq.
        assert len(sends) == 2 and len(delivers) == 4
        send_seqs = {e.seq for e in sends}
        assert {e.data["send_seq"] for e in delivers} == send_seqs
        assert original.messages_delivered == 4
        replay_sink = MemorySink()
        replayed = replay(make(), sink.events, seed=0, sink=replay_sink)
        assert replayed == original
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)


class TestReliableChannel:
    def test_retransmission_recovers_a_lost_message(self):
        class OneShot(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.send(1, "precious")

        wrapped = wrap_reliable([OneShot(), Recorder()], retry_every=2.0)
        AsyncRuntime(
            wrapped,
            delay_model=FixedDelay(1.0),
            link_model=LoseFirst(1),
            quiesce_when_decided=False,
        ).run()
        assert wrapped[1].inner.got == [(0, "precious")]

    def test_dedup_gives_inner_protocol_exactly_once(self):
        wrapped = wrap_reliable([Burst(), Recorder(), Recorder()])
        AsyncRuntime(
            wrapped,
            delay_model=FixedDelay(1.0),
            link_model=DuplicatingLink(1.0, copies=3),
            quiesce_when_decided=False,
        ).run()
        for channel in wrapped[1:]:
            assert channel.inner.got == [(0, "blast")]

    def test_bare_protocol_sees_the_duplicates(self):
        """The contrast case: without the channel layer the inner
        protocol observes every physical copy."""
        procs = [Burst(), Recorder(), Recorder()]
        AsyncRuntime(
            procs,
            delay_model=FixedDelay(1.0),
            link_model=DuplicatingLink(1.0, copies=3),
            quiesce_when_decided=False,
        ).run()
        for proc in procs[1:]:
            assert proc.got == [(0, "blast")] * 3

    def test_crashed_sender_cannot_resurrect_lost_traffic(self):
        """A message lost on the wire stays lost if its sender crashes
        before retransmitting: the retry timer is dropped as dead-dst,
        and the crashed process's traffic never reappears."""

        class OneShot(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.send(1, "precious")

        wrapped = wrap_reliable([OneShot(), Recorder()], retry_every=2.0)
        sink = MemorySink()
        result = AsyncRuntime(
            wrapped,
            delay_model=FixedDelay(1.0),
            link_model=LoseFirst(1),
            crashes=[CrashAt(pid=0, time=1.0)],
            max_crashes=1,
            quiesce_when_decided=False,
            sink=sink,
        ).run()
        assert result.crashed == {0}
        assert wrapped[1].inner.got == []
        timer_drops = [
            e
            for e in sink.events
            if e.kind == DROP
            and "timer_seq" in e.data
            and e.data["reason"] == "dead-dst"
        ]
        assert timer_drops, "the pending retry timer must be accounted for"

    def test_in_flight_accounting_with_duplicated_copies(self):
        """drop_in_flight operates on *physical* copies: each duplicate
        has its own event id in the sender's in-flight set."""
        for drop, expect in ((1.0, ([], [])), (0.5, ([(0, "blast")] * 3, []))):
            procs = [Burst(), Recorder(), Recorder()]
            AsyncRuntime(
                procs,
                delay_model=FixedDelay(1.0),
                link_model=DuplicatingLink(1.0, copies=3),
                crashes=[CrashAt(pid=0, time=0.5, drop_in_flight=drop)],
                max_crashes=1,
                quiesce_when_decided=False,
            ).run()
            # 6 copies in flight (3 per destination); drop=0.5 kills the 3
            # newest — exactly the copies addressed to the later dst.
            assert (procs[1].got, procs[2].got) == expect, f"drop={drop}"

    def test_recovered_sender_is_not_deduplicated_away(self):
        """A recovered process's channel restarts its sequence counter,
        but its peers still hold the earlier incarnations' ``(src, seq)``
        pairs: what it sends after each recovery must still be delivered,
        on reliable links too."""

        class Restarter(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 1:
                    ctx.send(0, "before-crash")

            def on_recover(self, ctx):
                ctx.send(0, "after-recovery")

        def run(procs):
            AsyncRuntime(
                procs,
                delay_model=FixedDelay(1.0),
                crashes=[
                    CrashAt(pid=1, time=5.0),
                    RecoverAt(pid=1, time=6.0),
                    CrashAt(pid=1, time=10.0),
                    RecoverAt(pid=1, time=11.0),
                ],
                max_crashes=1,
                quiesce_when_decided=False,
            ).run()

        bare = [Recorder(), Restarter()]
        run(bare)
        assert bare[0].got == [
            (1, "before-crash"),
            (1, "after-recovery"),
            (1, "after-recovery"),
        ]
        wrapped = wrap_reliable([Recorder(), Restarter()])
        run(wrapped)
        assert wrapped[0].inner.got == bare[0].got


# -- the golden equivalence: retransmit+dedup over fair loss ≡ reliable -----


class FloodMin(AsyncProcess):
    def __init__(self, value, n):
        self.value = value
        self.n = n
        self.seen = {}

    def on_start(self, ctx):
        self.seen[ctx.pid] = self.value
        ctx.broadcast(("val", self.value), include_self=False)
        self._maybe(ctx)

    def on_message(self, ctx, src, payload):
        self.seen[src] = payload[1]
        self._maybe(ctx)

    def _maybe(self, ctx):
        if not ctx.decided and len(self.seen) == self.n:
            ctx.decide(min(self.seen.values()))
            ctx.halt()


class RbHost(AsyncProcess):
    def __init__(self, pid, n):
        self.n = n
        self.rb = ReliableBroadcast(pid, n)

    def on_start(self, ctx):
        self.rb.broadcast(ctx, ("hello", ctx.pid))

    def on_message(self, ctx, src, message):
        self.rb.handle(ctx, src, message)
        if not ctx.decided and len(self.rb.delivered) == self.n:
            ctx.decide(sorted(d.origin for d in self.rb.delivered))


def build_flood():
    procs = [FloodMin(v, 4) for v in (3, 1, 4, 1)]
    return procs, [CrashAt(pid=2, time=80.0)], False


def build_rb():
    procs = [RbHost(pid, 4) for pid in range(4)]
    return procs, [CrashAt(pid=0, time=80.0)], False


def build_abd():
    n = 5
    nodes = [AbdNode(pid, n) for pid in range(n)]
    nodes[0] = AbdNode(0, n, script=[("write", "v1")])
    # The pause makes the read strictly follow the write in *both* runs
    # (retransmission delays are bounded by the loss-streak cap), so the
    # result is timing-robust: the read returns the written value.
    nodes[1] = AbdNode(1, n, script=[("pause", 200.0), ("read",)])
    return nodes, [CrashAt(pid=4, time=1.5)], True


BUILDERS = {"flood": build_flood, "rb": build_rb, "abd": build_abd}

#: Golden observables: protocol outputs/decisions/crashes are identical
#: for "bare over reliable link" and "channel-wrapped over fair loss".
#: (The protocols are delay-robust by construction, so the hash is also
#: the same across seeds — pinned per (protocol, seed) regardless.)
_ABD = "dcd7ae8c82ed4f24b0bae84102b48ac5269278a3800d2c64e11f7298ea10da6e"
_FLOOD = "4e1de919207885e8111b12fb69d517b30c4f9be95d18328b94713aa751c62f0c"
_RB = "a2e20e0fa869e385cc0ffaf3b6c73d678564d947d3b038bfc32eb353c09a21d4"
GOLDEN = {
    ("abd", 11): _ABD,
    ("abd", 17): _ABD,
    ("flood", 11): _FLOOD,
    ("flood", 17): _FLOOD,
    ("rb", 11): _RB,
    ("rb", 17): _RB,
}


class TestObservationalEquivalence:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", [11, 17])
    def test_fair_loss_plus_retransmission_matches_reliable(self, name, seed):
        procs, crashes, quiesce = BUILDERS[name]()
        bare = AsyncRuntime(
            procs,
            delay_model=UniformDelay(0.1, 1.0),
            crashes=crashes,
            max_crashes=1,
            seed=seed,
            quiesce_when_decided=quiesce,
        ).run()

        procs, crashes, quiesce = BUILDERS[name]()
        lossy = AsyncRuntime(
            wrap_reliable(procs, retry_every=2.0),
            delay_model=UniformDelay(0.1, 1.0),
            link_model=FairLossLink(0.3, max_consecutive_losses=3),
            crashes=crashes,
            max_crashes=1,
            seed=seed,
            quiesce_when_decided=quiesce,
        ).run()

        assert observation_hash(lossy) == observation_hash(bare)
        assert observation_hash(bare) == GOLDEN[(name, seed)]
        # Sanity: the lossy run really worked for its equivalence — it
        # paid for it in (strictly more) physical traffic.
        assert lossy.messages_sent > bare.messages_sent

    def test_lossy_run_decides_what_golden_pins(self):
        """Decode one golden entry: under flooding everyone agrees on
        the global minimum despite 30% loss."""
        procs, crashes, quiesce = build_flood()
        result = AsyncRuntime(
            wrap_reliable(procs),
            delay_model=UniformDelay(0.1, 1.0),
            link_model=FairLossLink(0.3, max_consecutive_losses=3),
            crashes=crashes,
            max_crashes=1,
            seed=11,
            quiesce_when_decided=quiesce,
        ).run()
        assert list(result.outputs) == [1, 1, 1, 1]
        assert result.crashed == {2}


# -- the per-destination channel, kept as the differential reference --------

_DATA = "rdx"
_ACK = "rdx-ack"
_RETRY = ("rdx-retry",)
_INNER = "rdx-inner"


class _PerDestinationLinkContext:
    """The inner protocol's view of the world: a reliable channel.

    Delegates everything observable to the real :class:`Context`;
    intercepts ``send``/``broadcast`` (to tag + buffer for
    retransmission) and ``set_timer`` (to namespace inner timer names
    away from the channel's own retry timer).
    """

    def __init__(self, channel: "_PerDestinationChannel", ctx: Context) -> None:
        self._channel = channel
        self._ctx = ctx

    @property
    def pid(self) -> int:
        return self._ctx.pid

    @property
    def n(self) -> int:
        return self._ctx.n

    @property
    def decided(self) -> bool:
        return self._ctx.decided

    @property
    def output(self) -> object:
        return self._ctx.output

    @property
    def halted(self) -> bool:
        return self._channel._inner_halted

    @property
    def time(self) -> float:
        return self._ctx.time

    @property
    def stable(self):
        return self._ctx.stable

    def send(self, dst: int, payload: object) -> None:
        self._channel._reliable_send(self._ctx, dst, payload)

    def broadcast(self, payload: object, include_self: bool = True) -> None:
        for dst in range(self.n):
            if dst == self.pid and not include_self:
                continue
            self.send(dst, payload)

    def set_timer(self, delay: float, name: object = None) -> None:
        self._ctx.set_timer(delay, (_INNER, name))

    def failure_detector(self) -> object:
        return self._ctx.failure_detector()

    def random(self):
        return self._ctx.random()

    def decide(self, value: object) -> None:
        self._ctx.decide(value)

    def halt(self) -> None:
        # The inner protocol is done, but the channel layer stays up:
        # it keeps acking (so peers' retransmissions quiesce) and keeps
        # retransmitting its own backlog — exactly what a reliable link
        # owes messages already accepted for transmission.
        self._channel._inner_halted = True


class _PerDestinationChannel(AsyncProcess):
    """``ReliableChannel`` before one seq per send call, kept verbatim
    (with its ``_LinkContext``, above) as the reference: every
    destination numbers its own seqs, and a broadcast is one send call,
    and one payload measure, per destination.  Its seqs restart at 0
    after a recovery, so it is the reference for crash-stop runs only.

    ``retry_every`` is the retransmission period (virtual time); it only
    trades virtual time for traffic — correctness needs no tuning.
    """

    def __init__(self, inner: AsyncProcess, retry_every: float = 2.0) -> None:
        if retry_every <= 0:
            raise ConfigurationError("retry_every must be > 0")
        self.inner = inner
        self.retry_every = retry_every
        #: (dst, seq) → payload, awaiting the destination's ack
        self._unacked: Dict[Tuple[int, int], object] = {}
        self._next_seq: Dict[int, int] = {}
        #: (src, seq) pairs already delivered to the inner protocol
        self._seen: Set[Tuple[int, int]] = set()
        self._retry_armed = False
        self._inner_halted = False

    # -- sender side -------------------------------------------------------

    def _reliable_send(self, ctx: Context, dst: int, payload: object) -> None:
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        self._unacked[(dst, seq)] = payload
        ctx.send(dst, (_DATA, seq, payload))
        if not self._retry_armed:
            self._retry_armed = True
            ctx.set_timer(self.retry_every, _RETRY)

    # -- the AsyncProcess surface -----------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.inner.on_start(_PerDestinationLinkContext(self, ctx))

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        tag = payload[0] if isinstance(payload, tuple) and payload else None
        if tag == _DATA:
            _, seq, inner_payload = payload
            # Always ack — the previous ack may have been the lost copy.
            ctx.send(src, (_ACK, seq))
            if (src, seq) not in self._seen:
                self._seen.add((src, seq))
                if not self._inner_halted:
                    self.inner.on_message(
                        _PerDestinationLinkContext(self, ctx), src, inner_payload
                    )
        elif tag == _ACK:
            self._unacked.pop((src, payload[1]), None)
        # anything else is not ours; bare protocols never see it either

    def on_timer(self, ctx: Context, name: object) -> None:
        if name == _RETRY:
            self._retry_armed = False
            if self._unacked:
                # Sorted for determinism: the analyzer's rule that no
                # unordered iteration feeds sends applies here too.
                for (dst, seq), payload in sorted(self._unacked.items()):
                    ctx.send(dst, (_DATA, seq, payload))
                self._retry_armed = True
                ctx.set_timer(self.retry_every, _RETRY)
        elif isinstance(name, tuple) and len(name) == 2 and name[0] == _INNER:
            if not self._inner_halted:
                self.inner.on_timer(_PerDestinationLinkContext(self, ctx), name[1])

    def on_recover(self, ctx: Context) -> None:
        # The channel's buffers were volatile too: a recovered process
        # restarts its channel layer from scratch (sequence numbers and
        # dedup state reset with the rest of memory).
        self.inner.on_recover(_PerDestinationLinkContext(self, ctx))


_channel_actions = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 4), _payloads),
    st.tuples(st.just("bcast"), st.booleans(), _payloads),
    st.tuples(st.just("timer"), st.sampled_from([0.5, 1.0, 2.5]), _payloads),
)
_channel_protocols = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.lists(_channel_actions, max_size=5), min_size=n, max_size=n)
)

_LOSSY_LINKS = {
    "fair-loss": lambda: FairLossLink(0.3, max_consecutive_losses=2),
    "duplicating": lambda: DuplicatingLink(0.4),
    "reordering-loss": lambda: ReorderingLossLink(
        0.2, 0.3, jitter=1.5, max_consecutive_losses=2
    ),
}


def _run_channels(channel_cls, scripts, link, crash, seed, retry_every=2.0):
    # Retransmission to the crashed pid never stops, so a run that does
    # not settle ends at the event budget: the same event in both runs.
    return AsyncRuntime(
        [channel_cls(Scripted(script), retry_every) for script in scripts],
        delay_model=UniformDelay(0.1, 2.0),
        link_model=_LOSSY_LINKS[link](),
        crashes=[crash],
        max_crashes=1,
        seed=seed,
        max_events=3_000,
    ).run()


class TestMatchesPerDestinationChannel:
    """One seq per send call, shared by the call's copies, against the
    per-destination channel: equal on every crash-stop run whose retry
    timers never fire at the very time of their fan-out's copies."""

    @pytest.mark.parametrize("link", sorted(_LOSSY_LINKS))
    @settings(max_examples=40, deadline=None)
    @given(
        scripts=_channel_protocols,
        data=st.data(),
        drop=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_every_result_field_matches(self, link, scripts, data, drop, seed):
        crash = CrashAt(
            pid=data.draw(st.integers(0, len(scripts) - 1)),
            time=data.draw(st.sampled_from([0.05, 0.5, 1.5, 4.0])),
            drop_in_flight=drop,
        )
        new = _run_channels(ReliableChannel, scripts, link, crash, seed)
        ref = _run_channels(_PerDestinationChannel, scripts, link, crash, seed)
        assert new == ref
        assert observation_hash(new) == observation_hash(ref)

    def test_fixed_delay_tie_keeps_observations(self):
        """The one order the channel changed.  With ``FixedDelay(d)`` and
        ``retry_every == d`` a fan-out's retry timer fires at the very
        time its copies arrive.  The per-destination channel armed it
        after the first copy, so it fired before the rest; it now takes
        its event id after every copy of the call and fires after them.
        Later fates draw in another order, so message counts and times
        may differ; what the protocol observes may not."""
        results = []
        for channel_cls in (ReliableChannel, _PerDestinationChannel):
            procs, crashes, quiesce = build_abd()
            results.append(
                AsyncRuntime(
                    [channel_cls(p, retry_every=1.0) for p in procs],
                    delay_model=FixedDelay(1.0),
                    link_model=FairLossLink(0.3, max_consecutive_losses=3),
                    crashes=crashes,
                    max_crashes=1,
                    seed=11,
                    quiesce_when_decided=quiesce,
                ).run()
            )
        new, ref = results
        assert observation_hash(new) == observation_hash(ref) == GOLDEN[("abd", 11)]
        # Keeps the example a real tie: here the order did change.
        assert new.messages_sent != ref.messages_sent

    def test_one_payload_measure_per_inner_send_call(self, monkeypatch):
        """A wrapped send call, broadcast or not, is one send call of the
        runtime: its payload is measured once, and every copy is still
        charged for it."""
        calls = []

        def counting(payload):
            calls.append(payload)
            return payload_units(payload)

        monkeypatch.setattr(
            importlib.import_module("repro.amp.network"), "payload_units", counting
        )

        class Chatty(AsyncProcess):
            def on_start(self, ctx):
                ctx.broadcast(("hi", ctx.pid))
                ctx.send((ctx.pid + 1) % ctx.n, ("one", ctx.pid))
                ctx.broadcast(("all-but-me", ctx.pid), include_self=False)

        def run(channel_cls):
            del calls[:]
            # Acks are back at t=2, before the first retry at t=5: no
            # copy is retransmitted, so each data measure is a send call.
            result = AsyncRuntime(
                [channel_cls(Chatty(), retry_every=5.0) for _ in range(4)],
                delay_model=FixedDelay(1.0),
                quiesce_when_decided=False,
            ).run()
            return result, sum(1 for payload in calls if payload[0] == _DATA)

        new, data_measures = run(ReliableChannel)
        assert data_measures == 4 * 3
        ref, ref_measures = run(_PerDestinationChannel)
        assert ref_measures == 4 * (4 + 1 + 3)
        assert new == ref
        assert new.messages_sent == 2 * 4 * (4 + 1 + 3)  # data copies + acks
