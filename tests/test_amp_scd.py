"""SCD-broadcast: delivery invariants, the object family, linearizability.

The contract under test (Imbs–Mostéfaoui–Perrin–Raynal): processes
deliver *sets* of messages such that no two processes deliver two
messages in opposite strict orders (MS-Ordering), each message exactly
once (Integrity), and all messages eventually (Termination, ``t <
n/2``).  That suffices — with no consensus anywhere — for snapshot
objects, counters, and a linearizable KV store.
"""

import hashlib
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.amp import (
    Counter,
    CrashAt,
    DuplicatingLink,
    FairLossLink,
    ReorderingLossLink,
    ScdBroadcast,
    ScdMessage,
    ScdNode,
    SnapshotObject,
    UniformDelay,
    check_kv_convergence,
    check_scd_histories,
    check_uniform_set_sequences,
    make_scd_kv,
    run_processes,
    wrap_reliable,
)
from repro.amp.network import Context
from repro.amp.scd import DELETED, MessageId, MessageSet
from repro.core.exceptions import ConfigurationError, ModelViolation
from repro.core.history import History
from repro.core.linearizability import is_linearizable
from repro.core.seqspec import SequentialSpec


def run_scd(n, payload_lists, seed=0, **kwargs):
    expected = sum(len(p) for p in payload_lists)
    nodes = [
        ScdNode(pid, n, payload_lists[pid], expected=expected)
        for pid in range(n)
    ]
    result = run_processes(
        nodes,
        delay_model=UniformDelay(0.1, 2.0),
        seed=seed,
        **kwargs,
    )
    return nodes, result


def kv_cell_spec():
    """Per-key sequential spec for the KV store's put/get/delete ops."""

    def apply(state, op, args):
        if op == "put":
            return args[1], None
        if op == "delete":
            return DELETED, None
        if op == "get":
            return state, (None if state in (None, DELETED) else state)
        raise ValueError(op)

    return SequentialSpec("kv-cell", None, apply)


class TestBroadcastInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_ms_ordering_and_integrity_n3(self, seed):
        nodes, result = run_scd(3, [["a0", "a1"], ["b0"], ["c0"]], seed=seed)
        assert all(result.decided)
        assert check_scd_histories([n.delivered_sets for n in nodes]) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_ms_ordering_n5(self, seed):
        payloads = [[f"p{pid}"] for pid in range(5)]
        nodes, result = run_scd(5, payloads, seed=seed)
        assert all(result.decided)
        assert check_scd_histories([n.delivered_sets for n in nodes]) is None

    def test_termination_under_minority_crash(self):
        # n=5 tolerates t=2: the two crashed processes' forwards are
        # not needed for the majority-stability rule.
        payloads = [["m0"], ["m1"], [], [], []]
        nodes = [ScdNode(pid, 5, payloads[pid], expected=2) for pid in range(5)]
        result = run_processes(
            nodes,
            delay_model=UniformDelay(0.1, 1.0),
            crashes=[CrashAt(3, 0.5), CrashAt(4, 0.7)],
            max_crashes=2,
            seed=4,
        )
        for pid in range(3):
            assert result.decided[pid]
        survivors = [nodes[pid].delivered_sets for pid in range(3)]
        assert check_scd_histories(survivors) is None

    def test_duplicating_link_is_deduplicated(self):
        nodes = [ScdNode(pid, 3, [f"p{pid}"], expected=3) for pid in range(3)]
        result = run_processes(
            nodes,
            delay_model=UniformDelay(0.2, 1.5),
            link_model=DuplicatingLink(duplicate=0.5, copies=3),
            seed=5,
        )
        assert all(result.decided)
        assert check_scd_histories([n.delivered_sets for n in nodes]) is None

    def test_survives_reordering_loss_when_wrapped(self):
        nodes = [ScdNode(pid, 3, [f"p{pid}"], expected=3) for pid in range(3)]
        result = run_processes(
            wrap_reliable(nodes, retry_every=1.5),
            delay_model=UniformDelay(0.2, 1.0),
            link_model=ReorderingLossLink(
                loss=0.25, duplicate=0.2, jitter=2.0, max_consecutive_losses=4
            ),
            seed=3,
            max_events=200_000,
        )
        assert all(result.decided)
        assert check_scd_histories([n.delivered_sets for n in nodes]) is None

    def test_n1_delivers_synchronously(self):
        nodes, result = run_scd(1, [["only"]])
        assert result.decided == [True]
        assert len(nodes[0].delivered_sets) == 1

    def test_golden_history_digest_is_pinned(self):
        # Regression pin: the delivered set sequences for one fixed
        # schedule.  A refactor that reorders deliveries (even legally)
        # shows up here and must be acknowledged explicitly.
        nodes, result = run_scd(3, [["a"], ["b"], ["c"]], seed=2024)
        canonical = repr(
            [
                [tuple(m.message_id for m in s) for s in node.delivered_sets]
                for node in nodes
            ]
        )
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == (
            "2cab41ab7edc52cf5ffd8edb8ed61632c02b7cb2d96505aa8c19219b9eeb30b2"
        ), canonical

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ScdBroadcast(0, 0)
        with pytest.raises(ConfigurationError):
            ScdBroadcast(3, 3)


class TestHistoryCheckers:
    def msg(self, origin, seq):
        return ScdMessage(origin, seq, f"payload-{origin}-{seq}")

    def test_accepts_same_set_delivery(self):
        a, b = self.msg(0, 0), self.msg(1, 0)
        histories = [[(a, b)], [(a, b)]]
        assert check_scd_histories(histories) is None

    def test_rejects_opposite_orders(self):
        a, b = self.msg(0, 0), self.msg(1, 0)
        histories = [[(a,), (b,)], [(b,), (a,)]]
        assert "MS-ordering" in check_scd_histories(histories)

    def test_allows_one_sided_split(self):
        # One process splits {a} before {b}; the other delivers both in
        # one set: never an *opposite* strict order.
        a, b = self.msg(0, 0), self.msg(1, 0)
        histories = [[(a,), (b,)], [(a, b)]]
        assert check_scd_histories(histories) is None

    def test_rejects_duplicate_delivery(self):
        a = self.msg(0, 0)
        histories = [[(a,), (a,)]]
        assert "integrity" in check_scd_histories(histories).lower()

    def test_uniform_sequences_detects_divergence(self):
        a, b = self.msg(0, 0), self.msg(1, 0)
        same = [[(a,), (b,)], [(a,), (b,)]]
        split = [[(a,), (b,)], [(a, b)]]
        assert check_uniform_set_sequences(same) is None
        assert check_uniform_set_sequences(split) is not None


class TestKvStore:
    SCRIPTS = [
        [("put", "a", 1), ("get", "a")],
        [("put", "a", 2), ("get", "a")],
        [("get", "a"), ("put", "b", 7), ("delete", "a"), ("get", "a")],
    ]

    @pytest.mark.parametrize("seed", range(8))
    def test_linearizable_against_sequential_spec(self, seed):
        history = History()
        nodes = make_scd_kv(3, self.SCRIPTS, history)
        result = run_processes(
            nodes, delay_model=UniformDelay(0.1, 2.0), seed=seed
        )
        assert all(result.decided)
        check_kv_convergence(nodes)
        specs = {obj: kv_cell_spec() for obj in history.objects()}
        assert is_linearizable(history, specs), seed

    def test_convergence_checker_catches_divergence(self):
        history = History()
        nodes = make_scd_kv(3, self.SCRIPTS, history)
        run_processes(nodes, delay_model=UniformDelay(0.1, 2.0), seed=1)
        nodes[0].store["planted"] = ((99, 0), "divergent")
        with pytest.raises(ModelViolation):
            check_kv_convergence(nodes)

    def test_deleted_keys_are_invisible(self):
        history = History()
        scripts = [[("put", "x", 5)], [("delete", "x")], [("get", "x")]]
        nodes = make_scd_kv(3, scripts, history)
        run_processes(nodes, delay_model=UniformDelay(0.1, 0.5), seed=3)
        check_kv_convergence(nodes)
        states = [node.visible_state() for node in nodes]
        for state in states:
            assert all(key != "x" or value != DELETED for key, value in state)


class TestCounterAndSnapshot:
    def test_counter_sums_all_increments(self):
        scripts = [
            [("incr", 5), ("read",)],
            [("incr", 3)],
            [("incr", 2), ("read",)],
        ]
        nodes = [Counter(pid, 3, scripts[pid]) for pid in range(3)]
        result = run_processes(
            nodes, delay_model=UniformDelay(0.1, 1.0), seed=6
        )
        assert all(result.decided)
        # The final read at every replica (after quiescence) is 10.
        assert all(node.value == 10 for node in nodes)

    def test_snapshot_reads_whole_object(self):
        scripts = [
            [("write", 0, "a"), ("snapshot",)],
            [("write", 1, "b"), ("snapshot",)],
            [("snapshot",)],
        ]
        nodes = [SnapshotObject(pid, 3, scripts[pid]) for pid in range(3)]
        result = run_processes(
            nodes, delay_model=UniformDelay(0.1, 1.0), seed=2
        )
        assert all(result.decided)
        final = {node.visible_state() for node in nodes}
        assert len(final) == 1  # replicas converged
        assert dict(final.pop()) == {0: "a", 1: "b"}


class TestUnderLossyLinksKv:
    def test_kv_linearizable_over_fair_loss(self):
        history = History()
        nodes = make_scd_kv(3, TestKvStore.SCRIPTS, history)
        result = run_processes(
            wrap_reliable(nodes, retry_every=1.5),
            delay_model=UniformDelay(0.1, 0.8),
            link_model=FairLossLink(loss=0.2, max_consecutive_losses=4),
            seed=9,
            max_events=300_000,
        )
        assert all(result.decided)
        check_kv_convergence(nodes)
        specs = {obj: kv_cell_spec() for obj in history.objects()}
        assert is_linearizable(history, specs)


# ---------------------------------------------------------------------------
# Lockstep differential test against the full-pass delivery code
# ---------------------------------------------------------------------------


class _ReferenceScdBroadcast(ScdBroadcast):
    """``ScdBroadcast`` before the stable set, the skipped delivery passes
    and the in-order fast path: every forward goes through the reorder
    buffer, and every broadcast and every handled batch of forwards runs
    the sorted fixpoint over all undelivered ids.  Kept verbatim as the
    reference the optimized class must match call for call."""

    def broadcast(self, ctx: Context, payload: object) -> MessageId:
        message_id = (self.pid, self._next_seq)
        self._next_seq += 1
        self._payloads[message_id] = payload
        self._undelivered.add(message_id)
        self._record_own_forward(ctx, message_id, payload)
        self._try_deliver(ctx)
        return message_id

    def _record_own_forward(
        self, ctx: Context, message_id: MessageId, payload: object
    ) -> None:
        self._forwarded.add(message_id)
        self.clock += 1
        self._forwards.setdefault(message_id, {})[self.pid] = self.clock
        ctx.broadcast(
            (self.tag, "fwd", message_id, payload, self.pid, self.clock),
            include_self=False,
        )

    def handle(self, ctx: Context, src: int, message: object) -> List[MessageSet]:
        if not (isinstance(message, tuple) and message and message[0] == self.tag):
            return []
        _, _, message_id, payload, forwarder, fwd_clock = message
        if forwarder == self.pid:
            return []  # a wire reflection of my own forward: already counted
        next_clock = self._next_clock.setdefault(forwarder, 1)
        if fwd_clock < next_clock:
            return []  # link-level duplicate of an already processed forward
        buffer = self._reorder.setdefault(forwarder, {})
        buffer[fwd_clock] = (message_id, payload)
        processed = False
        while self._next_clock[forwarder] in buffer:
            mid, pay = buffer.pop(self._next_clock[forwarder])
            self._next_clock[forwarder] += 1
            self._process_forward(ctx, mid, pay, forwarder)
            processed = True
        if not processed:
            return []
        return self._try_deliver(ctx)

    def _process_forward(
        self, ctx: Context, message_id: MessageId, payload: object, forwarder: int
    ) -> None:
        self._payloads.setdefault(message_id, payload)
        if message_id not in self._delivered_ids:
            self._undelivered.add(message_id)
        clocks = self._forwards.setdefault(message_id, {})
        clocks[forwarder] = self._next_clock[forwarder] - 1
        if message_id not in self._forwarded:
            self._record_own_forward(ctx, message_id, payload)

    def _try_deliver(self, ctx: Context) -> List[MessageSet]:
        undelivered = sorted(self._undelivered)
        quorum = self.quorum
        candidate = {
            mid for mid in undelivered if len(self._forwards[mid]) >= quorum
        }
        changed = True
        while changed:
            changed = False
            for mid in sorted(candidate):
                for other in undelivered:
                    if other == mid or other in candidate:
                        continue
                    if self._orders_before(mid, other) < quorum:
                        candidate.discard(mid)
                        changed = True
                        break
        if not candidate:
            return []
        message_set: MessageSet = tuple(
            ScdMessage(mid[0], mid[1], self._payloads[mid])
            for mid in sorted(candidate)
        )
        self._delivered_ids.update(candidate)
        self._undelivered.difference_update(candidate)
        self.delivered_sets.append(message_set)
        if self.on_deliver is not None:
            self.on_deliver(ctx, message_set)
        return [message_set]


class _RecordingContext:
    """What ``ScdBroadcast`` uses of a ``Context``: ``broadcast``, recorded
    instead of sent.  ``scd`` is the instance this context drives."""

    def __init__(self, pid):
        self.pid = pid
        self.scd = None
        self.sent = []

    def broadcast(self, payload, include_self=True):
        self.sent.append((payload, include_self))


def _write_after_sync(ctx, message_set):
    """Broadcast from inside ``on_deliver``, like the KV service's
    sync-then-write: each delivered own ``("sync", k)`` sends a write."""
    for message in message_set:
        if message.origin == ctx.pid and message.payload[0] == "sync":
            ctx.scd.broadcast(ctx, ("write", message.payload[1]))


class _Lockstep:
    """Per pid, one ``ScdBroadcast`` and one reference fed identically;
    ``pending`` holds every forward copy sent and not yet delivered."""

    def __init__(self, n):
        self.n = n
        self.sides = []
        for cls in (ScdBroadcast, _ReferenceScdBroadcast):
            contexts = [_RecordingContext(pid) for pid in range(n)]
            for ctx in contexts:
                ctx.scd = cls(ctx.pid, n, on_deliver=_write_after_sync)
            self.sides.append(contexts)
        self.pending = []

    def call(self, pid, method, *args):
        outcomes = []
        for contexts in self.sides:
            ctx = contexts[pid]
            start = len(ctx.sent)
            returned = getattr(ctx.scd, method)(ctx, *args)
            outcomes.append(
                (returned, ctx.scd.delivered_sets, repr(ctx.scd), ctx.sent[start:])
            )
        assert outcomes[0] == outcomes[1]
        for payload, include_self in outcomes[0][3]:
            self.pending.extend(
                (pid, dst, payload)
                for dst in range(self.n)
                if include_self or dst != pid
            )


class TestLockstepWithReference:
    """The stable set, the skipped passes and the in-order fast path
    change no returned set, no delivered set, no ``repr`` (which the
    explorer fingerprints) and no send, on any schedule: any pid
    broadcasts at any step, forwards arrive in any order, and any
    forward may arrive twice."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 5),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["plain", "sync", "deliver", "duplicate"]),
                st.integers(0, 255),
            ),
            max_size=40,
        ),
    )
    def test_matches_full_pass_reference(self, n, steps):
        net = _Lockstep(n)
        for kind, k in steps:
            if kind in ("plain", "sync"):
                net.call(k % n, "broadcast", (kind, k))
            elif net.pending:
                index = k % len(net.pending)
                if kind == "deliver":
                    src, dst, message = net.pending.pop(index)
                else:
                    src, dst, message = net.pending[index]
                net.call(dst, "handle", src, message)
        while net.pending:  # then everything arrives, so every id delivers
            src, dst, message = net.pending.pop()
            net.call(dst, "handle", src, message)
        for pid in range(n):
            delivered = {
                m.message_id
                for message_set in net.sides[0][pid].scd.delivered_sets
                for m in message_set
            }
            assert delivered == net.sides[0][pid].scd._payloads.keys()
