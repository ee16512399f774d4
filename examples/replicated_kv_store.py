#!/usr/bin/env python3
"""A crash-recovering replicated key-value store over lossy links.

The workload the paper's universality discussion motivates: keep one
logical object alive across an asynchronous, crash-prone cluster.  The
stack, bottom-up, is exactly the paper's:

    Ω (failure detector) → consensus → TO-broadcast → replicated KV store

run over the full PR 6 failure-model menu:

* **fair-loss links** — every channel drops ~20% of messages; each
  replica is wrapped in a retransmit+dedup
  :class:`~repro.amp.links.ReliableChannel`, the constructive half of
  "fair loss + retransmission ≡ reliable";
* **crash recovery** — replica 4 crashes mid-sequencing (taking half
  its in-flight messages along) and later *recovers* with its memory
  wiped.  A :class:`DurableKvReplica` checkpoints the applied log to
  ``ctx.stable`` after every batch, so the recovered replica rejoins
  holding the exact object it had sequenced — instead of an empty one.

At the end every never-crashed replica holds the identical store, and
the recovered replica's log is a *prefix* of it (safety through the
crash; how far it caught up depends on what was still in flight).

Run:  python examples/replicated_kv_store.py
"""

from repro.amp import (
    CrashAt,
    FairLossLink,
    OmegaFD,
    RecoverAt,
    UniformDelay,
    run_processes,
    wrap_reliable,
)
from repro.amp.smr import (
    ReplicatedStateMachine,
    check_mutual_consistency,
    make_replicated_machine,
)
from repro.core.seqspec import SequentialSpec


def kv_spec() -> SequentialSpec:
    """A key-value store as a sequential specification.

    State: a frozenset of (key, value) pairs (hashable, as specs require).
    Ops: ``put(k, v) -> old``, ``get(k) -> value | None``,
    ``delete(k) -> had_key``.
    """

    def apply(state, op, args):
        table = dict(state)
        if op == "put":
            key, value = args
            old = table.get(key)
            table[key] = value
            return frozenset(table.items()), old
        if op == "get":
            (key,) = args
            return state, table.get(key)
        if op == "delete":
            (key,) = args
            existed = key in table
            table.pop(key, None)
            return frozenset(table.items()), existed
        raise ValueError(f"kv: unknown operation {op!r}")

    return SequentialSpec("kv", frozenset(), apply)


class DurableKvReplica(ReplicatedStateMachine):
    """SMR repaired for crash-recovery: checkpoint after every decided
    batch, reload on recovery.  ``ordered_ids``/``next_instance`` make
    the checkpoint idempotent — retransmitted pre-crash traffic cannot
    re-apply commands the replica already executed."""

    def _on_batch_decided(self, ctx, k, batch):
        super()._on_batch_decided(ctx, k, batch)
        ctx.stable.put("state", self.replica_state)
        ctx.stable.put("applied", tuple(self.applied))
        ctx.stable.put("responses", tuple(self.my_responses))
        ctx.stable.put("ordered", tuple(sorted(self.ordered_ids)))
        ctx.stable.put("log", tuple(self.log))
        ctx.stable.put("next_instance", self.next_instance)

    def on_recover(self, ctx):
        self.replica_state = ctx.stable.get("state", self.spec.initial)
        self.applied = list(ctx.stable.get("applied", ()))
        self.my_responses = list(ctx.stable.get("responses", ()))
        self.ordered_ids = set(ctx.stable.get("ordered", ()))
        self.log = list(ctx.stable.get("log", ()))
        self.next_instance = ctx.stable.get("next_instance", 0)


def main() -> None:
    n, t = 5, 2
    commands = [
        [("put", ("lang", "python")), ("put", ("paper", "icdcs16"))],  # replica 0
        [("put", ("lang", "ocaml")), ("get", ("lang",))],              # replica 1
        [("put", ("venue", "nara")), ("delete", ("nope",))],           # replica 2
        [("get", ("venue",)), ("put", ("year", 2016))],                # replica 3
        [("put", ("author", "raynal")), ("get", ("author",))],         # replica 4
    ]
    total_submitted = sum(len(c) for c in commands)
    replicas = [
        DurableKvReplica(pid, n, t, kv_spec(), commands[pid])
        for pid in range(n)
    ]
    for replica in replicas:
        replica.expected_count = total_submitted

    channels = wrap_reliable(replicas, retry_every=1.5)
    result = run_processes(
        channels,
        delay_model=UniformDelay(0.2, 1.5),
        link_model=FairLossLink(loss=0.2, max_consecutive_losses=4),
        crashes=[
            CrashAt(pid=4, time=14.0, drop_in_flight=0.5),
            RecoverAt(pid=4, time=17.0),
        ],
        max_crashes=t,
        failure_detector=OmegaFD(n, tau=4.0),
        seed=7,
        max_events=400_000,
        quiesce_when_decided=False,
    )

    healthy = [pid for pid in range(n) if pid not in result.crashed]
    print(f"recovered: {sorted(result.recovered)}, up at the end: {healthy}")
    # Recovery restores a channel from its snapshot, inner replica
    # included, so the live replicas are the channels' inner objects.
    replicas = [channel.inner for channel in channels]

    # Never-crashed replicas sequenced everything; the recovered one
    # holds a consistent prefix (the checker enforces exactly that).
    check_mutual_consistency(replicas)
    print("replica logs are mutually consistent (prefix rule) ✔")

    reference = max(replicas, key=lambda r: len(r.log))
    print(f"commands sequenced: {len(reference.log)} / {total_submitted} submitted")
    print("final store (longest-log replica):")
    for key, value in sorted(dict(reference.replica_state).items()):
        print(f"  {key!r}: {value!r}")

    never_crashed = [replicas[pid] for pid in range(4)]
    states = {r.replica_state for r in never_crashed}
    print(f"all never-crashed replica states identical: {len(states) == 1} ✔")
    caught_up = len(replicas[4].log)
    assert caught_up > 0, "the durable checkpoint should survive the crash"
    print(
        f"recovered replica rejoined with {caught_up}/{len(reference.log)} "
        "commands applied — durably, not from scratch ✔"
    )


if __name__ == "__main__":
    main()
