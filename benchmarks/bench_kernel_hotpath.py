"""Hot-path stress — AMP kernel bookkeeping at n=32, ~50k messages,
plus the synchronous kernel's per-round allocation churn.

The seed AMP kernel tracked in-flight messages in per-sender *lists*:
every delivery did ``event_id in list`` + ``list.remove`` — O(m) each,
O(m²) per run once a sender has a large burst outstanding.  The current
kernel keeps no per-message index at all: a crash finds the crashing
sender's undelivered copies with one pass over the event heap and
cancels them lazily, so a send or a delivery pays nothing for it.

``_LegacyRuntime`` below reinstates the seed's list bookkeeping verbatim,
on the kernel's current event format, so the before/after is measured
head-to-head on the same machine, same workload, same event timeline.
Both runtimes must agree on every observable (sent / delivered / final
time) — the optimization is semantics-preserving — and the current
kernel must win by ≥ 5×.

The synchronous kernel had its own churn: every round allocated ``n``
fresh inbox dicts, two fresh send maps, and one closure per active
process.  ``_LegacySyncRunner`` reinstates that allocate-per-round loop
(same phase structure, same iteration orders) so the container-reuse fix
is measured head-to-head on a sparse-traffic workload where per-round
fixed costs dominate.

Also runnable standalone (CI smoke): ``python benchmarks/bench_kernel_hotpath.py --smoke``.
"""

import heapq
import time

from repro.amp.network import AsyncProcess, AsyncRuntime, CrashAt, DelayModel
from repro.core.volume import payload_units
from repro.sync.algorithms import make_aggregate_flooders
from repro.sync.kernel import SynchronousRunner, SyncRunResult
from repro.sync.topology import ring


class _LegacyRuntime(AsyncRuntime):
    """The seed kernel's O(m) list bookkeeping, for comparison only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._in_flight = {pid: [] for pid in range(self.n)}

    def _send(self, src, dsts, payload):
        from repro.core.exceptions import ConfigurationError

        if src in self.crashed:
            return
        units = payload_units(payload)
        for dst in dsts:
            delay = self.delay_model.delay(src, dst, self.now, self._rng)
            if delay <= 0:
                raise ConfigurationError("delay model produced non-positive delay")
            event_id = self._push(
                self.now + delay, "deliver", (src, dst, payload, units)
            )
            self._in_flight[src].append(event_id)
            self.messages_sent += 1
            self.payload_sent += units

    def _handle_crash(self, pid, drop_fraction):
        from repro.core.exceptions import ModelViolation

        if pid in self.crashed:
            return
        if self.max_crashes is not None and len(self.crashed) >= self.max_crashes:
            raise ModelViolation(f"crash budget t={self.max_crashes} exhausted")
        self.crashed.add(pid)
        pending = [e for e in self._in_flight[pid] if e not in self._cancelled]
        drop_count = int(round(drop_fraction * len(pending)))
        for event_id in list(reversed(pending))[:drop_count]:
            self._cancelled.add(event_id)

    def _handle_delivery(self, event_id, src, dst, payload, units):
        if event_id in self._in_flight[src]:
            self._in_flight[src].remove(event_id)
        if dst in self.crashed or self.contexts[dst].halted:
            return
        self.messages_delivered += 1
        self.payload_delivered += units
        self.processes[dst].on_message(self.contexts[dst], src, payload)


class LIFODelay(DelayModel):
    """Later sends deliver earlier — the adversarial order for list
    bookkeeping (every removal scans the whole remaining list)."""

    def __init__(self, base: float = 100.0, step: float = 1e-3) -> None:
        self.base = base
        self.step = step
        self._count = 0

    def delay(self, src, dst, send_time, rng):
        self._count += 1
        return max(self.step, self.base - self._count * self.step)


class BurstSender(AsyncProcess):
    """Sends its whole burst at t=0, then just counts what arrives."""

    def __init__(self, per_sender: int) -> None:
        self.per_sender = per_sender
        self.received = 0

    def on_start(self, ctx):
        for i in range(self.per_sender):
            ctx.send((ctx.pid + 1 + i % (ctx.n - 1)) % ctx.n, i)

    def on_message(self, ctx, src, payload):
        self.received += 1


def run_stress(runtime_cls, n: int = 32, messages: int = 50_000, senders: int = 8):
    """One stress run: ``senders`` heavy broadcasters share ``messages``
    sends into an n-process system, plus one mid-run crash that drops a
    quarter of the victim's in-flight tail."""
    per_sender = messages // senders
    procs = [
        BurstSender(per_sender if pid < senders else 0) for pid in range(n)
    ]
    runtime = runtime_cls(
        procs,
        delay_model=LIFODelay(),
        crashes=[CrashAt(pid=5, time=60.0, drop_in_flight=0.25)],
        max_crashes=1,
        seed=7,
        max_events=4 * messages,
        quiesce_when_decided=False,
    )
    start = time.perf_counter()
    result = runtime.run()
    elapsed = time.perf_counter() - start
    return elapsed, result


def compare(n: int = 32, messages: int = 50_000):
    legacy_time, legacy_result = run_stress(_LegacyRuntime, n, messages)
    new_time, new_result = run_stress(AsyncRuntime, n, messages)
    observables = (
        legacy_result.messages_sent,
        legacy_result.messages_delivered,
        legacy_result.final_time,
        legacy_result.crashed,
    ) == (
        new_result.messages_sent,
        new_result.messages_delivered,
        new_result.final_time,
        new_result.crashed,
    )
    return legacy_time, new_time, observables, new_result


class _LegacySyncRunner(SynchronousRunner):
    """The pre-reuse synchronous loop: fresh containers every round."""

    def run(self) -> SyncRunResult:
        from repro.core.exceptions import SimulationLimitExceeded

        n = self.topology.n
        crashed = set()
        graphs = []
        message_count = 0
        messages_sent = 0
        payload_sent = 0
        payload_delivered = 0

        outboxes = {}
        active = []
        for pid in range(n):
            ctx = self.contexts[pid]
            alg = self.algorithms[pid]
            produce = lambda: alg.on_start(ctx) or {}  # noqa: E731
            outboxes[pid] = self._finalize_outbox(pid, produce())
            active.append(pid)

        round_no = 0
        while True:
            round_no += 1
            if round_no > self.max_rounds:
                raise SimulationLimitExceeded(
                    f"synchronous run exceeded {self.max_rounds} rounds"
                )
            for pid in active:
                self.contexts[pid].round = round_no

            crashing_now = {
                e.pid: e for e in self.crash_by_round.get(round_no, [])
            }
            sends = {}  # fresh maps every round — the churn under test
            send_units = {}
            for pid, outbox in outboxes.items():
                allowed = None
                if pid in crashing_now:
                    allowed = crashing_now[pid].delivered_to
                for target, message in outbox.items():
                    if allowed is not None and target not in allowed:
                        continue
                    sends[(pid, target)] = message
                    units = payload_units(message)
                    send_units[(pid, target)] = units
                    payload_sent += units
            messages_sent += len(sends)
            if crashing_now:
                crashed.update(crashing_now)
                active = [pid for pid in active if pid not in crashing_now]
            for pid in [
                p for p in outboxes if p in crashed or self.contexts[p].halted
            ]:
                del outboxes[pid]

            if self.adversary is not None:
                states = [alg.local_state() for alg in self.algorithms]
                delivered_edges = self.adversary.filter(
                    round_no, frozenset(sends), states, self.topology
                )
            else:
                delivered_edges = frozenset(sends)
            message_count += len(delivered_edges)
            for edge in delivered_edges:
                payload_delivered += send_units[edge]
            if self.record_graphs:
                graphs.append(delivered_edges)

            inboxes = [{} for _ in range(n)]  # n fresh dicts every round
            for (src, dst) in delivered_edges:
                if dst not in crashed and not self.contexts[dst].halted:
                    inboxes[dst][src] = sends[(src, dst)]

            still_active = []
            for pid in active:
                ctx = self.contexts[pid]
                alg = self.algorithms[pid]
                inbox = inboxes[pid]
                produce = lambda: alg.on_round(ctx, inbox) or {}  # noqa: E731
                outbox = self._finalize_outbox(pid, produce())
                if ctx.halted:
                    if outbox:
                        outboxes[pid] = outbox
                    else:
                        outboxes.pop(pid, None)
                else:
                    outboxes[pid] = outbox
                    still_active.append(pid)
            active = still_active
            if not active:
                break

        return SyncRunResult(
            outputs=[ctx.output for ctx in self.contexts],
            decided=[ctx.decided for ctx in self.contexts],
            rounds=round_no,
            halted=[ctx.halted for ctx in self.contexts],
            crashed=crashed,
            communication_graphs=graphs,
            message_count=message_count,
            messages_sent=messages_sent,
            payload_sent=payload_sent,
            payload_delivered=payload_delivered,
        )


def run_sync_stress(runner_cls, n: int = 3_000, rounds: int = 1_500):
    """Sparse-traffic aggregate flooding on a ring: after the initial
    broadcast only the min-wavefront re-broadcasts, so per-round container
    allocation (not message volume) dominates the legacy loop's cost."""
    inputs = [7] * n
    inputs[0] = 0
    runner = runner_cls(
        ring(n),
        make_aggregate_flooders(n, rounds=rounds, op="min"),
        inputs,
        max_rounds=rounds + 1,
    )
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    return elapsed, result


def compare_sync(n: int = 3_000, rounds: int = 1_500):
    legacy_time, legacy_result = run_sync_stress(_LegacySyncRunner, n, rounds)
    new_time, new_result = run_sync_stress(SynchronousRunner, n, rounds)
    observables = (
        legacy_result.outputs,
        legacy_result.rounds,
        legacy_result.messages_sent,
        legacy_result.message_count,
        legacy_result.payload_sent,
    ) == (
        new_result.outputs,
        new_result.rounds,
        new_result.messages_sent,
        new_result.message_count,
        new_result.payload_sent,
    )
    return legacy_time, new_time, observables, new_result


def test_hotpath_speedup(benchmark):
    def body():
        from conftest import print_series

        legacy_time, new_time, observables, result = compare()
        speedup = legacy_time / new_time
        print_series(
            "A1: AMP kernel hot path, n=32 / ~50k messages (wall-clock s)",
            [
                ("list in-flight (seed)", round(legacy_time, 3), "-"),
                ("heap scan at crash (current)", round(new_time, 3), f"{speedup:.1f}x"),
            ],
            ["kernel", "seconds", "speedup"],
        )
        assert observables  # the optimization changes nothing observable
        assert result.messages_sent == 50_000
        assert speedup >= 5.0

    benchmark.pedantic(body, rounds=1, iterations=1)


def test_sync_reuse_speedup(benchmark):
    def body():
        from conftest import print_series

        legacy_time, new_time, observables, result = compare_sync()
        speedup = legacy_time / new_time
        print_series(
            "A7a: sync kernel container reuse, n=3000 / 1500 rounds (wall-clock s)",
            [
                ("allocate per round (seed)", round(legacy_time, 3), "-"),
                ("reused containers (current)", round(new_time, 3), f"{speedup:.2f}x"),
            ],
            ["kernel", "seconds", "speedup"],
        )
        assert observables  # reuse changes nothing observable
        assert result.rounds == 1_500
        assert speedup >= 1.2

    benchmark.pedantic(body, rounds=1, iterations=1)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--messages", type=int, default=50_000)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes, semantic check only (CI)",
    )
    args = parser.parse_args(argv)
    n, messages = (8, 2_000) if args.smoke else (args.n, args.messages)
    if n < 2 or messages < n:
        parser.error(f"need --n >= 2 and --messages >= n, got n={n} messages={messages}")
    legacy_time, new_time, observables, result = compare(n, messages)
    print(
        f"n={n} messages={result.messages_sent} delivered={result.messages_delivered}\n"
        f"legacy(list) {legacy_time:.3f}s   current(scan) {new_time:.3f}s   "
        f"speedup {legacy_time / new_time:.1f}x"
    )
    if not observables:
        raise SystemExit("observable mismatch between legacy and current kernels")
    # The ≥ 5× bar only applies at the acceptance sizes; shrunk runs are
    # dominated by fixed event-loop costs, not the quadratic bookkeeping.
    if (n, messages) == (32, 50_000) and legacy_time < 5.0 * new_time:
        raise SystemExit("expected >= 5x speedup on the full-size stress case")
    sync_n, sync_rounds = (256, 128) if args.smoke else (3_000, 1_500)
    s_legacy, s_new, s_observables, s_result = compare_sync(sync_n, sync_rounds)
    print(
        f"sync n={sync_n} rounds={s_result.rounds} msgs={s_result.messages_sent}\n"
        f"legacy(alloc/round) {s_legacy:.3f}s   current(reuse) {s_new:.3f}s   "
        f"speedup {s_legacy / s_new:.2f}x"
    )
    if not s_observables:
        raise SystemExit("observable mismatch between legacy and current sync loops")
    if (sync_n, sync_rounds) == (3_000, 1_500) and s_legacy < 1.2 * s_new:
        raise SystemExit("expected >= 1.2x speedup from sync container reuse")


if __name__ == "__main__":
    main()
