"""Trace-sink overhead — disabled vs MemorySink vs JsonlSink, all kernels.

The tracing contract (see ``repro.trace``): ``sink=None`` must cost one
predictable branch per event site and nothing else — no allocation, no
clock bookkeeping.  ``_NoHookRuntime`` below is the AMP hot path with
its sink branches deleted (the same methods, hooks removed), so
the "one ``if`` per site" claim is measured head-to-head on the
``bench_kernel_hotpath`` stress workload: n=32, ~50k messages, a LIFO
delay model, one mid-run crash.

Asserted claim shape: disabled-sink overhead < 5% versus the no-hook
baseline (best-of-N wall clock).  Enabled sinks are *reported*, not
bounded — capturing ~200k events is allowed to cost what it costs.

Also runnable standalone (CI smoke): ``python benchmarks/bench_trace.py --smoke``.
"""

import heapq
import os
import time

from bench_kernel_hotpath import BurstSender, LIFODelay

from repro.amp.network import AsyncRuntime, CrashAt
from repro.analyze.freeze import deep_freeze
from repro.core.exceptions import (
    ConfigurationError,
    ModelViolation,
    SimulationLimitExceeded,
)
from repro.core.volume import payload_units
from repro.shm.runtime import Runtime, make_registers, read, write
from repro.shm.schedulers import RoundRobinScheduler
from repro.sync.kernel import run_synchronous
from repro.sync.topology import complete
from repro.sync.algorithms.consensus import make_floodset
from repro.trace import JsonlSink, MemorySink

OVERHEAD_BUDGET = 1.05  # disabled sink ≤ 5% over the no-hook baseline


class _NoHookRuntime(AsyncRuntime):
    """The AMP hot path with the sink branches deleted — the kernel's
    methods minus their trace hooks, as the overhead baseline."""

    def _send(self, src, dsts, payload):
        if src in self.crashed:
            return
        if self._sanitize:
            payload = deep_freeze(payload)
        units = payload_units(payload)
        copies = len(dsts)
        self.messages_sent += copies
        self.payload_sent += units * copies
        now = self.now
        rng = self._rng
        link_model = self.link_model
        delay_model = self.delay_model
        queue = self._queue
        event_seq = self._event_seq
        for dst in dsts:
            fates = link_model.fates(src, dst, now, rng)
            if not fates:
                next(event_seq)
                continue
            data = (src, dst, payload, units)
            for extra in fates:
                delay = delay_model.delay(src, dst, now, rng)
                if delay <= 0:
                    raise ConfigurationError("delay model produced non-positive delay")
                event_id = next(event_seq)
                heapq.heappush(queue, (now + delay + extra, event_id, "deliver", data))

    def _set_timer(self, pid, delay, name):
        if delay < 0:
            raise ConfigurationError("timer delay must be >= 0")
        self._push(self.now + delay, "timer", (pid, name, self._epoch[pid]))

    def _note_decision(self, pid, value):
        self.decision_times[pid] = self.now

    def _handle_crash(self, pid, drop_fraction):
        if pid in self.crashed:
            return
        if self.max_crashes is not None and len(self.crashed) >= self.max_crashes:
            raise ModelViolation(f"crash budget t={self.max_crashes} exhausted")
        self.crashed.add(pid)
        self._epoch[pid] += 1
        if not drop_fraction:
            return
        cancelled = self._cancelled
        pending = [
            event_id
            for _time, event_id, kind, data in self._queue
            if kind == "deliver" and data[0] == pid and event_id not in cancelled
        ]
        drop_count = int(round(drop_fraction * len(pending)))
        if drop_count:
            for event_id in heapq.nlargest(drop_count, pending):
                cancelled.add(event_id)

    def _handle_delivery(self, event_id, src, dst, payload, units=1):
        ctx = self.contexts[dst]
        if dst in self.crashed or ctx.halted:
            return
        self.messages_delivered += 1
        self.payload_delivered += units
        self.processes[dst].on_message(ctx, src, payload)

    def run(self, until=None):
        if not self._started:
            self._started = True
            if self.failure_detector is not None and hasattr(
                self.failure_detector, "attach"
            ):
                self.failure_detector.attach(self)
            for pid in range(self.n):
                if pid not in self.crashed:
                    self.processes[pid].on_start(self.contexts[pid])
        handle_delivery = self._handle_delivery
        queue = self._queue
        cancelled = self._cancelled
        heappop = heapq.heappop
        quiesce = self.quiesce_when_decided
        max_events = self.max_events
        crashed = self.crashed
        contexts = self.contexts
        processes = self.processes
        epochs = self._epoch
        now = self.now
        events = 0
        quiescent = True
        while queue:
            if quiesce and self._all_settled():
                break
            time_, event_id, kind, data = queue[0]
            if until is not None and time_ > until:
                self.now = until
                quiescent = False
                break
            events += 1
            if events > max_events:
                if self.strict_budget:
                    raise SimulationLimitExceeded(
                        f"run exceeded {self.max_events} events"
                    )
                quiescent = False
                break
            heappop(queue)
            if event_id in cancelled:
                cancelled.discard(event_id)
                continue
            if time_ > now:
                self.now = now = time_
            if kind == "deliver":
                src, dst, payload, units = data
                handle_delivery(event_id, src, dst, payload, units)
            elif kind == "timer":
                pid, name, epoch = data
                if pid in crashed or contexts[pid].halted or epoch != epochs[pid]:
                    continue
                processes[pid].on_timer(contexts[pid], name)
            elif kind == "crash":
                self._handle_crash(*data)
            elif kind == "recover":
                self._handle_recover(*data)
        if quiescent and until is not None and until > self.now:
            self.now = until
        return self.result()


# -- workloads (one per kernel) ----------------------------------------------


def amp_stress(runtime_cls, sink, n=32, messages=50_000, senders=8):
    """The bench_kernel_hotpath workload, with a pluggable sink."""
    per_sender = messages // senders
    procs = [BurstSender(per_sender if pid < senders else 0) for pid in range(n)]
    runtime = runtime_cls(
        procs,
        delay_model=LIFODelay(),
        crashes=[CrashAt(pid=5, time=60.0, drop_in_flight=0.25)],
        max_crashes=1,
        seed=7,
        max_events=4 * messages,
        quiesce_when_decided=False,
        sink=sink,
    )
    return runtime.run()


def sync_stress(sink, n=16, repeats=20):
    """FloodSet sweeps on the complete graph: ~n² messages × rounds × repeats."""
    last = None
    for _ in range(repeats):
        last = run_synchronous(
            complete(n), make_floodset(n, n // 4), list(range(n)), sink=sink
        )
    return last


def shm_stress(sink, n=8, iterations=400):
    """Register ping-pong: 2 steps per iteration per process."""

    def program(pid, registers):
        total = 0
        for i in range(iterations):
            yield from write(registers[pid], i)
            total += yield from read(registers[(pid + 1) % len(registers)])
        return total

    registers = make_registers("r", n, initial=0)
    runtime = Runtime(RoundRobinScheduler(), sink=sink)
    for pid in range(n):
        runtime.spawn(pid, program(pid, registers))
    return runtime.run()


def best_of(fn, repeats):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def best_of_interleaved(fns, repeats):
    """Best-of timings for several variants, rounds interleaved.

    Timing variant A's ``repeats`` runs back-to-back and then variant
    B's hands whichever ran first any transient machine slowdown
    (frequency scaling, cache warmth); alternating A,B,A,B exposes every
    variant to the same conditions, which is what a ratio needs.
    """
    bests = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            results[i] = fn()
            bests[i] = min(bests[i], time.perf_counter() - start)
    return bests, results


def _devnull_sink():
    return JsonlSink(open(os.devnull, "w"))


def compare(n=32, messages=50_000, repeats=5):
    """Per-kernel best-of timings: rows of (kernel, variant, seconds)."""
    rows = []

    # Untimed warm-up: the very first stress run pays allocator /
    # page-cache costs that would land entirely on the baseline column.
    amp_stress(AsyncRuntime, None, n, messages)

    # The baseline/disabled *ratio* is the asserted claim, so those two
    # run interleaved (same machine conditions); the enabled sinks are
    # reported columns and allocate heavily, so they run after — their
    # garbage must not land between the ratio's measurements.
    (base, off), (base_result, off_result) = best_of_interleaved(
        [
            lambda: amp_stress(_NoHookRuntime, None, n, messages),
            lambda: amp_stress(AsyncRuntime, None, n, messages),
        ],
        repeats,
    )
    mem, _ = best_of(lambda: amp_stress(AsyncRuntime, MemorySink(), n, messages), repeats)
    jsn, _ = best_of(lambda: amp_stress(AsyncRuntime, _devnull_sink(), n, messages), repeats)
    assert (
        base_result.messages_sent,
        base_result.messages_delivered,
        base_result.final_time,
    ) == (
        off_result.messages_sent,
        off_result.messages_delivered,
        off_result.final_time,
    ), "sink hooks must not change kernel observables"
    rows += [
        ("amp", "no-hook baseline", base),
        ("amp", "sink=None", off),
        ("amp", "MemorySink", mem),
        ("amp", "JsonlSink", jsn),
    ]

    s_off, _ = best_of(lambda: sync_stress(None), repeats)
    s_mem, _ = best_of(lambda: sync_stress(MemorySink()), repeats)
    s_jsn, _ = best_of(lambda: sync_stress(_devnull_sink()), repeats)
    rows += [
        ("sync", "sink=None", s_off),
        ("sync", "MemorySink", s_mem),
        ("sync", "JsonlSink", s_jsn),
    ]

    m_off, _ = best_of(lambda: shm_stress(None), repeats)
    m_mem, _ = best_of(lambda: shm_stress(MemorySink()), repeats)
    m_jsn, _ = best_of(lambda: shm_stress(_devnull_sink()), repeats)
    rows += [
        ("shm", "sink=None", m_off),
        ("shm", "MemorySink", m_mem),
        ("shm", "JsonlSink", m_jsn),
    ]
    return rows, off / base


def test_trace_overhead(benchmark):
    def body():
        from conftest import print_series

        rows, overhead = compare()
        print_series(
            "A3: trace-sink overhead (best-of-3 wall-clock s)",
            [(k, v, round(s, 3)) for k, v, s in rows],
            ["kernel", "variant", "seconds"],
        )
        print(f"  disabled-sink overhead vs no-hook baseline: {overhead:.3f}x")
        assert overhead <= OVERHEAD_BUDGET

    benchmark.pedantic(body, rounds=1, iterations=1)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--messages", type=int, default=50_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes, semantic check only (CI)",
    )
    args = parser.parse_args(argv)
    n, messages, repeats = (
        (8, 2_000, 1) if args.smoke else (args.n, args.messages, args.repeats)
    )
    rows, overhead = compare(n, messages, repeats)
    for kernel, variant, seconds in rows:
        print(f"{kernel:>5}  {variant:<18} {seconds:.3f}s")
    print(f"disabled-sink overhead vs no-hook baseline: {overhead:.3f}x")
    # Only the full-size run is a measurement; smoke runs are dominated
    # by fixed costs and assert nothing about the ratio.
    if not args.smoke and overhead > OVERHEAD_BUDGET:
        raise SystemExit(
            f"disabled-sink overhead {overhead:.3f}x exceeds {OVERHEAD_BUDGET}x"
        )


if __name__ == "__main__":
    main()
