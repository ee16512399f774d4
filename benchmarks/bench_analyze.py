"""Sanitizer-mode overhead — ``sanitize=False`` must be (nearly) free.

The sanitizer contract (see ``repro.analyze.freeze`` and the kernels'
``sanitize`` parameter): when off it costs one predictable branch per
send (AMP), per outbox collection (sync), and per step (shm) — no
freezing, no copies.  ``_NoSanitizeRuntime`` below is the AMP ``_send``
with its sanitize branch deleted (the same method otherwise), so the
claim is measured head-to-head on the
``bench_kernel_hotpath`` stress workload.

Asserted claim shape: sanitize-off overhead < 10% versus the no-branch
baseline (best-of-N wall clock, interleaved rounds).  ``sanitize=True``
is *reported*, not bounded — deep-freezing every payload is allowed to
cost what it costs — but it must leave kernel observables (message
counts, decided vectors, final time) unchanged on mutation-free
protocols, and that is asserted for all three kernels.

Also runnable standalone (CI smoke): ``python benchmarks/bench_analyze.py --smoke``.
"""

import heapq

from bench_kernel_hotpath import BurstSender, LIFODelay
from bench_trace import best_of, best_of_interleaved

from repro.amp.network import AsyncRuntime, CrashAt
from repro.core.exceptions import ConfigurationError
from repro.core.volume import payload_units
from repro.shm.runtime import Runtime, make_registers, read, write
from repro.shm.schedulers import RoundRobinScheduler
from repro.sync.kernel import run_synchronous
from repro.sync.topology import complete
from repro.sync.algorithms.consensus import make_floodset

OVERHEAD_BUDGET = 1.10  # sanitize=False ≤ 10% over the no-branch baseline

#: Whole-project static analysis (parse + index + taint summaries + every
#: rule) must stay linter-fast — it gates every CI run and pre-commit.
ANALYZER_BUDGET_S = 30.0


class _NoSanitizeRuntime(AsyncRuntime):
    """The AMP send path with the sanitize branch deleted — the kernel's
    ``_send`` minus that one branch, as the overhead baseline."""

    def _send(self, src, dsts, payload):
        if src in self.crashed:
            return
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
        sink = self._sink
        for dst in dsts:
            fates = link_model.fates(src, dst, now, rng)
            if not fates:
                event_id = next(event_seq)
                if sink is not None:
                    sink.amp_send(event_id, src, dst, payload, units, now)
                    sink.amp_drop(event_id, now, reason="loss")
                continue
            data = (src, dst, payload, units)
            first_id = None
            for extra in fates:
                delay = delay_model.delay(src, dst, now, rng)
                if delay <= 0:
                    raise ConfigurationError("delay model produced non-positive delay")
                event_id = next(event_seq)
                heapq.heappush(queue, (now + delay + extra, event_id, "deliver", data))
                if sink is not None:
                    if first_id is None:
                        sink.amp_send(event_id, src, dst, payload, units, now)
                    else:
                        sink.amp_send_dup(event_id, first_id)
                if first_id is None:
                    first_id = event_id


# -- workloads (one per kernel) ----------------------------------------------


def amp_stress(runtime_cls, n=32, messages=50_000, senders=8, sanitize=False):
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
        sanitize=sanitize,
    )
    return runtime.run()


def sync_stress(n=16, repeats=5, sanitize=False):
    last = None
    for _ in range(repeats):
        last = run_synchronous(
            complete(n),
            make_floodset(n, n // 4),
            list(range(n)),
            sanitize=sanitize,
        )
    return last


def shm_stress(n=8, iterations=400, sanitize=False):
    def program(pid, registers):
        total = 0
        for i in range(iterations):
            yield from write(registers[pid], i)
            total += yield from read(registers[(pid + 1) % len(registers)])
        return total

    registers = make_registers("r", n, initial=0)
    runtime = Runtime(RoundRobinScheduler(), sanitize=sanitize)
    for pid in range(n):
        runtime.spawn(pid, program(pid, registers))
    return runtime.run()


def _amp_observables(result):
    return (result.messages_sent, result.messages_delivered, result.final_time)


def compare(n=32, messages=50_000, repeats=5):
    """Rows of (kernel, variant, seconds) plus the asserted off-ratio."""
    rows = []

    # Untimed warm-up so first-run allocator costs don't land on the
    # baseline column.
    amp_stress(AsyncRuntime, n, messages)

    (base, off), (base_result, off_result) = best_of_interleaved(
        [
            lambda: amp_stress(_NoSanitizeRuntime, n, messages),
            lambda: amp_stress(AsyncRuntime, n, messages),
        ],
        repeats,
    )
    on, on_result = best_of(
        lambda: amp_stress(AsyncRuntime, n, messages, sanitize=True), repeats
    )
    assert _amp_observables(base_result) == _amp_observables(off_result), (
        "the sanitize branch must not change kernel observables"
    )
    assert _amp_observables(off_result) == _amp_observables(on_result), (
        "sanitize=True must be invisible on a mutation-free protocol"
    )
    rows += [
        ("amp", "no-branch baseline", base),
        ("amp", "sanitize=False", off),
        ("amp", "sanitize=True", on),
    ]

    s_off, s_off_result = best_of(lambda: sync_stress(), repeats)
    s_on, s_on_result = best_of(lambda: sync_stress(sanitize=True), repeats)
    assert s_off_result.output_vector() == s_on_result.output_vector()
    assert s_off_result.payload_sent == s_on_result.payload_sent
    rows += [("sync", "sanitize=False", s_off), ("sync", "sanitize=True", s_on)]

    m_off, m_off_result = best_of(lambda: shm_stress(), repeats)
    m_on, m_on_result = best_of(lambda: shm_stress(sanitize=True), repeats)
    assert m_off_result.outputs == m_on_result.outputs
    assert m_off_result.total_steps == m_on_result.total_steps
    rows += [("shm", "sanitize=False", m_off), ("shm", "sanitize=True", m_on)]

    return rows, off / base


def analyzer_selfscan(paths=None):
    """One full static-analysis pass over ``paths`` (default: the repo's
    ``src/``, found relative to this file so the cwd doesn't matter), timed.

    This is the interprocedural analyzer (call graph, class hierarchy,
    taint summaries, all rule families) — the wall-time budget pins the
    'linter cost' claim so cross-module analysis can't quietly turn into
    a whole-program fixpoint that stalls CI.
    """
    import os
    from time import perf_counter

    from repro.analyze.cli import analyze_paths

    if paths is None:
        paths = [os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")]
    start = perf_counter()
    report = analyze_paths(list(paths))
    return report, perf_counter() - start


def test_sanitize_overhead(benchmark):
    def body():
        from conftest import print_series

        rows, overhead = compare()
        print_series(
            "A4: sanitizer overhead (best-of wall-clock s)",
            [(k, v, round(s, 3)) for k, v, s in rows],
            ["kernel", "variant", "seconds"],
        )
        print(f"  sanitize-off overhead vs no-branch baseline: {overhead:.3f}x")
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
        help="small sizes, semantic checks only (CI)",
    )
    args = parser.parse_args(argv)
    n, messages, repeats = (
        (8, 2_000, 1) if args.smoke else (args.n, args.messages, args.repeats)
    )
    rows, overhead = compare(n, messages, repeats)
    for kernel, variant, seconds in rows:
        print(f"{kernel:>5}  {variant:<20} {seconds:.3f}s")
    print(f"sanitize-off overhead vs no-branch baseline: {overhead:.3f}x")
    report, elapsed = analyzer_selfscan()
    print(
        f"analyzer self-scan: {report.files_scanned} file(s), "
        f"{len(report.findings)} finding(s) in {elapsed:.2f}s "
        f"(budget {ANALYZER_BUDGET_S:.0f}s)"
    )
    if elapsed > ANALYZER_BUDGET_S:
        raise SystemExit(
            f"analyzer self-scan took {elapsed:.2f}s, over the "
            f"{ANALYZER_BUDGET_S:.0f}s budget"
        )
    # Smoke runs are dominated by fixed costs; only full-size runs
    # assert the ratio.
    if not args.smoke and overhead > OVERHEAD_BUDGET:
        raise SystemExit(
            f"sanitize-off overhead {overhead:.3f}x exceeds {OVERHEAD_BUDGET}x"
        )


if __name__ == "__main__":
    main()
