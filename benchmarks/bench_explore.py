"""Explorer throughput and reduction — naive tree vs dedup vs dedup+POR.

The A5 claim (EXPERIMENTS.md): canonical-fingerprint dedup collapses
the naive schedule *tree* (every interleaving spelled out) onto the
configuration *graph*, and sleep-set POR then prunes commuting
re-orderings, exploring **strictly fewer states than naive
enumeration** and strictly fewer transitions than dedup alone — while
visiting exactly the same set of unique states on these workloads
(sleep-set state preservation requires choice labels that are stable
across converging prefixes, which holds for the shm pid labels and
flood-min here; see the SCD note below for the counterexample).

The naive tree size is exact, not estimated: adopt-commit is an
oblivious protocol (every process takes the same ``2n + 2`` machine
steps on every schedule), so the tree node count is the closed-form
number of interleaving prefixes, computed by multinomials.

``_LegacyConfigurationExplorer`` reinstates the pre-``repro.explore``
``reachable()`` loop verbatim (the A1–A4 before/after pattern) and the
bivalence verdicts are asserted identical across the port.

The A10 section (``--smoke`` runs a reduced version of it) is the
serial-vs-sharded A/B: each leg runs ``explore(...)`` with and without
``workers=``, **asserts verdict + state-count parity** on every
exhaustive pair (the hard gate — a sharded engine that explores a
different state space is wrong, not slow), and records wall times into
``BENCH_explore_sharded.json``.  SCD legs run with ``reduce=False``
because AMP send sequence numbers make sleep-set choice identity
prefix-dependent there (state counts under POR are then
traversal-order-dependent in *both* engines); without the reduction
parity is exact.  The ≥2× speedup claim is only
asserted when the box actually has ≥4 CPUs; on smaller machines the
honest wall times are recorded and the gate is reported as skipped
(the ``gate`` field of the speedup case says which happened).

Also runnable standalone (CI smoke): ``python benchmarks/bench_explore.py --smoke``.
"""

import math
import os
import time
from itertools import product
from typing import Dict, List, Optional, Tuple

from repro.explore import (
    BFS,
    AdoptCommitMachine,
    AmpModel,
    ShmMachineModel,
    adopt_commit_coherence,
    adopt_commit_validity,
    agreement,
    explore,
    make_flood_min,
    make_scd_nodes,
    scd_coherence,
)
from repro.core.exceptions import ConfigurationError, SimulationLimitExceeded
from repro.shm import ConfigurationExplorer, TwoProcessRaceConsensus
from repro.shm.statemachine import NOT_DECIDED

from bench_json import peak_rss_bytes, write_bench_artifact


class _LegacyConfigurationExplorer(ConfigurationExplorer):
    """The pre-port exploration loop, reinstated verbatim as baseline."""

    def initial_configuration(self):
        process_states = tuple(
            self.machine.initial_state(pid, self.inputs[pid]) for pid in range(self.n)
        )
        shared = tuple(self._specs[name].initial for name in self._object_names)
        return (process_states, shared)

    def enabled(self, config):
        states, _ = config
        return [
            pid
            for pid in range(self.n)
            if self.machine.next_op(pid, states[pid]) is not None
        ]

    def step(self, config, pid):
        states, shared = config
        request = self.machine.next_op(pid, states[pid])
        if request is None:
            raise ConfigurationError(f"process {pid} has no enabled step")
        obj_name, op, args = request
        try:
            index = self._object_names.index(obj_name)
        except ValueError:
            raise ConfigurationError(f"unknown shared object {obj_name!r}")
        new_obj_state, response = self._specs[obj_name].apply(
            shared[index], op, tuple(args)
        )
        new_shared = shared[:index] + (new_obj_state,) + shared[index + 1 :]
        new_state = self.machine.apply_response(pid, states[pid], response)
        new_states = states[:pid] + (new_state,) + states[pid + 1 :]
        return (new_states, new_shared)

    def decisions(self, config):
        states, _ = config
        out = {}
        for pid in range(self.n):
            if self.machine.next_op(pid, states[pid]) is None:
                value = self.machine.decision(pid, states[pid])
                if value is not NOT_DECIDED:
                    out[pid] = value
        return out

    def reachable(self):
        initial = self.initial_configuration()
        graph = {}
        frontier = [initial]
        while frontier:
            config = frontier.pop()
            if config in graph:
                continue
            successors = []
            for pid in self.enabled(config):
                successors.append((pid, self.step(config, pid)))
            graph[config] = successors
            if len(graph) > self.max_configurations:
                raise SimulationLimitExceeded(
                    f"exploration exceeded {self.max_configurations} configurations"
                )
            for _, nxt in successors:
                if nxt not in graph:
                    frontier.append(nxt)
        return graph


def schedule_tree_nodes(n: int, steps_per_process: int) -> int:
    """Exact node count of the naive schedule tree (no dedup at all).

    Adopt-commit is oblivious — every process takes exactly
    ``steps_per_process`` machine steps on every schedule — so the tree
    nodes are precisely the interleaving prefixes: one per vector
    ``(a_0..a_{n-1})`` of per-process step counts, weighted by the
    multinomial number of orders realizing it.
    """
    total = 0
    for counts in product(range(steps_per_process + 1), repeat=n):
        numerator = math.factorial(sum(counts))
        for count in counts:
            numerator //= math.factorial(count)
        total += numerator
    return total


def timed_explore(model, properties=(), reduce=True):
    """(ExploreResult, states/sec) for one exhaustive run."""
    result = explore(model, properties=properties, reduce=reduce)
    assert result.ok and result.complete, "benchmark protocols are correct"
    return result, result.stats.states_per_second()


def compare(sizes: Tuple[int, ...] = (2, 3)) -> Tuple[List[tuple], Dict[str, float]]:
    """Rows of (model, variant, states, transitions, states/sec) + factors."""
    rows = []
    factors: Dict[str, float] = {}

    for n in sizes:
        inputs = list(range(n))
        props = lambda: [adopt_commit_coherence(), adopt_commit_validity(inputs)]
        make = lambda: ShmMachineModel(AdoptCommitMachine(n), inputs)

        tree = schedule_tree_nodes(n, steps_per_process=2 * n + 2)
        rows.append((f"adopt-commit n={n}", "naive tree", tree, tree - 1, None))

        dedup, dedup_rate = timed_explore(make(), props(), reduce=False)
        rows.append((
            f"adopt-commit n={n}", "dedup",
            dedup.stats.states, dedup.stats.transitions, dedup_rate,
        ))

        por, por_rate = timed_explore(make(), props(), reduce=True)
        rows.append((
            f"adopt-commit n={n}", "dedup+POR",
            por.stats.states, por.stats.transitions, por_rate,
        ))

        assert por.stats.states == dedup.stats.states, \
            "sleep sets must preserve the reachable state set"
        assert por.stats.states < tree, \
            "dedup must explore strictly fewer states than naive enumeration"
        assert por.stats.transitions < dedup.stats.transitions, \
            "POR must execute strictly fewer transitions than dedup alone"
        factors[f"shm n={n} tree/dedup states"] = tree / dedup.stats.states
        factors[f"shm n={n} dedup/POR transitions"] = (
            dedup.stats.transitions / por.stats.transitions
        )

    # AMP: same engine, message-delivery branching (no closed-form tree).
    values = [3, 1, 2]
    amp_props = lambda: [agreement()]
    amp_dedup, _ = timed_explore(
        AmpModel(make_flood_min(values)), amp_props(), reduce=False
    )
    amp_por, amp_rate = timed_explore(
        AmpModel(make_flood_min(values)), amp_props(), reduce=True
    )
    rows.append((
        "flood-min n=3 (amp)", "dedup",
        amp_dedup.stats.states, amp_dedup.stats.transitions, None,
    ))
    rows.append((
        "flood-min n=3 (amp)", "dedup+POR",
        amp_por.stats.states, amp_por.stats.transitions, amp_rate,
    ))
    assert amp_por.stats.states == amp_dedup.stats.states
    factors["amp dedup/POR transitions"] = (
        amp_dedup.stats.transitions / max(1, amp_por.stats.transitions)
    )
    return rows, factors


def _sharded_leg(
    cases: List[dict],
    label: str,
    n: int,
    make_model,
    make_properties,
    workers: Optional[int] = None,
    strategy: Optional[BFS] = None,
    reduce: bool = True,
):
    """Run one A10 leg, append its artifact case, return (result, wall_s)."""
    start = time.perf_counter()
    result = explore(
        make_model(),
        properties=make_properties(),
        strategy=strategy,
        reduce=reduce,
        workers=workers,
    )
    wall = time.perf_counter() - start
    case = {
        "case": label,
        "n": n,
        "wall_s": round(wall, 3),
        "peak_rss_bytes": peak_rss_bytes(),
        "payload_units": 0,  # exploration moves no protocol payload
        "workers": 0 if workers is None else workers,
        "reduce": reduce,
        "states": result.stats.states,
        "transitions": result.stats.transitions,
        "ok": result.ok,
        "complete": result.complete,
    }
    if workers is not None:
        case["supersteps"] = result.supersteps
        case["workers_used"] = result.workers_used
        case["pool_fallback"] = result.pool_fallback
    cases.append(case)
    return result, wall


def _sharded_pair(
    cases: List[dict], label: str, n: int, make_model, make_properties,
    workers: int, reduce: bool = True,
):
    """Serial + sharded legs of one workload, with the parity gate."""
    serial, serial_wall = _sharded_leg(
        cases, f"{label} serial", n, make_model, make_properties, reduce=reduce
    )
    sharded, sharded_wall = _sharded_leg(
        cases, f"{label} workers={workers}", n, make_model, make_properties,
        workers=workers, reduce=reduce,
    )
    assert (sharded.ok, sharded.complete) == (serial.ok, serial.complete), (
        f"{label}: sharded verdict diverged from serial"
    )
    assert sharded.stats.states == serial.stats.states, (
        f"{label}: state-count parity broken "
        f"({sharded.stats.states} sharded vs {serial.stats.states} serial)"
    )
    return serial_wall, sharded_wall


def sharded_compare(smoke: bool = False, workers: int = 4) -> List[dict]:
    """The A10 serial-vs-sharded A/B; returns the artifact cases.

    Smoke mode runs adopt-commit n=3 only (seconds); the full run adds
    exhaustive adopt-commit n=4, exhaustive SCD with two broadcasters
    (``reduce=False`` — see the module docstring for why POR state
    counts are order-dependent on SCD), and a bounded SCD
    three-broadcaster leg (sharded only — the budget is checked at
    superstep barriers, so bounded runs have no serial state-count
    parity to assert).
    """
    cases: List[dict] = []

    def adopt(n):
        return (
            lambda: ShmMachineModel(AdoptCommitMachine(n), list(range(n))),
            lambda: [adopt_commit_coherence(),
                     adopt_commit_validity(list(range(n)))],
        )

    make, props = adopt(3)
    serial_wall, sharded_wall = _sharded_pair(
        cases, "adopt-commit n=3", 3, make, props, workers
    )

    if not smoke:
        make, props = adopt(4)
        serial_wall, sharded_wall = _sharded_pair(
            cases, "adopt-commit n=4", 4, make, props, workers
        )
        # SCD legs run with reduce=False: AMP choice labels embed send
        # sequence numbers that depend on the schedule prefix, while
        # fingerprints are sequence-agnostic, so per-fingerprint sleep
        # sets alias choices across converging prefixes and the POR
        # state count becomes traversal-order-dependent (serial and
        # sharded each deterministic, but different).  Without the
        # reduction both engines visit the exact reachable set and
        # parity is byte-for-byte — see docs/EXPLORER.md.
        _sharded_pair(
            cases, "scd 2-broadcasters", 3,
            lambda: AmpModel(make_scd_nodes([["a"], ["b"], []])),
            lambda: [scd_coherence()],
            workers,
            reduce=False,
        )
        # Past two broadcasters: sharded-only, bounded by a state budget
        # (barrier-checked budgets make bounded serial/sharded state
        # counts incomparable by design — see docs/EXPLORER.md).  POR
        # stays on here: with no parity assert, the reduction just buys
        # more protocol depth per state-budget dollar.
        bounded, _ = _sharded_leg(
            cases, "scd 3-broadcasters (bounded)", 3,
            lambda: AmpModel(make_scd_nodes([["a"], ["b"], ["c"]])),
            lambda: [scd_coherence()],
            workers=workers,
            strategy=BFS(max_states=60_000),
        )
        assert bounded.ok, "scd coherence must hold within the bound"

    speedup = serial_wall / sharded_wall if sharded_wall > 0 else 0.0
    cpus = os.cpu_count() or 1
    if cpus >= workers:
        assert speedup >= 2.0, (
            f"expected >=2x speedup at workers={workers} on a {cpus}-CPU box, "
            f"got {speedup:.2f}x"
        )
        gate = f"asserted (>=2x on {cpus} CPUs): {speedup:.2f}x"
    else:
        gate = (
            f"skipped ({cpus} CPU(s) < workers={workers}; "
            f"measured {speedup:.2f}x)"
        )
    cases.append({
        "case": "speedup adopt-commit (largest exhaustive pair)",
        "n": workers,
        "wall_s": round(sharded_wall, 3),
        "peak_rss_bytes": peak_rss_bytes(),
        "payload_units": 0,
        "speedup_vs_serial": round(speedup, 3),
        "cpus": cpus,
        "gate": gate,
    })
    return cases


def write_sharded_artifact(cases: List[dict], out_dir: str = ".") -> str:
    os.makedirs(out_dir, exist_ok=True)
    cpus = os.cpu_count() or 1
    return write_bench_artifact(
        "explore_sharded",
        cases,
        out_dir=out_dir,
        unit="one exhaustive (or explicitly bounded) exploration",
        extra_meta={
            "cpus": cpus,
            "payload_note": "payload_units is 0: exploration is pure search",
            "parity_note": (
                "every serial/sharded pair asserted verdict + state-count "
                "parity before this file was written; SCD pairs run "
                "reduce=False (AMP send seqs make POR state counts "
                "traversal-order-dependent — docs/EXPLORER.md)"
            ),
        },
    )


def bivalence_parity() -> Tuple[int, int]:
    """The port contract: legacy and engine-backed explorers agree exactly."""
    machine = lambda: TwoProcessRaceConsensus("test&set")
    legacy = _LegacyConfigurationExplorer(machine(), (0, 1))
    current = ConfigurationExplorer(machine(), (0, 1))
    legacy_graph = legacy.reachable()
    current_graph = current.reachable()
    assert set(legacy_graph) == set(current_graph), "same configurations"
    assert all(
        legacy_graph[config] == current_graph[config] for config in legacy_graph
    ), "same successor edges"
    legacy_report = legacy.explore()
    current_report = current.explore()
    assert legacy_report == current_report, "same bivalence verdicts"
    edges = sum(len(v) for v in legacy_graph.values())
    return len(legacy_graph), edges


def _format_rows(rows):
    out = []
    for model, variant, states, transitions, rate in rows:
        out.append((
            model, variant, states, transitions,
            "-" if rate is None else f"{rate:,.0f}",
        ))
    return out


def test_explore_reduction(benchmark):
    def body():
        from conftest import print_series

        rows, factors = compare()
        print_series(
            "A5: exploration reduction (exhaustive, correct protocols)",
            _format_rows(rows),
            ["model", "variant", "states", "transitions", "states/s"],
        )
        for name, factor in factors.items():
            print(f"  {name}: {factor:,.1f}x")
        nodes, edges = bivalence_parity()
        print(f"  bivalence parity: {nodes} configs / {edges} edges identical")

    benchmark.pedantic(body, rounds=1, iterations=1)


class _CountingAmpModel(AmpModel):
    """Counts its ``_run`` calls: one replay for the root, then one per
    handler-step memo miss."""

    runs = 0

    def _run(self, schedule, sink=None):
        self.runs += 1
        return super()._run(schedule, sink)


def test_scd_three_broadcasters_exhaustive(monkeypatch):
    """SCD with three broadcasters, n=3, explored exhaustively by the
    serial engine: every reachable configuration is coherent, and the
    state, transition and replay counts are exact.  No SCD-broadcast
    handler reads ``ctx.time``, so the memo keys its 2,604 steps without
    the tick (20,148 with it).  ``scd_coherence`` checks Integrity once
    per distinct process object and MS-Ordering once per distinct pair
    of them, counted here by wrapping the two helpers."""
    from repro.amp import scd

    checks = {"scd_positions": 0, "scd_ms_ordering": 0}
    for name in checks:
        def counted(*args, helper=getattr(scd, name), name=name):
            checks[name] += 1
            return helper(*args)

        monkeypatch.setattr(scd, name, counted)
    model = _CountingAmpModel(make_scd_nodes([["a"], ["b"], ["c"]]))
    result = explore(model, [scd_coherence()], reduce=False)
    assert result.ok and result.complete
    assert (result.stats.states, result.stats.transitions) == (329_593, 1_409_598)
    assert model.runs == 2_605
    assert checks == {"scd_positions": 963, "scd_ms_ordering": 35_580}


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="n=2 only + a reduced sharded A/B, semantic checks only (CI)",
    )
    parser.add_argument("--out", default=".", help="artifact directory")
    args = parser.parse_args(argv)
    sizes = (2,) if args.smoke else (2, 3)
    start = time.perf_counter()
    rows, factors = compare(sizes)
    for model, variant, states, transitions, rate in _format_rows(rows):
        print(f"{model:>22}  {variant:<11} {states:>12,} states "
              f"{transitions:>12,} transitions  {rate:>10} states/s")
    for name, factor in factors.items():
        print(f"{name}: {factor:,.1f}x")
    nodes, edges = bivalence_parity()
    print(f"bivalence parity: {nodes} configs / {edges} edges identical")

    cases = sharded_compare(smoke=args.smoke)
    for case in cases:
        if "states" in case:
            print(f"{case['case']:>38}  {case['states']:>9,} states  "
                  f"{case['wall_s']:>8.2f}s  "
                  f"{'complete' if case['complete'] else 'bounded'}")
        else:
            print(f"{case['case']:>38}  {case['gate']}")
    artifact = write_sharded_artifact(cases, out_dir=args.out)
    print(f"wrote {artifact}")
    print(f"total {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
