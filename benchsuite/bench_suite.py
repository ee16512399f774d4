#!/usr/bin/env python3
"""The repo benchmark: seven workloads over the replicated KV service,
the explorer and the synchronous kernel, timed end to end and per layer.

Run from the repository root; the script puts ``src/`` on the path::

    python3 benchsuite/bench_suite.py                   # each workload once, full size
    python3 benchsuite/bench_suite.py --reps 5 --trace --out DIR
    python3 benchsuite/bench_suite.py --smoke --workload kv-scd \\
        --seed 7 --seconds 10 --trace 0                 # one timed run
    python3 benchsuite/bench_suite.py compare BASE.json NEW.json
    python3 -m pytest benchsuite/bench_suite.py         # smoke tests

Without ``--seconds`` the script is the *suite*: it runs every selected
workload ``--reps`` times, one at a time, each run in a fresh
single-threaded subprocess (so set-up time and peak RSS belong to that
workload alone), plus one traced run per workload with ``--trace``.  It
prints every end-to-end metric by name with its unit, checks digests
against the pins and exits non-zero on any mismatch; ``--out DIR``
writes ``DIR/suite.json``, the input of ``compare``.

With ``--seconds T`` the script is one *timed run* of one workload, the
form ``BENCHMARK.json`` names: it repeats the workload until ``T``
seconds are spent (at least once), reports medians over the repetitions
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and the ``BENCHMARK.json`` metrics:
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``.
``--smoke`` selects each workload's small instance, which timed runs
and tests repeat; the full instances are the pinned single-shot runs.

Pins are checked only at the default seed; at other seeds the pin-free
checks run (every rep gives the same digest, no operation fails, and
the workload's own output checks pass).  ``README.md`` beside this file
lists the workloads, the metrics with their bounds, and which layer
should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import heapq
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 2024
#: Fresh interpreters timed per timed run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: A fresh interpreter importing a fixed set of standard modules.  Each
#: set-up probe is paired with one, which shares its host-level noise
#: (process start, page faults): ``setup_s`` scales the probe by
#: REFERENCE_START_S over the paired start's wall time.
REFERENCE_START = [
    sys.executable, "-c",
    "import argparse, dataclasses, decimal, email.message, json, statistics, "
    "subprocess, typing; print('ready', flush=True)",
]
#: The reference start's wall time on a 2-core Xeon with Python 3.11.7.
REFERENCE_START_S = 0.06
#: Prefix of the stdout line carrying a timed run's full record.
RECORD_TAG = "RECORD "
#: Iterations of the reference loop: about 20 ms on a 2-core Xeon.
REFERENCE_STEPS = 30_000
#: After each repetition the reference loop runs for this share of its time.
REFERENCE_SHARE = 0.3


def reference_s() -> float:
    """Wall time of one fixed slice of interpreter work.

    The loop does what the simulators spend their time on: dict and
    heap traffic, tuple building and comparisons.  After every timed
    repetition it runs for REFERENCE_SHARE of the repetition's time, and
    the repetition's ``work_per_ref`` is its throughput times the
    median duration of the slices just before and just after it.  On a
    shared machine whose speed changes from one second to the next, that
    product follows the program far more than the machine; plain rates
    cannot tell such a change from a regression.
    """
    start = time.perf_counter()
    heap: List[Tuple[int, int]] = []
    table: Dict[int, Tuple[int, int]] = {}
    for i in range(REFERENCE_STEPS):
        key = (i * 7919) % 1009
        entry = table.get(key)
        table[key] = (i, key) if entry is None else (entry[0] + 1, key)
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    sorted(table.values())
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# One repetition of a workload
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    """What one repetition of a workload measured and checked."""

    wall_s: float
    units: float  #: completed work: client ops, explored states, n·rounds
    attempted: int
    failed: int
    digest: str  #: the value pinned at the default seed
    exact: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _kv_spec(seed: int, batches_per_client: int, mean_interarrival: float):
    from repro.workload import WorkloadSpec

    return WorkloadSpec(
        clients=3,
        batches_per_client=batches_per_client,
        batch_size=8,
        keys=512,
        zipf_s=1.1,
        mean_interarrival=mean_interarrival,
        seed=seed,
    )


def _build_kv(backend: str, faults: bool = False):
    def build(seed: int, smoke: bool) -> Callable[[], Rep]:
        from repro.amp.network import CrashAt, FairLossLink, RecoverAt
        from repro.core.exceptions import ReproError
        from repro.workload import run_service

        # Small instances take 0.1-0.3 s, so that a timed run's median
        # is over a few dozen repetitions.
        if faults:
            n, spec = 5, _kv_spec(seed, 50 if smoke else 2000, 2.0)
        else:
            n, spec = 3, _kv_spec(seed, 104 if smoke else 4167, 1.5)
        # The outage is 2.5% of the arrival horizon at both sizes.  The
        # full run's 100-vt outage would last to the end of the small run,
        # and the retransmissions it causes would swing ops/s with the seed.
        outage = spec.batches_per_client * spec.mean_interarrival / 40

        def run() -> Rep:
            extra = {}
            if faults:
                # FairLossLink keeps per-channel loss streaks, so every
                # repetition needs a fresh one to replay identically.
                extra = dict(
                    link_model=FairLossLink(loss=0.05, max_consecutive_losses=4),
                    crashes=[
                        CrashAt(pid=4, time=50.0, drop_in_flight=0.5),
                        RecoverAt(pid=4, time=50.0 + outage),
                    ],
                )
            start = time.perf_counter()
            try:
                report = run_service(spec, backend=backend, n=n, seed=1, **extra)
            except ReproError as exc:
                wall = time.perf_counter() - start
                return Rep(wall, 0, spec.total_ops, spec.total_ops, "",
                           problems=[f"run_service raised {exc!r}"])
            wall = time.perf_counter() - start
            done = report.completed_ops
            rep = Rep(
                wall_s=wall,
                units=done,
                attempted=spec.total_ops,
                failed=spec.total_ops - done,
                digest=report.stats_digest,
                exact={
                    "vt_ops_per_t": report.throughput,
                    "vt_lat_p50": report.latency.p50,
                    "vt_lat_p99": report.latency.p99,
                    "payload_units_per_op": report.payload_sent / done,
                },
                counts={
                    "amp.network.messages_per_op": report.messages_sent / done,
                    "amp.network.payload_delivered_ratio": (
                        report.payload_delivered / report.payload_sent
                    ),
                },
            )
            if rep.failed:
                rep.problems.append(f"{rep.failed} of {spec.total_ops} ops not completed")
            return rep

        return run

    return build


def _explore_rep(result, wall: float) -> Rep:
    stats = result.stats
    rep = Rep(
        wall_s=wall,
        units=stats.states,
        attempted=1,
        failed=0 if result.ok and result.complete else 1,
        digest=(
            f"ok={result.ok} complete={result.complete} "
            f"states={stats.states} transitions={stats.transitions}"
        ),
        counts={
            "explore.engine.states": stats.states,
            "explore.engine.transitions": stats.transitions,
            "explore.engine.deduped": stats.deduped,
            "explore.engine.sleep_pruned": stats.sleep_pruned,
            "explore.engine.dedup_ratio": stats.states / (stats.states + stats.deduped),
            "explore.engine.prune_ratio": (
                stats.sleep_pruned / (stats.sleep_pruned + stats.transitions)
            ),
        },
    )
    if rep.failed:
        rep.problems.append(f"verdict not ok and complete: {rep.digest}")
    return rep


def _seeded_order(items: list, seed: int) -> list:
    """``items`` as pinned at the default seed, else a seeded permutation."""
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(items)
    return items


def _build_explore_scd(seed: int, smoke: bool) -> Callable[[], Rep]:
    from repro.explore import AmpModel, explore, make_scd_nodes, scd_coherence

    # Both sizes keep n=3 and one crash; the small one has one broadcaster.
    payloads = [["a"], [], []] if smoke else [["a"], ["b"], []]
    factory = make_scd_nodes(_seeded_order(payloads, seed))

    def run() -> Rep:
        # A fresh model per repetition: AmpModel caches materialized prefixes.
        model = AmpModel(factory, max_crashes=1)
        start = time.perf_counter()
        result = explore(model, [scd_coherence()], reduce=False)
        return _explore_rep(result, time.perf_counter() - start)

    return run


def _build_explore_adopt_commit(seed: int, smoke: bool) -> Callable[[], Rep]:
    from repro.explore import (
        AdoptCommitMachine,
        ShmMachineModel,
        adopt_commit_coherence,
        adopt_commit_validity,
        explore,
    )

    n = 3 if smoke else 4
    inputs = _seeded_order(list(range(n)), seed)

    def run() -> Rep:
        # A fresh model per repetition: ShmMachineModel interns states.
        model = ShmMachineModel(AdoptCommitMachine(n), inputs)
        properties = [adopt_commit_coherence(), adopt_commit_validity(inputs)]
        start = time.perf_counter()
        result = explore(model, properties, reduce=True)
        return _explore_rep(result, time.perf_counter() - start)

    return run


def _build_sync(seed: int, smoke: bool) -> Callable[[], Rep]:
    from repro.core.exceptions import ReproError
    from repro.sync import kernel
    from repro.sync.adversary import BoundedDropAdversary
    from repro.sync.algorithms import make_early_stopping, make_flooders, make_floodset
    from repro.sync.flatgraph import flat_random_regular
    from repro.sync.topology import grid, ring

    algorithms = {
        "flooding": lambda n: make_flooders(n, rounds=8),
        "floodset": lambda n: make_floodset(n, t=2),
        "early-stopping": lambda n: make_early_stopping(n, t=2),
    }
    crash = (kernel.CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),)
    rng = random.Random(seed)
    cells = []
    for n in (16, 64) if smoke else (16, 64, 256):
        side = math.isqrt(n)
        topologies = (
            ring(n),
            grid(side, side, torus=True),
            flat_random_regular(n, 3, seed=2).to_topology(),
        )
        for _ in range(1 if smoke else 8):
            inputs = [rng.randrange(1 << 16) for _ in range(n)]
            for topology in topologies:
                for algorithm in algorithms:
                    for fault in ("clean", "adversary", "crash"):
                        cells.append((algorithm, fault, topology, inputs))

    def run() -> Rep:
        results = []
        start = time.perf_counter()
        for algorithm, fault, topology, inputs in cells:
            try:
                # Looked up on the module at call time, so a traced run
                # sees the wrapped kernel entry point.
                results.append(kernel.run_synchronous(
                    topology,
                    algorithms[algorithm](topology.n),
                    inputs,
                    adversary=(
                        BoundedDropAdversary(max_drops=2, seed=3)
                        if fault == "adversary" else None
                    ),
                    crash_schedule=crash if fault == "crash" else (),
                ))
            except ReproError as exc:
                results.append(exc)
        wall = time.perf_counter() - start
        return _sync_rep(cells, results, wall)

    return run


def _sync_rep(cells, results, wall: float) -> Rep:
    digest = hashlib.sha256()
    problems: List[str] = []
    failed = units = rounds = messages = 0
    for (algorithm, fault, topology, inputs), result in zip(cells, results):
        cell = f"{algorithm}/{fault}/n={topology.n}"
        if isinstance(result, Exception):
            failed += 1
            problems.append(f"{cell} raised {result!r}")
            continue
        digest.update(repr((
            result.outputs, result.rounds, result.messages_sent, result.payload_sent,
        )).encode())
        units += topology.n * result.rounds
        rounds += result.rounds
        messages += result.messages_sent
        live = [p for p in range(topology.n) if p not in result.crashed]
        decided = [result.outputs[p] for p in live if result.decided[p]]
        if algorithm == "flooding":
            ok = result.rounds == 8 and all(v == tuple(inputs) for v in decided)
        else:
            # FloodSet decides at round t+1; early stopping by then at the latest.
            ok = (
                result.rounds == 3 if algorithm == "floodset" else result.rounds <= 3
            ) and len(decided) == len(live) and set(decided) <= set(inputs)
        if not ok:
            problems.append(f"{cell}: unexpected rounds or outputs")
    return Rep(
        wall_s=wall,
        units=units,
        attempted=len(cells),
        failed=failed,
        digest=digest.hexdigest(),
        counts={"sync.kernel.rounds": rounds, "sync.kernel.messages_sent": messages},
        problems=problems,
    )


@dataclass(frozen=True)
class Workload:
    family: str  #: "kv", "explore" or "sync": picks the throughput metric
    build: Callable[[int, bool], Callable[[], Rep]]  #: (seed, smoke) -> one rep


#: Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "kv-scd": Workload("kv", _build_kv("scd")),
    "kv-to": Workload("kv", _build_kv("to")),
    "kv-abd": Workload("kv", _build_kv("abd")),
    "kv-scd-faults": Workload("kv", _build_kv("scd", faults=True)),
    "explore-scd-crash": Workload("explore", _build_explore_scd),
    "explore-adopt-commit": Workload("explore", _build_explore_adopt_commit),
    "sync-small": Workload("sync", _build_sync),
}

#: Digests of every workload's full and small instance at DEFAULT_SEED.
PINS: Dict[str, Dict[str, str]] = {
    "kv-scd": {
        "full": "0fac9c381cb561cb89e6f1370b5b673a087fedf2cb6b9d74548f58d87dcfc61e",
        "small": "cc4ded91c4b3f4341ad4ca79328eb4092c792709e58a20b49d363d44262c75ed",
    },
    "kv-to": {
        "full": "df9ce510b130666bdd57b8441c9ea2d110a5cfd1bf25e6a2f7a31b2954392b9a",
        "small": "3f8cfed7cc1e452ff9a9347773e5283ddec6a533390e99c5a8bc69bee4d78c72",
    },
    "kv-abd": {
        "full": "3ed602fb47a2316e32465fa71abb50a8da7feb24d8388f0918db98d8201c07d7",
        "small": "2b4c38d5cc36dd9640086772ced4de0aa3c517d0296e90ae4064be888e98685e",
    },
    "kv-scd-faults": {
        "full": "29962578d405c9e4222d56f86918f6abcb32db9169b97386f01bb4038c82938d",
        "small": "cd5e479b0e46b27c66af805a9caa353686b312aea08f419c065b55eb16878251",
    },
    "explore-scd-crash": {
        "full": "ok=True complete=True states=15172 transitions=35473",
        "small": "ok=True complete=True states=104 transitions=143",
    },
    "explore-adopt-commit": {
        "full": "ok=True complete=True states=326766 transitions=441229",
        "small": "ok=True complete=True states=4405 transitions=5407",
    },
    "sync-small": {
        "full": "8b179b274c6b6cbf1bffc9a0c2626cf4c80efd4fb47fbcda8e35b64fe4077c53",
        "small": "c37ea401fc3d3020f3decb19e8fab9910a8e770ac8320ce13ecc95e864592e01",
    },
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: End-to-end metrics of the suite beyond BENCHMARK.json's own:
#: name -> (unit, better, bound).  A bound of 0 marks an exact metric,
#: where any change counts.
SUITE_METRICS: Dict[str, Tuple[str, str, float]] = {
    "ops_per_s": ("ops/s", "higher", 0.10),
    "states_per_s": ("states/s", "higher", 0.10),
    "proc_rounds_per_s": ("proc-rounds/s", "higher", 0.10),
    "setup_rss_mb": ("MB", "lower", 0.05),
    "vt_ops_per_t": ("ops/vt", "higher", 0.0),
    "vt_lat_p50": ("vt", "lower", 0.0),
    "vt_lat_p99": ("vt", "lower", 0.0),
    "payload_units_per_op": ("units/op", "lower", 0.0),
    "failed_frac": ("fraction", "lower", 0.0),
}
RATE_METRIC = {"kv": "ops_per_s", "explore": "states_per_s", "sync": "proc_rounds_per_s"}


def metric_specs() -> Dict[str, Tuple[str, str, float]]:
    """Unit, direction and bound of every end-to-end metric."""
    specs = dict(SUITE_METRICS)
    for metric in load_benchmark()["end_to_end"]:
        specs[metric["name"]] = (metric["unit"], metric["better"], metric["bound"])
    return specs


#: Wrapped callables: (owner, attribute, time metric, calls metric, role).
#: ``owner`` is a module, or ``module:Class`` for a class attribute.  A
#: time metric is self time: inclusive time minus nested wrapped calls.
#: The role groups layers across kernels for the BENCHMARK.json per-layer
#: metrics (loop = the driving loop, runtime = what sits between the loop
#: and the protocol, handlers = protocol code; None = only in "other").
TARGETS: Tuple[Tuple[str, str, str, Optional[str], Optional[str]], ...] = (
    ("repro.amp.network", "payload_units", "core.volume.busy_s", "core.volume.calls", "runtime"),
    ("repro.sync.kernel", "payload_units", "core.volume.busy_s", "core.volume.calls", "runtime"),
    ("repro.explore.amp_model", "payload_units", "core.volume.busy_s", "core.volume.calls", "runtime"),
    ("repro.workload.service", "run_processes", "amp.network.loop_s", None, "loop"),
    ("repro.amp.network:Context", "send", "amp.network.send_s", "amp.network.sends", "runtime"),
    ("repro.amp.network:Context", "set_timer", "amp.network.send_s", None, "runtime"),
    ("repro.amp.network:UniformDelay", "delay", "amp.network.wire_s", None, "runtime"),
    ("repro.amp.network:LinkModel", "fates", "amp.network.wire_s", None, "runtime"),
    ("repro.amp.network:FairLossLink", "fates", "amp.network.wire_s", None, "runtime"),
    ("repro.amp.scd:ScdBroadcast", "handle", "amp.scd.busy_s", "amp.scd.calls", "handlers"),
    ("repro.amp.broadcast:UniformReliableBroadcast", "handle", "amp.broadcast.busy_s", None, "handlers"),
    ("repro.amp.consensus.omega:OmegaConsensusComponent", "handle", "amp.consensus.busy_s", None, "handlers"),
    ("repro.amp.consensus.omega:OmegaConsensusComponent", "on_timer", "amp.consensus.busy_s", None, "handlers"),
    ("repro.amp.links:ReliableChannel", "on_message", "amp.links.busy_s", "amp.links.calls", "runtime"),
    ("repro.amp.links:ReliableChannel", "on_timer", "amp.links.busy_s", "amp.links.calls", "runtime"),
) + tuple(
    (f"repro.workload.service:{node}", hook, "workload.service.busy_s", None, "handlers")
    for node in ("ScdKvServiceNode", "ToKvServiceNode", "AbdKvServiceNode")
    for hook in ("on_start", "on_message", "on_timer")
) + (
    ("repro.workload.service", "client_batches", "workload.generator.busy_s", None, None),
    ("repro.harness.stats:LatencyStats", "from_samples", "harness.stats.busy_s", None, None),
    ("repro.explore.engine:Explorer", "run", "explore.engine.self_s", None, "loop"),
) + tuple(
    ("repro.explore.amp_model:AmpModel", method, f"explore.amp_model.{method}_s", None, "runtime")
    for method in ("fingerprint", "enabled", "step", "decisions")
) + tuple(
    ("repro.explore.shm_model:ShmMachineModel", method, f"explore.shm_model.{method}_s", None, "runtime")
    for method in ("step", "enabled", "decisions", "independent", "fingerprint")
) + (
    ("repro.explore.protocols:AdoptCommitMachine", "apply_response", "explore.protocols.busy_s", None, "handlers"),
    ("repro.explore.properties:Invariant", "on_state", "explore.properties.busy_s", None, None),
    ("repro.explore.properties:Eventually", "on_terminal", "explore.properties.busy_s", None, None),
    ("repro.sync.kernel", "run_synchronous", "sync.kernel.self_s", "sync.kernel.runs", "loop"),
    ("repro.sync.adversary:BoundedDropAdversary", "filter", "sync.adversary.busy_s", None, "runtime"),
) + tuple(
    (f"repro.sync.algorithms.{module}:{cls}", hook, "sync.algorithms.busy_s", None, "handlers")
    for module, cls in (
        ("flooding", "FloodingAlgorithm"),
        ("consensus", "FloodSetConsensus"),
        ("early_stopping", "EarlyStoppingConsensus"),
    )
    for hook in ("on_start", "on_round", "local_state")
)

_MISSING = object()


class Tracer:
    """Self-time and call counters around every :data:`TARGETS` entry.

    Wrappers go on classes and modules, never on instances: protocols
    deep-copy ``vars(process)`` (``RecoverAt``) and the AMP explorer
    hashes it, so an instance-level wrapper would change what the
    program computes.  ``with Tracer() as tracer:`` installs them and
    restores the original attributes on exit.
    """

    def __init__(self) -> None:
        self._busy = [0.0] * len(TARGETS)
        self._calls = [0] * len(TARGETS)
        self._stack: List[float] = []
        self._installed: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for index, (owner_path, attr, *_) in enumerate(TARGETS):
                module_name, _, class_name = owner_path.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                self._wrap(owner, attr, index)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            if raw is _MISSING:
                delattr(owner, attr)  # it was inherited; uncover it again
            else:
                setattr(owner, attr, raw)

    def _wrap(self, owner: object, attr: str, index: int) -> None:
        raw = vars(owner).get(attr, _MISSING)
        current = getattr(owner, attr) if raw is _MISSING else raw
        if isinstance(current, classmethod):
            wrapped = classmethod(self._timed(current.__func__, index))
        else:
            wrapped = self._timed(current, index)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def _timed(self, fn: Callable, index: int) -> Callable:
        stack, busy, calls, clock = self._stack, self._busy, self._calls, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                busy[index] += elapsed - stack.pop()
                calls[index] += 1
                if stack:
                    stack[-1] += elapsed

        return timed

    def layers(self, wall_s: float) -> Dict[str, float]:
        """Per-layer and per-role metrics of the traced code so far."""
        out: Dict[str, float] = defaultdict(float)
        for role in ("runtime", "handlers"):
            out[f"{role}.busy_s"] = out[f"{role}.calls"] = 0
        out["loop.self_s"] = 0.0
        for (_, _, time_metric, calls_metric, role), busy, calls in zip(
            TARGETS, self._busy, self._calls
        ):
            if calls:
                out[time_metric] += busy
                if calls_metric:
                    out[calls_metric] += calls
            if role == "loop":
                out["loop.self_s"] += busy
            elif role:
                out[f"{role}.busy_s"] += busy
                out[f"{role}.calls"] += calls
        out["other.self_s"] = wall_s - (
            out["loop.self_s"] + out["runtime.busy_s"] + out["handlers.busy_s"]
        )
        return dict(out)


# ---------------------------------------------------------------------------
# Timed run of one workload (the BENCHMARK.json command)
# ---------------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_to_ready(cmd: List[str]) -> float:
    """Wall time from spawning ``cmd`` until it prints ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode} before it was ready")
    return wall


def setup_probe(name: str, seed: int, smoke: bool) -> float:
    """Set-up time at reference speed: the wall time from spawning a
    fresh interpreter until it has imported the library and built the
    workload's inputs, scaled by the reference start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    return time_to_ready(cmd) / time_to_ready(REFERENCE_START) * REFERENCE_START_S


def pin_for(name: str, seed: int, smoke: bool) -> Optional[str]:
    if seed != DEFAULT_SEED:
        return None
    return PINS[name]["small" if smoke else "full"]


def timed_run(name: str, seed: int, smoke: bool, seconds: float, trace: bool) -> dict:
    """Repeat ``name`` for ``seconds`` (at least once) and summarize.

    Untraced, every repetition is timed and followed by the reference
    loop, and ``setup_s`` comes from SETUP_PROBES set-up probes spread
    over the run, so that one burst of noise on the host cannot move
    them all.  Traced, each traced repetition is paired with an untraced
    one, whose wall time gives ``trace.overhead_ratio``.
    """
    probes = 0 if trace else SETUP_PROBES
    setup: List[float] = []
    run = WORKLOADS[name].build(seed, smoke)
    # The part of peak_rss_mb that the interpreter, the imports and the
    # built inputs hold before the first repetition.
    setup_rss_mb = max_rss_mb()
    plain: List[Rep] = []
    per_ref: List[float] = []
    traced: List[Tuple[Rep, Dict[str, float]]] = []
    reference_s()  # the first call runs cold (page faults): discard it
    refs = [reference_s()]
    start = time.perf_counter()
    while True:
        # Each repetition starts with no garbage of the last one left, so
        # peak_rss_mb is what one repetition needs, however many ran.
        gc.collect()
        rep = run()
        plain.append(rep)
        before, refs = refs, [reference_s()]
        while sum(refs) < REFERENCE_SHARE * rep.wall_s:
            refs.append(reference_s())
        per_ref.append(rep.units / rep.wall_s * statistics.median(before + refs))
        if trace:
            gc.collect()
            with Tracer() as tracer:
                rep = run()
            traced.append((rep, tracer.layers(rep.wall_s)))
        elapsed = time.perf_counter() - start
        if len(setup) < probes and len(setup) * seconds <= probes * elapsed:
            setup.append(setup_probe(name, seed, smoke))
            elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    while len(setup) < probes:
        setup.append(setup_probe(name, seed, smoke))

    reps = plain + [rep for rep, _ in traced]
    problems = [p for rep in reps for p in rep.problems]
    digests = sorted({rep.digest for rep in reps})
    if len(digests) > 1:
        problems.append(f"repetitions disagree: digests {digests}")
    pin = pin_for(name, seed, smoke)
    if pin is not None and digests != [pin]:
        problems.append(f"digest {digests} does not match pin {pin}")
    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "reps": len(plain),
        "digest": digests[0] if len(digests) == 1 else None,
        "pin": pin,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "problems": problems,
        "rate": [rep.units / rep.wall_s for rep in plain],
        "work_per_ref": per_ref,
        "wall_s": [rep.wall_s for rep in plain],
        "setup_s": setup,
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": max_rss_mb(),
        "exact": plain[0].exact,
        "layers": {},
    }
    if trace:
        layers: Dict[str, List[float]] = defaultdict(list)
        for rep, rep_layers in traced:
            for metric, value in {**rep.counts, **rep_layers}.items():
                layers[metric].append(value)
        record["layers"] = {m: statistics.median(v) for m, v in sorted(layers.items())}
        record["layers"]["trace.overhead_ratio"] = statistics.median(
            rep.wall_s for rep, _ in traced
        ) / statistics.median(record["wall_s"])
    return record


def contract_result(record: dict) -> dict:
    """The BENCHMARK.json result line for one timed run."""
    spec = load_benchmark()
    if record["trace"]:
        available, section = record["layers"], "per_layer"
    else:
        available = {m: statistics.median(v) for m, v in record_metrics(record).items()}
        section = "end_to_end"
    return {
        "correct": not record["problems"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": available[m["name"]], "unit": m["unit"]}
            for m in spec[section]
        },
    }


def record_metrics(record: dict) -> Dict[str, List[float]]:
    """The suite's end-to-end samples in one timed run's record."""
    family = WORKLOADS[record["workload"]].family
    samples = {
        RATE_METRIC[family]: record["rate"],
        "work_per_ref": record["work_per_ref"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": [record["peak_rss_mb"]],
        "setup_rss_mb": [record["setup_rss_mb"]],
        "failed_frac": [record["failed"] / record["attempted"]],
    }
    for name, value in record["exact"].items():
        samples[name] = [value]
    return samples


def print_metrics(samples: Dict[str, List[float]]) -> None:
    specs = metric_specs()
    for name, values in samples.items():
        unit = specs[name][0]
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        spread = f"  [{q1:.6g}, {q3:.6g}] n={len(values)}" if len(values) > 1 else ""
        print(f"  {name:<24} {median:>14.6g} {unit:<14}{spread}")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "1/op" if name.endswith("_per_op") else "count"


def print_layers(layers: Dict[str, float]) -> None:
    for name, value in layers.items():
        print(f"  {name:<40} {value:>14.6g} {layer_unit(name)}")


# ---------------------------------------------------------------------------
# The suite: every workload, each run in a fresh subprocess
# ---------------------------------------------------------------------------


def run_child(name: str, seed: int, smoke: bool, trace: bool) -> dict:
    """The record of one timed run (a single repetition) in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    for line in proc.stdout.splitlines():
        if line.startswith(RECORD_TAG):
            return json.loads(line[len(RECORD_TAG):])
    raise RuntimeError(f"{name}: timed run exited {proc.returncode} without a record")


def machine_meta() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_suite(names: Sequence[str], reps: int, seed: int, smoke: bool,
              trace: bool, out_dir: Optional[str]) -> int:
    summary = {"meta": {**machine_meta(), "argv": sys.argv, "seed": seed,
                        "reps": reps, "smoke": smoke, "trace": trace},
               "workloads": {}}
    failed = False
    for name in names:
        records = [run_child(name, seed, smoke, False) for _ in range(reps)]
        samples: Dict[str, List[float]] = defaultdict(list)
        for record in records:
            for metric, values in record_metrics(record).items():
                samples[metric].extend(values)
        problems = [p for r in records for p in r["problems"]]
        digests = sorted({r["digest"] for r in records} - {None})
        entry = {"digest": digests[0] if len(digests) == 1 else None,
                 "pin": records[0]["pin"], "layers": {}}
        if len(digests) > 1:
            problems.append(f"runs disagree: digests {digests}")
        for metric, (_, _, bound) in SUITE_METRICS.items():
            if bound == 0 and len(set(samples.get(metric, ()))) > 1:
                problems.append(f"exact metric {metric} differs between runs")
        if trace:
            traced = run_child(name, seed, smoke, True)
            problems += traced["problems"]
            if traced["digest"] != entry["digest"]:
                problems.append(f"traced digest {traced['digest']} differs from untraced")
            entry["layers"] = traced["layers"]
        entry["problems"] = problems
        entry["metrics"] = {}
        specs = metric_specs()
        for metric, values in samples.items():
            q1, q3 = quartiles(values)
            unit, better, _ = specs[metric]
            entry["metrics"][metric] = {
                "unit": unit, "better": better, "samples": values,
                "median": statistics.median(values), "q1": q1, "q3": q3,
            }
        summary["workloads"][name] = entry
        failed = failed or bool(problems)

        verdict = "FAILED" if problems else (
            "pin not checked" if entry["pin"] is None else "pin ok")
        print(f"{name}  ({'small' if smoke else 'full'}, seed {seed}, {reps} run(s))  "
              f"digest {entry['digest']}  {verdict}")
        print_metrics(samples)
        if trace:
            print_layers(entry["layers"])
        for problem in problems:
            print(f"  PROBLEM: {problem}")
        print(flush=True)

    summary["ok"] = not failed
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "suite.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    print("suite: OK" if not failed else "suite: FAILED")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare BASE.json NEW.json
# ---------------------------------------------------------------------------


def judge(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """One verdict for one (metric, workload) pair, per choosing-metrics §8.

    ``bound=0`` marks an exact metric: equal medians are unchanged, any
    other difference is improved or regressed by direction.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    gain = sign * (new_median - base_median)
    if bound == 0:
        return "unchanged" if gain == 0 else ("improved" if gain > 0 else "regressed")
    q1, q3 = quartiles(base)
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if (q3 - q1) / abs(base_median) > bound and not all_better:
        return "unresolved"
    if -gain / abs(base_median) > bound:
        return "regressed"
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    return "unchanged"


def compare(base_path: str, new_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    specs = metric_specs()
    regressed = False
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            print(f"{workload}: missing from {new_path}")
            continue
        for metric, b in base_entry["metrics"].items():
            n = new_entry["metrics"].get(metric)
            if n is None:
                continue
            bound = specs[metric][2]
            verdict = judge(b["samples"], n["samples"], b["better"], bound)
            regressed = regressed or verdict == "regressed"
            ratio = n["median"] / b["median"] if b["median"] else float("nan")
            print(
                f"{workload:<21} {metric:<21} "
                f"base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={len(b['samples'])}  "
                f"new {n['median']:.6g} [{n['q1']:.6g}, {n['q3']:.6g}] n={len(n['samples'])}  "
                f"ratio {ratio:.4f} of base {b['median']:.6g} {b['unit']}  "
                f"bound {bound if bound else 'exact'}  {verdict}"
            )
            if metric == "failed_frac" and n["median"] > b["median"]:
                print(f"  FLAG: {workload} fails more work than the base")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def use_repo_src() -> None:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"bench_suite: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: bench_suite.py compare BASE.json NEW.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--reps", type=int, default=1, help="suite runs per workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (pins are checked only at {DEFAULT_SEED})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer metrics from a separate traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="small instances (what timed runs and tests repeat)")
    parser.add_argument("--out", help="suite: write DIR/suite.json")
    parser.add_argument("--seconds", type=float,
                        help="one timed run of one --workload, this long")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    if args.seconds is None and not args.setup_only:
        if args.reps < 1:
            parser.error("--reps must be >= 1")
        return run_suite(names, args.reps, args.seed, args.smoke, bool(args.trace), args.out)
    if len(names) != 1:
        parser.error("a timed run takes exactly one --workload")
    use_repo_src()
    if args.setup_only:
        WORKLOADS[names[0]].build(args.seed, args.smoke)
        print("ready", flush=True)
        return 0
    record = timed_run(names[0], args.seed, args.smoke, args.seconds, bool(args.trace))
    result = contract_result(record)
    print(f"{names[0]}  ({'small' if args.smoke else 'full'}, seed {args.seed}, "
          f"{record['reps']} rep(s))  digest {record['digest']}")
    if args.trace:
        print_layers(record["layers"])
    else:
        print_metrics(record_metrics(record))
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(RECORD_TAG + json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Tests: python3 -m pytest benchsuite/bench_suite.py
# ---------------------------------------------------------------------------


def test_smoke_suite_traced_and_untraced(tmp_path):
    """Every workload at smoke size, untraced and traced: pins, the
    BENCHMARK.json result lines and the printed metrics all check out."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--smoke", "--trace",
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    summary = json.loads((tmp_path / "suite.json").read_text())
    assert list(summary["workloads"]) == list(WORKLOADS)
    spec = load_benchmark()
    blocks = proc.stdout.split("\n\n")  # one block per workload
    for name, entry in summary["workloads"].items():
        # The suite already failed on any traced/untraced digest mismatch.
        assert entry["problems"] == [], (name, entry["problems"])
        assert entry["digest"] == entry["pin"] == PINS[name]["small"]
        printed = {
            line.split()[0]: line.split()[2]
            for line in next(b for b in blocks if b.startswith(name + " ")).splitlines()[1:]
        }
        family_rate = RATE_METRIC[WORKLOADS[name].family]
        assert printed[family_rate] == SUITE_METRICS[family_rate][0]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert printed[metric["name"]] == metric["unit"], (name, metric)


def test_perturbed_pin_is_a_failure(monkeypatch, capsys):
    use_repo_src()
    monkeypatch.setitem(PINS, "sync-small", {"full": "", "small": "0" * 64})
    code = main(["--smoke", "--workload", "sync-small", "--seconds", "0", "--trace", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any("does not match pin" in line for line in lines)


def test_tracer_restores_every_attribute():
    use_repo_src()

    def attributes():
        state = []
        for owner_path, attr, *_ in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            state.append((owner_path, attr, vars(owner).get(attr, _MISSING)))
        return state

    before = attributes()
    with Tracer():
        assert attributes() != before
    assert attributes() == before


def test_timed_run_fails_without_the_library(tmp_path):
    """In a directory holding only BENCHMARK.json and this directory, a
    timed run exits non-zero and prints no result line."""
    (tmp_path / HERE.name).mkdir()
    (tmp_path / "BENCHMARK.json").write_text(BENCHMARK_JSON.read_text())
    script = tmp_path / HERE.name / Path(__file__).name
    script.write_text(Path(__file__).read_text())
    proc = subprocess.run(
        [sys.executable, str(script), "--smoke", "--workload", "kv-scd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_verdicts(tmp_path, capsys):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert judge(base, [v * 1.2 for v in base], "higher", 0.1) == "improved"
    assert judge(base, [v * 0.8 for v in base], "higher", 0.1) == "regressed"
    assert judge(base, base[::-1], "higher", 0.1) == "unchanged"
    assert judge([50.0, 150.0, 100.0, 60.0, 140.0], [100.0] * 5, "higher", 0.1) == "unresolved"
    assert judge([1.0, 2.0], [3.0, 4.0], "higher", 0.1) == "improved"  # every run better
    assert judge([2.0], [2.0], "lower", 0.0) == "unchanged"
    assert judge([2.0], [2.5], "lower", 0.0) == "regressed"

    def suite(rate, failed):
        metrics = {
            "ops_per_s": {"unit": "ops/s", "better": "higher", "samples": rate},
            "failed_frac": {"unit": "fraction", "better": "lower", "samples": [failed]},
        }
        for entry in metrics.values():
            entry["median"] = statistics.median(entry["samples"])
            entry["q1"], entry["q3"] = quartiles(entry["samples"])
        return {"workloads": {"kv-scd": {"metrics": metrics}}}

    paths = []
    for label, rate, failed in (("base", base, 0.0), ("new", base, 0.5)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(suite(rate, failed)))
        paths.append(str(path))
    assert compare(*paths) == 1
    out = capsys.readouterr().out
    assert "ops_per_s" in out and "unchanged" in out
    assert "FLAG: kv-scd fails more work than the base" in out


if __name__ == "__main__":
    sys.exit(main())
