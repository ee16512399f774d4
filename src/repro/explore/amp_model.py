"""AMP adapter: exhaustive delivery/timer/crash orderings.

In ``AMP_{n,t}`` the adversary's freedom is the *order* in which pending
messages are delivered (plus when timers fire and who crashes).  The
branching structure is made explicit by
:class:`~repro.amp.network.DrivenRuntime`, which holds every sent
message in a **pending set** instead of a delay heap and takes one step
per choice, at one tick of virtual time each; a choice is one of:

* ``("deliver", send_seq, dst)`` — deliver a pending message;
* ``("timer", timer_seq, pid)`` — fire a pending timer;
* ``("crash", pid)`` — crash a live process (enabled while the model's
  crash budget lasts);
* ``("lose", send_seq, dst)`` — the link loses a pending message
  (enabled while ``max_losses`` lasts);
* ``("dup", send_seq, dst)`` — the link mints a second copy of a
  pending message (enabled while ``max_duplications`` lasts);
* ``("recover", pid)`` — a crashed process comes back with volatile
  state wiped, keeping only ``ctx.stable`` (``allow_recovery=True``;
  each pid recovers at most once per run so faulty branches stay
  finite).

Processes are mutable Python objects and cannot be forked, so the
search is **stateless**: a configuration is the schedule prefix itself,
re-executed from fresh ``factory()`` instances on demand.  The model
keeps only the prefix it materialized last: every engine asks all it
needs about a prefix (fingerprint, properties, enabled choices) right
after materializing it.

The visited-set fingerprint is a sha256 over a canonical rendering of
the global state: each process's attributes, context and RNG, then the
crashed and recovered sets, the loss/duplication budgets, the stable
storages and the pending message/timer multisets — two prefixes that
converge to the same global state dedup even though their schedules
differ.  The rendering is assembled from per-process parts and the
shared parts (everything after the processes).  The per-process parts
of expanded configurations are kept for one BFS level (one per depth
along a DFS path or a random walk).  A child re-renders only the
process its last choice targets (none for ``lose``/``dup``) and the
shared parts, and takes the others from its parent; without the
parent's parts it renders every process.  The digest is the same either
way.

Independence: two choices commute iff they touch different target
processes (handlers only mutate their own process; new sends land in
the pending *multiset*, which ignores order).  Crash choices are
conservatively dependent on each other (a crash budget makes one crash
disable another).  The incremental fingerprint rests on the same
contract: a step mutates only its target process.  Processes that share
a mutable object break it; explore SCD object nodes with
``history=None``, since a shared
:class:`~repro.core.history.History` is mutated by every node (and its
address-bearing ``repr`` defeats dedup anyway).

Counterexamples record the schedule through a sink-instrumented run and
replay it byte-identically via :func:`repro.trace.replay.replay`, which
drives the same runtime class from the recorded events.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..amp.network import AsyncProcess, DrivenRuntime
from ..core.exceptions import ConfigurationError
# Not called here; benchsuite's tracer still wraps it by this module's name.
from ..core.volume import payload_units
from ..trace.events import TraceEvent, trace_hash
from ..trace.replay import replay
from ..trace.sink import MemorySink, TraceSink
from .counterexample import Counterexample
from .model import ExplorationModel, Interner

Choice = Tuple
Prefix = Tuple[Choice, ...]


class AmpModel(ExplorationModel):
    """Every delivery order (and crash pattern) of an AMP protocol.

    Parameters
    ----------
    factory:
        Zero-argument callable returning fresh process instances — one
        list per materialization (processes are stateful).
    seed:
        The runtime seed (feeds per-process RNGs); recorded
        counterexamples replay with the same seed.
    max_crashes:
        The model's ``t``: how many ``("crash", pid)`` choices the
        adversary may take (0 = crash-free exploration).  With
        ``allow_recovery`` this bounds the *concurrently* crashed set.
    max_losses:
        How many ``("lose", …)`` choices the link adversary may take
        (0 = reliable links, the default).
    max_duplications:
        How many ``("dup", …)`` choices the link adversary may take.
    allow_recovery:
        Offer ``("recover", pid)`` for crashed processes (each pid at
        most once per run).  Recovery wipes volatile state back to the
        constructed snapshot; only ``ctx.stable`` survives.
    stop_when_settled:
        Treat configurations where every live process has decided or
        halted as terminal even if messages remain in flight (their
        deliveries can no longer change any output).
    """

    kernel = "amp"

    def __init__(
        self,
        factory: Callable[[], Sequence[AsyncProcess]],
        seed: int = 0,
        max_crashes: int = 0,
        stop_when_settled: bool = True,
        max_losses: int = 0,
        max_duplications: int = 0,
        allow_recovery: bool = False,
    ) -> None:
        if max_crashes < 0:
            raise ConfigurationError("max_crashes must be >= 0")
        if max_losses < 0 or max_duplications < 0:
            raise ConfigurationError("loss/duplication budgets must be >= 0")
        if allow_recovery and max_crashes == 0:
            raise ConfigurationError("allow_recovery needs max_crashes >= 1")
        self.factory = factory
        self.seed = seed
        self.max_crashes = max_crashes
        self.max_losses = max_losses
        self.max_duplications = max_duplications
        self.allow_recovery = allow_recovery
        self.stop_when_settled = stop_when_settled
        self.n = len(list(factory()))
        self._intern = Interner()
        #: the prefix materialized last, its runtime, and (once rendered)
        #: its per-pid fingerprint parts
        self._slot_prefix: Optional[Prefix] = None
        self._slot_runtime: Optional[DrivenRuntime] = None
        self._slot_parts: Optional[List[str]] = None
        #: depth → {expanded prefix: its per-pid parts}; see _keep_parts
        self._levels: List[Dict[Prefix, List[str]]] = []

    # -- stateless materialization ----------------------------------------

    def _run(
        self, schedule: Sequence[Choice], sink: Optional[TraceSink] = None
    ) -> DrivenRuntime:
        """Fresh processes driven through ``schedule``, one tick of
        virtual time per choice."""
        runtime = DrivenRuntime(
            list(self.factory()),
            seed=self.seed,
            sink=sink,
            # Snapshot the constructed state only of pids this run recovers.
            recoverable=(
                {choice[1] for choice in schedule if choice[0] == "recover"}
                if self.allow_recovery
                else ()
            ),
        )
        runtime.start()
        for choice in schedule:
            runtime.now += 1.0
            kind = choice[0]
            if kind == "deliver":
                runtime.deliver(choice[1])
            elif kind == "timer":
                runtime.fire_timer(choice[1], choice[2])
            elif kind == "crash":
                pid = choice[1]
                runtime.crash(pid)
                if self.allow_recovery:
                    # Timers are volatile: they die with the incarnation,
                    # and must not fire for a future recovered one.
                    for seq in sorted(runtime.pending_timers):
                        if runtime.pending_timers[seq][0] == pid:
                            runtime.drop_timer(seq, "stale")
            elif kind == "lose":
                runtime.lose(choice[1])
            elif kind == "dup":
                runtime.duplicate(choice[1])
            elif kind == "recover":
                runtime.recover(choice[1])
            else:
                raise ConfigurationError(f"unknown exploration choice {choice!r}")
        return runtime

    def _materialize(self, prefix: Prefix) -> DrivenRuntime:
        if prefix != self._slot_prefix:
            self._slot_runtime = self._run(prefix)
            self._slot_prefix = prefix
            self._slot_parts = None
        return self._slot_runtime

    # -- fingerprint parts ---------------------------------------------------

    def _render_pid(self, runtime: DrivenRuntime, pid: int) -> str:
        """``pid``'s entries of the fingerprint's parts list, as they
        appear inside its ``repr``."""
        process = sorted(
            (k, repr(v)) for k, v in vars(runtime.processes[pid]).items()
        )
        ctx = runtime.contexts[pid]
        text = f"{process!r}, {(ctx.decided, repr(ctx.output), ctx.halted)!r}"
        rng = runtime._proc_rngs.get(pid)
        if rng is not None:
            text += f", {repr(rng.getstate())!r}"
        return text

    def _pid_parts(self, prefix: Prefix, runtime: DrivenRuntime) -> List[str]:
        """Every pid's rendered parts after ``prefix``: the parent's, with
        the last choice's target re-rendered, when the parent was kept."""
        parts = self._slot_parts
        if parts is not None:
            return parts
        levels = self._levels
        depth = len(prefix) - 1
        parent = levels[depth].get(prefix[:-1]) if 0 <= depth < len(levels) else None
        if parent is None:
            parts = [self._render_pid(runtime, pid) for pid in range(self.n)]
        else:
            parts = list(parent)
            choice = prefix[-1]
            if choice[0] not in ("lose", "dup"):  # those touch no process
                pid = choice[-1]
                parts[pid] = self._render_pid(runtime, pid)
        self._slot_parts = parts
        return parts

    def _keep_parts(self, prefix: Prefix, parts: List[str]) -> None:
        """Keep an expanded prefix's parts for its children.

        Levels deeper than the prefix are dropped (a DFS backtracked, a
        walk restarted).  When a level is first entered, the level two
        above keeps only its newest entry: BFS needs none of it any
        more, and under DFS the newest entry is the current path's.
        """
        depth = len(prefix)
        levels = self._levels
        del levels[depth + 1:]
        if depth == len(levels) and depth >= 2 and len(levels[depth - 2]) > 1:
            levels[depth - 2] = dict([levels[depth - 2].popitem()])
        while len(levels) <= depth:
            levels.append({})
        levels[depth][prefix] = parts

    # -- the model contract ------------------------------------------------

    def initial(self) -> Prefix:
        return ()

    def enabled(self, prefix: Prefix) -> List[Choice]:
        runtime = self._materialize(prefix)
        settled = self.stop_when_settled and runtime._all_settled()
        choices: List[Choice] = []
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
            # Recovery stays on the menu even in settled configurations:
            # a recovered process may un-settle the run (that branch is
            # exactly where memory-only protocols break).
            for pid in sorted(runtime.crashed):
                if pid not in runtime.recovered:
                    choices.append(("recover", pid))
        if choices:  # an expansion: the children will look for its parts
            self._keep_parts(prefix, self._pid_parts(prefix, runtime))
        return choices

    def step(self, prefix: Prefix, choice: Choice) -> Prefix:
        return prefix + (choice,)

    def fingerprint(self, prefix: Prefix) -> str:
        runtime = self._materialize(prefix)
        shared = [
            sorted(runtime.crashed),
            sorted(runtime.recovered),
            (runtime.losses, runtime.duplicated),
            [
                sorted(
                    (repr(k), repr(v))
                    for k, v in runtime.storages[pid].snapshot().items()
                )
                for pid in range(self.n)
            ],
            sorted(
                (src, dst, repr(payload))
                for (src, dst, payload, _) in runtime.pending.values()
            ),
            sorted(
                (pid, repr(name)) for (pid, name) in runtime.pending_timers.values()
            ),
        ]
        pids = ", ".join(self._pid_parts(prefix, runtime))
        # The repr of one list: every pid's parts, then the shared parts.
        text = f"[{pids}, {repr(shared)[1:-1]}]"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._intern(digest)

    def processes(self, prefix: Prefix) -> List[AsyncProcess]:
        """The materialized process objects after ``prefix``.

        Read-only by contract: properties inspect protocol state the
        processes expose (delivery histories, views) beyond the bare
        ``decisions`` map.  Mutating them would corrupt the materialized
        prefix and the fingerprint parts kept for its children.
        """
        return list(self._materialize(prefix).processes)

    def decisions(self, prefix: Prefix) -> Dict[int, object]:
        runtime = self._materialize(prefix)
        return {
            pid: runtime.contexts[pid].output
            for pid in range(self.n)
            if runtime.contexts[pid].decided
        }

    def crashed(self, prefix: Prefix) -> frozenset:
        return frozenset(self._materialize(prefix).crashed)

    _FAULT_CHOICES = frozenset({"crash", "recover"})

    def independent(self, prefix: Prefix, a: Choice, b: Choice) -> bool:
        if a[0] in self._FAULT_CHOICES and b[0] in self._FAULT_CHOICES:
            # Budgets make one fault choice disable/enable another.
            return False
        return a[-1] != b[-1]  # distinct target processes commute

    def describe_choice(self, choice: Choice) -> str:
        kind = choice[0]
        if kind == "deliver":
            return f"deliver #{choice[1]}→p{choice[2]}"
        if kind == "timer":
            return f"timer #{choice[1]}@p{choice[2]}"
        if kind == "lose":
            return f"lose #{choice[1]}→p{choice[2]}"
        if kind == "dup":
            return f"dup #{choice[1]}→p{choice[2]}"
        if kind == "recover":
            return f"recover p{choice[1]}"
        return f"crash p{choice[1]}"

    # -- counterexamples ---------------------------------------------------

    def counterexample(self, schedule: Sequence[Choice]) -> Counterexample:
        sink = MemorySink()
        self._run(schedule, sink)
        events = list(sink.events)
        factory, seed = self.factory, self.seed

        def replayer() -> List[TraceEvent]:
            replay_sink = MemorySink()
            replay(list(factory()), events, seed=seed, sink=replay_sink)
            return replay_sink.events

        return Counterexample(
            kernel="amp",
            schedule=tuple(schedule),
            events=events,
            trace_hash=trace_hash(events),
            _replayer=replayer,
            described=tuple(self.describe_choice(c) for c in schedule),
        )
