"""AMP adapter: exhaustive delivery/timer/crash orderings.

In ``AMP_{n,t}`` the adversary's freedom is the *order* in which pending
messages are delivered (plus when timers fire and who crashes).  The
branching structure is made explicit by a controlled runtime that holds
every sent message in a **pending set** instead of a delay heap; a
choice is one of:

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
re-executed from fresh ``factory()`` instances on demand (with a small
materialization cache), and the visited-set fingerprint is a canonical
digest of process attributes, contexts, the crashed set, and the
pending message/timer multisets — two prefixes that converge to the
same global state dedup even though their schedules differ.

Independence: two choices commute iff they touch different target
processes (handlers only mutate their own process; new sends land in
the pending *multiset*, which ignores order).  Crash choices are
conservatively dependent on each other (a crash budget makes one crash
disable another).

Counterexamples record the schedule through a sink-instrumented run and
replay it byte-identically via :func:`repro.trace.replay.replay`.
"""

from __future__ import annotations

import copy
import hashlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..amp.network import AsyncProcess, AsyncRuntime, FixedDelay
from ..core.exceptions import ConfigurationError
from ..core.volume import payload_units
from ..trace.events import TraceEvent, trace_hash
from ..trace.replay import replay
from ..trace.sink import MemorySink, TraceSink
from .counterexample import Counterexample
from .model import ExplorationModel, Interner

Choice = Tuple
Prefix = Tuple[Choice, ...]


class AmpExplorationRuntime(AsyncRuntime):
    """An :class:`AsyncRuntime` whose event loop is externalized.

    ``_send`` parks messages in :attr:`pending` (keyed by a
    deterministic send sequence number) instead of scheduling a
    delivery; :meth:`apply` executes one exploration choice.  Virtual
    time advances by 1.0 per applied choice, so recorded traces carry
    a well-defined, replayable time axis.
    """

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        seed: int = 0,
        sink: Optional[TraceSink] = None,
        recovery_enabled: bool = False,
    ) -> None:
        super().__init__(
            processes,
            delay_model=FixedDelay(1.0),
            seed=seed,
            quiesce_when_decided=True,
            sink=sink,
        )
        #: send_seq → (src, dst, payload, units), undelivered messages
        self.pending: Dict[int, Tuple[int, int, object, int]] = {}
        #: timer_seq → (pid, name), unfired timers
        self.pending_timers: Dict[int, Tuple[int, object]] = {}
        self._send_counter = 0
        self._timer_counter = 0
        self.losses = 0
        self.duplicated = 0
        self.recovery_enabled = recovery_enabled
        if recovery_enabled:
            # Recovery restores constructed state, so snapshot everyone
            # (any live process may crash-then-recover during the search).
            self._initial_state = {
                pid: copy.deepcopy(vars(self.processes[pid]))
                for pid in range(self.n)
            }

    # -- protocol-facing plumbing (parked, not scheduled) ------------------

    def _send(self, src: int, dsts: Sequence[int], payload: object) -> None:
        if src in self.crashed:
            return
        units = payload_units(payload)
        pending = self.pending
        sink = self._sink
        for dst in dsts:
            seq = self._send_counter
            self._send_counter = seq + 1
            pending[seq] = (src, dst, payload, units)
            self.messages_sent += 1
            self.payload_sent += units
            if sink is not None:
                sink.amp_send(seq, src, dst, payload, units, self.now)

    def _set_timer(self, pid: int, delay: float, name: object) -> None:
        if delay < 0:
            raise ConfigurationError("timer delay must be >= 0")
        seq = self._timer_counter
        self._timer_counter += 1
        self.pending_timers[seq] = (pid, name)
        if self._sink is not None:
            self._sink.amp_timer_set(seq, pid)

    def run(self, until=None):  # pragma: no cover - misuse guard
        raise ConfigurationError(
            "AmpExplorationRuntime is driven by apply(); it has no event loop"
        )

    # -- exploration controls ---------------------------------------------

    def start(self) -> None:
        """Run every live process's ``on_start`` (time 0)."""
        self._started = True
        for pid in range(self.n):
            if pid not in self.crashed:
                self.processes[pid].on_start(self.contexts[pid])

    def apply(self, choice: Choice) -> None:
        """Execute one exploration choice (one tick of virtual time)."""
        self.now += 1.0
        kind = choice[0]
        if kind == "deliver":
            seq = choice[1]
            if seq not in self.pending:
                raise ConfigurationError(f"no pending send #{seq}")
            src, dst, payload, units = self.pending.pop(seq)
            if dst in self.crashed or self.contexts[dst].halted:
                raise ConfigurationError(f"delivery to dead process {dst}")
            self.messages_delivered += 1
            self.payload_delivered += units
            if self._sink is not None:
                self._sink.amp_deliver(seq, src, dst, payload, self.now)
            self.processes[dst].on_message(self.contexts[dst], src, payload)
        elif kind == "timer":
            seq = choice[1]
            if seq not in self.pending_timers:
                raise ConfigurationError(f"no pending timer #{seq}")
            pid, name = self.pending_timers.pop(seq)
            if self._sink is not None:
                self._sink.amp_timer(seq, pid, name, self.now)
            self.processes[pid].on_timer(self.contexts[pid], name)
        elif kind == "crash":
            pid = choice[1]
            if pid in self.crashed:
                raise ConfigurationError(f"process {pid} crashed twice")
            self.crashed.add(pid)
            if self._sink is not None:
                self._sink.amp_crash(pid, self.now)
            if self.recovery_enabled:
                # Timers are volatile: they die with the incarnation, and
                # must not fire for a future recovered one.
                for seq in sorted(self.pending_timers):
                    if self.pending_timers[seq][0] == pid:
                        del self.pending_timers[seq]
                        if self._sink is not None:
                            self._sink.amp_drop_timer(seq, self.now, reason="stale")
        elif kind == "lose":
            seq = choice[1]
            if seq not in self.pending:
                raise ConfigurationError(f"no pending send #{seq}")
            del self.pending[seq]
            self.losses += 1
            if self._sink is not None:
                self._sink.amp_drop(seq, self.now, reason="loss")
        elif kind == "dup":
            seq = choice[1]
            if seq not in self.pending:
                raise ConfigurationError(f"no pending send #{seq}")
            copy_seq = self._send_counter
            self._send_counter += 1
            # The copy shares the original's payload (and, in the trace,
            # its send_seq — the protocol only sent once).
            self.pending[copy_seq] = self.pending[seq]
            self.duplicated += 1
            if self._sink is not None:
                self._sink.amp_send_dup(copy_seq, seq)
        elif kind == "recover":
            pid = choice[1]
            if pid not in self.crashed:
                raise ConfigurationError(f"process {pid} is not crashed")
            self._handle_recover(pid)
        else:
            raise ConfigurationError(f"unknown exploration choice {choice!r}")


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
        cache_size: int = 8,
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
        self._cache: "OrderedDict[Prefix, AmpExplorationRuntime]" = OrderedDict()
        self._cache_size = max(1, cache_size)

    # -- stateless materialization ----------------------------------------

    def _materialize(self, prefix: Prefix) -> AmpExplorationRuntime:
        runtime = self._cache.get(prefix)
        if runtime is not None:
            self._cache.move_to_end(prefix)
            return runtime
        runtime = AmpExplorationRuntime(
            list(self.factory()),
            seed=self.seed,
            recovery_enabled=self.allow_recovery,
        )
        runtime.start()
        for choice in prefix:
            runtime.apply(choice)
        self._cache[prefix] = runtime
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return runtime

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
        return choices

    def step(self, prefix: Prefix, choice: Choice) -> Prefix:
        return prefix + (choice,)

    def fingerprint(self, prefix: Prefix) -> str:
        runtime = self._materialize(prefix)
        parts: List[object] = []
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

    def processes(self, prefix: Prefix) -> List[AsyncProcess]:
        """The materialized process objects after ``prefix``.

        Read-only by contract: properties inspect protocol state the
        processes expose (delivery histories, views) beyond the bare
        ``decisions`` map.  Mutating them would corrupt the prefix
        cache.
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
        runtime = AmpExplorationRuntime(
            list(self.factory()),
            seed=self.seed,
            sink=sink,
            recovery_enabled=self.allow_recovery,
        )
        runtime.start()
        for choice in schedule:
            runtime.apply(choice)
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
