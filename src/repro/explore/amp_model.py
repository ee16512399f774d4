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

Processes are mutable Python objects and cannot be forked, so a
configuration is the schedule prefix itself.  Its **abstract state** is
folded from the root's, one choice at a time: each process's interned
*local state*, the pending sends and timers by seq, the crashed and
recovered sets, the loss/duplication budgets and the send and timer
counters.  A local state is keyed by ``(pid, render, storage)``: the
process's attributes, context and RNG state rendered as text, and its
stable storage rendered likewise.  It keeps those renders, the context's
decided/output/halted and the process object of the run that first
reached it.

Crash, lose and dup are bookkeeping on the abstract state.  Deliver,
timer and recover run a handler, and the fold looks each one up in a
memo keyed by ``(local state, event)`` (a local state names its pid):
the event is the delivered message's ``(src, repr(payload))``, the
timer's ``repr(name)`` or the recovery.  An entry holds the target's
new local state, the sends it parked, in seq order, and the timers it
set.  On a miss, and on any choice the fold cannot check,
:meth:`AmpModel._run` re-executes the prefix up to that choice from
fresh ``factory()`` instances: a miss reads the step's outcome off that
runtime, a bad choice raises there.  ``_run`` is the only code that
runs handlers.

Handlers may store ``ctx.time`` (SCD object nodes do), and a choice's
tick is its 1-based position in the prefix.  The runtime's contexts
record each read of the clock, and ``_run`` clears the record before
each choice.  A step whose replay read it marks its key *timed*, and a
timed key's outcomes are stored and looked up under ``(local state,
event, tick)``.  This is sound because a handler that starts from the
same local state on the same event sees identical inputs up to its first
read of ``ctx.time``: a step that did not read the clock on its first
run reads it at no tick, and has the same outcome at every tick.  So
each handler runs once per distinct (local state, event), and once per
tick as well only where it reads the clock.  The memo rests on three
assumptions.  A step mutates only its target process; equal renders
behave alike; a handler reads only its process, its context, RNG and
storage, the event and the clock through ``ctx.time``: no failure
detector is attached.  Processes that share a mutable object break the
first; explore SCD object nodes with ``history=None``, since a shared
:class:`~repro.core.history.History` is mutated by every node (and its
address-bearing ``repr`` defeats dedup anyway).  The model keeps the
abstract state of the prefix it folded last, since every engine asks all
it needs about a prefix (fingerprint, properties, enabled choices) right
after folding it, and that of its parent, from which BFS siblings, a DFS
path and a walk fold their last choice.

The visited-set fingerprint is a sha256 over a canonical rendering of
the global state: each process's render, then the crashed and recovered
sets, the loss/duplication budgets, the stable storages and the pending
message/timer multisets — two prefixes that converge to the same global
state dedup even though their schedules differ.  The text is assembled
from the renders the local states keep.

Independence: two choices commute iff they touch different target
processes (handlers only mutate their own process; new sends land in
the pending *multiset*, which ignores order).  Crash choices are
conservatively dependent on each other (a crash budget makes one crash
disable another).

Counterexamples record the schedule through a sink-instrumented run and
replay it byte-identically via :func:`repro.trace.replay.replay`, which
drives the same runtime class from the recorded events.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..amp.network import AsyncProcess, DrivenRuntime
from ..core.exceptions import ConfigurationError
# Not called here; benchsuite's tracer still wraps it by this module's name.
from ..core.volume import payload_units
from ..trace.events import TraceEvent, trace_hash
from ..trace.sink import MemorySink, TraceSink
from .counterexample import Counterexample
from .model import ExplorationModel, Interner

Choice = Tuple
Prefix = Tuple[Choice, ...]


@dataclass(eq=False)  # hashed by identity: a memo key part
class _Local:
    """One process's interned local state (see the module docstring)."""

    render: str
    storage: str
    decided: bool
    output: object
    halted: bool
    process: AsyncProcess


@dataclass
class _State:
    """A prefix's abstract state: what the fold steps and every query reads.

    ``pending`` maps a send seq to ``(src, dst, payload, units,
    repr(payload))``, ``timers`` a timer seq to ``(pid, name, repr(name))``.
    """

    locals: List[_Local]
    pending: Dict[int, tuple]
    timers: Dict[int, tuple]
    crashed: Set[int]
    recovered: Set[int]
    losses: int
    duplicated: int
    sends: int
    timer_count: int

    def copy(self) -> "_State":
        return _State(
            list(self.locals), dict(self.pending), dict(self.timers),
            set(self.crashed), set(self.recovered), self.losses,
            self.duplicated, self.sends, self.timer_count,
        )


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
        #: (pid, render, storage) → the interned local state
        self._locals: Dict[Tuple[int, str, str], _Local] = {}
        #: (local state, source, event), plus the tick for a timed key →
        #: (the target's new local state, its parked sends, its set timers)
        self._steps: Dict[tuple, Tuple[_Local, tuple, tuple]] = {}
        #: the (local state, source, event) keys whose step read ctx.time
        self._timed: Set[tuple] = set()
        self._root: Optional[_State] = None
        #: the prefix folded last and its abstract state
        self._slot_prefix: Optional[Prefix] = None
        self._slot_state: Optional[_State] = None
        #: the slot prefix's parent and its abstract state
        self._parent_prefix: Optional[Prefix] = None
        self._parent_state: Optional[_State] = None

    # -- replay: the only code that runs handlers ----------------------------

    def _run(
        self, schedule: Sequence[Choice], sink: Optional[TraceSink] = None
    ) -> DrivenRuntime:
        """Fresh processes driven through ``schedule``, one tick of
        virtual time per choice; ``time_read`` tells whether the last
        choice read ``ctx.time``."""
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
            runtime.time_read = False
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

    def _local(self, runtime: DrivenRuntime, pid: int) -> _Local:
        """``pid``'s local state in ``runtime``, interned."""
        render = self._render_pid(runtime, pid)
        storage = repr(sorted(
            (repr(k), repr(v)) for k, v in runtime.storages[pid].snapshot().items()
        ))
        key = (pid, render, storage)
        local = self._locals.get(key)
        if local is None:
            ctx = runtime.contexts[pid]
            local = self._locals[key] = _Local(
                render, storage, ctx.decided, ctx.output, ctx.halted,
                runtime.processes[pid],
            )
        return local

    def _absorb(self, runtime: DrivenRuntime) -> _State:
        """The abstract state of a replayed runtime."""
        return _State(
            [self._local(runtime, pid) for pid in range(self.n)],
            {
                seq: (src, dst, payload, units, repr(payload))
                for seq, (src, dst, payload, units) in runtime.pending.items()
            },
            {
                seq: (pid, name, repr(name))
                for seq, (pid, name) in runtime.pending_timers.items()
            },
            set(runtime.crashed),
            set(runtime.recovered),
            runtime.losses,
            runtime.duplicated,
            runtime._send_counter,
            runtime._timer_counter,
        )

    # -- the fold --------------------------------------------------------------

    def _state(self, prefix: Prefix) -> _State:
        if prefix != self._slot_prefix:
            if self._root is None:
                self._root = self._absorb(self._run(()))
            if prefix:
                # BFS siblings, a DFS path and a walk all fold their last
                # choice onto the parent's state.
                parent = prefix[:-1]
                if parent != self._parent_prefix:
                    self._parent_state = (
                        self._slot_state if parent == self._slot_prefix
                        else self._fold(self._root, parent, 0)
                    )
                    self._parent_prefix = parent
                state = self._fold(self._parent_state, prefix, len(parent))
            else:
                state = self._root
            self._slot_prefix = prefix
            self._slot_state = state
        return self._slot_state

    def _fold(self, state: _State, prefix: Prefix, start: int) -> _State:
        """The abstract state after ``prefix``, from ``state``, that of
        ``prefix[:start]`` (which stays untouched)."""
        state = state.copy()
        for i in range(start, len(prefix)):
            if not self._advance(state, prefix, i):
                # Not a step the fold can check: replay it, which raises
                # the error a bad choice raises.
                state = self._absorb(self._run(prefix[:i + 1]))
        return state

    def _advance(self, state: _State, prefix: Prefix, i: int) -> bool:
        """Apply ``prefix[i]`` to ``state`` in place, mirroring ``_run``;
        False (``state`` untouched) for an unknown kind, a missing seq, a
        dead target or a second crash."""
        choice = prefix[i]
        kind = choice[0]
        target = choice[1] if len(choice) > 1 else None
        crashed = state.crashed
        if kind == "deliver":
            entry = state.pending.get(target)
            if entry is None or entry[1] in crashed or state.locals[entry[1]].halted:
                return False
            del state.pending[target]
            self._handle(state, prefix, i, entry[1], entry[0], entry[4])
        elif kind == "timer":
            entry = state.timers.get(target)
            if entry is None or entry[0] != choice[2]:
                return False
            pid = entry[0]
            if pid in crashed or state.locals[pid].halted:
                return False
            del state.timers[target]
            self._handle(state, prefix, i, pid, "timer", entry[2])
        elif kind == "lose" or kind == "dup":
            entry = state.pending.get(target)
            if entry is None:
                return False
            if kind == "lose":
                del state.pending[target]
                state.losses += 1
            else:
                state.pending[state.sends] = entry
                state.sends += 1
                state.duplicated += 1
        elif kind == "crash":
            if target in crashed or target not in range(self.n):
                return False
            crashed.add(target)
            if self.allow_recovery:
                # Timers are volatile, as in _run.
                timers = state.timers
                for seq in [seq for seq, entry in timers.items() if entry[0] == target]:
                    del timers[seq]
        elif kind == "recover":
            if target not in crashed:
                return False
            crashed.discard(target)
            state.recovered.add(target)
            self._handle(state, prefix, i, target, "recover", None)
        else:
            return False
        return True

    def _handle(
        self, state: _State, prefix: Prefix, i: int, pid: int, source, event
    ) -> None:
        """Run ``pid``'s handler for ``prefix[i]`` on ``state``: from the
        memo, or on a miss by replaying the prefix through that choice.
        ``source`` is the delivered message's src, or ``"timer"`` or
        ``"recover"``; ``event`` the payload's or timer name's ``repr``.

        A step is keyed by ``(local state, source, event)``.  A step
        whose replay read ``ctx.time`` marks that key timed, and a timed
        key's outcomes are stored and looked up with the tick appended:
        up to its first read of the clock a handler sees the same inputs
        at every tick, so a step that did not read it has one outcome."""
        key = (state.locals[pid], source, event)
        timed = key in self._timed
        if timed:
            key += (i + 1,)
        outcome = self._steps.get(key)
        if outcome is None:
            runtime = self._run(prefix[:i + 1])
            if runtime.time_read and not timed:
                self._timed.add(key)
                key += (i + 1,)
            pending, timers = runtime.pending, runtime.pending_timers
            outcome = self._steps[key] = (
                self._local(runtime, pid),
                tuple(
                    pending[seq] + (repr(pending[seq][2]),)
                    for seq in range(state.sends, runtime._send_counter)
                ),
                tuple(
                    timers[seq] + (repr(timers[seq][1]),)
                    for seq in range(state.timer_count, runtime._timer_counter)
                ),
            )
        local, sends, set_timers = outcome
        state.locals[pid] = local
        state.pending.update(zip(count(state.sends), sends))
        state.sends += len(sends)
        state.timers.update(zip(count(state.timer_count), set_timers))
        state.timer_count += len(set_timers)

    # -- the model contract ------------------------------------------------

    def initial(self) -> Prefix:
        return ()

    def enabled(self, prefix: Prefix) -> List[Choice]:
        state = self._state(prefix)
        crashed, locals_ = state.crashed, state.locals
        settled = self.stop_when_settled and all(
            pid in crashed or local.decided or local.halted
            for pid, local in enumerate(locals_)
        )
        choices: List[Choice] = []
        if not settled:
            for seq in sorted(state.pending):
                dst = state.pending[seq][1]
                if dst not in crashed and not locals_[dst].halted:
                    choices.append(("deliver", seq, dst))
                if state.losses < self.max_losses:
                    choices.append(("lose", seq, dst))
                if state.duplicated < self.max_duplications:
                    choices.append(("dup", seq, dst))
            for seq in sorted(state.timers):
                pid = state.timers[seq][0]
                if pid not in crashed and not locals_[pid].halted:
                    choices.append(("timer", seq, pid))
            if len(crashed) < self.max_crashes:
                for pid in range(self.n):
                    if pid not in crashed:
                        choices.append(("crash", pid))
        if self.allow_recovery:
            # Recovery stays on the menu even in settled configurations:
            # a recovered process may un-settle the run (that branch is
            # exactly where memory-only protocols break).
            for pid in sorted(crashed):
                if pid not in state.recovered:
                    choices.append(("recover", pid))
        return choices

    def step(self, prefix: Prefix, choice: Choice) -> Prefix:
        return prefix + (choice,)

    def fingerprint(self, prefix: Prefix) -> str:
        state = self._state(prefix)
        locals_ = state.locals
        # The repr of one list: every pid's render, then the shared parts.
        shared = ", ".join((
            repr(sorted(state.crashed)),
            repr(sorted(state.recovered)),
            repr((state.losses, state.duplicated)),
            "[" + ", ".join(local.storage for local in locals_) + "]",
            repr(sorted(
                (src, dst, text) for (src, dst, _, _, text) in state.pending.values()
            )),
            repr(sorted((pid, text) for (pid, _, text) in state.timers.values())),
        ))
        pids = ", ".join(local.render for local in locals_)
        text = f"[{pids}, {shared}]"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._intern(digest)

    def processes(self, prefix: Prefix) -> List[AsyncProcess]:
        """The process objects after ``prefix``.

        Shared and read-only: each is the object of the run that first
        reached its local state, and every prefix that reaches that
        state returns the same object.  Properties inspect protocol
        state the processes expose (delivery histories, views) beyond
        the bare ``decisions`` map; mutating them would corrupt every
        later query that reaches them.
        """
        return [local.process for local in self._state(prefix).locals]

    def decisions(self, prefix: Prefix) -> Dict[int, object]:
        return {
            pid: local.output
            for pid, local in enumerate(self._state(prefix).locals)
            if local.decided
        }

    def crashed(self, prefix: Prefix) -> frozenset:
        return frozenset(self._state(prefix).crashed)

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
        # Imported here: the replay module also loads the shm kernel.
        from ..trace.replay import replay

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
