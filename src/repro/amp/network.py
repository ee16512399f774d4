"""Event-driven asynchronous message-passing simulator (paper §5.1).

``AMP_{n,t}``: ``n`` sequential processes, every pair connected by an
asynchronous bidirectional channel; transfer delays are arbitrary,
time-varying, but finite.  Up to ``t`` processes may crash.

The simulator is a discrete-event loop over virtual time:

* **delay models** decide each message's transfer delay — fixed ``Δ``
  (the unit used by the paper's ABD cost claims), seeded-uniform, or
  adversarial (e.g. partition-until-GST for partial synchrony);
* **link models** decide each message's *fate* on the wire — the
  paper's reliable channel (no loss, duplication, or creation) is the
  default, but fair-loss and duplicating links (the model menu real
  systems assume) are available, all seeded through the runtime RNG so
  runs stay replayable;
* **crashes** are scheduled at a virtual time; a crash may additionally
  drop a subset of the crashed process's *in-flight* messages — that is
  exactly the "crash in the middle of a broadcast" scenario motivating
  reliable broadcast (§5.1).  A :class:`RecoverAt` entry turns
  crash-stop into **crash-recovery**: the process comes back with its
  in-memory state wiped, keeping only what it put in
  :class:`~repro.amp.storage.StableStorage` (``ctx.stable``);
* **timers** give processes local alarms (heartbeats, retransmission);
  timers are volatile — a crash invalidates every timer the process had
  pending (they lived in the memory that was lost);
* **failure detectors** are oracles attached to the run and queried
  through the context (see :mod:`repro.amp.failure_detectors`).

:class:`DrivenRuntime` takes the same steps one at a time from outside,
with no heap: the explorer and replay drive it.

Processes subclass :class:`AsyncProcess` with ``on_start``,
``on_message``, ``on_timer``, ``on_recover`` handlers; each handler
runs atomically at one instant of virtual time (local processing is
free, as in the model).
"""

from __future__ import annotations

import copy
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace.sink import TraceSink

from ..analyze.freeze import deep_freeze
from ..core.exceptions import (
    ConfigurationError,
    ModelViolation,
    SimulationLimitExceeded,
)
from ..core.volume import payload_units
from .storage import StableStorage

# ---------------------------------------------------------------------------
# Delay models
# ---------------------------------------------------------------------------


class DelayModel:
    """Decides the transfer delay of each message."""

    def delay(self, src: int, dst: int, send_time: float, rng: random.Random) -> float:
        raise NotImplementedError


class FixedDelay(DelayModel):
    """Every message takes exactly ``delta`` — the paper's Δ accounting."""

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ConfigurationError("delay must be > 0")
        self.delta = delta

    def delay(self, src, dst, send_time, rng):
        return self.delta


class UniformDelay(DelayModel):
    """Seeded uniform delay in [low, high] — benign asynchrony."""

    def __init__(self, low: float = 0.1, high: float = 1.0) -> None:
        if not 0 < low <= high:
            raise ConfigurationError("need 0 < low <= high")
        self.low = low
        self.high = high

    def delay(self, src, dst, send_time, rng):
        # The body of ``rng.uniform(low, high)``, inlined: the same draw
        # and the same float, one frame fewer per copy sent.
        return self.low + (self.high - self.low) * rng.random()


class PartialSynchronyDelay(DelayModel):
    """Arbitrary delays before GST, bounded by ``delta`` afterwards.

    The Dwork–Lynch–Stockmeyer partial-synchrony behavior [22] that makes
    eventual failure detectors implementable: before the (unknown) global
    stabilization time the network may delay messages up to
    ``chaos_max``; at/after GST every message takes ≤ ``delta``.
    """

    def __init__(self, gst: float, delta: float = 1.0, chaos_max: float = 50.0) -> None:
        if gst < 0 or delta <= 0 or chaos_max < delta:
            raise ConfigurationError("need gst >= 0, 0 < delta <= chaos_max")
        self.gst = gst
        self.delta = delta
        self.chaos_max = chaos_max

    def delay(self, src, dst, send_time, rng):
        if send_time >= self.gst:
            return rng.uniform(self.delta * 0.5, self.delta)
        raw = rng.uniform(self.delta, self.chaos_max)
        # A pre-GST message is still delivered by GST + delta at the latest
        # (the DLS contract: every message in flight at GST arrives within
        # delta of it).  send_time < gst here, so the bound stays positive.
        return min(raw, (self.gst + self.delta) - send_time)


class TargetedDelay(DelayModel):
    """Per-(src, dst) overrides on top of a base model — for adversarial
    scenarios like starving one reader or simulating a slow link."""

    def __init__(
        self,
        base: DelayModel,
        overrides: Mapping[Tuple[int, int], float],
    ) -> None:
        for link, delay in overrides.items():
            if not delay > 0:
                raise ConfigurationError(
                    f"delay override for link {link} must be > 0, got {delay}"
                )
        self.base = base
        self.overrides = dict(overrides)

    def delay(self, src, dst, send_time, rng):
        if (src, dst) in self.overrides:
            return self.overrides[(src, dst)]
        return self.base.delay(src, dst, send_time, rng)


# ---------------------------------------------------------------------------
# Link models — the fate of a message on the wire
# ---------------------------------------------------------------------------


class LinkModel:
    """Decides each message's *physical* fate: loss and duplication.

    :meth:`fates` returns one **extra wire delay** per physical copy of
    the message (added on top of the delay model's draw for that copy);
    an empty tuple means the message was lost in transit.  The paper's
    reliable channel is ``(0.0,)`` — exactly one copy, no extra delay.

    All randomness flows through the runtime RNG handed in, so a run is
    a pure function of ``(seed, schedule)`` and replays byte-identically.
    """

    def fates(
        self, src: int, dst: int, send_time: float, rng: random.Random
    ) -> Tuple[float, ...]:
        return (0.0,)


class ReliableLink(LinkModel):
    """No loss, no duplication, no creation — the ``AMP_{n,t}`` default."""


class FairLossLink(LinkModel):
    """Messages may be lost, but not forever: fair loss.

    Each message is independently lost with probability ``loss``.
    ``max_consecutive_losses`` (optional) caps the losses a single
    ``(src, dst)`` channel may suffer in a row, making the fair-loss
    guarantee — "keep retransmitting and it eventually gets through" —
    hold on *every* seed rather than with probability 1.
    """

    def __init__(
        self, loss: float = 0.2, max_consecutive_losses: Optional[int] = None
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ConfigurationError(f"loss probability must be in [0, 1), got {loss}")
        if max_consecutive_losses is not None and max_consecutive_losses < 1:
            raise ConfigurationError("max_consecutive_losses must be >= 1")
        self.loss = loss
        self.max_consecutive_losses = max_consecutive_losses
        self._streak: Dict[Tuple[int, int], int] = {}

    def fates(self, src, dst, send_time, rng):
        lost = rng.random() < self.loss
        if lost and self.max_consecutive_losses is not None:
            streak = self._streak.get((src, dst), 0) + 1
            if streak > self.max_consecutive_losses:
                lost = False
        if lost:
            self._streak[(src, dst)] = self._streak.get((src, dst), 0) + 1
            return ()
        self._streak[(src, dst)] = 0
        return (0.0,)


class DuplicatingLink(LinkModel):
    """Messages may be delivered more than once.

    With probability ``duplicate`` a message materializes as
    ``copies`` physical deliveries instead of one; every copy draws its
    own transfer delay, so duplicates arrive at independent times.
    """

    def __init__(self, duplicate: float = 0.2, copies: int = 2) -> None:
        if not 0.0 <= duplicate <= 1.0:
            raise ConfigurationError(
                f"duplicate probability must be in [0, 1], got {duplicate}"
            )
        if copies < 2:
            raise ConfigurationError("a duplicating link needs copies >= 2")
        self.duplicate = duplicate
        self.copies = copies

    def fates(self, src, dst, send_time, rng):
        if rng.random() < self.duplicate:
            return (0.0,) * self.copies
        return (0.0,)


class ReorderingLossLink(LinkModel):
    """The full menu: loss, duplication, and extra reordering jitter.

    Combines :class:`FairLossLink` and :class:`DuplicatingLink` and
    additionally gives every surviving copy an extra uniform delay in
    ``[0, jitter]`` — so even a FIFO delay model (``FixedDelay``)
    produces out-of-order arrivals, the way real datagram links do.
    """

    def __init__(
        self,
        loss: float = 0.1,
        duplicate: float = 0.1,
        copies: int = 2,
        jitter: float = 2.0,
        max_consecutive_losses: Optional[int] = None,
    ) -> None:
        if jitter < 0:
            raise ConfigurationError("jitter must be >= 0")
        self._loss = FairLossLink(loss, max_consecutive_losses)
        self._dup = DuplicatingLink(duplicate, copies) if duplicate > 0 else None
        self.jitter = jitter

    def fates(self, src, dst, send_time, rng):
        if not self._loss.fates(src, dst, send_time, rng):
            return ()
        base = (
            self._dup.fates(src, dst, send_time, rng)
            if self._dup is not None
            else (0.0,)
        )
        if self.jitter == 0:
            return base
        return tuple(rng.uniform(0.0, self.jitter) for _ in base)


# ---------------------------------------------------------------------------
# Crash / recovery schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashAt:
    """Crash ``pid`` at virtual time ``time``.

    ``drop_in_flight``: fraction of the process's undelivered outgoing
    messages to drop, newest first (1.0 = drop all — the process "died
    mid-send"; 0.0 = all already-sent messages still arrive).  This is
    how a crashed broadcaster reaches only a subset of processes.
    """

    pid: int
    time: float
    drop_in_flight: float = 0.0


@dataclass(frozen=True)
class RecoverAt:
    """Recover ``pid`` at virtual time ``time`` (crash-recovery model).

    The process restarts from its *constructed* in-memory state — every
    attribute it mutated since ``__init__`` is wiped — keeping only
    what it explicitly put in stable storage (``ctx.stable``).  Pending
    timers it had set are invalidated (they were volatile state too);
    messages that arrived during the outage were dropped at its door.
    ``on_recover`` then runs, where the protocol reloads durable state
    and re-announces itself.  A prior decision is *not* revoked —
    deciding is an irrevocable external action in the model.
    """

    pid: int
    time: float


# ---------------------------------------------------------------------------
# Process API
# ---------------------------------------------------------------------------


class Context:
    """Per-process handle into the simulation (the model's API surface)."""

    def __init__(self, runtime: "AsyncRuntime", pid: int) -> None:
        self._runtime = runtime
        self.pid = pid
        self.n = runtime.n
        self.decided = False
        self.output: object = None
        self.halted = False

    # -- communication ----------------------------------------------------

    def send(self, dst: int, payload: object) -> None:
        """Send one message on the reliable channel to ``dst``."""
        if not 0 <= dst < self.n:
            raise ModelViolation(f"process {self.pid} sent to unknown process {dst}")
        self._runtime._send(self.pid, (dst,), payload)

    def broadcast(self, payload: object, include_self: bool = True) -> None:
        """Send ``payload`` to every process, in pid order (NOT reliable
        broadcast).

        One send call: the payload is measured once and each of the n
        copies (n - 1 without ``include_self``) is charged for it, so
        the counters equal those of n single sends.
        """
        dsts = range(self.n)
        if not include_self:
            dsts = [dst for dst in dsts if dst != self.pid]
        self._runtime._send(self.pid, dsts, payload)

    def set_timer(self, delay: float, name: object = None) -> None:
        """Schedule ``on_timer(name)`` after ``delay`` time units."""
        self._runtime._set_timer(self.pid, delay, name)

    # -- oracles ---------------------------------------------------------------

    def failure_detector(self) -> object:
        """Query the attached failure detector at the current time."""
        return self._runtime.query_failure_detector(self.pid)

    def random(self) -> random.Random:
        """The process's private seeded RNG (for randomized protocols)."""
        return self._runtime._process_rng(self.pid)

    @property
    def stable(self) -> "StableStorage":
        """The process's durable storage: the only state that survives a
        crash-recovery cycle (see :mod:`repro.amp.storage`)."""
        return self._runtime.storages[self.pid]

    @property
    def time(self) -> float:
        return self._runtime.now

    # -- termination ---------------------------------------------------------------

    def decide(self, value: object) -> None:
        if self.decided:
            raise ModelViolation(f"process {self.pid} decided twice")
        self.decided = True
        self.output = value
        self._runtime._note_decision(self.pid, value)

    def halt(self) -> None:
        self.halted = True


class AsyncProcess:
    """Base class for message-passing protocol processes."""

    def on_start(self, ctx: Context) -> None:
        """Called once at time 0."""

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        """Called at each message delivery."""

    def on_timer(self, ctx: Context, name: object) -> None:
        """Called when a timer set via ``ctx.set_timer`` fires."""

    def on_recover(self, ctx: Context) -> None:
        """Called when the process restarts after a :class:`RecoverAt`.

        In-memory state has already been reset to its constructed value;
        reload anything durable from ``ctx.stable`` here and re-announce
        yourself to the others if the protocol needs it.
        """


# ---------------------------------------------------------------------------
# The runtime
# ---------------------------------------------------------------------------


@dataclass
class AmpRunResult:
    """Observable outcome of one asynchronous message-passing run.

    ``payload_sent`` / ``payload_delivered`` meter the same traffic in
    payload units (:func:`repro.core.volume.payload_units`) — mirroring
    the synchronous kernel's volume accounting.
    """

    outputs: List[object]
    decided: List[bool]
    crashed: FrozenSet[int]
    final_time: float
    messages_sent: int
    messages_delivered: int
    decision_times: Dict[int, float] = field(default_factory=dict)
    payload_sent: int = 0
    payload_delivered: int = 0
    #: pids that crashed and came back at least once (crash-recovery runs);
    #: a recovered pid is *not* in ``crashed`` unless it is down at the end.
    recovered: FrozenSet[int] = frozenset()

    def output_vector(self) -> Tuple[object, ...]:
        from ..core.task import NO_OUTPUT

        return tuple(
            o if d else NO_OUTPUT for o, d in zip(self.outputs, self.decided)
        )

    def correct(self) -> List[int]:
        return [pid for pid in range(len(self.outputs)) if pid not in self.crashed]


class AsyncRuntime:
    """Discrete-event executor for ``AMP_{n,t}``.

    Parameters
    ----------
    processes:
        One :class:`AsyncProcess` per pid.
    delay_model:
        Message transfer delays.
    link_model:
        Message fate on the wire (loss / duplication); defaults to the
        paper's :class:`ReliableLink`.
    crashes:
        Crash/recovery schedule: a mix of :class:`CrashAt` and
        :class:`RecoverAt` entries.  Per pid they must alternate
        crash, recover, crash, … at strictly increasing times.
    max_crashes:
        The model's ``t`` — with recovery in play, the maximum number of
        processes *simultaneously* down.
    failure_detector:
        Optional oracle (see :mod:`repro.amp.failure_detectors`); it is
        given the runtime before the run starts.
    seed:
        Root seed for delays and per-process RNGs.
    max_events:
        Event budget: exceeded → :class:`SimulationLimitExceeded` when
        ``strict_budget`` else a truncated result.
    quiesce_when_decided:
        Stop early once every non-crashed process decided (and optionally
        halted) — keeps round-based protocols from chattering forever.
    sink:
        Optional :class:`~repro.trace.sink.TraceSink` receiving every
        event (send/deliver/drop/crash/timer/decide) with causal clocks
        stamped at record time.  ``None`` (default) costs one ``if`` per
        event site — see :mod:`repro.trace`.
    sanitize:
        Aliasing sanitizer (off by default): every payload is
        deep-frozen at send time
        (:func:`repro.analyze.freeze.deep_freeze`) — the in-flight value
        is captured as a serializing channel would capture it, and any
        later mutation of the delivered object raises
        :class:`~repro.analyze.freeze.FrozenMutationError` at the
        mutation site.  A broadcast is frozen once and its copies share
        the frozen value.  Off, it costs one ``if`` per send call.
    """

    #: the class of the per-process contexts
    _context = Context

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        delay_model: Optional[DelayModel] = None,
        crashes: Sequence[object] = (),
        max_crashes: Optional[int] = None,
        failure_detector: Optional[object] = None,
        seed: int = 0,
        max_events: int = 500_000,
        strict_budget: bool = False,
        quiesce_when_decided: bool = True,
        sink: Optional["TraceSink"] = None,
        sanitize: bool = False,
        link_model: Optional[LinkModel] = None,
    ) -> None:
        self._init_state(processes, seed, sink, failure_detector, max_crashes, crashes)
        self.delay_model = delay_model or FixedDelay(1.0)
        self.link_model = link_model or ReliableLink()
        self._rng = random.Random(seed)
        self.max_events = max_events
        self.strict_budget = strict_budget
        self.quiesce_when_decided = quiesce_when_decided
        self._sanitize = sanitize
        self._event_seq = itertools.count()
        self._queue: List[Tuple[float, int, str, tuple]] = []
        #: event ids of queued entries the loop must skip (crash drops);
        #: an id leaves the set when its entry is popped.
        self._cancelled: Set[int] = set()
        for entry in crashes:
            if isinstance(entry, RecoverAt):
                if entry.pid not in self._initial_state:
                    self._initial_state[entry.pid] = self._snapshot(entry.pid)
                self._pending_recoveries[entry.pid] = (
                    self._pending_recoveries.get(entry.pid, 0) + 1
                )
                self._push(entry.time, "recover", (entry.pid,))
            else:
                self._push(entry.time, "crash", (entry.pid, entry.drop_in_flight))

    def _init_state(
        self,
        processes: Sequence[AsyncProcess],
        seed: int,
        sink: Optional["TraceSink"],
        failure_detector: Optional[object],
        max_crashes: Optional[int] = None,
        crashes: Sequence[object] = (),
    ) -> None:
        """The state every runtime steps: processes and their contexts,
        RNGs, storages, crash sets, counters and recovery snapshots.  The
        event loop's delay and link models, root RNG and heap are built
        by ``__init__`` alone."""
        self.n = len(processes)
        if self.n < 1:
            raise ConfigurationError("need n >= 1 processes")
        self.processes = list(processes)
        self.max_crashes = max_crashes
        self._validate_schedule(crashes)
        self.failure_detector = failure_detector
        self._proc_rngs: Dict[int, random.Random] = {}
        self._seed = seed
        self._sink = sink
        if sink is not None:
            sink.bind(self.n)

        self.now = 0.0
        self._started = False
        self.contexts = [self._context(self, pid) for pid in range(self.n)]
        self.crashed: Set[int] = set()
        self.recovered: Set[int] = set()
        self.storages: Dict[int, StableStorage] = {
            pid: StableStorage() for pid in range(self.n)
        }
        #: per-pid incarnation number, bumped at each crash; timers carry the
        #: epoch they were set in, so pre-crash timers never fire post-recovery
        self._epoch: Dict[int, int] = {pid: 0 for pid in range(self.n)}
        #: recoveries not yet fired per pid (a pid may crash/recover twice)
        self._pending_recoveries: Dict[int, int] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.payload_sent = 0
        self.payload_delivered = 0
        self.decision_times: Dict[int, float] = {}
        # Volatile-state snapshots for pids that may recover: recovery
        # restores the *constructed* in-memory state, wiping everything
        # the incarnation mutated since __init__.
        self._initial_state: Dict[int, dict] = {}

    def _validate_schedule(self, crashes: Sequence[object]) -> None:
        timeline: Dict[int, List[Tuple[float, str]]] = {}
        for entry in crashes:
            if isinstance(entry, RecoverAt):
                kind = "recover"
            elif isinstance(entry, CrashAt):
                kind = "crash"
                if not 0.0 <= entry.drop_in_flight <= 1.0:
                    raise ConfigurationError(
                        f"drop_in_flight must be in [0, 1], got {entry.drop_in_flight}"
                    )
            else:
                raise ConfigurationError(
                    f"schedule entries must be CrashAt or RecoverAt, got {entry!r}"
                )
            if not 0 <= entry.pid < self.n:
                raise ConfigurationError(
                    f"crash schedule names unknown process {entry.pid} (n={self.n})"
                )
            timeline.setdefault(entry.pid, []).append((entry.time, kind))
        for pid, entries in timeline.items():
            entries.sort(key=lambda e: e[0])
            expect = "crash"
            last_time = None
            for time, kind in entries:
                if last_time is not None and time <= last_time:
                    raise ConfigurationError(
                        f"process {pid} has two schedule entries at t<={time}"
                    )
                if kind != expect:
                    if kind == "recover":
                        raise ConfigurationError(
                            f"process {pid} recovers at t={time} "
                            "without a preceding crash"
                        )
                    raise ConfigurationError(f"process {pid} crashes twice")
                expect = "recover" if kind == "crash" else "crash"
                last_time = time
        if self.max_crashes is not None:
            # Peak simultaneous down-count; crashes sort before recoveries
            # at equal times, matching the model's pessimistic adversary.
            sweep = sorted(
                (entry.time, 0 if isinstance(entry, CrashAt) else 1)
                for entry in crashes
            )
            down = peak = 0
            for _time, step in sweep:
                down += 1 if step == 0 else -1
                peak = max(peak, down)
            if peak > self.max_crashes:
                raise ConfigurationError(
                    f"{peak} concurrent crashes scheduled but t={self.max_crashes}"
                )

    # -- event plumbing ------------------------------------------------------

    def _push(self, time: float, kind: str, data: tuple) -> int:
        event_id = next(self._event_seq)
        heapq.heappush(self._queue, (time, event_id, kind, data))
        return event_id

    def _send(self, src: int, dsts: Sequence[int], payload: object) -> None:
        """Send ``payload`` from ``src`` to each pid of ``dsts``, in order.

        The one send primitive (``Context.send`` passes ``(dst,)``,
        ``Context.broadcast`` its whole fan-out): the crashed-sender
        check, the sanitizer's freeze, the payload measure and the
        counters' charge for every copy run once per call; each copy then
        draws its fates and delays and takes its event ids, exactly as a
        single send would.
        """
        if src in self.crashed:
            return  # a crashed process sends nothing
        if self._sanitize:
            payload = deep_freeze(payload)
        # Units ride along in the event so delivery never re-measures.
        units = payload_units(payload)
        # sent/payload_sent meter *logical* sends: what the protocol paid,
        # independent of what the wire did (loss and duplication show up
        # in the delivered counters instead).
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
                # Lost on the wire.  Consume an event id anyway so event-id
                # streams (and hence replays) don't depend on the sink being
                # attached; a lost message draws no transfer delay.
                event_id = next(event_seq)
                if sink is not None:
                    sink.amp_send(event_id, src, dst, payload, units, now)
                    sink.amp_drop(event_id, now, reason="loss")
                continue
            data = (src, dst, payload, units)
            first_id: Optional[int] = None
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
                        # A wire duplicate shares the original's send_seq.
                        sink.amp_send_dup(event_id, first_id)
                if first_id is None:
                    first_id = event_id

    def _set_timer(self, pid: int, delay: float, name: object) -> None:
        if delay < 0:
            raise ConfigurationError("timer delay must be >= 0")
        # Timers are volatile: they carry the epoch they were set in and
        # fire only if the process has not crashed since.
        event_id = self._push(
            self.now + delay, "timer", (pid, name, self._epoch[pid])
        )
        if self._sink is not None:
            self._sink.amp_timer_set(event_id, pid)

    def _process_rng(self, pid: int) -> random.Random:
        if pid not in self._proc_rngs:
            # Explicit injective derivation: distinct (seed, pid) pairs can
            # never alias as long as pid < 1_000_003 (tuple-hash seeding is
            # collision-prone and opaque).
            self._proc_rngs[pid] = random.Random(self._seed * 1_000_003 + pid)
        return self._proc_rngs[pid]

    def _note_decision(self, pid: int, value: object) -> None:
        self.decision_times[pid] = self.now
        if self._sink is not None:
            self._sink.amp_decide(pid, value, self.now)

    def query_failure_detector(self, pid: int) -> object:
        if self.failure_detector is None:
            raise ConfigurationError("no failure detector attached to this run")
        return self.failure_detector.query(pid, self.now, frozenset(self.crashed))

    # -- execution ------------------------------------------------------------

    def _all_settled(self) -> bool:
        for pid in range(self.n):
            if pid in self.crashed:
                if self._pending_recoveries.get(pid, 0) > 0:
                    # Down now, but scheduled to come back: the run is not
                    # over for this process yet.
                    return False
                continue
            ctx = self.contexts[pid]
            if not (ctx.decided or ctx.halted):
                return False
        return True

    def start(self) -> None:
        """Attach the failure detector and run every live process's
        ``on_start`` (time 0), once; :meth:`run` starts a run itself."""
        if self._started:
            return
        self._started = True
        if self.failure_detector is not None and hasattr(
            self.failure_detector, "attach"
        ):
            self.failure_detector.attach(self)
        for pid in range(self.n):
            if pid not in self.crashed:
                self.processes[pid].on_start(self.contexts[pid])

    def run(self, until: Optional[float] = None) -> AmpRunResult:
        """Run the event loop to quiescence, budget, or the ``until`` time."""
        self.start()
        # Bound after attach(): a heartbeat detector wraps this instance's
        # _handle_delivery there, and every delivery must go through it.
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
        sink = self._sink
        now = self.now  # only this loop advances the clock while it runs
        events = 0
        quiescent = True  # ran out of events (vs. deferred or truncated)
        while queue:
            if quiesce and self._all_settled():
                break
            time, event_id, kind, data = queue[0]
            if until is not None and time > until:
                # Leave the event for a later run() call; a deferred event
                # is not processed, so it must not be charged to the budget.
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
            if time > now:
                self.now = now = time
            if kind == "deliver":
                src, dst, payload, units = data
                handle_delivery(event_id, src, dst, payload, units)
            elif kind == "timer":
                pid, name, epoch = data
                if pid in crashed or contexts[pid].halted:
                    if sink is not None:
                        sink.amp_drop_timer(event_id, now, reason="dead-dst")
                elif epoch != epochs[pid]:
                    # Set by a previous incarnation: volatile, so it died
                    # with the crash even though the process is back up.
                    if sink is not None:
                        sink.amp_drop_timer(event_id, now, reason="stale")
                else:
                    if sink is not None:
                        sink.amp_timer(event_id, pid, name, now)
                    processes[pid].on_timer(contexts[pid], name)
            elif kind == "crash":
                self._handle_crash(*data)
            elif kind == "recover":
                self._handle_recover(*data)
        if quiescent and until is not None and until > self.now:
            # The queue drained (or everyone settled) before the deadline:
            # virtual time still advances to it, so ctx.time in a later
            # segment — and final_time — reflect the full elapsed run.
            self.now = until
        return self.result()

    def _handle_crash(self, pid: int, drop_fraction: float) -> None:
        if pid in self.crashed:
            return
        if self.max_crashes is not None and len(self.crashed) >= self.max_crashes:
            raise ModelViolation(f"crash budget t={self.max_crashes} exhausted")
        self.crashed.add(pid)
        self._epoch[pid] += 1
        if self._sink is not None:
            self._sink.amp_crash(pid, self.now)
        if not drop_fraction:
            return
        # The process's undelivered copies are its deliver entries still
        # in the heap and not yet cancelled (an earlier incarnation's
        # copies included).  Finding them costs one pass over the heap
        # per crash and nothing per message sent or delivered.
        cancelled = self._cancelled
        pending = [
            event_id
            for _time, event_id, kind, data in self._queue
            if kind == "deliver" and data[0] == pid and event_id not in cancelled
        ]
        drop_count = int(round(drop_fraction * len(pending)))
        # Newest sends are dropped first: the crash interrupted the tail
        # of the process's final broadcast.  Event ids increase with send
        # order, so the largest ids are the newest sends; cancellation is
        # lazy (the run loop skips cancelled deliveries when it pops them).
        if drop_count:
            for event_id in heapq.nlargest(drop_count, pending):
                cancelled.add(event_id)
                if self._sink is not None:
                    self._sink.amp_drop(event_id, self.now, reason="crash")

    def _snapshot(self, pid: int) -> dict:
        """A deep copy of ``pid``'s attributes, for recovery to restore.

        The memo maps the process to itself, so a callback bound to it
        (``ScdBroadcast(on_deliver=self._count)``) stays bound to the
        live process instead of to a detached clone.
        """
        process = self.processes[pid]
        return copy.deepcopy(vars(process), {id(process): process})

    def _handle_recover(self, pid: int) -> None:
        if pid not in self.crashed:
            return  # the matching crash never fired (e.g. truncated run)
        self.crashed.discard(pid)
        self.recovered.add(pid)
        if self._pending_recoveries.get(pid, 0) > 0:
            self._pending_recoveries[pid] -= 1
        process = self.processes[pid]
        # Volatile state died with the old incarnation: restore the
        # constructed state; only ctx.stable carries over.
        snapshot = self._initial_state.get(pid)
        if snapshot is not None:
            process.__dict__.clear()
            process.__dict__.update(copy.deepcopy(snapshot, {id(process): process}))
        ctx = self.contexts[pid]
        ctx.halted = False  # a halt is volatile; a decision is irrevocable
        if self._sink is not None:
            self._sink.amp_recover(pid, self.now)
        process.on_recover(ctx)

    def _handle_delivery(
        self, event_id: int, src: int, dst: int, payload: object, units: int = 1
    ) -> None:
        ctx = self.contexts[dst]
        if dst in self.crashed or ctx.halted:
            if self._sink is not None:
                self._sink.amp_drop(event_id, self.now, reason="dead-dst")
            return
        self.messages_delivered += 1
        self.payload_delivered += units
        if self._sink is not None:
            self._sink.amp_deliver(event_id, src, dst, payload, self.now)
        self.processes[dst].on_message(ctx, src, payload)

    def result(self) -> AmpRunResult:
        return AmpRunResult(
            outputs=[ctx.output for ctx in self.contexts],
            decided=[ctx.decided for ctx in self.contexts],
            crashed=frozenset(self.crashed),
            final_time=self.now,
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            decision_times=dict(self.decision_times),
            payload_sent=self.payload_sent,
            payload_delivered=self.payload_delivered,
            recovered=frozenset(self.recovered),
        )


class _ClockReadingContext(Context):
    """A :class:`Context` that notes each read of ``time`` on its
    runtime's :attr:`DrivenRuntime.time_read`."""

    @property
    def time(self) -> float:
        runtime = self._runtime
        runtime.time_read = True
        return runtime.now


class DrivenRuntime(AsyncRuntime):
    """An :class:`AsyncRuntime` stepped from outside, one event at a time.

    Nothing is scheduled: sends and timers are parked in :attr:`pending`
    and :attr:`pending_timers` under sequence numbers, and the caller sets
    :attr:`now` and takes one step per event.  The explorer
    (:class:`~repro.explore.amp_model.AmpModel`) drives it with choices,
    :class:`~repro.trace.replay.ReplayRuntime` with a recorded schedule.
    A step naming a missing send or timer, or a dead process, raises
    :attr:`divergence`.  ``recoverable`` names the pids whose
    constructed state :meth:`recover` restores.

    Its contexts record every read of ``ctx.time``: each read sets
    :attr:`time_read`, which the caller clears before a step to learn
    whether that step's handler read the clock.  The explorer keys a
    step that never did on its local state and event alone, since it
    has the same outcome at every tick.

    It builds none of the event loop's state (delay and link models, root
    RNG, heap, cancel set): the explorer starts one per miss of its
    handler-step memo, not one per explored prefix.
    """

    divergence = ConfigurationError
    _context = _ClockReadingContext

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        seed: int = 0,
        sink: Optional["TraceSink"] = None,
        failure_detector: Optional[object] = None,
        recoverable: Iterable[int] = (),
    ) -> None:
        self._init_state(processes, seed, sink, failure_detector)
        #: send_seq → (src, dst, payload, units), undelivered copies
        self.pending: Dict[int, Tuple[int, int, object, int]] = {}
        #: timer_seq → (pid, name), unfired timers
        self.pending_timers: Dict[int, Tuple[int, object]] = {}
        self._send_counter = 0
        self._timer_counter = 0
        self.losses = 0
        self.duplicated = 0
        #: set by any read of ``ctx.time``; only the caller clears it
        self.time_read = False
        #: send_seqs whose loss the sink records right after the send, as
        #: the event loop does when its link model loses a copy
        self._inline_losses: Set[int] = set()
        for pid in recoverable:
            self._initial_state[pid] = self._snapshot(pid)

    def run(self, until: Optional[float] = None) -> AmpRunResult:
        raise ConfigurationError(
            f"{type(self).__name__} is driven one step at a time; "
            "it has no event loop"
        )

    # -- protocol-facing plumbing (parked, not scheduled) ------------------

    def _send(self, src: int, dsts: Sequence[int], payload: object) -> None:
        if src in self.crashed:
            return  # a crashed process sends nothing
        units = payload_units(payload)
        copies = len(dsts)
        self.messages_sent += copies
        self.payload_sent += units * copies
        first = self._send_counter
        self._send_counter = first + copies
        pending = self.pending
        sink = self._sink
        for seq, dst in enumerate(dsts, first):
            pending[seq] = (src, dst, payload, units)
            if sink is not None:
                sink.amp_send(seq, src, dst, payload, units, self.now)
                if seq in self._inline_losses:
                    sink.amp_drop(seq, self.now, reason="loss")

    def _set_timer(self, pid: int, delay: float, name: object) -> None:
        if delay < 0:
            raise ConfigurationError("timer delay must be >= 0")
        seq = self._timer_counter
        self._timer_counter = seq + 1
        self.pending_timers[seq] = (pid, name)
        if self._sink is not None:
            self._sink.amp_timer_set(seq, pid)

    # -- steps ---------------------------------------------------------------

    def _pending_send(self, seq: int, keep: bool) -> Tuple[int, int, object, int]:
        entry = self.pending.get(seq) if keep else self.pending.pop(seq, None)
        if entry is None:
            raise self.divergence(f"no pending send #{seq}")
        return entry

    def _check_live(self, pid: int) -> None:
        if pid in self.crashed or self.contexts[pid].halted:
            raise self.divergence(f"process {pid} is dead")

    def deliver(self, seq: int, keep: bool = False) -> None:
        """Deliver pending copy ``seq``; ``keep`` leaves it pending."""
        src, dst, payload, units = self._pending_send(seq, keep)
        self._check_live(dst)
        self._handle_delivery(seq, src, dst, payload, units)

    def fire_timer(self, seq: int, pid: int) -> None:
        """Fire pending timer ``seq``, which ``pid`` set."""
        entry = self.pending_timers.pop(seq, None)
        if entry is None or entry[0] != pid:
            raise self.divergence(f"no pending timer #{seq} on process {pid}")
        self._check_live(pid)
        if self._sink is not None:
            self._sink.amp_timer(seq, pid, entry[1], self.now)
        self.processes[pid].on_timer(self.contexts[pid], entry[1])

    def crash(self, pid: int) -> None:
        """Crash ``pid``; its pending sends and timers stay pending."""
        if pid in self.crashed:
            raise self.divergence(f"process {pid} crashed twice")
        self._handle_crash(pid, 0.0)

    def recover(self, pid: int) -> None:
        """Bring crashed ``pid`` back at its snapshotted state."""
        if pid not in self.crashed:
            raise self.divergence(f"process {pid} is not crashed")
        self._handle_recover(pid)

    def drop_timer(self, seq: int, reason: str) -> None:
        """Discard pending timer ``seq`` unfired."""
        if self.pending_timers.pop(seq, None) is None:
            raise self.divergence(f"no pending timer #{seq}")
        if self._sink is not None:
            self._sink.amp_drop_timer(seq, self.now, reason=reason)

    def lose(self, seq: int, reason: str = "loss", keep: bool = False) -> None:
        """Drop pending copy ``seq`` undelivered; ``keep`` leaves it pending."""
        self._pending_send(seq, keep)
        self.losses += 1
        if self._sink is not None:
            self._sink.amp_drop(seq, self.now, reason=reason)

    def duplicate(self, seq: int) -> None:
        """Park a copy of pending send ``seq`` under the next send seq;
        the trace records no send, as the protocol sent once."""
        copy_seq = self._send_counter
        self.pending[copy_seq] = self._pending_send(seq, keep=True)
        self._send_counter = copy_seq + 1
        self.duplicated += 1
        if self._sink is not None:
            self._sink.amp_send_dup(copy_seq, seq)


def run_processes(
    processes: Sequence[AsyncProcess],
    **kwargs,
) -> AmpRunResult:
    """Convenience: build a runtime and run it."""
    return AsyncRuntime(processes, **kwargs).run()
