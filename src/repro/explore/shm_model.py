"""Shared-memory adapter: ProtocolStateMachine → ExplorationModel.

A configuration is exactly the bivalence module's ``Config``: a tuple of
per-process machine states plus a tuple of shared-object states (in
sorted object-name order).  A choice is a pid — the scheduler's freedom
in ``ASM_{n,t}`` *is* which process steps next.

Independence (the sleep-set license): two pids' pending operations
commute when they touch **disjoint base objects**, or when both are
``read``\\ s of the same object (reads are state-preserving by the
``SequentialSpec`` convention).  Distinct processes never touch each
other's local state, so disjoint-object steps commute outright.

Counterexample schedules are pid lists: recorded through the real
:class:`~repro.shm.runtime.Runtime` under a
:class:`~repro.shm.schedulers.ListScheduler` (with one trailing step
per decided process — the runtime retires a generator on the resume
*after* its last operation), and replayed through
:class:`~repro.trace.shm_replay.ShmReplayScheduler`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..core.seqspec import SequentialSpec
from ..shm.runtime import Runtime
from ..shm.schedulers import ListScheduler
from ..shm.statemachine import (
    NOT_DECIDED,
    OpRequest,
    ProtocolStateMachine,
    as_program,
    build_objects,
)
from ..trace.events import TraceEvent, trace_hash
from ..trace.sink import MemorySink
from .counterexample import Counterexample
from .model import ExplorationModel, Interner

Config = Tuple[Tuple[object, ...], Tuple[object, ...]]


class ShmMachineModel(ExplorationModel):
    """Every schedule of a :class:`ProtocolStateMachine`, as a model."""

    kernel = "shm"

    def __init__(
        self, machine: ProtocolStateMachine, inputs: Sequence[object]
    ) -> None:
        self.machine = machine
        self.inputs = tuple(inputs)
        self.n = len(inputs)
        self._object_names = sorted(machine.shared_objects())
        self._object_index = {
            name: i for i, name in enumerate(self._object_names)
        }
        self._specs: Dict[str, SequentialSpec] = machine.shared_objects()
        # Hash-consing: equal state tuples share one object across the
        # whole graph (the PR 2 IIS-interner pattern).
        self._intern = Interner()

    # -- configuration mechanics ------------------------------------------

    def initial(self) -> Config:
        process_states = tuple(
            self.machine.initial_state(pid, self.inputs[pid])
            for pid in range(self.n)
        )
        shared = tuple(
            self._specs[name].initial for name in self._object_names
        )
        return self._intern((self._intern(process_states), self._intern(shared)))

    def enabled(self, config: Config) -> List[int]:
        states, _ = config
        return [
            pid
            for pid in range(self.n)
            if self.machine.next_op(pid, states[pid]) is not None
        ]

    def step(self, config: Config, pid: int) -> Config:
        states, shared = config
        request = self.machine.next_op(pid, states[pid])
        if request is None:
            raise ConfigurationError(f"process {pid} has no enabled step")
        obj_name, op, args = request
        index = self._object_index.get(obj_name)
        if index is None:
            raise ConfigurationError(f"unknown shared object {obj_name!r}")
        new_obj_state, response = self._specs[obj_name].apply(
            shared[index], op, tuple(args)
        )
        new_shared = shared[:index] + (new_obj_state,) + shared[index + 1 :]
        new_state = self.machine.apply_response(pid, states[pid], response)
        new_states = states[:pid] + (new_state,) + states[pid + 1 :]
        return self._intern(
            (self._intern(new_states), self._intern(new_shared))
        )

    def decisions(self, config: Config) -> Dict[int, object]:
        states, _ = config
        out: Dict[int, object] = {}
        for pid in range(self.n):
            if self.machine.next_op(pid, states[pid]) is None:
                value = self.machine.decision(pid, states[pid])
                if value is not NOT_DECIDED:
                    out[pid] = value
        return out

    # -- reduction ---------------------------------------------------------

    def independent(self, config: Config, a: int, b: int) -> bool:
        states, _ = config
        request_a = self.machine.next_op(a, states[a])
        request_b = self.machine.next_op(b, states[b])
        if request_a is None or request_b is None:
            return False
        if request_a[0] != request_b[0]:
            return True  # disjoint base objects commute outright
        return request_a[1] == "read" and request_b[1] == "read"

    def describe_choice(self, choice: int) -> str:
        return f"step p{choice}"

    # -- counterexamples ---------------------------------------------------

    def counterexample(self, schedule: Sequence[int]) -> Counterexample:
        # Imported here: a search that finds no violation never replays.
        from ..trace.shm_replay import ShmReplayScheduler

        runtime_schedule = self._runtime_schedule(schedule)
        events = self._record(runtime_schedule)
        machine, inputs, n = self.machine, self.inputs, self.n
        max_steps = len(runtime_schedule)

        def replayer() -> List[TraceEvent]:
            sink = MemorySink()
            runtime = Runtime(
                ShmReplayScheduler(events), max_steps=max_steps, sink=sink
            )
            objects = build_objects(machine)
            for pid in range(n):
                runtime.spawn(pid, as_program(machine, pid, inputs[pid], objects))
            runtime.run()
            return sink.events

        return Counterexample(
            kernel="shm",
            schedule=tuple(schedule),
            events=events,
            trace_hash=trace_hash(events),
            _replayer=replayer,
            described=tuple(self.describe_choice(pid) for pid in schedule),
        )

    def _runtime_schedule(self, schedule: Sequence[int]) -> List[int]:
        """Machine-level pid schedule → runtime pid schedule.

        Each machine step is one runtime step; a process whose machine
        has halted by the end needs one more runtime step to retire its
        generator (that resume emits the ``decide`` event).
        """
        config = self.initial()
        for pid in schedule:
            config = self.step(config, pid)
        states, _ = config
        retired = [
            pid
            for pid in range(self.n)
            if self.machine.next_op(pid, states[pid]) is None
        ]
        return list(schedule) + retired

    def _record(self, runtime_schedule: Sequence[int]) -> List[TraceEvent]:
        sink = MemorySink()
        runtime = Runtime(
            ListScheduler(list(runtime_schedule)),
            max_steps=len(runtime_schedule),
            sink=sink,
        )
        objects = build_objects(self.machine)
        for pid in range(self.n):
            runtime.spawn(
                pid, as_program(self.machine, pid, self.inputs[pid], objects)
            )
        runtime.run()
        return sink.events
