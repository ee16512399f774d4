"""The structured event model of :mod:`repro.trace`.

A run of any of the three kernels is, to the paper, nothing but a set
of events and a partial order over them.  :class:`TraceEvent` is that
event made concrete: a *kind* drawn from a fixed vocabulary shared by
all three models, the process it belongs to, the kernel's native time
coordinate (virtual time Δ for AMP, round number for SMP, step number
for ASM), and two causal clocks stamped at record time — a per-process
Lamport scalar and a full vector clock.

Events are value objects: JSON-serializable via :func:`event_to_json` /
:func:`event_from_json` (one object per JSONL line) and hashable as a
whole trace via :func:`trace_hash`, which is the identity used by the
record/replay determinism checks ("same run" ⇔ same hash).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

# -- the event vocabulary (shared by all three kernels) ----------------------

SEND = "send"            #: a message left its sender
DELIVER = "deliver"      #: a message reached a live destination
DROP = "drop"            #: a message/timer was discarded (crash, loss, dead dst)
CRASH = "crash"          #: a process crashed
RECOVER = "recover"      #: a crashed process came back up (AMP crash-recovery)
TIMER = "timer"          #: a local timer fired (AMP only)
READ = "read"            #: an atomic read step on a base object (ASM)
WRITE = "write"          #: an atomic write step on a base object (ASM)
SNAPSHOT = "snapshot"    #: an atomic snapshot-flavored step (ASM)
STEP = "step"            #: any other atomic base-object step (ASM)
DECIDE = "decide"        #: a process irrevocably produced its output
ROUND_BEGIN = "round_begin"  #: a synchronous round opened (SMP)
ROUND_END = "round_end"      #: a synchronous round closed (SMP)

KINDS = frozenset(
    {
        SEND,
        DELIVER,
        DROP,
        CRASH,
        RECOVER,
        TIMER,
        READ,
        WRITE,
        SNAPSHOT,
        STEP,
        DECIDE,
        ROUND_BEGIN,
        ROUND_END,
    }
)

#: ``pid`` used for whole-system events (round markers) that belong to
#: no single process.
SYSTEM = -1


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``seq`` is the global emission index (total order of recording —
    for the AMP kernel this *is* the schedule); ``time`` is the
    kernel-native coordinate; ``lamport`` / ``vc`` are the causal
    stamps; ``data`` holds kind-specific JSON-safe details (payload
    ``repr``\\ s, src/dst pids, send sequence numbers, drop reasons…).
    """

    seq: int
    kind: str
    pid: int
    time: float
    lamport: int
    vc: Tuple[int, ...]
    data: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


def event_to_json(event: TraceEvent) -> str:
    """One canonical JSON object (sorted keys, no whitespace)."""
    return json.dumps(
        {
            "seq": event.seq,
            "kind": event.kind,
            "pid": event.pid,
            "time": event.time,
            "lamport": event.lamport,
            "vc": list(event.vc),
            "data": dict(event.data),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def event_from_json(line: str) -> TraceEvent:
    """The event one :func:`event_to_json` line encodes."""
    raw = json.loads(line)
    return TraceEvent(
        seq=raw["seq"],
        kind=raw["kind"],
        pid=raw["pid"],
        time=raw["time"],
        lamport=raw["lamport"],
        vc=tuple(raw["vc"]),
        data=raw["data"],
    )


def trace_hash(events: Iterable[TraceEvent]) -> str:
    """SHA-256 over the canonical JSONL serialization of the trace.

    Two runs with the same hash processed the same events in the same
    order with the same clocks — the byte-identity used by the
    record/replay acceptance check.
    """
    digest = hashlib.sha256()
    for event in events:
        digest.update(event_to_json(event).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# -- small shared accessors (used by analyzers and tests) --------------------


def events_for(events: Iterable[TraceEvent], pid: int) -> List[TraceEvent]:
    """The pid's events in recorded order (its local history)."""
    return [e for e in events if e.pid == pid]


def decisions(events: Iterable[TraceEvent]) -> Dict[int, str]:
    """pid → decided value ``repr`` (from ``decide`` events)."""
    return {e.pid: e.data["value"] for e in events if e.kind == DECIDE}


def crashed_pids(events: Iterable[TraceEvent]) -> frozenset:
    """Every pid that crashed at least once (recovered or not)."""
    return frozenset(e.pid for e in events if e.kind == CRASH)


def recovered_pids(events: Iterable[TraceEvent]) -> frozenset:
    """Every pid that recovered at least once."""
    return frozenset(e.pid for e in events if e.kind == RECOVER)
