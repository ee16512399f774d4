"""repro.trace — causal event tracing, analysis, and record/replay.

Every kernel accepts a ``sink=`` (default ``None``, near-zero cost when
disabled).  A sink receives the run as a stream of structured
:class:`~repro.trace.events.TraceEvent`\\ s — sends, deliveries, drops,
crashes, timers, atomic steps, decisions, round markers — each stamped
with per-process Lamport and vector clocks at record time.  On top of
a captured trace:

* :mod:`repro.trace.analysis` — happened-before DAG, causal message
  chains, critical-path latency, and trace-level re-checks of
  agreement / validity / termination;
* :mod:`repro.trace.replay` — deterministic re-execution of a recorded
  AMP schedule, adversary detached, and :mod:`repro.trace.shm_replay`
  of a shared-memory step sequence: each loads only its own kernel;
* :mod:`repro.trace.diagram` — ASCII space-time diagrams.

Capture → replay in five lines::

    from repro.trace import MemorySink, replay
    sink = MemorySink()
    AsyncRuntime(make_benor(5, 2, inputs), sink=sink, seed=7).run()
    again = replay(make_benor(5, 2, inputs), sink.events, seed=7)
"""

from .. import _exports

_EXPORTS = {
    "aggregate": ("AggregateSink",),
    "analysis": (
        "HappenedBeforeDAG", "causal_chain", "check_agreement", "check_termination",
        "check_validity", "concurrent", "critical_path", "happened_before", "vc_leq",
    ),
    "diagram": ("render_space_time",),
    "events": (
        "CRASH", "DECIDE", "DELIVER", "DROP", "KINDS", "READ", "RECOVER", "ROUND_BEGIN",
        "ROUND_END", "SEND", "SNAPSHOT", "STEP", "SYSTEM", "TIMER", "WRITE",
        "TraceEvent", "crashed_pids", "decisions", "event_from_json", "event_to_json",
        "events_for", "recovered_pids", "trace_hash",
    ),
    "divergence": ("ReplayDivergence",),
    "replay": ("ReplayRuntime", "replay", "schedule_of"),
    "shm_replay": ("ShmReplayScheduler",),
    "sink": ("JsonlSink", "MemorySink", "TraceSink", "dump_trace", "load_trace"),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
