"""Explorable shared-memory reference protocols: a verified-correct and
planted-bug pair.

The explorer's acceptance tests need both directions of the coin:

* :class:`AdoptCommitMachine` — the two-phase adopt-commit protocol
  (Gafni's commit-adopt, paper §4.3) as a
  :class:`~repro.shm.statemachine.ProtocolStateMachine`, whose
  coherence the explorer verifies **exhaustively** for small ``n``;
* :class:`BrokenAdoptCommitMachine` — the classic off-by-a-phase bug
  (commit straight after phase 1), for which exploration finds a
  concrete violating schedule that replays byte-identically.

The AMP reference protocols live in :mod:`repro.explore.amp_protocols`,
so a run of either model loads only its own kernel.

Verdicts reuse :data:`~repro.shm.adoptcommit.COMMIT` /
:data:`~repro.shm.adoptcommit.ADOPT`, and the coherence/convergence
properties below plug into the explorer's property API.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.seqspec import SequentialSpec, register_spec
from ..shm.adoptcommit import ADOPT, COMMIT
from ..shm.statemachine import NOT_DECIDED, OpRequest, ProtocolStateMachine
from .model import Config, ExplorationModel
from .properties import Eventually, Invariant

#: Register "empty" sentinel (a tuple no protocol value collides with).
UNSET = ("<unset>",)


class AdoptCommitMachine(ProtocolStateMachine):
    """Two-phase adopt-commit over ``2n`` atomic registers.

    Phase 1: write your value to ``A[pid]``, collect ``A``; propose
    *clean* iff you saw no other value.  Phase 2: write the proposal to
    ``B[pid]``, collect ``B``; commit iff every proposal you saw is
    clean (all clean proposals provably carry one value), adopt a clean
    value if you saw any, otherwise adopt your own.

    Safety (coherence): if anyone outputs ``(COMMIT, w)``, every output
    carries ``w`` — verified exhaustively by the explorer.
    """

    name = "adopt-commit"

    def __init__(self, n: int) -> None:
        self.n = n

    def shared_objects(self) -> Dict[str, SequentialSpec]:
        objects = {f"A[{i}]": register_spec(UNSET) for i in range(self.n)}
        objects.update(
            {f"B[{i}]": register_spec(UNSET) for i in range(self.n)}
        )
        return objects

    def initial_state(self, pid: int, input_value: object) -> object:
        return ("writeA", input_value)

    def next_op(self, pid: int, state: object) -> Optional[OpRequest]:
        tag = state[0]
        if tag == "writeA":
            return (f"A[{pid}]", "write", (state[1],))
        if tag == "readA":
            return (f"A[{state[2]}]", "read", ())
        if tag == "writeB":
            return (f"B[{pid}]", "write", (state[2],))
        if tag == "readB":
            return (f"B[{state[3]}]", "read", ())
        return None  # ("done", output)

    def apply_response(self, pid: int, state: object, response: object) -> object:
        tag = state[0]
        if tag == "writeA":
            return ("readA", state[1], 0, ())
        if tag == "readA":
            _, value, index, seen = state
            seen = seen + (response,)
            if index + 1 < self.n:
                return ("readA", value, index + 1, seen)
            return ("writeB", value, self._proposal(value, seen))
        if tag == "writeB":
            return ("readB", state[1], state[2], 0, ())
        if tag == "readB":
            _, value, proposal, index, seen = state
            seen = seen + (response,)
            if index + 1 < self.n:
                return ("readB", value, proposal, index + 1, seen)
            return ("done", self._output(value, seen))
        raise AssertionError(f"no transition from {state!r}")

    def decision(self, pid: int, state: object) -> object:
        if state[0] == "done":
            return state[1]
        return NOT_DECIDED

    # -- the protocol's two decision rules ---------------------------------

    def _proposal(self, value: object, seen: Tuple[object, ...]) -> Tuple:
        others = {v for v in seen if v != UNSET and v != value}
        return (not others, value)  # (clean?, value)

    def _output(self, value: object, seen: Tuple[object, ...]) -> Tuple:
        proposals = [p for p in seen if p != UNSET]
        clean = [p for p in proposals if p[0]]
        if clean and len(clean) == len(proposals):
            return (COMMIT, clean[0][1])
        if clean:
            return (ADOPT, clean[0][1])
        return (ADOPT, value)


class BrokenAdoptCommitMachine(AdoptCommitMachine):
    """The planted bug: commit straight after phase 1.

    A process that saw no disagreement in ``A`` outputs
    ``(COMMIT, v)`` without announcing anything in ``B`` — so a solo
    run commits while a later process, now seeing both values, adopts a
    different one.  Coherence breaks; the explorer exhibits the
    schedule.
    """

    name = "adopt-commit-broken"

    def apply_response(self, pid: int, state: object, response: object) -> object:
        if state[0] == "readA":
            _, value, index, seen = state
            seen = seen + (response,)
            if index + 1 < self.n:
                return ("readA", value, index + 1, seen)
            clean, _ = self._proposal(value, seen)
            if clean:
                return ("done", (COMMIT, value))  # the bug: skipped phase 2
            return ("writeB", value, (False, value))
        return super().apply_response(pid, state, response)


def adopt_commit_coherence() -> Invariant:
    """If anyone committed ``w``, every output (commit or adopt) carries ``w``."""

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        decided = model.decisions(config)
        committed = {
            value for verdict, value in decided.values() if verdict == COMMIT
        }
        if len(committed) > 1:
            return f"two different values committed: {sorted(map(repr, committed))}"
        if committed:
            (w,) = committed
            for pid, (verdict, value) in sorted(decided.items()):
                if value != w:
                    return (
                        f"p{pid} output ({verdict}, {value!r}) "
                        f"but {w!r} was committed"
                    )
        return None

    return Invariant("adopt-commit-coherence", check)


def adopt_commit_validity(inputs: Sequence[object]) -> Invariant:
    """Every output value was some process's input."""
    allowed = {repr(v) for v in inputs}

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        for pid, (verdict, value) in sorted(model.decisions(config).items()):
            if repr(value) not in allowed:
                return f"p{pid} output value {value!r} nobody proposed"
        return None

    return Invariant("adopt-commit-validity", check)


def adopt_commit_convergence() -> Eventually:
    """With equal inputs every complete run must commit (obligation half)."""

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        decided = model.decisions(config)
        if len({repr(v) for _, v in decided.values()}) <= 1:
            for pid, (verdict, _) in sorted(decided.items()):
                if verdict != COMMIT:
                    return f"equal-input run ended with p{pid} adopting"
        return None

    return Eventually("adopt-commit-convergence", check)
