"""Explorable AMP reference protocols: verified-correct and planted-bug
pairs for :class:`~repro.explore.amp_model.AmpModel`.

* :class:`FloodMinProcess` — min-flooding agreement, correct with
  ``quorum == n`` and agreement-violating with a premature quorum,
  exercising the message-delivery branching;
* :class:`QuorumAcceptor` / :class:`QuorumProposer` — a one-vote quorum
  commit whose vote is volatile (a crash-recovery cycle grants a second,
  conflicting vote) or durable in ``ctx.stable``;
* :func:`make_scd_nodes` — SCD-broadcast nodes (Imbs et al.), with the
  :func:`scd_coherence` safety contract, the TO strengthening
  :func:`scd_uniform_sets` that SCD does not provide, and
  :func:`scd_termination`.

The shared-memory reference protocols live in
:mod:`repro.explore.protocols`, so a run of either model loads only its
own kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..amp.network import AsyncProcess, Context
from .model import Config, ExplorationModel
from .properties import Eventually, Invariant


# -- min-flooding agreement --------------------------------------------------


class FloodMinProcess(AsyncProcess):
    """Broadcast your value; decide the min once ``quorum`` values are known.

    ``quorum == n`` is correct (crash-free): everyone eventually knows
    every value and decides the global min.  ``quorum < n`` is the
    planted bug — a process may decide the min of a *partial* view,
    and two processes with different partial views disagree.
    """

    def __init__(self, value: object, quorum: int) -> None:
        self.value = value
        self.quorum = quorum
        self.seen: Dict[int, object] = {}

    def on_start(self, ctx: Context) -> None:
        self.seen[ctx.pid] = self.value
        ctx.broadcast(("val", self.value), include_self=False)
        self._maybe_decide(ctx)

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        _, value = payload
        self.seen[src] = value
        self._maybe_decide(ctx)

    def _maybe_decide(self, ctx: Context) -> None:
        if not ctx.decided and len(self.seen) >= self.quorum:
            ctx.decide(min(self.seen.values()))
            ctx.halt()


def make_flood_min(
    values: Sequence[object], quorum: Optional[int] = None
) -> Callable[[], List[FloodMinProcess]]:
    """Factory of fresh :class:`FloodMinProcess` lists (for AmpModel)."""
    quorum = len(values) if quorum is None else quorum

    def factory() -> List[FloodMinProcess]:
        return [FloodMinProcess(value, quorum) for value in values]

    return factory


# -- quorum commit under crash-recovery --------------------------------------


class QuorumAcceptor(AsyncProcess):
    """A one-vote acceptor: grants its vote to the first proposer, denies
    the rest.  The vote *is* quorum state — whoever holds it commits.

    With ``durable=False`` the vote lives only in memory: a
    crash-recovery cycle makes the acceptor forget it ever voted and
    grant a second, conflicting vote (the explorer exhibits the
    schedule).  With ``durable=True`` the vote is written to
    ``ctx.stable`` before the grant leaves, and ``on_recover`` reloads
    it — the classic write-ahead rule that makes promises survive.
    """

    def __init__(self, durable: bool = False) -> None:
        self.durable = durable
        self.voted: Optional[object] = None  # volatile unless durable

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        tag = payload[0]
        if tag != "acquire":
            return
        value = payload[1]
        voted = ctx.stable.get("voted") if self.durable else self.voted
        if voted is None:
            self.voted = value
            if self.durable:
                # Log the promise *before* answering: if we crash after
                # the grant is on the wire, recovery must still know.
                ctx.stable.put("voted", value)
            ctx.send(src, ("granted", value))
        else:
            ctx.send(src, ("denied", voted))

    def on_recover(self, ctx: Context) -> None:
        if self.durable:
            self.voted = ctx.stable.get("voted")


class QuorumProposer(AsyncProcess):
    """Ask the acceptor for its vote; commit own value iff granted."""

    def __init__(self, value: object, acceptor: int = 0) -> None:
        self.value = value
        self.acceptor = acceptor

    def on_start(self, ctx: Context) -> None:
        ctx.send(self.acceptor, ("acquire", self.value))

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        if ctx.decided:
            return
        tag, value = payload
        if tag == "granted":
            ctx.decide(("commit", self.value))
            ctx.halt()
        elif tag == "denied":
            ctx.decide(("abort", value))
            ctx.halt()


def make_quorum_commit(
    values: Sequence[object] = (1, 2), durable: bool = False
) -> Callable[[], List[AsyncProcess]]:
    """Factory: acceptor at pid 0, one proposer per value (for AmpModel)."""

    def factory() -> List[AsyncProcess]:
        processes: List[AsyncProcess] = [QuorumAcceptor(durable=durable)]
        processes.extend(QuorumProposer(value) for value in values)
        return processes

    return factory


def quorum_commit_agreement() -> Invariant:
    """At most one value is ever committed (the vote is exclusive)."""

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        decided = model.decisions(config)
        committed = sorted(
            {repr(v) for verdict, v in decided.values() if verdict == "commit"}
        )
        if len(committed) > 1:
            return f"two different values committed: {committed}"
        return None

    return Invariant("quorum-commit-agreement", check)


# -- SCD-broadcast (strictly between RB and TO) ------------------------------


def make_scd_nodes(
    payload_lists: Sequence[Sequence[object]],
) -> Callable[[], List[AsyncProcess]]:
    """Factory of :class:`~repro.amp.scd.ScdNode` lists (for AmpModel).

    ``payload_lists[pid]`` is what process ``pid`` SCD-broadcasts at
    start; every node expects the grand total, so runs settle once all
    messages are delivered everywhere and each node decides its set
    sequence.
    """
    from ..amp.scd import ScdNode

    n = len(payload_lists)
    expected = sum(len(payloads) for payloads in payload_lists)

    def factory() -> List[AsyncProcess]:
        return [
            ScdNode(pid, n, list(payload_lists[pid]), expected=expected)
            for pid in range(n)
        ]

    return factory


def _scd_histories(model: ExplorationModel, config: Config) -> List[Sequence]:
    return [
        process.delivered_sets
        for process in model.processes(config)
        if hasattr(process, "delivered_sets")
    ]


def scd_coherence() -> Invariant:
    """Integrity + MS-Ordering over every process's delivered sets.

    This is the SCD-broadcast safety contract: no message delivered
    twice, and no two processes deliver two messages in *opposite*
    strict orders (delivering them in one set is always allowed).
    Checked as an invariant — it must hold in every reachable
    configuration, not just terminal ones.
    """
    from ..amp.scd import check_scd_histories

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        return check_scd_histories(_scd_histories(model, config))

    return Invariant("scd-coherence", check)


def scd_uniform_sets() -> Invariant:
    """The TO strengthening SCD does **not** provide (expected to fail).

    Holds iff all delivered set sequences are prefix-compatible — what
    TO-broadcast guarantees.  Exploring SCD against this property
    yields a replayable counterexample: concrete evidence the
    abstraction sits *strictly below* total order.
    """
    from ..amp.scd import check_uniform_set_sequences

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        return check_uniform_set_sequences(_scd_histories(model, config))

    return Invariant("scd-uniform-sets", check)


def scd_termination() -> Eventually:
    """Every maximal run ends with all processes' histories decided."""

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        decided = model.decisions(config)
        if len(decided) < getattr(model, "n", len(decided)):
            return f"only {sorted(decided)} decided at a terminal configuration"
        return None

    return Eventually("scd-termination", check)
