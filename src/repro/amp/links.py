"""Reliable channels out of fair-loss links: retransmit + dedup.

The classic layering result: a **fair-loss** link (messages may be lost
or duplicated, but a message retransmitted forever is eventually
delivered) can be turned into a **reliable** link by (a) the sender
retransmitting every message until acknowledged and (b) the receiver
acknowledging everything and delivering each sequence number once.

:class:`ReliableChannel` implements exactly that as a transparent
:class:`~repro.amp.network.AsyncProcess` wrapper: the inner protocol
runs unchanged, each of its send calls (a ``send`` or a whole
``broadcast``) takes one sequence number, shared by all of its copies,
and goes out as one send call of the runtime, so a broadcast's payload
is measured once.  Every copy is buffered per ``(dst, seq)`` until that
destination acks it, a periodic retransmission timer re-offers the
unacked backlog copy by copy, and duplicate arrivals (wire duplicates
*or* retransmissions racing an ack) are filtered on ``(src, seq)``
before the inner ``on_message`` sees them.

Sequence numbers across incarnations: a recovered process restarts its
channel from scratch, but its peers still hold the ``(src, seq)`` pairs
of its earlier incarnations.  The channel therefore counts its
recoveries in ``ctx.stable`` and numbers the sends of incarnation
``i > 0`` as ``(i, k)``; a process that never recovers sends plain
``k``, as before.

Event order: the copies of a fan-out draw their fates and delays and
take their event ids in ascending destination order, as one send per
destination would, and the retry timer that a send call arms takes its
event id after all of that call's copies (a channel sending once per
destination armed it after the first copy).  The two orders part only
when the timer fires at the very time some of those copies arrive,
i.e. when their delay equals ``retry_every`` (``FixedDelay(d)`` with
``retry_every == d``): the timer then fires after all of them instead
of after the first, and message counts and times can differ.

The payoff is *observational equivalence*: a protocol stacked on
:class:`ReliableChannel` over a lossy/duplicating link reaches the same
outputs and decisions as the bare protocol over the paper's reliable
link (:func:`observation_hash` is the identity the tests pin).  Virtual
*times* differ — retransmission costs real delay — which is the whole
point: the reduction buys safety, not speed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Set, Tuple

from ..core.exceptions import ConfigurationError
from .network import AmpRunResult, AsyncProcess, Context

#: tags used on the wire by the channel layer
_DATA = "rdx"
_ACK = "rdx-ack"
_RETRY = ("rdx-retry",)
_INNER = "rdx-inner"
#: the channel's ``ctx.stable`` key: how many times this process recovered
_INCARNATION = ("rdx-incarnation",)


class _LinkContext:
    """The inner protocol's view of the world: a reliable channel.

    Delegates everything observable to the real :class:`Context`;
    intercepts ``send``/``broadcast`` (to tag + buffer for
    retransmission) and ``set_timer`` (to namespace inner timer names
    away from the channel's own retry timer).
    """

    def __init__(self, channel: "ReliableChannel", ctx: Context) -> None:
        self._channel = channel
        self._ctx = ctx

    @property
    def pid(self) -> int:
        return self._ctx.pid

    @property
    def n(self) -> int:
        return self._ctx.n

    @property
    def decided(self) -> bool:
        return self._ctx.decided

    @property
    def output(self) -> object:
        return self._ctx.output

    @property
    def halted(self) -> bool:
        return self._channel._inner_halted

    @property
    def time(self) -> float:
        return self._ctx.time

    @property
    def stable(self):
        return self._ctx.stable

    def send(self, dst: int, payload: object) -> None:
        channel = self._channel
        self._ctx.send(dst, channel._outgoing((dst,), payload))
        channel._arm_retry(self._ctx)

    def broadcast(self, payload: object, include_self: bool = True) -> None:
        ctx = self._ctx
        dsts = range(ctx.n)
        if not include_self:
            dsts = [dst for dst in dsts if dst != ctx.pid]
        channel = self._channel
        ctx.broadcast(channel._outgoing(dsts, payload), include_self)
        channel._arm_retry(ctx)

    def set_timer(self, delay: float, name: object = None) -> None:
        self._ctx.set_timer(delay, (_INNER, name))

    def failure_detector(self) -> object:
        return self._ctx.failure_detector()

    def random(self):
        return self._ctx.random()

    def decide(self, value: object) -> None:
        self._ctx.decide(value)

    def halt(self) -> None:
        # The inner protocol is done, but the channel layer stays up:
        # it keeps acking (so peers' retransmissions quiesce) and keeps
        # retransmitting its own backlog — exactly what a reliable link
        # owes messages already accepted for transmission.
        self._channel._inner_halted = True


class ReliableChannel(AsyncProcess):
    """Wrap ``inner`` with a retransmit+dedup reliable-channel layer.

    ``retry_every`` is the retransmission period (virtual time); it only
    trades virtual time for traffic — correctness needs no tuning.
    """

    def __init__(self, inner: AsyncProcess, retry_every: float = 2.0) -> None:
        if retry_every <= 0:
            raise ConfigurationError("retry_every must be > 0")
        self.inner = inner
        self.retry_every = retry_every
        #: (dst, seq) → the wire message, awaiting the destination's ack
        self._unacked: Dict[Tuple[int, object], tuple] = {}
        #: seq of the next inner send call in this incarnation
        self._next_seq = 0
        #: recoveries so far (restored from ``ctx.stable`` in on_recover)
        self._incarnation = 0
        #: (src, seq) pairs already delivered to the inner protocol
        self._seen: Set[Tuple[int, object]] = set()
        self._retry_armed = False
        self._inner_halted = False

    # -- sender side -------------------------------------------------------

    def _outgoing(self, dsts: Iterable[int], payload: object) -> tuple:
        """Number one inner send call and buffer its copy to each of
        ``dsts`` until acked; returns the wire message they share."""
        seq: object = self._next_seq
        self._next_seq += 1
        if self._incarnation:
            seq = (self._incarnation, seq)
        message = (_DATA, seq, payload)
        unacked = self._unacked
        for dst in dsts:
            unacked[(dst, seq)] = message
        return message

    def _arm_retry(self, ctx: Context) -> None:
        if not self._retry_armed:
            self._retry_armed = True
            ctx.set_timer(self.retry_every, _RETRY)

    # -- the AsyncProcess surface -----------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.inner.on_start(_LinkContext(self, ctx))

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        tag = payload[0] if isinstance(payload, tuple) and payload else None
        if tag == _DATA:
            _, seq, inner_payload = payload
            # Always ack — the previous ack may have been the lost copy.
            ctx.send(src, (_ACK, seq))
            if (src, seq) not in self._seen:
                self._seen.add((src, seq))
                if not self._inner_halted:
                    self.inner.on_message(_LinkContext(self, ctx), src, inner_payload)
        elif tag == _ACK:
            self._unacked.pop((src, payload[1]), None)
        # anything else is not ours; bare protocols never see it either

    def on_timer(self, ctx: Context, name: object) -> None:
        if name == _RETRY:
            self._retry_armed = False
            if self._unacked:
                # Sorted for determinism: the analyzer's rule that no
                # unordered iteration feeds sends applies here too.
                for (dst, _seq), message in sorted(self._unacked.items()):
                    ctx.send(dst, message)
                self._arm_retry(ctx)
        elif isinstance(name, tuple) and len(name) == 2 and name[0] == _INNER:
            if not self._inner_halted:
                self.inner.on_timer(_LinkContext(self, ctx), name[1])

    def on_recover(self, ctx: Context) -> None:
        # The channel's buffers were volatile too: a recovered process
        # restarts its channel layer from scratch (backlog, sequence
        # counter and dedup state reset with the rest of memory).  The
        # peers' dedup sets still hold this process's earlier seqs, so
        # the incarnation count is durable and tags every later seq.
        self._incarnation = ctx.stable.get(_INCARNATION, 0) + 1
        ctx.stable.put(_INCARNATION, self._incarnation)
        self.inner.on_recover(_LinkContext(self, ctx))


def wrap_reliable(
    processes, retry_every: float = 2.0
) -> "list[ReliableChannel]":
    """Stack every process on its own :class:`ReliableChannel`.

    Keep the returned list: a :class:`~repro.amp.network.RecoverAt`
    restores the channel from its snapshot, wrapped process included, so
    a recovered process must be read through ``channel.inner``, not
    through the object passed in.
    """
    return [ReliableChannel(p, retry_every=retry_every) for p in processes]


def observation_hash(result: AmpRunResult) -> str:
    """Hash of a run's *observables*: outputs, decisions, crashes.

    This is the identity under which "reliable link" and "retransmit +
    dedup over fair-loss link" are the same protocol — times and message
    counts legitimately differ (retransmission costs both), so they are
    deliberately excluded.
    """
    canonical = repr(
        (
            [repr(o) for o in result.outputs],
            list(result.decided),
            sorted(result.crashed),
        )
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
