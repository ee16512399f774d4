"""Deep-freezing of messages and views — the runtime half of ALIAS checking.

The simulators pass *references*: a message handed to ``send`` and a view
returned by ``scan`` are the very objects the protocol keeps using.  In a
real distributed system the network serializes a message, so a sender
mutating its buffer after the send cannot retroactively change what the
receiver gets — but in the simulator it silently can, corrupting a run
far from the buggy line.  The static ALIAS rules catch the pattern in
source; this module catches it at runtime.

:func:`deep_freeze` converts a payload into a structurally-equal frozen
copy: lists become :class:`FrozenList`, dicts :class:`FrozenDict`, sets
:class:`FrozenSetView` — subclasses of the builtin types (so
``isinstance`` checks, equality, and payload accounting keep working)
whose mutators raise :class:`FrozenMutationError` *at the mutation site*.
Kernels apply it when constructed with ``sanitize=True``:

* the sync kernel freezes every outbox message as it is collected;
* the AMP runtime freezes every payload at ``send`` time;
* the shm runtime freezes invocation arguments (what a write stores) and
  step responses (what a read or scan returns).

Freezing *copies* container structure, which is exactly the semantics a
serializing network has: the in-flight value is captured at send time.
Known limitations (documented, by design): rebinding attributes on a
non-frozen custom message object is not intercepted, and a sender
mutating the original object it kept a reference to is not an error —
but the receiver now observes the at-send value, so the aliasing channel
itself is closed.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.exceptions import ModelViolation


class FrozenMutationError(ModelViolation):
    """A protocol mutated a frozen message or view (``sanitize=True``).

    The traceback points at the mutation site — the line that would have
    silently corrupted a remote process's state in a non-sanitized run.
    """


def _blocked(kind: str, method: str):
    def mutator(self, *args, **kwargs):
        raise FrozenMutationError(
            f"attempt to call {kind}.{method}() on a frozen {kind}: this "
            f"object was sent as a message (or returned by a snapshot/scan) "
            f"and must not be mutated afterwards; build a new object instead"
        )

    mutator.__name__ = method
    return mutator


def _block_all(cls, kind: str, methods) -> None:
    for method in methods:
        setattr(cls, method, _blocked(kind, method))


class FrozenList(list):
    """A list whose mutators raise :class:`FrozenMutationError`."""

    __slots__ = ()

    def __reduce__(self):  # picklable (run_many summaries may carry views)
        return (FrozenList, (list(self),))


_block_all(
    FrozenList,
    "list",
    (
        "__setitem__", "__delitem__", "__iadd__", "__imul__",
        "append", "extend", "insert", "remove", "pop", "clear",
        "sort", "reverse",
    ),
)


class FrozenDict(dict):
    """A dict whose mutators raise :class:`FrozenMutationError`."""

    __slots__ = ()

    def __reduce__(self):
        return (FrozenDict, (dict(self),))


_block_all(
    FrozenDict,
    "dict",
    (
        "__setitem__", "__delitem__", "__ior__",
        "update", "setdefault", "pop", "popitem", "clear",
    ),
)


class FrozenSetView(set):
    """A set whose mutators raise :class:`FrozenMutationError`.

    It iterates in the order of the set it was frozen from, and prints
    as a plain set does, as :class:`FrozenList` and :class:`FrozenDict`
    print as their builtins, so a sanitized run records the payload text
    an unsanitized replay re-issues, and its receivers iterate as the
    unsanitized ones do.  The order is kept because a copy of a set that
    grew and then shrank has a smaller table, and so iterates in another
    order than its source.
    """

    __slots__ = ("_order",)

    def __init__(self, items=()) -> None:
        order = tuple(dict.fromkeys(items))
        super().__init__(order)
        self._order = order

    def __iter__(self):
        return iter(self._order)

    def __reduce__(self):
        return (FrozenSetView, (list(self),))

    def __repr__(self) -> str:
        # set.__repr__ would prefix the subclass name.
        return "{" + repr(list(self))[1:-1] + "}" if self else "set()"


_block_all(
    FrozenSetView,
    "set",
    (
        "__ior__", "__iand__", "__isub__", "__ixor__",
        "add", "discard", "remove", "pop", "clear", "update",
        "difference_update", "intersection_update",
        "symmetric_difference_update",
    ),
)

_FROZEN_TYPES = (FrozenList, FrozenDict, FrozenSetView)
_SCALARS = (int, float, complex, str, bytes, bool, frozenset, type(None))


def deep_freeze(obj: Any) -> Any:
    """Return a structurally-equal value whose containers refuse mutation.

    Scalars, ``frozenset`` and already-frozen values pass through
    untouched.  Tuples are rebuilt only if a child changed, so interned
    tuples (hash-consed IIS views) keep their identity under sanitizing.
    Dataclass instances are rebuilt with ``dataclasses.replace`` when a
    field froze to a new object.  Unknown object types pass through
    unchanged — freezing is about the container graph a message carries.
    """
    if isinstance(obj, _FROZEN_TYPES):
        return obj
    if isinstance(obj, _SCALARS) or obj is None:
        return obj
    if isinstance(obj, tuple):
        frozen = tuple(deep_freeze(item) for item in obj)
        if all(new is old for new, old in zip(frozen, obj)):
            return obj
        if hasattr(obj, "_fields"):  # namedtuple
            return type(obj)(*frozen)
        return frozen
    if isinstance(obj, list):
        return FrozenList(deep_freeze(item) for item in obj)
    if isinstance(obj, dict):
        return FrozenDict(
            (deep_freeze(key), deep_freeze(value)) for key, value in obj.items()
        )
    if isinstance(obj, set):
        # Set elements are hashable, hence already deeply immutable.
        return FrozenSetView(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changes = {}
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            frozen = deep_freeze(value)
            if frozen is not value:
                changes[field.name] = frozen
        if not changes:
            return obj
        return dataclasses.replace(obj, **changes)
    return obj


def is_frozen(obj: Any) -> bool:
    """True if ``obj`` is one of the frozen container types."""
    return isinstance(obj, _FROZEN_TYPES)
