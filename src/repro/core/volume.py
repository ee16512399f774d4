"""Payload-volume accounting shared by the simulation kernels.

Message *counts* hide the real cost of full-information protocols: one
flooding message can carry an entire learned view.  Both kernels
(:mod:`repro.sync.kernel` and :mod:`repro.amp.network`) therefore also
meter **payload units** — the number of scalar leaves a message carries:

* scalars (numbers, strings, bytes, booleans, ``None``) count 1;
* containers (dict, list, tuple, set, frozenset) count the sum of their
  leaves (dicts count keys and values);
* a message object may declare its own weight via a
  ``__payload_units__()`` method — used by compact wire formats such as
  :class:`repro.sync.algorithms.flooding.DeltaMessage`, whose integer
  digest bitmask is one machine word no matter how many pids it encodes.

Every kernel meters what it sends: the synchronous kernels measure each
outgoing message, and an AMP send call is measured once and charged
once per copy, so a broadcast to n processes costs one measure and
``payload_sent`` still grows by n times its units.  Metering sits on
every send path, so :func:`payload_units` dispatches on
the exact type: a value whose type *is* one of the builtin scalar or
container types above is counted directly, scalar leaves in place
inside the container loop.  Subclasses (namedtuples, ``IntEnum``
members, the sanitizer's frozen containers), other ``Mapping`` types
and every other object follow the general rules, checked in this
order: a scalar (of any subclass) counts 1, then an override wins,
then mappings and containers sum their items, and anything else
counts 1.  An exact builtin cannot carry an override, so counts are
the same as under the general rules alone, and an override on a
container subclass always wins.  A service-style write (an SCD ``"w"``
broadcast of stamped key/value pairs) and a replica's state dict:

>>> payload_units(("w", (("k1", "v1", (3, 0)), ("k2", None, (1, 0)))))
9
>>> payload_units({"k1": ["v1", 2.5], "k2": ()})
5

The unit is deliberately machine-independent (like rounds and Δ): two
runs with the same message trace report identical volume on any host.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping

from .exceptions import ModelViolation

_SCALARS = (int, float, complex, str, bytes, bool, type(None))
#: Exact types counted without the general rules (see the module docstring).
_EXACT_SCALARS = frozenset(_SCALARS)
_EXACT_COLLECTIONS = frozenset((tuple, list, set, frozenset))


def payload_units(message: object) -> int:
    """Number of payload units (scalar leaves) ``message`` carries.

    An empty container costs 1 unit (the envelope is not free), so a
    pure signal message ("decide", ``()``) is never accounted as zero.

    ``__payload_units__()`` overrides must return a non-negative ``int``
    (``bool`` does not count); anything else raises
    :class:`~repro.core.exceptions.ModelViolation` — a bad weight would
    silently skew every volume metric downstream.
    """
    cls = type(message)
    if cls in _EXACT_SCALARS:
        return 1
    if cls in _EXACT_COLLECTIONS:
        items = message
    elif cls is dict:
        items = chain.from_iterable(message.items())
    else:
        return _general_units(message)
    total = 0
    for item in items:
        if type(item) in _EXACT_SCALARS:
            total += 1
        else:
            total += payload_units(item)
    return total or 1


def _general_units(message: object) -> int:
    """The general rules, for every input that is not an exact builtin."""
    if isinstance(message, _SCALARS):
        return 1
    sizer = getattr(message, "__payload_units__", None)
    if sizer is not None:
        units = sizer()
        if isinstance(units, bool) or not isinstance(units, int):
            raise ModelViolation(
                f"__payload_units__ on {type(message).__name__} returned "
                f"{units!r} ({type(units).__name__}); it must return a "
                f"non-negative int"
            )
        if units < 0:
            raise ModelViolation(
                f"__payload_units__ on {type(message).__name__} returned "
                f"negative weight {units}; payload volume cannot shrink "
                f"a run's total"
            )
        return units
    if isinstance(message, Mapping):
        return sum(
            payload_units(k) + payload_units(v) for k, v in message.items()
        ) or 1
    if isinstance(message, (list, tuple, set, frozenset)):
        return sum(payload_units(item) for item in message) or 1
    return 1
