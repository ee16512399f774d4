"""Payload-unit accounting: the honest cost measure for full-information
protocols (a "message count" hides O(n) views inside one message)."""

import collections
import enum
import types
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.freeze import FrozenDict, FrozenList, FrozenSetView, deep_freeze
from repro.core import ModelViolation, payload_units


class TestScalars:
    @pytest.mark.parametrize(
        "value", [0, 7, 3.5, 1 + 2j, "hello", b"bytes", True, None]
    )
    def test_scalar_is_one_unit(self, value):
        assert payload_units(value) == 1


class TestContainers:
    def test_flat_sequence_sums_leaves(self):
        assert payload_units([1, 2, 3]) == 3
        assert payload_units((1, "a")) == 2
        assert payload_units({1, 2}) == 2
        assert payload_units(frozenset({"x"})) == 1

    def test_mapping_counts_keys_and_values(self):
        assert payload_units({0: "v0", 1: "v1"}) == 4

    def test_nesting_recurses(self):
        assert payload_units([(0, "a"), (1, ("b", "c"))]) == 5

    def test_empty_container_is_one_unit(self):
        # An empty message still occupies a frame on the wire.
        assert payload_units([]) == 1
        assert payload_units({}) == 1
        assert payload_units(frozenset()) == 1

    def test_dunder_protocol_overrides(self):
        class Compact:
            def __payload_units__(self):
                return 2

        assert payload_units(Compact()) == 2
        assert payload_units([Compact(), Compact()]) == 4

    def test_unknown_object_is_one_unit(self):
        class Opaque:
            pass

        assert payload_units(Opaque()) == 1


class TestOverrideValidation:
    """``__payload_units__`` must return a non-negative int — anything
    else would silently skew every volume metric downstream."""

    def _message(self, weight):
        class Weighted:
            def __payload_units__(self):
                return weight

        return Weighted()

    def test_zero_weight_is_allowed(self):
        # Unlike empty containers, an explicit override may claim free.
        assert payload_units(self._message(0)) == 0

    @pytest.mark.parametrize("bad", [-1, -100])
    def test_negative_weight_rejected(self, bad):
        with pytest.raises(ModelViolation, match="negative weight"):
            payload_units(self._message(bad))

    @pytest.mark.parametrize("bad", [2.5, "3", None, [1]])
    def test_non_int_weight_rejected(self, bad):
        with pytest.raises(ModelViolation, match="non-negative int"):
            payload_units(self._message(bad))

    def test_bool_weight_rejected(self):
        # bool is an int subclass, but True as a weight is a bug.
        with pytest.raises(ModelViolation, match="non-negative int"):
            payload_units(self._message(True))

    def test_error_names_the_offending_type(self):
        with pytest.raises(ModelViolation, match="Weighted"):
            payload_units(self._message("heavy"))


class TestKernelAccounting:
    def test_sync_kernel_meters_sent_and_delivered(self):
        from repro.sync import DropAllAdversary, complete, run_synchronous
        from repro.sync.algorithms import make_flooders

        n = 4
        result = run_synchronous(
            complete(n),
            make_flooders(n, rounds=1, mode="full"),
            list(range(n)),
        )
        assert result.payload_sent > 0
        assert result.payload_delivered == result.payload_sent
        # Round 1 in full mode: each process broadcasts its 1-pair view
        # to n-1 neighbors: n * (n-1) * 2 units.
        assert result.payload_sent == n * (n - 1) * 2

        dropped = run_synchronous(
            complete(n),
            make_flooders(n, rounds=1, mode="full"),
            list(range(n)),
            adversary=DropAllAdversary(),
        )
        assert dropped.payload_sent == n * (n - 1) * 2
        assert dropped.payload_delivered == 0

    def test_amp_runtime_meters_payload(self):
        from repro.amp.network import AsyncProcess, AsyncRuntime, FixedDelay

        class OneShot(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.send(1, ("hello", "world"))

            def on_message(self, ctx, src, payload):
                pass

        runtime = AsyncRuntime(
            [OneShot(), OneShot()],
            delay_model=FixedDelay(1.0),
            quiesce_when_decided=False,
        )
        result = runtime.run()
        assert result.messages_sent == 1
        assert result.payload_sent == 2
        assert result.payload_delivered == 2

    def test_aggregate_amp_sums_payload(self):
        from repro.amp.network import AsyncProcess, AsyncRuntime, FixedDelay
        from repro.harness import aggregate_amp

        class OneShot(AsyncProcess):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.send(1, [1, 2, 3])

            def on_message(self, ctx, src, payload):
                pass

        results = []
        for _ in range(3):
            runtime = AsyncRuntime(
                [OneShot(), OneShot()],
                delay_model=FixedDelay(1.0),
                quiesce_when_decided=False,
            )
            results.append(runtime.run())
        stats = aggregate_amp(results)
        assert stats.payload_sent == 9
        assert stats.payload_delivered == 9


# ---------------------------------------------------------------------------
# Exact-type fast path vs the general rules
# ---------------------------------------------------------------------------

_SCALARS = (int, float, complex, str, bytes, bool, type(None))


def reference_payload_units(message: object) -> int:
    """``payload_units`` before the exact-type fast path: the general
    rules applied to every value.  Kept verbatim as the reference the
    fast path must match."""
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
            reference_payload_units(k) + reference_payload_units(v)
            for k, v in message.items()
        ) or 1
    if isinstance(message, (list, tuple, set, frozenset)):
        return sum(reference_payload_units(item) for item in message) or 1
    return 1


class Color(enum.IntEnum):
    RED = 1
    GREEN = 2


class Tag(str):
    """A scalar subclass: counts 1, like any ``str``."""


class WeightedTag(str):
    """A scalar subclass with an override: the scalar rule comes first."""

    def __payload_units__(self):
        return 5


class Weighted:
    """An opaque leaf with a declared weight (0 exercises the empty rule)."""

    def __init__(self, weight):
        self.weight = weight

    def __payload_units__(self):
        return self.weight

    def __repr__(self):
        return f"Weighted({self.weight})"


class Opaque:
    def __repr__(self):
        return "Opaque()"


class HeavyTuple(tuple):
    def __payload_units__(self):
        return 7


class HeavyDict(dict):
    def __payload_units__(self):
        return 7


Point = collections.namedtuple("Point", "x y")

_scalars = st.one_of(
    st.integers(),
    st.floats(),
    st.complex_numbers(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.booleans(),
    st.none(),
)
_hashable_leaves = st.one_of(
    _scalars,
    st.sampled_from(list(Color)),
    st.text(max_size=4).map(Tag),
    st.text(max_size=4).map(WeightedTag),
    st.integers(0, 3).map(Weighted),
    st.builds(Opaque),
)


def payload_trees(overrides: bool):
    """Recursively generated payloads over every container kind.

    ``overrides`` adds container subclasses that declare their own
    weight; ``deep_freeze`` rebuilds those as plain frozen containers,
    so its property runs without them.
    """

    def hashable_children(inner):
        kinds = [
            st.lists(inner, max_size=4).map(tuple),
            st.frozensets(inner, max_size=4),
            st.builds(Point, inner, inner),
        ]
        if overrides:
            kinds.append(st.lists(inner, max_size=3).map(HeavyTuple))
        return st.one_of(kinds)

    hashable = st.recursive(_hashable_leaves, hashable_children, max_leaves=12)

    def children(inner):
        kinds = [
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.sets(hashable, max_size=4),
            st.frozensets(hashable, max_size=4),
            st.dictionaries(hashable, inner, max_size=4),
            st.dictionaries(hashable, inner, max_size=3).map(types.MappingProxyType),
            st.lists(inner, max_size=3).map(FrozenList),
            st.dictionaries(hashable, inner, max_size=3).map(FrozenDict),
            st.sets(hashable, max_size=3).map(FrozenSetView),
        ]
        if overrides:
            kinds.append(st.dictionaries(hashable, inner, max_size=3).map(HeavyDict))
        return st.one_of(kinds)

    return st.recursive(hashable, children, max_leaves=40)


class TestExactTypeDispatch:
    """The fast path counts exact builtins directly; every other type
    must still follow the general rules, so each case below fails if the
    dispatch tested ``isinstance`` instead of the exact type."""

    @settings(max_examples=300, deadline=None)
    @given(payload_trees(overrides=True))
    def test_matches_the_general_rules(self, payload):
        assert payload_units(payload) == reference_payload_units(payload)

    @settings(max_examples=100, deadline=None)
    @given(payload_trees(overrides=False))
    def test_deep_freeze_keeps_the_count(self, payload):
        assert payload_units(deep_freeze(payload)) == payload_units(payload)

    def test_container_subclass_override_wins(self):
        assert payload_units(HeavyTuple((1, 2))) == 7
        assert payload_units(HeavyDict({1: 2})) == 7
        assert payload_units([HeavyTuple(()), {0: HeavyDict()}]) == 15

    def test_namedtuple_counts_its_leaves(self):
        assert payload_units(Point(1, ("a", "b"))) == 3
        assert payload_units((Point(1, 2), Point(3, 4))) == 4

    def test_int_enum_member_counts_one(self):
        assert payload_units(Color.RED) == 1
        assert payload_units([Color.RED, Color.GREEN]) == 2

    def test_scalar_subclass_ignores_its_override(self):
        # The scalar rule comes before the override in the general rules.
        assert payload_units(WeightedTag("x")) == 1
        assert payload_units((WeightedTag("x"), Tag("y"))) == 2

    def test_mapping_proxy_counts_keys_and_values(self):
        assert payload_units(types.MappingProxyType({"k": (1, 2), "j": 3})) == 5

    def test_deep_freeze_counts_the_same(self):
        message = ("w", [("k", {"v": [1, 2]}, {3, 4})], {"x": None})
        frozen = deep_freeze(message)
        assert isinstance(frozen[1], FrozenList)
        assert payload_units(frozen) == payload_units(message) == 9

    def test_zero_weight_leaves_leave_an_envelope(self):
        assert payload_units([Weighted(0)]) == 1
        assert payload_units({Weighted(0): Weighted(0)}) == 1
        assert payload_units(([Weighted(0)], Weighted(0))) == 1

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda bad: (1, bad),
            lambda bad: [("a", (bad,))],
            lambda bad: {"k": bad},
            lambda bad: {bad: "v"},
            lambda bad: frozenset({bad}),
        ],
        ids=["tuple", "nested", "dict-value", "dict-key", "frozenset"],
    )
    def test_bad_override_nested_in_plain_containers_raises(self, wrap):
        with pytest.raises(ModelViolation, match="negative weight"):
            payload_units(wrap(Weighted(-1)))
        with pytest.raises(ModelViolation, match="non-negative int"):
            payload_units(wrap(Weighted(1.5)))
