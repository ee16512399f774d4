"""Deep-freeze semantics and the kernels' ``sanitize=True`` mode.

Each kernel gets a deliberately *planted* aliasing bug — a protocol that
mutates a message after receiving it (or a read value after the read).
Without the sanitizer the bug corrupts state silently; with
``sanitize=True`` it raises :class:`FrozenMutationError` at the mutation
site.  That pair of assertions is the sanitizer's contract.
"""

import copy
import pickle

import pytest

from repro.analyze.freeze import (
    FrozenDict,
    FrozenList,
    FrozenMutationError,
    FrozenSetView,
    deep_freeze,
    is_frozen,
)
from repro.core.volume import payload_units


# ---------------------------------------------------------------------------
# deep_freeze unit behavior
# ---------------------------------------------------------------------------


def test_scalars_pass_through_identically():
    for value in (None, True, 3, 2.5, "s", b"b", frozenset({1})):
        assert deep_freeze(value) is value


def test_unchanged_tuple_keeps_identity():
    t = (1, "a", (2, 3))
    assert deep_freeze(t) is t


def test_tuple_with_mutable_leaf_is_rebuilt():
    t = (1, [2, 3])
    frozen = deep_freeze(t)
    assert frozen is not t
    assert frozen == (1, [2, 3])
    assert isinstance(frozen[1], FrozenList)


def test_frozen_list_blocks_every_mutator():
    frozen = deep_freeze([1, 2, 3])
    assert isinstance(frozen, FrozenList)
    assert list(frozen) == [1, 2, 3]
    with pytest.raises(FrozenMutationError):
        frozen.append(4)
    with pytest.raises(FrozenMutationError):
        frozen[0] = 9
    with pytest.raises(FrozenMutationError):
        frozen += [5]
    with pytest.raises(FrozenMutationError):
        frozen.sort()
    with pytest.raises(FrozenMutationError):
        del frozen[0]


def test_frozen_dict_blocks_every_mutator():
    frozen = deep_freeze({"a": 1})
    assert isinstance(frozen, FrozenDict)
    assert frozen["a"] == 1
    with pytest.raises(FrozenMutationError):
        frozen["b"] = 2
    with pytest.raises(FrozenMutationError):
        frozen.update(b=2)
    with pytest.raises(FrozenMutationError):
        frozen.pop("a")
    with pytest.raises(FrozenMutationError):
        frozen.clear()


def test_frozen_set_view_blocks_every_mutator():
    frozen = deep_freeze({1, 2})
    assert isinstance(frozen, FrozenSetView)
    assert frozen == {1, 2}
    with pytest.raises(FrozenMutationError):
        frozen.add(3)
    with pytest.raises(FrozenMutationError):
        frozen.discard(1)
    with pytest.raises(FrozenMutationError):
        frozen |= {4}


@pytest.mark.parametrize("value", [set(), {1, 2}, {"a", (1, "b")}, {frozenset({3})}])
def test_frozen_containers_print_as_builtins(value):
    # Traces record payload reprs: sanitized and plain runs must agree.
    for source in (value, [value], {"k": value}):
        assert repr(deep_freeze(source)) == repr(source)


def _shrunken_set():
    # Grown to ten elements and shrunk to two: its table is larger than
    # a fresh copy's, so it iterates in a different order from one
    # ([7, 8] against [8, 7]).
    values = set(range(10))
    for value in (0, 1, 2, 3, 4, 5, 6, 9):
        values.discard(value)
    return values


def test_frozen_set_iterates_like_its_source():
    source = _shrunken_set()
    assert list(set(source)) != list(source)  # the case at stake
    frozen = deep_freeze(source)
    assert list(frozen) == list(source)
    assert repr(frozen) == repr(source)
    assert repr(deep_freeze([source])) == repr([source])


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, copy.copy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["deepcopy", "copy", "pickle"],
)
def test_frozen_set_copies_keep_order_and_type(clone):
    source = _shrunken_set()
    copied = clone(deep_freeze(source))
    assert isinstance(copied, FrozenSetView)
    assert copied == source
    assert list(copied) == list(source)
    with pytest.raises(FrozenMutationError):
        copied.add(1)


def test_freeze_is_deep_and_source_untouched():
    source = {"xs": [1, [2]], "tags": {1, 2}}
    frozen = deep_freeze(source)
    with pytest.raises(FrozenMutationError):
        frozen["xs"][1].append(3)
    # Copy-at-send semantics: the sender's original stays mutable.
    source["xs"].append(99)
    assert len(frozen["xs"]) == 2


def test_is_frozen():
    assert is_frozen(deep_freeze([1]))
    assert is_frozen(deep_freeze({"a": 1}))
    assert is_frozen(deep_freeze({1, 2}))
    assert not is_frozen([1])
    assert not is_frozen({"a": [1]})


def test_frozen_containers_pickle_round_trip():
    frozen = deep_freeze({"xs": [1, 2], "tags": {3}})
    clone = pickle.loads(pickle.dumps(frozen))
    assert clone == {"xs": [1, 2], "tags": {3}}
    assert isinstance(clone, FrozenDict)
    with pytest.raises(FrozenMutationError):
        clone["xs"].append(9)


def test_payload_units_unchanged_by_freezing():
    message = {"view": [1, 2, 3], "ids": {4, 5}, "tag": "x"}
    assert payload_units(deep_freeze(message)) == payload_units(message)


# ---------------------------------------------------------------------------
# Planted bug 1: synchronous kernel — receiver mutates a received message
# ---------------------------------------------------------------------------

from repro.sync import SyncAlgorithm, SynchronousRunner
from repro.sync.topology import complete


class _ReceiverMutates(SyncAlgorithm):
    """Broadcasts a list, then appends to every *received* list (the bug).

    Broadcast hands the same list object to all neighbors, so without
    the sanitizer one receiver's append is visible to receivers that
    process the message later — classic shared-reference corruption.
    """

    def on_start(self, ctx):
        return ctx.broadcast([ctx.pid])

    def on_round(self, ctx, received):
        views = []
        for src in sorted(received):
            message = received[src]
            views.append(tuple(message))
            message.append(ctx.pid)  # repro: noqa(ALIAS001): deliberately planted aliasing bug exercised by the sanitizer tests below
        ctx.decide(tuple(views))
        ctx.halt()
        return {}


def _sync_runner(sanitize):
    n = 3
    return SynchronousRunner(
        complete(n),
        [_ReceiverMutates() for _ in range(n)],
        list(range(n)),
        sanitize=sanitize,
    )


def test_sync_planted_bug_corrupts_silently_without_sanitize():
    result = _sync_runner(sanitize=False).run()
    assert all(result.decided)
    # Some process saw a view another process had already appended to:
    # the lists arrived pre-tampered, but nothing raised.
    assert any(
        len(view) > 1 for views in result.outputs for view in views
    )


def test_sync_sanitize_catches_planted_bug():
    with pytest.raises(FrozenMutationError):
        _sync_runner(sanitize=True).run()


# ---------------------------------------------------------------------------
# Planted bug 2: AMP kernel — on_message mutates the delivered payload
# ---------------------------------------------------------------------------

from repro.amp.network import AsyncProcess, AsyncRuntime


class _AmpSender(AsyncProcess):
    """Sends a list it keeps a live reference to."""

    def __init__(self):
        self.outgoing = None

    def on_start(self, ctx):
        self.outgoing = ["hello", ctx.pid]
        ctx.send(1, self.outgoing)


class _AmpTamperer(AsyncProcess):
    """Appends to the delivered payload (the bug)."""

    def on_message(self, ctx, src, payload):
        payload.append("tampered")  # repro: noqa(ALIAS001): deliberately planted aliasing bug exercised by the sanitizer tests below
        ctx.decide(tuple(payload))


def _amp_runtime(sanitize):
    return AsyncRuntime([_AmpSender(), _AmpTamperer()], sanitize=sanitize)


def test_amp_planted_bug_corrupts_silently_without_sanitize():
    runtime = _amp_runtime(sanitize=False)
    runtime.run()
    # The receiver's append reached back into the sender's own record.
    assert runtime.processes[0].outgoing == ["hello", 0, "tampered"]


def test_amp_sanitize_catches_planted_bug():
    runtime = _amp_runtime(sanitize=True)
    with pytest.raises(FrozenMutationError):
        runtime.run()
    # The frozen copy shielded the sender's record.
    assert runtime.processes[0].outgoing == ["hello", 0]


# ---------------------------------------------------------------------------
# Planted bug 3: SHM kernel — reader mutates the value a read returned
# ---------------------------------------------------------------------------

from repro.shm import ListScheduler, Runtime, new_register, read, write


def _shm_writer(register):
    yield from write(register, [1, 2])
    return "wrote"


def _shm_reader_mutates(register):
    value = yield from read(register)
    value.append(99)  # repro: noqa(ALIAS001): deliberately planted aliasing bug exercised by the sanitizer tests below
    return tuple(value)


def _shm_runtime(register, sanitize):
    runtime = Runtime(ListScheduler([0, 0, 1, 1]), sanitize=sanitize)
    runtime.spawn(0, _shm_writer(register))
    runtime.spawn(1, _shm_reader_mutates(register))
    return runtime


def test_shm_planted_bug_corrupts_silently_without_sanitize():
    register = new_register("R", [0])
    report = _shm_runtime(register, sanitize=False).run()
    assert report.outputs[1] == (1, 2, 99)
    # The append went straight into the register's state without a
    # write step — exactly the corruption the sanitizer exists to catch.
    assert register.peek() == [1, 2, 99]


def test_shm_sanitize_catches_planted_bug():
    register = new_register("R", [0])
    with pytest.raises(FrozenMutationError):
        _shm_runtime(register, sanitize=True).run()
    # The register still holds exactly what the writer wrote.
    assert list(register.peek()) == [1, 2]
