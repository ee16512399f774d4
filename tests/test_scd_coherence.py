"""``scd_coherence`` reuses its verdicts: the split checker and the
property against the whole-history checker they replaced.

:func:`reference_check_scd_histories` is ``check_scd_histories`` as it
was before the split, kept verbatim: Integrity for every process, then
MS-Ordering for every pair, over whole histories.  The split helpers
(:func:`~repro.amp.scd.scd_positions`,
:func:`~repro.amp.scd.scd_ms_ordering`) and the property that reuses
their verdicts per process object and per pair must return the same
string, or ``None``, on every input.
"""

from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.amp import ScdBroadcast, ScdMessage, ScdNode, check_scd_histories, wrap_reliable
from repro.amp.scd import MessageId, MessageSet
from repro.core.exceptions import ConfigurationError
from repro.explore import (
    AmpModel,
    Invariant,
    explore,
    make_scd_nodes,
    scd_coherence,
    scd_uniform_sets,
)


def reference_check_scd_histories(
    histories: Sequence[Sequence[MessageSet]],
) -> Optional[str]:
    """Check Integrity + MS-Ordering across per-process set sequences.

    Returns ``None`` when the histories are SCD-consistent, else a
    description of the violation.  ``histories[i]`` is process ``i``'s
    sequence of delivered message sets, in delivery order.
    """
    positions: List[Dict[MessageId, int]] = []
    for pid, sets in enumerate(histories):
        seen: Dict[MessageId, int] = {}
        for index, message_set in enumerate(sets):
            for message in message_set:
                if message.message_id in seen:
                    return (
                        f"integrity violated: process {pid} delivered "
                        f"{message.message_id} twice (sets "
                        f"{seen[message.message_id]} and {index})"
                    )
                seen[message.message_id] = index
        positions.append(seen)
    for i in range(len(histories)):
        for j in range(i + 1, len(histories)):
            common = sorted(set(positions[i]) & set(positions[j]))
            for a_index, first in enumerate(common):
                for second in common[a_index + 1 :]:
                    de_i = positions[i][first] - positions[i][second]
                    de_j = positions[j][first] - positions[j][second]
                    if (de_i < 0 and de_j > 0) or (de_i > 0 and de_j < 0):
                        return (
                            f"MS-ordering violated on {first} vs {second}: "
                            f"process {i} orders them "
                            f"{positions[i][first]}/{positions[i][second]}, "
                            f"process {j} orders them "
                            f"{positions[j][first]}/{positions[j][second]}"
                        )
    return None


_IDS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@st.composite
def _history(draw, unique):
    """One process's delivered sets over four message ids: a sequence of
    ids cut into sets.  ``unique`` draws two or more distinct ids, so that
    MS-Ordering is reached and crossing orders are common; otherwise ids
    repeat within and across sets, which violates Integrity."""
    ids = draw(st.lists(
        st.sampled_from(_IDS), unique=unique, min_size=2 if unique else 0, max_size=5
    ))
    sets: List[list] = []
    for message_id in ids:
        if not sets or draw(st.booleans()):
            sets.append([])
        sets[-1].append(message_id)
    return [tuple(ScdMessage(o, s, f"m{o}.{s}") for o, s in ids) for ids in sets]


#: Up to four processes' histories; two or more with distinct ids.
_histories = st.booleans().flatmap(
    lambda unique: st.lists(_history(unique), min_size=2 if unique else 1, max_size=4)
)


class _Process:
    """A stand-in process: a history and nothing else."""

    def __init__(self, delivered_sets):
        self.delivered_sets = delivered_sets


class _Configurations:
    """A model whose configurations are indices into fixed process lists."""

    def __init__(self, configurations):
        self.configurations = configurations

    def processes(self, index):
        return self.configurations[index]


class TestSplitChecker:
    @settings(max_examples=400, deadline=None)
    @given(histories=_histories)
    def test_matches_reference(self, histories):
        assert check_scd_histories(histories) == reference_check_scd_histories(histories)

    @settings(max_examples=150, deadline=None)
    @given(
        # Per pid, a pool of process objects; each configuration picks one
        # object per pid, so objects and pairs of them recur.
        pools=st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(_histories.map(lambda h: h[0] if h else []), min_size=1, max_size=3)
                .map(lambda pool: [_Process(sets) for sets in pool]),
                min_size=n,
                max_size=n,
            )
        ),
        picks=st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), max_size=12),
    )
    def test_reused_verdicts_match_reference(self, pools, picks):
        configurations = [
            [pool[pick[pid] % len(pool)] for pid, pool in enumerate(pools)]
            for pick in picks
        ]
        model = _Configurations(configurations)
        coherence = scd_coherence()
        for index, processes in enumerate(configurations):
            histories = [process.delivered_sets for process in processes]
            assert coherence.on_state(model, index) == reference_check_scd_histories(
                histories
            )


class _EagerScd(ScdBroadcast):
    """Planted bug: a message is stable, and orders are proven, on one
    forward instead of a majority's, so two processes can deliver two
    messages in opposite orders."""

    quorum = 1


class _EagerScdNode(ScdNode):
    def __init__(self, pid, n, payloads=(), expected=None):
        super().__init__(pid, n, payloads, expected)
        self.scd = _EagerScd(pid, n, on_deliver=self._count)


def _eager_nodes(payload_lists):
    expected = sum(len(payloads) for payloads in payload_lists)
    n = len(payload_lists)
    return lambda: [
        _EagerScdNode(pid, n, list(payload_lists[pid]), expected)
        for pid in range(n)
    ]


class TestLockstepExploration:
    """At every state the explorer visits, the reusing property returns
    the reference verdict on the processes' whole histories."""

    @pytest.mark.parametrize(
        "factory, states, violations",
        [
            (make_scd_nodes([["a"], [], []]), 104, 0),
            (make_scd_nodes([["a"], ["b"], []]), 15_172, 0),
            (_eager_nodes([["a"], ["b"], []]), 4_084, 3_056),
        ],
        ids=["one-broadcaster", "two-broadcasters", "planted-bug"],
    )
    def test_every_state(self, factory, states, violations):
        coherence = scd_coherence()
        verdicts = []

        def lockstep(model, config):
            verdict = coherence.on_state(model, config)
            histories = [process.delivered_sets for process in model.processes(config)]
            assert verdict == reference_check_scd_histories(histories), config
            verdicts.append(verdict)
            return None

        model = AmpModel(factory, max_crashes=1)
        result = explore(model, [Invariant("lockstep", lockstep)], reduce=False)
        assert result.ok and result.complete
        assert len(verdicts) == result.stats.states
        found = sum(verdict is not None for verdict in verdicts)
        assert (result.stats.states, found) == (states, violations)


class TestProcessWithoutHistory:
    """A process without ``delivered_sets`` is a misconfiguration: the
    SCD properties would otherwise check nothing on it."""

    @pytest.mark.parametrize("prop", [scd_coherence, scd_uniform_sets])
    def test_wrapped_nodes_rejected(self, prop):
        model = AmpModel(lambda: wrap_reliable(make_scd_nodes([["a"], ["b"], []])()))
        with pytest.raises(ConfigurationError, match=r"process 0 \(ReliableChannel\)"):
            explore(model, [prop()], reduce=False)
