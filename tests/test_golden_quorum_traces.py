"""Golden trace pins for the QRM002-driven quorum-counting refactor.

The analyzer's self-run (QRM002) flagged that :class:`AbdNode` and
:class:`PaxosNode` counted quorum progress per *message* (unkeyed
``+= 1`` / ``.append``) rather than per *responder*.  The fix keys
progress on sender sets.  Under reliable links every server/acceptor
responds at most once per phase, so the refactor must be **behavior
identical** there — these hashes, captured from the pre-fix code, pin
that: any divergence in the full event trace (sends, deliveries, timer
fires, decisions) fails the test.

The :class:`QuorumAbdNode` pins were captured while it still kept its
own copies of ABD's reply and ack handlers; it now shares them and
overrides only the completion predicate, so the same runs must give the
same traces.

If a *deliberate* protocol change invalidates them, re-capture with the
run functions below and say why in the commit.
"""

import pytest

from repro.amp.abd import AbdNode, FastReadAbdNode
from repro.amp.consensus.paxos import make_paxos
from repro.amp.failure_detectors import OmegaFD
from repro.amp.network import CrashAt, DuplicatingLink, UniformDelay, run_processes
from repro.amp.quorums import QuorumAbdNode, majority_family
from repro.core.history import History
from repro.trace import MemorySink, trace_hash

GOLDEN = {
    ("abd", 3): "36d01041f70c90922a1dc79899a87844ee71a3a4da04806ccf227b6dfd98c63c",
    ("abd", 11): "986aa7e941ec4a19ce495b597a792e1f1f1cc22672b9f7d0cf05e19d9f7ff7f9",
    ("fastread", 3): "c24edc47cd89a3f3708e15f32d72e464b11243528bfe0d93d45455df4720cd4b",
    ("fastread", 11): "c377019cacc6c34d00c74f3d91bf2d5614c44b5153221f0d2d60be374addf317",
    ("paxos", 3): "c885cf11fd0c0adbf6c05f48611498d4201339ef25b8083bce4daee9bbe3ce66",
    ("paxos", 11): "b54fdd152dc0c9847f3ee5197cb1309ba923682856dff0ac5d1d2fbbdb74da80",
}

#: (family, multi_writer, seed) -> trace hash of :func:`quorum_abd_trace`.
QUORUM_GOLDEN = {
    ("majority", False, 3): "dafaf4a0db41cde68ac32e0fe5c1ff21d94cc6e47cdbb8ff4f03b22c4da9cbc0",
    ("majority", False, 11): "522f632404539556f2b480c7324222c59c8ef9f6cef88eaf308fae2aa1565470",
    ("majority", True, 3): "d823575cb18157c2d0d223ed4dd3128eb93809377d88326014211125bc9ba47d",
    ("majority", True, 11): "a7da2e8471552b3232c1dc493cc202e0bd2721e503ee72e7c07af125cf52008f",
    ("nonmajority", False, 3): "eba87ffdbe7595af3b316152fa8023114b435431cf7d48c1eb5fe038ba47bf9e",
    ("nonmajority", False, 11): "b4ced584e7024583fcdbce431e19e0b864c50679057b682e6f97d77869875794",
    ("nonmajority", True, 3): "53ccdfcfb2be674a9f0d27ea642ac031b8dfa82ae39d701b3ab068c2b0fea602",
    ("nonmajority", True, 11): "ab83560ed7f5200bc0392db407feaf417c603caaeee7f72a3befabfe9b8c23f5",
}

#: Quorum families for the QuorumAbdNode pins: classical majorities, and
#: a non-majority family whose quorums all contain process 0.
QUORUM_FAMILIES = {
    "majority": majority_family(5),
    "nonmajority": [{0, 1}, {0, 2, 3}, {0, 1, 3, 4}],
}


def abd_trace(node_cls, seed):
    n = 5
    history = History()
    scripts = {
        0: [("write", "a"), ("read",)],
        1: [("pause", 1.0), ("write", "b"), ("read",)],
        2: [("read",), ("pause", 2.0), ("read",)],
    }
    nodes = [
        node_cls(pid, n, scripts.get(pid, []), history=history, multi_writer=True)
        for pid in range(n)
    ]
    sink = MemorySink()
    run_processes(
        nodes,
        seed=seed,
        delay_model=UniformDelay(0.1, 1.5),
        crashes=[CrashAt(pid=4, time=2.0)],
        max_crashes=1,
        sink=sink,
    )
    return trace_hash(sink.events)


def quorum_abd_trace(family, multi_writer, seed):
    """One crash (process 4) over duplicating links; MWMR runs have two
    writers, SWMR runs one."""
    n = 5
    history = History()
    if multi_writer:
        scripts = {
            0: [("write", "a"), ("read",)],
            1: [("pause", 1.0), ("write", "b"), ("read",)],
            2: [("read",), ("pause", 2.0), ("read",)],
        }
    else:
        scripts = {
            0: [("write", "a"), ("pause", 1.0), ("write", "c")],
            1: [("pause", 1.0), ("read",), ("read",)],
            2: [("read",), ("pause", 2.0), ("read",)],
        }
    nodes = [
        QuorumAbdNode(
            pid,
            n,
            QUORUM_FAMILIES[family],
            scripts.get(pid, []),
            history=history,
            multi_writer=multi_writer,
        )
        for pid in range(n)
    ]
    sink = MemorySink()
    run_processes(
        nodes,
        seed=seed,
        delay_model=UniformDelay(0.1, 1.5),
        link_model=DuplicatingLink(0.3),
        crashes=[CrashAt(pid=4, time=2.0)],
        max_crashes=1,
        sink=sink,
    )
    return trace_hash(sink.events)


def paxos_trace(seed):
    nodes = make_paxos(5, list(range(5)))
    sink = MemorySink()
    result = run_processes(
        nodes,
        seed=seed,
        delay_model=UniformDelay(0.1, 2.0),
        failure_detector=OmegaFD(5, tau=2.0),
        sink=sink,
    )
    decided = sorted(set(v for v in result.decided if v is not None))
    return trace_hash(sink.events), decided


class TestAbdSenderDedupIsBehaviorIdentical:
    def test_abd_seed_3(self):
        assert abd_trace(AbdNode, 3) == GOLDEN[("abd", 3)]

    def test_abd_seed_11(self):
        assert abd_trace(AbdNode, 11) == GOLDEN[("abd", 11)]

    def test_fastread_seed_3(self):
        assert abd_trace(FastReadAbdNode, 3) == GOLDEN[("fastread", 3)]

    def test_fastread_seed_11(self):
        assert abd_trace(FastReadAbdNode, 11) == GOLDEN[("fastread", 11)]


class TestPaxosPromiseDedupIsBehaviorIdentical:
    def test_paxos_seed_3(self):
        trace, decided = paxos_trace(3)
        assert trace == GOLDEN[("paxos", 3)]
        assert len(decided) == 1  # agreement, same run as before the fix

    def test_paxos_seed_11(self):
        trace, decided = paxos_trace(11)
        assert trace == GOLDEN[("paxos", 11)]
        assert len(decided) == 1


class TestQuorumAbdSharesAbdHandlers:
    @pytest.mark.parametrize("family,multi_writer,seed", sorted(QUORUM_GOLDEN))
    def test_quorum_abd_trace(self, family, multi_writer, seed):
        assert (
            quorum_abd_trace(family, multi_writer, seed)
            == QUORUM_GOLDEN[(family, multi_writer, seed)]
        )
