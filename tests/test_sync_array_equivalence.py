"""Golden traces of the synchronous runner.

The golden matrix: {flooding, FloodSet, early-stopping} x {clean,
message adversary, mid-send crash} x {ring, torus, random-regular},
plus MIS and Luby on each topology, ring coloring, the TREE adversary,
and an adversary combined with a crash.  Each cell runs
:class:`~repro.sync.kernel.SynchronousRunner` once and asserts two
literals: the run's ``trace_hash`` (the byte-for-byte event stream) and
a SHA-256 of the :class:`~repro.sync.kernel.SyncRunResult` fields
(outputs, decisions, rounds, halts, crashes, message and payload
counters).

The literals were recorded when an independent flat-column
implementation of the same runner reproduced every one of them.

Algorithms that assume a reliable/clean network (coloring, MIS, Luby)
only occupy their valid cells.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sync import run_synchronous
from repro.sync.adversary import BoundedDropAdversary, TreeAdversary
from repro.sync.algorithms import (
    AggregateFlooding,
    ColorToMIS,
    make_early_stopping,
    make_flooders,
    make_floodset,
    make_luby,
    make_ring_colorers,
)
from repro.sync.flatgraph import flat_random_regular
from repro.sync.kernel import CrashEvent
from repro.sync.topology import grid, ring
from repro.trace import MemorySink, trace_hash

TOPOLOGIES = {
    "ring": lambda: ring(9),
    "torus": lambda: grid(3, 4, torus=True),
    "random-regular": lambda: flat_random_regular(10, 3, seed=2).to_topology(),
}

FAULTS = {
    "clean": (None, ()),
    "adversary": (lambda: BoundedDropAdversary(max_drops=2, seed=3), ()),
    "crash": (None, (CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),)),
}

ALGORITHMS = {
    "flooding": lambda n: make_flooders(n, rounds=8),
    "floodset": lambda n: make_floodset(n, t=2),
    "early-stopping": lambda n: make_early_stopping(n, t=2),
}


def result_digest(result):
    """SHA-256 over the compared :class:`SyncRunResult` fields."""
    fields = (
        result.outputs,
        result.decided,
        result.rounds,
        result.halted,
        sorted(result.crashed),
        result.messages_sent,
        result.message_count,
        result.payload_sent,
        result.payload_delivered,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def assert_golden(cell, topo, algorithms, inputs, adversary=None, crashes=()):
    sink = MemorySink()
    result = run_synchronous(
        topo,
        algorithms,
        inputs,
        adversary=adversary,
        crash_schedule=crashes,
        sink=sink,
    )
    assert (trace_hash(sink.events), result_digest(result)) == GOLDEN[cell]


@pytest.mark.parametrize("alg_name", sorted(ALGORITHMS))
@pytest.mark.parametrize("fault_name", sorted(FAULTS))
@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
def test_matrix(alg_name, fault_name, topo_name):
    topo = TOPOLOGIES[topo_name]()
    n = topo.n
    mkadv, crashes = FAULTS[fault_name]
    if alg_name == "flooding":
        inputs = [10 + i for i in range(n)]
    else:
        inputs = [i % 2 for i in range(n)]
    assert_golden(
        f"{alg_name}-{fault_name}-{topo_name}",
        topo,
        ALGORITHMS[alg_name](n),
        inputs,
        mkadv() if mkadv else None,
        crashes,
    )


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
def test_mis_clean(topo_name):
    topo = TOPOLOGIES[topo_name]()
    n = topo.n
    assert_golden(
        f"mis-{topo_name}", topo, [ColorToMIS(pid, n) for pid in range(n)], [None] * n
    )


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
def test_luby_clean(topo_name):
    topo = TOPOLOGIES[topo_name]()
    assert_golden(
        f"luby-{topo_name}", topo, make_luby(topo.n, seed=4), [None] * topo.n
    )


def test_coloring_ring_clean():
    n = 9
    assert_golden("coloring-ring", ring(n), make_ring_colorers(n), [None] * n)


def test_tree_adversary_cell():
    n = 9
    assert_golden(
        "tree-adversary-ring",
        ring(n),
        make_flooders(n, rounds=6),
        list(range(n)),
        adversary=TreeAdversary(seed=5),
    )


def test_adversary_plus_crash():
    topo = grid(3, 4, torus=True)
    n = topo.n
    assert_golden(
        "adversary-plus-crash-torus",
        topo,
        make_flooders(n, rounds=8),
        [10 + i for i in range(n)],
        adversary=BoundedDropAdversary(max_drops=2, seed=3),
        crashes=(CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),),
    )


#: cell -> (trace_hash, result_digest)
GOLDEN = {
    "early-stopping-adversary-random-regular": (
        "4672159ef1e58f073a4628ad89096f67991717dc5891c2dc01461c5d6d4adc86",
        "21e63b6c7a6c4029d2685045405800a6e5325247969c9715af8dd0a4a3c0ec11",
    ),
    "early-stopping-adversary-ring": (
        "8e81ab0446e8f3d0b50dc94ec4f6ec79f10afa78be7b73fe846c501f21209a20",
        "7437762127b7a19dc8acab789479b3a7b72b0eb662af8d49b64791bfcd474c3d",
    ),
    "early-stopping-adversary-torus": (
        "3e5453b80a3932cb1e08ff151e949b9ff9f513eab250b19b9f21d66d939f61be",
        "10e6c41f7659f1b35127a319c3ea93447f0d47ec09a71da261468c5154dfd52c",
    ),
    "early-stopping-clean-random-regular": (
        "134fbbefe81dc27274f2e8960bb7fcad195ce7e22d29cb403f576706101a8269",
        "9086a6f9b058750e2737f3fff877628c30317d0ebe1605db0f734945a646fd00",
    ),
    "early-stopping-clean-ring": (
        "9fc91752f1df01d080feb6f400fa4a068af03788b51e802df11b7c01a6415a41",
        "a740ad78c83f7a4fa40e884167038b758eaec021e97bc2830d1f65d85711f293",
    ),
    "early-stopping-clean-torus": (
        "24ded64ace1ee6c111ba9b7682a37f764031173b7a779f84a788a42f84841590",
        "c0e032dd0493afe8be88c834736e90d7d0ea0157b4b2bbbeb760b556e618d551",
    ),
    "early-stopping-crash-random-regular": (
        "9c7a6b64b41f95b2d0736025ff07668fe1ac26433e2991ac0cf53ab1174f3716",
        "b2140f7d35b8f5f0a4ee27c72a5817b8ed1e9f96f87d77d1911adfbb927587fb",
    ),
    "early-stopping-crash-ring": (
        "c0d78a5e62fb7071e3ceb8e3bcf8b2407a2defb34c5b446531078f39c0dc5417",
        "f552e1dc8626a90e052a161f9d54bab8c768cea34ac07e2da362cbb783598c1e",
    ),
    "early-stopping-crash-torus": (
        "d8e737845ab22eed63b19fe8192bfd36208a0f30ab1606a7d1d63922ee042687",
        "278cd3489b93075a6f2b133f8868f50d1b402ce2c4ac223c3e7d06ec7be2228d",
    ),
    "flooding-adversary-random-regular": (
        "69d15baf5979581f4082ee30f5bdf57978f38915bc267cd15b58ce2035cbc02d",
        "73682a1b6de7009278af64bda3c8f1302db5faba9518d24488ea5b6fa74bc685",
    ),
    "flooding-adversary-ring": (
        "bf359688946f2e813b057c09f09300fbd991a49999c771866e776f1303a5cf7f",
        "7fbdc8c4da9e1bc6c295a2b154b156bd5865f2828302e3c0036c4c633ac998bf",
    ),
    "flooding-adversary-torus": (
        "dbd87a1f72328f0528f0a703138db3ebfbe8b48d8162702023d2874e0e7febfb",
        "0eac77b5501d3077cd33d38e2213edfe10c0f1fe3f8338185eef947e562dbd54",
    ),
    "flooding-clean-random-regular": (
        "4b28b1f99a3687e4b74c9a48f19d23b32b5d72ae7ecff22a803a2ba2d0e980ab",
        "5b3703058b614284dcf958d3227870471f09158f309aab0986b8ada72289ccbf",
    ),
    "flooding-clean-ring": (
        "a4341d1502357d18405045afab2d6201b7f24a8f7f1083c8cee3913675242d91",
        "c76eed8bbb45e39cd4f9d23b5651bfdad653447cd250d507d7b3a5917d4385ae",
    ),
    "flooding-clean-torus": (
        "beb90af1eaecff36fb168f9fe17c0e45ef7ba250cccd7bc6e435f87fefb7af30",
        "2ba5cd563bc486143aaa67ff432bb915477f7f4ef07adf4acd8ccf07ac22c384",
    ),
    "flooding-crash-random-regular": (
        "834313640238e739015564ef7df3c63d84a9dbe74e5e5f6741e77197ae3a550b",
        "8b72ea5e62189a00e67d29deb6dcf839fff4beb8457ec4ceead250f30f72d7d6",
    ),
    "flooding-crash-ring": (
        "cd36a3946200a50fc33e857772de92ff3fac0dada7fcf6dfcc8b4f91cf2c2c96",
        "7e60b01fdabd557e5c427dcd09c572c5440e046535b26eca9868bcc349c4d91a",
    ),
    "flooding-crash-torus": (
        "c663207bfa8aa6d9325b33936b5fc44a0b4a51cec9530009cc268fb868d50dbe",
        "ac635809e1d040fe18b1058ad9e844ef552d1956db48a7b443eee8a81179bc1f",
    ),
    "floodset-adversary-random-regular": (
        "5671d20f699898ccb73b1584b6d9e740602c13472fd5efe05752cdb01901ab8a",
        "d6efd4b7f462c28be2f7eb1e60778df1b03fe6daaf23297baaaf95a3664db6b2",
    ),
    "floodset-adversary-ring": (
        "318f575d86218ce090caeba3a53dc07ade08f59b1086d73b1a1c52c9d6f85e8e",
        "2b81af9193256474675cd5fe2a6da8797cadc41471c93084b60997f72bb50ee1",
    ),
    "floodset-adversary-torus": (
        "16fdb2f5f77263e2011229004e2269d2a835863d2bb70c93015807e453370ece",
        "00305a9614d5d4f5d620203285f6ac5464634ad2f90e98f534ce8b1182691335",
    ),
    "floodset-clean-random-regular": (
        "5b01ed52dc171ab0c3f59862f4d4594b3d6f384b1bf7b6c08a7aec26838fd411",
        "6e04ff58294aca846bd3664feccd974b6979f0cd477cb5e0944de99a2abc9b0f",
    ),
    "floodset-clean-ring": (
        "34209b4bed25a4108c9f032d5e53199647e1e4fc085d4c6db45332be930c655a",
        "9ad2eb841758269d2b09f02d8f1c2c8ce977fe8d5a5840328003211dc22808cf",
    ),
    "floodset-clean-torus": (
        "cd933485338e021d656698644d0b3e63f6abe8eabbd73fa58b9e354a94a2a450",
        "b1a9bbf6c60b8fd364a76aae200ef0da30d0f768069c018a8d223cf13f621106",
    ),
    "floodset-crash-random-regular": (
        "3c6a4b706e82c2b074a7d4a09d71c464808a5a9d7a2518909226249bc708b779",
        "98b18fa3e5918a3964371fe17a8ad60f32ebec7cafa9c31528e1652b2d2ec24f",
    ),
    "floodset-crash-ring": (
        "e73a44dd17261edeec6b62e527ee30dea21a1627af9e7eba2b606506dada2e74",
        "958793f6419b36a7fa6de28f4224c89755dfa94451a897f0689481663dad0457",
    ),
    "floodset-crash-torus": (
        "9d1e278fe3bf4025b93717e7d2644a9265e7fe0bc59ba493998c7c47da002489",
        "5f239c5d5a45912204cb30e9cacd2460cb2101e67266454ca5b3cc5fa1d25cb5",
    ),
    "mis-random-regular": (
        "51a63c1c147d42a3eaf1045edddf14745d88bf6ea43ab0002602b9ec78aed5a8",
        "4396135553c29606250f440b0b3e27db69400228249a67848a83a0975d313dae",
    ),
    "mis-ring": (
        "2f9cd02d2e78d675b2f9c2975b2feff7b5f6ac5ec1d3761ea512f2c870ecb456",
        "a0352c1f32ac5d1df2abc00da7614535d4cd4fdbaf8c3a6e1c115a96d6550a5d",
    ),
    "mis-torus": (
        "f00ec4f33684d4f520d69ab477f6708a42abb7df732212b7fcd30f9b14a9a057",
        "fc8d2d9789da770554da6e493474fb56bad8f04687b3863b0bb674142cf4b572",
    ),
    "luby-random-regular": (
        "f8eab9dee588f1e96fe8369a2a81ed5b8aa0b98f5e8d6367d6d313f9d0726251",
        "76e73347d53627df81f6b994f328fed2f5607531c64d423d623bf0c44270ba9d",
    ),
    "luby-ring": (
        "d9c0ff0861026647865b101501c7679e784a942a33ca4c2d48676a9dc9a36454",
        "d4006925b6a996e860d1805814cb7eb59851d298a2085385ed86e2e4b7080c81",
    ),
    "luby-torus": (
        "7c169d75536bf1f5165be0a4e4704706e7ffe93348de3d25fa8a64bee293b48a",
        "ceb82d4ce996ba67d95b97dca32533d93cf0658c7daa6716d90410fa747902db",
    ),
    "coloring-ring": (
        "68688c6fd0d3b12c76f0c9f1dbba36cd499320aab69892a71630ea4b1bee027f",
        "59d46fb87c61eb7b94e74e3f5e6ee3190b69edb8698d78cdb38132af3bfdfbc3",
    ),
    "tree-adversary-ring": (
        "9fd28f00c03011eecce5f67a116f8a35387981d04ea572a6f6d5baf336124176",
        "1aa9074c8746f9191a6d740e742c46b778e32ef6c7bc4e53eef49de7e3be8fcf",
    ),
    "adversary-plus-crash-torus": (
        "6a1cf7edfa7998dd0d4189efa37e2865647707b27574466f3c2b76067015e704",
        "f0729af513e1ebb37dce0c3a3f48138a37d549b42235da3691b79dde05941b91",
    ),
}


class TestPinnedHashes:
    """Literal golden hashes from the matrix's first release."""

    def _hash(self, **kwargs):
        sink = MemorySink()
        run_synchronous(sink=sink, **kwargs)
        return trace_hash(sink.events)

    def test_flooding_clean_ring(self):
        h = self._hash(
            topology=ring(8),
            algorithms=make_flooders(8, rounds=6),
            inputs=[10 + i for i in range(8)],
        )
        assert h == PINNED["flooding-clean-ring8"]

    def test_flooding_crash_torus(self):
        h = self._hash(
            topology=grid(3, 4, torus=True),
            algorithms=make_flooders(12, rounds=6),
            inputs=[10 + i for i in range(12)],
            crash_schedule=(
                CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),
            ),
        )
        assert h == PINNED["flooding-crash-torus3x4"]

    def test_floodset_adversary_rr(self):
        h = self._hash(
            topology=flat_random_regular(10, 3, seed=2).to_topology(),
            algorithms=make_floodset(10, t=2),
            inputs=[i % 2 for i in range(10)],
            adversary=BoundedDropAdversary(max_drops=2, seed=3),
        )
        assert h == PINNED["floodset-adversary-rr10"]


PINNED = {
    "flooding-clean-ring8": (
        "d08deeab4a4c01dd94f944bf467fdf806bda9eae93b2f4c7695b85d5ba026ab0"
    ),
    "flooding-crash-torus3x4": (
        "e2079c10ea2954d196dfcb71adcec62d0cc3a5b703444d3a132d68b5c24020dc"
    ),
    "floodset-adversary-rr10": (
        "5671d20f699898ccb73b1584b6d9e740602c13472fd5efe05752cdb01901ab8a"
    ),
}


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_pid_relabeling_metamorphic(n, seed, data):
    """Relabeling pids commutes with execution.

    Run min-aggregation flooding on ring(n), then on the pid-relabeled
    ring; outputs must satisfy out'[perm[p]] == out[p] and the global
    observables (rounds, message counts) must be invariant.
    """
    import random

    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    inputs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=999), min_size=n, max_size=n
        )
    )
    base = ring(n)
    rounds = base.diameter()

    relabeled_edges = [(perm[u], perm[v]) for (u, v) in base.edges]
    from repro.sync.topology import Topology

    relabeled = Topology(n, relabeled_edges)
    relabeled_inputs = [None] * n
    for p in range(n):
        relabeled_inputs[perm[p]] = inputs[p]

    def run(topo, ins):
        return run_synchronous(
            topo,
            [AggregateFlooding(rounds=rounds, op="min") for _ in range(n)],
            ins,
        )

    res = run(base, inputs)
    res_p = run(relabeled, relabeled_inputs)

    assert res_p.rounds == res.rounds
    assert res_p.messages_sent == res.messages_sent
    assert res_p.payload_sent == res.payload_sent
    for p in range(n):
        assert res_p.outputs[perm[p]] == res.outputs[p]
        assert res.outputs[p] == min(inputs)
