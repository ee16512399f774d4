"""Unit tests for the columnar engine, and its parity with the
per-process runner."""

import pytest

from repro.core.exceptions import (
    ConfigurationError,
    ModelViolation,
    SimulationLimitExceeded,
)
from repro.sync import run_synchronous
from repro.sync.adversary import BoundedDropAdversary
from repro.sync.arraykernel import (
    ColumnarAlgorithm,
    ColumnarRunner,
    run_columnar,
)
from repro.sync.algorithms import (
    ColumnarAggregateFlooding,
    make_aggregate_flooders,
)
from repro.sync.flatgraph import flat_random_regular, flat_ring, flat_torus
from repro.sync.kernel import CrashEvent


class Chatterbox(ColumnarAlgorithm):
    """Broadcasts forever; never halts.  For limit tests."""

    def setup(self, eng):
        eng.broadcast(0, "hi")

    def on_round(self, eng, src, dst, payloads):
        eng.broadcast(0, "hi")


class Scripted(ColumnarAlgorithm):
    """Runs a list of (method, args) actions in setup, then halts all."""

    def __init__(self, actions):
        self.actions = actions

    def setup(self, eng):
        for method, args in self.actions:
            getattr(eng, method)(*args)

    def on_round(self, eng, src, dst, payloads):
        eng.halt_all()


class TestColumnarValidation:
    def test_send_to_non_neighbor_rejected(self):
        g = flat_ring(6)
        alg = Scripted([("send", (0, 3, "x"))])
        with pytest.raises(ModelViolation, match="non-neighbor"):
            ColumnarRunner(g, alg, [None] * 6).run()

    def test_send_after_halt_rejected(self):
        g = flat_ring(6)
        alg = Scripted([("halt", (0,)), ("send", (0, 1, "x"))])
        with pytest.raises(ModelViolation, match="halting"):
            ColumnarRunner(g, alg, [None] * 6).run()

    def test_validate_off_skips_neighbor_check(self):
        g = flat_ring(6)
        alg = Scripted([("send", (0, 3, "x"))])
        result = ColumnarRunner(g, alg, [None] * 6, validate_sends=False).run()
        assert result.messages_sent == 1

    def test_double_decide_rejected(self):
        g = flat_ring(6)
        alg = Scripted([("decide", (2, "a")), ("decide", (2, "b"))])
        with pytest.raises(ModelViolation, match="decided twice"):
            ColumnarRunner(g, alg, [None] * 6).run()

    def test_input_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="inputs"):
            ColumnarRunner(flat_ring(6), Chatterbox(), [None] * 5)

    def test_duplicate_crash_pid(self):
        with pytest.raises(ConfigurationError, match="crashes twice"):
            ColumnarRunner(
                flat_ring(6),
                Chatterbox(),
                [None] * 6,
                crash_schedule=(
                    CrashEvent(pid=1, round=1),
                    CrashEvent(pid=1, round=2),
                ),
            )

    @pytest.mark.parametrize("pid", [-1, 6])
    def test_crash_pid_out_of_range(self, pid):
        with pytest.raises(ConfigurationError, match="out of range"):
            ColumnarRunner(
                flat_ring(6),
                Chatterbox(),
                [None] * 6,
                crash_schedule=(CrashEvent(pid=pid, round=1),),
            )

    def test_crash_round_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="start at 1"):
            ColumnarRunner(
                flat_ring(6),
                Chatterbox(),
                [None] * 6,
                crash_schedule=(CrashEvent(pid=1, round=0),),
            )

    def test_max_rounds_enforced(self):
        with pytest.raises(SimulationLimitExceeded):
            ColumnarRunner(
                flat_ring(6), Chatterbox(), [None] * 6, max_rounds=5
            ).run()


class TestColumnarSemantics:
    def test_halt_is_idempotent_and_decide_all_skips_halted(self):
        g = flat_ring(5)

        class H(ColumnarAlgorithm):
            def setup(self, eng):
                eng.halt(0)
                eng.halt(0)
                eng.decide_all(["d"] * 5)
                eng.halt_all()

            def on_round(self, eng, src, dst, payloads):
                pass

        result = ColumnarRunner(g, H(), [None] * 5).run()
        assert result.outputs == [None, "d", "d", "d", "d"]
        assert result.halted == [True] * 5

    def test_crashed_decide_and_halt_are_noops(self):
        g = flat_ring(5)

        class C(ColumnarAlgorithm):
            def on_round(self, eng, src, dst, payloads):
                if eng.round >= 2:
                    eng.decide(1, "late")  # pid 1 crashed in round 1
                    eng.halt(1)
                    eng.decide_all([str(p) for p in range(5)])
                    eng.halt_all()

        result = ColumnarRunner(
            g, C(), [None] * 5, crash_schedule=(CrashEvent(pid=1, round=1),)
        ).run()
        assert result.crashed == frozenset({1})
        assert result.outputs[1] is None
        assert result.outputs[0] == "0"

    def test_aggregate_min_on_ring(self):
        g = flat_ring(12)
        inputs = [(7 * i + 3) % 29 for i in range(12)]
        result = run_columnar(
            g,
            ColumnarAggregateFlooding(rounds=6, op="min"),
            inputs,
            max_rounds=100,
        )
        assert result.outputs == [min(inputs)] * 12
        assert result.rounds == 6

    def test_aggregate_max_on_torus(self):
        g = flat_torus(4, 5)
        inputs = list(range(g.n))
        result = run_columnar(
            g,
            ColumnarAggregateFlooding(rounds=g.radius_bound(), op="max"),
            inputs,
            max_rounds=200,
        )
        assert result.outputs == [g.n - 1] * g.n

    def test_change_propagation_beats_full_flooding(self):
        """Re-broadcast-on-change sends far fewer messages than every
        process re-flooding every round."""
        n, rounds = 64, 32
        g = flat_ring(n)
        inputs = [5] * n
        inputs[0] = 0
        result = run_columnar(
            g, ColumnarAggregateFlooding(rounds=rounds, op="min"), inputs
        )
        full = n * 2 * rounds  # every process re-broadcasting every round
        assert result.messages_sent < full / 4


GRAPHS = {
    "ring": lambda: flat_ring(12),
    "torus": lambda: flat_torus(3, 4),
    "random-regular": lambda: flat_random_regular(10, 3, seed=2),
}

FAULTS = {
    "clean": (None, ()),
    "adversary": (lambda: BoundedDropAdversary(2, seed=3), ()),
    "crash": (None, (CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),)),
}


class TestColumnarMatchesPerProcessRunner:
    """``ColumnarAggregateFlooding`` on the columnar engine and
    ``AggregateFlooding`` on the per-process runner agree on every
    result field and counter.  Trace hashes are not compared: under a
    crash the two engines emit the same run at different granularity."""

    @pytest.mark.parametrize("op", ["min", "max"])
    @pytest.mark.parametrize("fault_name", sorted(FAULTS))
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_aggregate_flooding(self, graph_name, fault_name, op):
        graph = GRAPHS[graph_name]()
        n = graph.n
        rounds = graph.radius_bound()
        inputs = [(7 * i + 3) % 29 for i in range(n)]
        mkadv, crashes = FAULTS[fault_name]

        def faults():
            return {
                "adversary": mkadv() if mkadv else None,
                "crash_schedule": crashes,
            }

        columnar = run_columnar(
            graph, ColumnarAggregateFlooding(rounds, op), inputs, **faults()
        )
        per_process = run_synchronous(
            graph.to_topology(),
            make_aggregate_flooders(n, rounds, op),
            inputs,
            **faults(),
        )
        for name in (
            "outputs",
            "decided",
            "rounds",
            "halted",
            "crashed",
            "messages_sent",
            "message_count",
            "payload_sent",
            "payload_delivered",
        ):
            assert getattr(columnar, name) == getattr(per_process, name), name
