"""Tests for the message-passing FLP explorer (paper §2.4, §5.1)."""

import pytest

from repro.core import ConfigurationError, SimulationLimitExceeded
from repro.amp.consensus import (
    EagerMinConsensus,
    MessageProtocolExplorer,
    UnanimityConsensus,
)
from repro.amp.consensus.flp import NOT_DECIDED, MessageProtocol


class TestExplorerMechanics:
    def test_counts_configurations(self):
        report = MessageProtocolExplorer(UnanimityConsensus(2), (0, 1), t=0).explore()
        assert report.configurations == 4

    def test_t_zero_has_no_crash_branches(self):
        with_crashes = MessageProtocolExplorer(
            UnanimityConsensus(2), (0, 1), t=1
        ).explore()
        without = MessageProtocolExplorer(
            UnanimityConsensus(2), (0, 1), t=0
        ).explore()
        assert with_crashes.configurations > without.configurations

    def test_truncation_reported(self):
        # A verdict on part of the graph would not be sound: over budget,
        # the explorer raises instead of reporting.
        with pytest.raises(SimulationLimitExceeded):
            MessageProtocolExplorer(
                UnanimityConsensus(3), (0, 1, 1), t=1, max_configurations=10
            ).explore()

    def test_t_validated(self):
        with pytest.raises(ConfigurationError):
            MessageProtocolExplorer(UnanimityConsensus(2), (0, 1), t=5)


class TestDichotomy:
    """FLP: a terminating protocol is unsafe; a safe one doesn't terminate."""

    @pytest.mark.parametrize("n,inputs", [(2, (0, 1)), (3, (0, 1, 1))])
    def test_eager_min_violates_agreement(self, n, inputs):
        report = MessageProtocolExplorer(
            EagerMinConsensus(n, 1), inputs, t=1
        ).explore()
        assert not report.safe
        assert report.agreement_violation is not None

    def test_eager_min_safe_without_crashes_n3(self):
        """With t=0 deliveries always complete views enough?  No — even
        crash-free, delivery ORDER alone splits the first-two views."""
        report = MessageProtocolExplorer(
            EagerMinConsensus(3, 1), (0, 1, 1), t=0
        ).explore()
        # The n-t threshold fires on different 2-subsets: still unsafe.
        assert not report.safe

    def test_eager_min_equal_inputs_safe(self):
        report = MessageProtocolExplorer(
            EagerMinConsensus(2, 1), (1, 1), t=1
        ).explore()
        assert report.safe

    @pytest.mark.parametrize("n,inputs", [(2, (0, 1)), (3, (0, 1, 1))])
    def test_unanimity_is_safe_but_stuck_under_crash(self, n, inputs):
        report = MessageProtocolExplorer(
            UnanimityConsensus(n), inputs, t=1
        ).explore()
        assert report.safe
        assert report.stuck_configurations > 0
        assert not report.always_terminates

    def test_unanimity_terminates_without_crashes(self):
        report = MessageProtocolExplorer(
            UnanimityConsensus(2), (0, 1), t=0
        ).explore()
        assert report.safe
        assert report.always_terminates

    def test_bivalent_initial_configuration_exists(self):
        """The FLP Lemma-2 ingredient, found by exhaustive valence."""
        report = MessageProtocolExplorer(
            EagerMinConsensus(2, 1), (0, 1), t=1
        ).explore()
        assert report.initial_bivalent

    def test_equal_inputs_univalent(self):
        report = MessageProtocolExplorer(
            EagerMinConsensus(2, 1), (0, 0), t=1
        ).explore()
        assert not report.initial_bivalent
        assert report.decision_values == {0}


class TestCustomProtocol:
    def test_explorer_drives_arbitrary_protocols(self):
        class EchoOnce(MessageProtocol):
            name = "echo"

            def __init__(self, n):
                self.n = n

            def initial_state(self, pid, input_value):
                return ("wait", input_value)

            def initial_messages(self, pid, state):
                return [((pid + 1) % self.n, state[1])]

            def on_message(self, pid, state, src, payload):
                return ("done", payload), []

            def decision(self, pid, state):
                return state[1] if state[0] == "done" else NOT_DECIDED

        report = MessageProtocolExplorer(EchoOnce(2), ("a", "b"), t=0).explore()
        assert report.decision_values == {"a", "b"}
        assert report.always_terminates
