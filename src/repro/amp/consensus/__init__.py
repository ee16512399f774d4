"""Consensus in ``AMP_{n,t}`` and the four routes around FLP (paper §5.3).

* :mod:`repro.amp.consensus.flp` — the impossibility, executed;
* :mod:`repro.amp.consensus.benor` — randomization;
* :mod:`repro.amp.consensus.condition` — restricted input vectors;
* :mod:`repro.amp.consensus.omega` — the weakest failure detector Ω;
* :mod:`repro.amp.consensus.paxos` — Paxos with Ω as leader service.

(The second route — restricting asynchrony — lives in the network layer:
:class:`~repro.amp.network.PartialSynchronyDelay` plus
:class:`~repro.amp.failure_detectors.HeartbeatOmega` *implement* Ω from
partial synchrony.)
"""

from ... import _exports

_EXPORTS = {
    "benor": ("BOT", "BenOrProcess", "make_benor"),
    "chandra_toueg": ("ChandraTouegProcess", "make_chandra_toueg"),
    "condition": (
        "Condition", "ConditionConsensusProcess", "c_frequency_condition",
        "c_max_condition", "make_condition_consensus",
    ),
    "flp": (
        "EagerMinConsensus", "MessageExplorationReport", "MessageProtocol",
        "MessageProtocolExplorer", "UnanimityConsensus",
    ),
    "omega": (
        "OmegaConsensusComponent", "OmegaConsensusProcess", "make_omega_consensus",
    ),
    "paxos": ("PaxosNode", "make_paxos"),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
