"""Generalized quorum systems: registers under process adversaries
(§5.1 × §5.4 — the paper's "quorums vs anti-quorums" remark, executed).

ABD uses *majority* quorums because it assumes the uniform ``t < n/2``
adversary.  Under a non-uniform process adversary (§5.4) the right
generalization is a **quorum system**: a family of sets such that

* **liveness**  — every survivor set of the adversary contains a quorum
  (so some quorum always answers);
* **safety**    — any two quorums intersect (so a reader's quorum meets
  the latest writer's quorum).

The cores/survivor-sets duality provides canonical candidates: the
adversary's survivor sets themselves are live by construction, and they
form a *safe* quorum system exactly when they pairwise intersect.

:class:`QuorumAbdNode` is ABD parameterized by an explicit quorum family
instead of a count.  :func:`is_safe_quorum_system` /
:func:`is_live_quorum_system` check the two conditions, and the tests
show both directions: intersecting families give linearizable registers
under every adversary scenario; non-intersecting ones stay live but
split-brain — found by the checker.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence, Set

from ..core.exceptions import ConfigurationError
from ..core.history import History
from ..core.model import ProcessAdversarySpec
from .abd import AbdNode

QuorumFamily = FrozenSet[FrozenSet[int]]


def normalize_family(family: Iterable[Iterable[int]]) -> QuorumFamily:
    """Freeze a quorum family into a canonical frozenset-of-frozensets."""
    return frozenset(frozenset(q) for q in family)


def is_safe_quorum_system(family: Iterable[Iterable[int]]) -> bool:
    """Safety: every pair of quorums intersects."""
    quorums = list(normalize_family(family))
    if not quorums:
        return False
    for i, a in enumerate(quorums):
        for b in quorums[i + 1 :]:
            if not a & b:
                return False
    return True


def is_live_quorum_system(
    family: Iterable[Iterable[int]], adversary: ProcessAdversarySpec
) -> bool:
    """Liveness under the adversary: every survivor set contains a quorum."""
    quorums = normalize_family(family)
    if not quorums:
        return False
    for survivors in adversary.survivor_sets:
        if not any(quorum <= survivors for quorum in quorums):
            return False
    return True


def majority_family(n: int) -> QuorumFamily:
    """All minimal majorities — recovers classical ABD."""
    import itertools

    size = n // 2 + 1
    return frozenset(
        frozenset(c) for c in itertools.combinations(range(n), size)
    )


class QuorumAbdNode(AbdNode):
    """ABD with an explicit quorum family.

    A phase completes when the responder set contains a full quorum of
    the family (instead of reaching a count): the one override is
    :meth:`_quorum_reached`, and the reply and ack handlers are ABD's.
    With a safe family this preserves atomicity; with a live family it
    preserves termination under the corresponding adversary.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        quorum_family: Iterable[Iterable[int]],
        script: Sequence = (),
        history: Optional[History] = None,
        multi_writer: bool = False,
        register_name: str = "R",
    ) -> None:
        super().__init__(
            pid,
            n,
            script,
            quorum_size=1,  # unused; completion is family-based
            history=history,
            multi_writer=multi_writer,
            register_name=register_name,
        )
        self.family = normalize_family(quorum_family)
        if not self.family:
            raise ConfigurationError("quorum family must be non-empty")
        for quorum in self.family:
            if any(not 0 <= member < n for member in quorum):
                raise ConfigurationError(
                    f"quorum {sorted(quorum)} names processes outside 0..{n - 1}"
                )

    def _quorum_reached(self, responders: Set[int]) -> bool:
        return any(quorum <= responders for quorum in self.family)
