"""Search strategies: how the explorer walks the configuration graph.

* :class:`BFS` — breadth-first: shortest counterexample schedules,
  frontier can be wide;
* :class:`DFS` — depth-first: small frontier, long schedules first;
* :class:`RandomWalk` — seeded random schedules: not exhaustive, but
  cheap coverage of deep interleavings (the probabilistic face of the
  same adversary the exhaustive modes quantify over).

BFS and DFS share the engine's sleep-set/dedup machinery; a strategy is
just the frontier discipline plus its budgets.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.exceptions import ConfigurationError


class Strategy:
    """Base class; see the engine for how each mode is executed."""

    name = "strategy"

    def __init__(
        self,
        max_states: int = 1_000_000,
        max_depth: Optional[int] = None,
    ) -> None:
        if max_states < 1:
            raise ConfigurationError("max_states must be >= 1")
        if max_depth is not None and max_depth < 0:
            raise ConfigurationError("max_depth must be >= 0")
        self.max_states = max_states
        self.max_depth = max_depth


class BFS(Strategy):
    """Exhaustive breadth-first search (minimal-length counterexamples)."""

    name = "bfs"


class DFS(Strategy):
    """Exhaustive depth-first search (memory-lean frontier)."""

    name = "dfs"


class RandomWalk(Strategy):
    """``walks`` seeded random schedules of length ≤ ``max_depth`` each.

    Not exhaustive: completing without a violation proves nothing.
    Useful as a cheap prefilter and for states/sec measurements.
    """

    name = "random-walk"

    def __init__(
        self,
        walks: int = 100,
        max_depth: int = 200,
        seed: int = 0,
        max_states: int = 1_000_000,
    ) -> None:
        if max_depth is None:
            raise ConfigurationError("a random walk needs a max_depth")
        super().__init__(max_states=max_states, max_depth=max_depth)
        if walks < 1:
            raise ConfigurationError("walks must be >= 1")
        self.walks = walks
        self.seed = seed

    def rng(self) -> random.Random:
        return random.Random(self.seed)
