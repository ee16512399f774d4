"""Communication graphs for the synchronous LOCAL model (paper §3.1).

The synchronous system is an undirected connected graph ``G = (V, E)``:
vertices are reliable sequential processes, edges are reliable
bidirectional channels.  This module provides an adjacency-list
:class:`Topology` plus constructors for the standard graph families used
in the locality literature (ring, path, complete, star, balanced tree,
grid/torus, Erdős–Rényi) and the graph-theoretic utilities the
algorithms need (diameter, BFS distances, spanning trees, connectivity).

Pure-Python implementations are used throughout so the package has no
hard dependency on networkx; graphs here are at laptop scale.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.exceptions import ConfigurationError

Edge = Tuple[int, int]


def _canonical(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Topology:
    """An undirected graph on vertices ``0..n-1`` with adjacency queries."""

    def __init__(self, n: int, edges: Iterable[Edge], name: str = "graph") -> None:
        if n < 1:
            raise ConfigurationError(f"a topology needs n >= 1 vertices, got {n}")
        self.n = n
        self.name = name
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        self._edges: Set[Edge] = set()
        # BFS distance maps and the diameter are recomputed by every
        # flooding benchmark per seed; cache them, invalidated on any
        # mutation (see _invalidate_caches).
        self._distance_cache: Dict[int, Tuple[Optional[int], ...]] = {}
        self._diameter_cache: Optional[int] = None
        self._csr_cache: Optional[Tuple[array, array]] = None
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction ------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge {u, v}."""
        if u == v:
            raise ConfigurationError(f"self-loop at vertex {u} not allowed")
        for w in (u, v):
            if not 0 <= w < self.n:
                raise ConfigurationError(
                    f"vertex {w} outside 0..{self.n - 1} in edge ({u},{v})"
                )
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edges.add(_canonical(u, v))
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        """Drop memoized distances/diameter/CSR after any graph mutation."""
        self._distance_cache.clear()
        self._diameter_cache = None
        self._csr_cache = None

    # -- queries -------------------------------------------------------------

    def neighbors(self, u: int) -> FrozenSet[int]:
        """The neighbor set of vertex ``u``."""
        return frozenset(self._adj[u])

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def max_degree(self) -> int:
        """Δ(G), the maximum degree."""
        return max((len(a) for a in self._adj), default=0)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """All edges as canonical (min, max) pairs."""
        return frozenset(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _canonical(u, v) in self._edges

    def csr(self) -> Tuple[array, array]:
        """The adjacency in CSR form: ``(indptr, indices)`` arrays.

        Vertex ``u``'s neighbors are ``indices[indptr[u]:indptr[u+1]]``,
        sorted ascending.  This is the layout the columnar engine
        (:mod:`repro.sync.arraykernel`) executes against.  Memoized
        until the graph mutates (same policy as the distance/diameter
        caches); callers must treat the arrays as read-only.
        """
        if self._csr_cache is not None:
            return self._csr_cache
        indptr = array("l", [0] * (self.n + 1))
        indices = array("l")
        offset = 0
        for u in range(self.n):
            row = sorted(self._adj[u])
            indices.extend(row)
            offset += len(row)
            indptr[u + 1] = offset
        self._csr_cache = (indptr, indices)
        return self._csr_cache

    def vertices(self) -> range:
        return range(self.n)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    # -- graph algorithms ----------------------------------------------------

    def bfs_distances(self, source: int) -> List[Optional[int]]:
        """Hop distances from ``source``; ``None`` for unreachable vertices.

        Memoized per source until the graph mutates; a fresh list is
        returned on every call so callers can't corrupt the cache.
        """
        cached = self._distance_cache.get(source)
        if cached is not None:
            return list(cached)
        dist = self._bfs(source)
        self._distance_cache[source] = tuple(dist)
        return dist

    def _bfs(self, source: int) -> List[Optional[int]]:
        dist: List[Optional[int]] = [None] * self.n
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in self._adj[u]:
                    if dist[v] is None:
                        dist[v] = dist[u] + 1  # type: ignore[operator]
                        nxt.append(v)
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        """True when the graph is connected (the model requires it)."""
        if self.n == 1:
            return True
        return all(d is not None for d in self.bfs_distances(0))

    def diameter(self) -> int:
        """The diameter D of the graph (max over all BFS eccentricities).

        Memoized until the graph mutates (flooding benchmarks ask for D
        once per run over an unchanged graph).
        """
        if self._diameter_cache is not None:
            return self._diameter_cache
        if not self.is_connected():
            raise ConfigurationError("diameter undefined: graph is disconnected")
        best = 0
        for source in range(self.n):
            # Raw BFS on purpose: memoizing all n sources here would cost
            # O(n²) memory on big graphs for a single scalar answer.
            distances = self._bfs(source)
            best = max(best, max(d for d in distances if d is not None))
        self._diameter_cache = best
        return best

    def is_complete(self) -> bool:
        return len(self._edges) == self.n * (self.n - 1) // 2

    def spanning_tree_edges(self, root: int = 0) -> FrozenSet[Edge]:
        """A BFS spanning tree rooted at ``root`` (graph must be connected)."""
        if not self.is_connected():
            raise ConfigurationError("spanning tree needs a connected graph")
        seen = {root}
        tree: Set[Edge] = set()
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in sorted(self._adj[u]):
                    if v not in seen:
                        seen.add(v)
                        tree.add(_canonical(u, v))
                        nxt.append(v)
            frontier = nxt
        return frozenset(tree)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology({self.name!r}, n={self.n}, m={len(self._edges)})"


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------


def ring(n: int) -> Topology:
    """The n-cycle — the graph of the Cole–Vishkin coloring result (§3.2)."""
    if n < 3:
        raise ConfigurationError(f"a ring needs n >= 3 vertices, got {n}")
    return Topology(n, [(i, (i + 1) % n) for i in range(n)], name=f"ring-{n}")


def path(n: int) -> Topology:
    """The n-vertex path (diameter n-1, the worst case for flooding)."""
    if n < 2:
        raise ConfigurationError(f"a path needs n >= 2 vertices, got {n}")
    return Topology(n, [(i, i + 1) for i in range(n - 1)], name=f"path-{n}")


def complete(n: int) -> Topology:
    """K_n — required by the TOUR adversary (§3.3)."""
    if n < 2:
        raise ConfigurationError(f"a complete graph needs n >= 2 vertices, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Topology(n, edges, name=f"complete-{n}")


def star(n: int) -> Topology:
    """A star with center 0 (diameter 2)."""
    if n < 2:
        raise ConfigurationError(f"a star needs n >= 2 vertices, got {n}")
    return Topology(n, [(0, i) for i in range(1, n)], name=f"star-{n}")


def balanced_tree(branching: int, height: int) -> Topology:
    """A complete ``branching``-ary tree of the given height."""
    if branching < 1 or height < 0:
        raise ConfigurationError("balanced tree needs branching >= 1, height >= 0")
    count = 1
    layer = 1
    for _ in range(height):
        layer *= branching
        count += layer
    edges: List[Edge] = []
    for child in range(1, count):
        parent = (child - 1) // branching
        edges.append((parent, child))
    return Topology(count, edges, name=f"tree-{branching}x{height}")


def grid(rows: int, cols: int, torus: bool = False) -> Topology:
    """A rows×cols grid, optionally with wraparound (torus)."""
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid needs rows >= 1 and cols >= 1")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            elif torus and cols > 2:
                edges.append((vid(r, c), vid(r, 0)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            elif torus and rows > 2:
                edges.append((vid(r, c), vid(0, c)))
    kind = "torus" if torus else "grid"
    return Topology(rows * cols, edges, name=f"{kind}-{rows}x{cols}")


def random_connected(n: int, p: float, rng: Optional[random.Random] = None) -> Topology:
    """An Erdős–Rényi G(n, p) graph, re-sampled / patched until connected.

    If the sampled graph is disconnected, a spanning set of bridging edges
    is added (keeping the result close to G(n, p) for reasonable ``p``).
    """
    if n < 2:
        raise ConfigurationError(f"random graph needs n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"edge probability must be in [0,1], got {p}")
    rng = rng or random.Random(0)
    edges: Set[Edge] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    topo = Topology(n, edges, name=f"gnp-{n}-{p}")
    # Patch connectivity: link each unreachable component to vertex 0's.
    while not topo.is_connected():
        dist = topo.bfs_distances(0)
        unreachable = [v for v in range(n) if dist[v] is None]
        reachable = [v for v in range(n) if dist[v] is not None]
        topo.add_edge(rng.choice(reachable), rng.choice(unreachable))
    return topo


def random_spanning_tree(
    topology: Topology, rng: random.Random
) -> FrozenSet[Edge]:
    """A uniform-ish random spanning tree via randomized BFS/DFS hybrid.

    Used by the TREE message adversary to change the tree every round.
    """
    root = rng.randrange(topology.n)
    seen = {root}
    tree: Set[Edge] = set()
    frontier = [root]
    while frontier:
        u = frontier.pop(rng.randrange(len(frontier)))
        candidates = [v for v in topology.neighbors(u) if v not in seen]
        rng.shuffle(candidates)
        for v in candidates:
            if v not in seen:
                seen.add(v)
                tree.add(_canonical(u, v))
                frontier.append(v)
        # u may still have unseen neighbors later; re-add if any remain.
        if any(v not in seen for v in topology.neighbors(u)):
            frontier.append(u)
    if len(seen) != topology.n:
        raise ConfigurationError("random_spanning_tree requires a connected graph")
    return frozenset(tree)
