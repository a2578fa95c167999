"""Undirected simple social graphs: construction, parsing, generation, queries.

Vertices are the integers 1..n.  Edges are unordered pairs stored canonically
as (min, max) tuples.  The numeric kernels read one array form, built once per
graph: 0-based endpoint arrays ``eu < ev`` in lexicographic edge order, and the
half-edges ``(src, dst, edge id)`` sorted by ``(dst, src)``.  These orders are
the summation-order contract: a per-vertex sum over the half-edges ascends in
neighbor id, and an energy sum runs sequentially in edge order, so every
result is reproducible to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .rng import Xoshiro256StarStar

GRAPH_KINDS = ("path", "cycle", "star", "complete", "erdos_renyi")


class GraphError(ValueError):
    """Invalid graph structure or unparsable edge-list input."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 1..n.

    ``edges`` may be given as any iterable of vertex pairs; it is normalised
    to a frozenset of (min, max) tuples.  Self-loops and out-of-range
    endpoints are rejected.
    """

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {self.n!r}")
        canonical = set()
        for edge in self.edges:
            u, v = edge
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 1..{self.n}")
            canonical.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(canonical))

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Edges in canonical (lexicographic) order."""
        return tuple(sorted(self.edges))

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based endpoint arrays eu < ev, one entry per edge in lexicographic order."""
        return tuple(np.array(self.edge_list, dtype=np.intp).reshape(-1, 2).T.copy() - 1)

    @cached_property
    def _half_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Half-edges (src, dst, edge id), two per edge, sorted by (dst, src)."""
        eu, ev = self._ends
        ids = np.arange(eu.size)
        src, dst, eid = np.concatenate((eu, ev)), np.concatenate((ev, eu)), np.concatenate((ids, ids))
        order = np.lexsort((src, dst))
        return src[order], dst[order], eid[order]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not (1 <= v <= self.n):
            raise GraphError(f"vertex {v} outside 1..{self.n}")
        src, dst, _ = self._half_edges
        lo, hi = np.searchsorted(dst, (v - 1, v))
        return tuple((src[lo:hi] + 1).tolist())

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.bincount(np.concatenate(self._ends), minlength=self.n).tolist())

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.n else 0


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format into a Graph.

    Format: optional '#' comment lines, then a header line ``n <count>``,
    then one ``<u> <v>`` line per edge.  Blank lines are ignored.  Raises
    GraphError with a line number for malformed lines, out-of-range ids,
    self-loops, and duplicate edges (in either order).
    """
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise GraphError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
            if n < 1:
                raise GraphError(f"line {lineno}: vertex count must be positive, got {n}")
            continue
        if len(tokens) != 2:
            raise GraphError(f"line {lineno}: expected '<u> <v>', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphError(f"line {lineno}: vertex id outside 1..{n}")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise GraphError(f"line {lineno}: duplicate edge ({u}, {v})")
        edges.add(key)
    if n is None:
        raise GraphError("missing header line 'n <count>'")
    return Graph(n, frozenset(edges))


def render_edge_list(g: Graph) -> str:
    """Canonical renderer for the edge-list format; inverse of parse_edge_list."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list)
    return "\n".join(lines) + "\n"


def generate_graph(kind: str, order: int, p: float | None = None, seed: int = 0) -> Graph:
    """Generate a canonical-family or Erdos-Renyi graph.

    Args:
        kind: one of 'path', 'cycle', 'star', 'complete', 'erdos_renyi'.
        order: number of vertices (>= 1).
        p: edge probability, required for (and only valid for) 'erdos_renyi'.
        seed: PRNG seed, used only by 'erdos_renyi'.

    The result is deterministic for fixed (kind, order, p, seed): the
    Erdos-Renyi variant makes one uniform draw per vertex pair in
    lexicographic order and keeps the edge when the draw is below p.
    Vertex 1 is the center of 'star'.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise GraphError(f"order must be a positive integer, got {order!r}")
    if kind != "erdos_renyi" and p is not None:
        raise GraphError(f"edge probability is only valid for erdos_renyi, not {kind!r}")
    if kind == "path":
        edges = {(i, i + 1) for i in range(1, order)}
    elif kind == "cycle":
        edges = {(i, i + 1) for i in range(1, order)}
        if order >= 3:
            edges.add((1, order))
    elif kind == "star":
        edges = {(1, k) for k in range(2, order + 1)}
    elif kind == "complete":
        edges = {(u, v) for u in range(1, order + 1) for v in range(u + 1, order + 1)}
    elif kind == "erdos_renyi":
        if p is None:
            raise GraphError("erdos_renyi requires an edge probability p")
        if not (0.0 <= p <= 1.0):
            raise GraphError(f"edge probability must be in [0, 1], got {p}")
        edges = _pairs_below(order, Xoshiro256StarStar(seed), p)
    else:
        raise GraphError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    return Graph(order, frozenset(edges))


def _pairs_below(order: int, rng: Xoshiro256StarStar, p: float) -> list[tuple[int, int]]:
    """The vertex pairs (u, v), u < v, whose draw is below p: one draw per pair
    in lexicographic pair order, the next order*(order-1)/2 of the stream."""
    index = np.flatnonzero(rng.below(order * (order - 1) // 2, p))
    row_len = np.arange(order - 1, 0, -1)  # pairs (u, .) for u = 1..order-1
    row_start = np.cumsum(row_len) - row_len
    u = np.searchsorted(row_start, index, side="right")  # 1-based
    v = index - row_start[u - 1] + u + 1
    return list(zip(u.tolist(), v.tolist()))


def random_connected_graph(order: int, rng: Xoshiro256StarStar, extra_edge_prob: float = 0.3) -> Graph:
    """Random connected graph: a random recursive tree plus independent extra
    edges with the given probability."""
    edges = set()
    for v in range(2, order + 1):
        parent = 1 + rng.randrange(v - 1)
        edges.add((parent, v))
    edges.update(_pairs_below(order, rng, extra_edge_prob))
    return Graph(order, frozenset(edges))


def random_connected_nonstar_graph(order: int, rng: Xoshiro256StarStar) -> Graph:
    """Connected non-star instance; resamples until the star shape is avoided."""
    if order < 3:
        raise ValueError("non-star instances need at least 3 vertices")
    for _ in range(1000):
        g = random_connected_graph(order, rng)
        if not is_star(g):
            return g
    raise RuntimeError("failed to sample a non-star graph")  # pragma: no cover


def connected_components(n: int, edges: Iterable[tuple[int, int]]) -> list[frozenset[int]]:
    """Connected components of the graph on 1..n with the given edges, in order
    of their smallest vertex; isolated vertices are singletons."""
    root = list(range(n + 1))  # union by smaller root: a component's root is its smallest vertex
    for u, v in edges:
        while root[u] != u:
            root[u] = u = root[root[u]]  # path halving
        while root[v] != v:
            root[v] = v = root[root[v]]
        root[max(u, v)] = min(u, v)
    members: dict[int, list[int]] = {}
    for a in range(1, n + 1):
        r = a
        while root[r] != r:
            r = root[r]
        members.setdefault(r, []).append(a)
    return [frozenset(vs) for vs in members.values()]


def is_connected(g: Graph) -> bool:
    """True iff every vertex pair is joined by a path; a single vertex counts."""
    return len(connected_components(g.n, g.edge_list)) == 1


def is_star(g: Graph) -> bool:
    """True iff g is a star: one center adjacent to every other vertex, all
    other degrees 1.

    A single edge on two vertices is a star; a single vertex is not.
    """
    if g.n < 2:
        return False
    degs = g.degrees
    center_count = sum(1 for d in degs if d == g.n - 1)
    leaf_count = sum(1 for d in degs if d == 1)
    if g.n == 2:
        return center_count == 2  # one edge: both endpoints have degree 1 = n-1
    return center_count == 1 and leaf_count == g.n - 1


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as an integer matrix (row sums zero)."""
    L = np.diag(np.array(g.degrees, dtype=np.int64))
    eu, ev = g._ends
    L[eu, ev] = -1
    L[ev, eu] = -1
    return L
