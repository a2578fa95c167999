"""Undirected simple social graphs: construction, parsing, generation, queries.

Vertices are the integers 1..n.  A graph stores its edges once, validated at
construction, as 0-based endpoint arrays ``eu < ev`` in lexicographic edge
order; the (min, max) tuples of ``edge_list`` and ``edges`` are derived on
demand.  The kernels read the arrays and the edges' two orientations, tails
``eu ++ ev`` to heads ``ev ++ eu``.  These orders are the summation-order
contract: summed over the orientations in stored order, a vertex hears first
from its lower neighbors (edges (u, v), ascending u), then from its higher
ones (edges (v, w), ascending w), so in ascending neighbor id; an energy sum
runs sequentially in edge order.  Every result is reproducible to the bit.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from .rng import Xoshiro256StarStar

GRAPH_KINDS = ("path", "cycle", "star", "complete", "erdos_renyi")
MAX_ORDER = 3_037_000_500  # the largest n whose edge keys (u - 1)·n + (v - 1), at most n·n - n - 1, fit in int64


class GraphError(ValueError):
    """Invalid graph structure or unparsable edge-list input."""


def _vertex_ids(vertices: Iterable[int], n: int) -> list[int]:
    """The given vertex ids as ints, in order: at least one, each an integer (a numpy
    integer too, but not a bool) in 1..n.  GraphError names the first that is not."""
    ids = []
    for v in vertices:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise GraphError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= n:
            raise GraphError(f"vertex {v} outside 1..{n}")
        ids.append(int(v))
    if not ids:
        raise GraphError("vertex set must be nonempty")
    return ids


class Graph:
    """Immutable undirected simple graph on vertices 1..n, equal by class and edge set.

    ``edges``: any iterable of vertex pairs or an (m, 2) integer array.  Pairs
    are normalised to (min, max) and repeats merged; self-loops, out-of-range
    or non-integer endpoints, and rows that are not pairs are rejected.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {n!r}")
        if n > MAX_ORDER:
            raise GraphError(f"vertex count {n} exceeds {MAX_ORDER}, the largest whose edge keys fit in int64")
        try:  # an empty iterable is 0 x 2
            pairs = np.asarray(rows := edges if isinstance(edges, np.ndarray) else list(edges) or np.empty((0, 2), int))
        except ValueError:  # rows of unequal length
            raise GraphError("edges must be integer vertex pairs, got rows of unequal length") from None
        if pairs.ndim != 2 or pairs.shape[1] != 2 or not np.issubdtype(pairs.dtype, np.integer):
            raise GraphError(f"edges must be integer vertex pairs, got shape {pairs.shape}, dtype {pairs.dtype}")
        # np.asarray reads a bool as 1 or 0, so an integer array of pairs may hide one
        if not isinstance(edges, np.ndarray) and (flagged := [r for r in rows if {bool, np.bool_} & set(map(type, r))]):
            raise GraphError(f"edge {flagged[0]!r} has a bool endpoint; endpoints must be integers")
        lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
        if (bad := (lo == hi) | (lo < 1) | (hi > n)).any():
            a, b = pairs[np.argmax(bad)].tolist()  # the first bad pair in input order
            raise GraphError(f"self-loop at vertex {a}" if a == b else f"edge ({a}, {b}) has an endpoint outside 1..{n}")
        # stable: perfbench peak_rss_mb read ~0.1 MB more with the default sort (certify 30.8 -> 30.9 MB)
        keys = np.sort((lo.astype(np.intp) - 1) * n + (hi.astype(np.intp) - 1), kind="stable")
        ends = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)  # repeated pairs merged
        for a in ends:  # the cached views and orientations are derived from these
            a.setflags(write=False)
        vars(self).update(n=n, _ends=ends)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.n == other.n and all(map(np.array_equal, self._ends, other._ends))

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Edges as (min, max) tuples in lexicographic order."""
        return tuple(zip((self._ends[0] + 1).tolist(), (self._ends[1] + 1).tolist()))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as (min, max) tuples, set-built in lexicographic order so that repr depends on the set alone."""
        return frozenset(set(self.edge_list))

    @cached_property
    def _orientations(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (tails, heads) of the edges' two orientations: eu -> ev in edge order, then ev -> eu."""
        eu, ev = self._ends
        both = np.concatenate((eu, ev)), np.concatenate((ev, eu))
        for a in both:
            a.setflags(write=False)
        return both

    @property
    def edge_count(self) -> int:
        return int(self._ends[0].size)

    def neighbors(self, v: int) -> tuple[int, ...]:
        (v,) = _vertex_ids((v,), self.n)
        tails, heads = self._orientations
        return tuple((tails[heads == v - 1] + 1).tolist())  # ascending: the summation order

    def degree(self, v: int) -> int:
        (v,) = _vertex_ids((v,), self.n)
        return int(self._degree_array[v - 1])

    @cached_property
    def _degree_array(self) -> np.ndarray:
        """Vertex degrees as a read-only intp array, vertex v at index v - 1."""
        deg = np.bincount(np.concatenate(self._ends), minlength=self.n)
        deg.setflags(write=False)
        return deg

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self._degree_array.tolist())

    @property
    def max_degree(self) -> int:
        return max(self.degrees)


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
    return Graph(n, edges)


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
    return Graph(order, edges)


def _pairs_below(order: int, rng: Xoshiro256StarStar, p: float) -> np.ndarray:
    """The vertex pairs (u, v), u < v, whose draw is below p, as rows: one draw per
    pair in lexicographic pair order, the next order*(order-1)/2 of the stream."""
    index = np.flatnonzero(rng.below(order * (order - 1) // 2, p))
    row_len = np.arange(order - 1, 0, -1)  # pairs (u, .) for u = 1..order-1
    row_start = np.cumsum(row_len) - row_len
    u = np.searchsorted(row_start, index, side="right")  # 1-based
    v = index - row_start[u - 1] + u + 1
    return np.column_stack((u, v))


def random_connected_graph(order: int, rng: Xoshiro256StarStar) -> Graph:
    """Random connected graph: a random recursive tree plus independent extra
    edges, each pair with probability 0.3."""
    parents = np.array([1 + rng.randrange(v - 1) for v in range(2, order + 1)], dtype=np.intp)
    tree = np.column_stack((parents, np.arange(2, order + 1)))
    return Graph(order, np.concatenate((tree, _pairs_below(order, rng, 0.3))))


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Connected components of g in order of their smallest vertex; isolated vertices are singletons."""
    root = list(range(g.n + 1))  # union by smaller root: a component's root is its smallest vertex
    for u, v in g.edge_list:
        while root[u] != u:
            root[u] = u = root[root[u]]  # path halving
        while root[v] != v:
            root[v] = v = root[root[v]]
        root[max(u, v)] = min(u, v)
    members: dict[int, list[int]] = {}
    for a in range(1, g.n + 1):
        r = a
        while root[r] != r:
            r = root[r]
        members.setdefault(r, []).append(a)
    return [frozenset(vs) for vs in members.values()]


def is_connected(g: Graph) -> bool:
    """True iff every vertex pair is joined by a path; a single vertex counts."""
    return len(connected_components(g)) == 1


def is_star(g: Graph) -> bool:
    """True iff g is a star: one center adjacent to every other vertex, all
    other degrees 1.

    A single edge on two vertices is a star; a single vertex is not.
    """
    return g.n >= 2 and sorted(g.degrees) == [1] * (g.n - 1) + [g.n - 1]


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as an integer matrix (row sums zero)."""
    L = np.diag(g._degree_array.astype(np.int64))
    eu, ev = g._ends
    L[eu, ev] = -1
    L[ev, eu] = -1
    return L
