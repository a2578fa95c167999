"""Oracles for graph construction.

``ref_canonical_edges`` is the per-edge tuple loop that built every graph's
edge set before the validated endpoint arrays became the stored form; the
graphs must give the same edge views, arrays, repr, hash and error texts.

The reference builders below it are the nested per-pair loops that the
vectorized draw (``Xoshiro256StarStar.below``) replaced, kept here in their
original draw order.  The builders must give the same edge sets and leave
the generator at the same point of its stream.
"""

import tracemalloc
import unittest

import numpy as np

from garbagegame.graph import Graph, GraphError, generate_graph, random_connected_graph
from garbagegame.rng import Xoshiro256StarStar, derive_seed

from fresh_python import run_python


def ref_canonical_edges(n, edges):
    """The tuple loop: validate each pair in input order, then keep the set of
    (min, max) tuples."""
    canonical = set()
    for edge in edges:
        u, v = edge
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 1..{n}")
        canonical.add((u, v) if u < v else (v, u))
    return frozenset(canonical)


def ref_arrays(edges):
    """From the edge set: the endpoint arrays, the two orientations (tails, heads),
    and the half-edges (src, dst) sorted by (dst, src), whose src runs are the
    neighbor tuples in the kernels' summation order."""
    eu, ev = np.array(sorted(edges), dtype=np.intp).reshape(-1, 2).T.copy() - 1
    src, dst = np.concatenate((eu, ev)), np.concatenate((ev, eu))
    order = np.lexsort((src, dst))
    return (eu, ev), (src, dst), (src[order], dst[order])


def ref_neighbors(half, n):
    """Each vertex's neighbor tuple, cut from the sorted half-edges."""
    src, dst = half
    stops = np.searchsorted(dst, np.arange(n + 1))
    return [tuple((src[a:b] + 1).tolist()) for a, b in zip(stops, stops[1:])]


def random_pairs(rng, n):
    """Seeded pairs on 1..n: some reversed, and some repeated in both orders."""
    pairs = []
    for _ in range(rng.randrange(3 * n + 1)):
        u, v = 1 + rng.randrange(n), 1 + rng.randrange(n)
        if u != v:
            pairs.append((u, v))
            if rng.random() < 0.2:
                pairs.append((v, u))
    return pairs


def input_forms(pairs):
    """The same pairs as a list, set, generator, tuple and integer arrays."""
    yield "list", list(pairs)
    yield "set", set(pairs)
    yield "generator", (pair for pair in pairs)
    yield "tuple", tuple(pairs)
    if pairs:
        yield "int64 array", np.array(pairs, dtype=np.int64)
        yield "uint16 array", np.array(pairs, dtype=np.uint16)


def ref_erdos_renyi(order, p, seed):
    rng = Xoshiro256StarStar(seed)
    edges = set()
    for u in range(1, order + 1):
        for v in range(u + 1, order + 1):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(order, frozenset(edges))


def ref_random_connected_graph(order, rng, extra_edge_prob=0.3):
    edges = set()
    for v in range(2, order + 1):
        parent = 1 + rng.randrange(v - 1)
        edges.add((parent, v))
    for u in range(1, order + 1):
        for v in range(u + 1, order + 1):
            if rng.random() < extra_edge_prob:
                edges.add((u, v))
    return Graph(order, frozenset(edges))


class TestErdosRenyi(unittest.TestCase):

    def test_matches_pair_loop(self):
        for order in (1, 2, 3, 17, 200):
            for p in (0.0, 0.01, 0.3, 0.5, 1.0):
                for seed in (0, 1, 424242):
                    got = generate_graph("erdos_renyi", order, p, seed)
                    self.assertEqual(got.edges, ref_erdos_renyi(order, p, seed).edges,
                                     msg=(order, p, seed))

    def test_peak_memory_stays_below_a_draw_array(self):
        # The draws are kept only as a boolean mask (one byte per pair), never
        # as the 499500 uint64 or float values (4 MB).  The pair loop peaked at
        # 2.30 MB here (seeds 0, 1, 2), nearly all of it the edge sets; 3 MB
        # leaves room for the 0.5 MB mask but not for a draw array.
        generate_graph("erdos_renyi", 10, 0.5, seed=1)  # warm up imports and caches
        tracemalloc.start()
        try:
            g = generate_graph("erdos_renyi", 1000, 0.01, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.assertEqual(g.edge_count, 5024)
        self.assertLess(peak, 3_000_000)


class TestRandomConnectedGraph(unittest.TestCase):

    def test_matches_pair_loop_and_stream_position(self):
        for order in range(3, 81):
            for prob in (0.3, 0.05):
                seed = derive_seed(2024, order)
                a, b = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
                got = random_connected_graph(order, a, prob)
                want = ref_random_connected_graph(order, b, prob)
                self.assertEqual(got.edges, want.edges, msg=(order, prob))
                self.assertEqual([a.next_uint64() for _ in range(4)],
                                 [b.next_uint64() for _ in range(4)], msg=(order, prob))


class TestGraphMatchesTupleBuild(unittest.TestCase):

    def test_views_arrays_repr_and_hash(self):
        rng = Xoshiro256StarStar(derive_seed(7070, 0))
        for trial in range(300):
            n = 1 + rng.randrange(25)
            pairs = random_pairs(rng, n) if trial % 10 else []
            want = ref_canonical_edges(n, pairs)
            want_ends, want_orientations, _ = ref_arrays(want)
            # the text a tuple-built graph printed for its edges in lexicographic order
            want_repr = f"Graph(n={n}, edges={ref_canonical_edges(n, sorted(want))!r})"
            first = None
            for form, edges in input_forms(pairs):
                g = Graph(n, edges)
                msg = f"trial {trial}, {form}: n={n} pairs={pairs}"
                self.assertEqual(g.edges, want, msg=msg)
                self.assertEqual(g.edge_list, tuple(sorted(want)), msg=msg)
                self.assertEqual(g.edge_count, len(want), msg=msg)
                for got, ref in zip(g._ends + g._orientations, want_ends + want_orientations):
                    self.assertEqual(got.dtype, np.intp, msg=msg)
                    self.assertEqual(got.tobytes(), ref.tobytes(), msg=msg)
                self.assertEqual(repr(g), want_repr, msg=msg)
                self.assertEqual(hash(g), hash((n, want)), msg=msg)
                first = first or g
                self.assertEqual(g, first, msg=msg)

    def test_neighbors_follow_the_lexsort_order(self):
        # neighbors(v) reads the orientations whose head is v in stored order; the
        # half-edges sorted by (dst, src) give each vertex's neighbors ascending
        rng = Xoshiro256StarStar(derive_seed(7070, 2))
        graphs = [random_connected_graph(80, rng) for _ in range(8)]
        graphs += [generate_graph("erdos_renyi", 1000, 0.01, seed=seed) for seed in range(2)]
        graphs += [generate_graph(kind, n) for kind in ("cycle", "complete", "star") for n in (1, 2, 3, 40)]
        for g in graphs:
            _, want_orientations, want_half = ref_arrays(g.edge_list)
            msg = f"n={g.n} edges={g.edge_count}"
            for got, ref in zip(g._orientations, want_orientations):
                self.assertEqual(got.dtype, np.intp, msg=msg)
                self.assertEqual(got.tobytes(), ref.tobytes(), msg=msg)
            want = ref_neighbors(want_half, g.n)
            self.assertEqual([g.neighbors(v) for v in range(1, g.n + 1)], want, msg=msg)
            self.assertEqual([g.degree(v) for v in range(1, g.n + 1)], list(map(len, want)), msg=msg)

    def test_first_bad_pair_gives_the_tuple_loop_error(self):
        rng = Xoshiro256StarStar(derive_seed(7070, 1))
        for trial in range(200):
            n = 2 + rng.randrange(10)
            pairs = random_pairs(rng, n)
            for _ in range(1 + rng.randrange(3)):
                u = 1 + rng.randrange(n)
                bad = (u, u) if rng.random() < 0.5 else (u, [0, -1, n + 1][rng.randrange(3)])
                pairs.insert(rng.randrange(len(pairs) + 1), bad[::-1] if rng.random() < 0.5 else bad)
            with self.assertRaises(GraphError) as want:
                ref_canonical_edges(n, pairs)
            for edges in (list(pairs), (pair for pair in pairs), np.array(pairs)):  # forms with an input order
                msg = f"trial {trial}, {type(edges).__name__}: {pairs}"
                with self.assertRaises(GraphError, msg=msg) as got:
                    Graph(n, edges)
                self.assertEqual(str(got.exception), str(want.exception), msg=msg)

    def test_equality_is_by_class_order_and_edge_set(self):
        class Subgraph(Graph):
            pass

        g = Graph(4, [(1, 2), (3, 2)])
        self.assertEqual(g, Graph(4, np.array([[2, 3], [2, 1], [1, 2]])))
        self.assertEqual(len({g, Graph(4, {(2, 1), (2, 3)})}), 1)
        self.assertNotEqual(g, Graph(5, [(1, 2), (2, 3)]))
        self.assertNotEqual(g, Graph(4, [(1, 2)]))
        self.assertNotEqual(g, (4, g.edges))
        self.assertNotEqual(g, Subgraph(4, g.edges))

    def test_is_immutable(self):
        g = Graph(3, [(1, 2)])
        with self.assertRaises(AttributeError):
            g.n = 2
        with self.assertRaises(AttributeError):
            g.edges = frozenset()
        self.assertEqual((g.n, g.edges), (3, frozenset({(1, 2)})))

    def test_arrays_are_read_only(self):
        # a write into the endpoint arrays would change degrees, neighbors and
        # the kernels while the cached edges, edge_list and hash kept the old set
        for g in (Graph(4, [(1, 2), (3, 4)]), generate_graph("erdos_renyi", 30, 0.2, seed=3)):
            views = (g.edges, g.edge_list, hash(g))
            for a in (*g._ends, *g._orientations, g._degree_array):
                with self.assertRaises(ValueError):
                    a[1] = 0
            self.assertEqual((g.edges, g.edge_list, hash(g)), views)
            self.assertEqual(g.degrees, tuple(sum(v in e for e in g.edges) for v in range(1, g.n + 1)))
            self.assertEqual(g._degree_array.dtype, np.intp)
            self.assertEqual(g._degree_array.tolist(), list(g.degrees))
            for v in range(1, g.n + 1):
                self.assertEqual(g.neighbors(v), tuple(sorted(u for e in g.edges if v in e for u in e if u != v)))

    def test_generation_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma, which costs about a megabyte of resident memory
        code = ("import sys; from garbagegame.graph import generate_graph; "
                "generate_graph('erdos_renyi', 50, p=0.3); print('numpy.ma' in sys.modules)")
        proc = run_python("-c", code)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.strip(), "False")


if __name__ == "__main__":
    unittest.main()
