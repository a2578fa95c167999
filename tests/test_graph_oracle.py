"""Oracle for the graph builders that draw one value per vertex pair.

The reference functions below are the nested per-pair loops that the
vectorized draw (``Xoshiro256StarStar.below``) replaced, kept here in their
original draw order.  The builders must give the same edge sets and leave
the generator at the same point of its stream.
"""

import tracemalloc
import unittest

from garbagegame.graph import Graph, generate_graph, random_connected_graph
from garbagegame.rng import Xoshiro256StarStar, derive_seed


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


if __name__ == "__main__":
    unittest.main()
