"""Bitwise oracle for the vectorized isoperimetric number.

The reference function below is the per-mask loop that the subset
recurrence replaced, kept here verbatim.  The recurrence must give the same
float bit for bit (``float.hex`` equality), not merely within a tolerance:
``spectral`` prints it with every digit.
"""

import tracemalloc
import unittest

from garbagegame.graph import Graph, generate_graph
from garbagegame.rng import Xoshiro256StarStar, derive_seed
from garbagegame.spectral import isoperimetric_number

ORACLE_MAX_ORDER = 16  # the loop takes ~40 ms at n = 16 and doubles per vertex


def seeded_connected_graph(n, rng, prob):
    """A random recursive tree plus each vertex pair with probability prob, drawn as
    graph.random_connected_graph draws them (which fixes prob at 0.3)."""
    tree = [(1 + rng.randrange(v - 1), v) for v in range(2, n + 1)]
    return Graph(n, tree + [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < prob])


def ref_isoperimetric_number(g):
    """Every mask's boundary by a bit loop, kept by exact rational comparison."""
    n = g.n
    nbr_mask = [0] * n
    eu, ev = g._ends
    for u, v in zip(eu.tolist(), ev.tolist()):
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    full = (1 << n) - 1
    half = n // 2
    best_num = 1  # ratio +inf sentinel replaced on first candidate
    best_den = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > half:
            continue
        complement = full ^ mask
        boundary = 0
        bits = mask
        while bits:
            lsb = bits & -bits
            bits ^= lsb
            boundary += (nbr_mask[lsb.bit_length() - 1] & complement).bit_count()
        # keep the smaller of boundary/size vs best_num/best_den, exactly
        if boundary * best_den < best_num * size:
            best_num, best_den = boundary, size
    return best_num / best_den


class TestRecurrenceMatchesLoop(unittest.TestCase):

    def assert_same_bits(self, g, msg):
        got = isoperimetric_number(g)
        self.assertIs(type(got), float, msg=msg)
        self.assertEqual(got.hex(), ref_isoperimetric_number(g).hex(), msg=msg)
        return got

    def test_families(self):
        for n in range(2, 15):
            for kind in ("path", "complete", "star") + (("cycle",) if n >= 3 else ()):
                self.assert_same_bits(generate_graph(kind, n), f"{kind}:{n}")

    def test_seeded_random_connected_graphs(self):
        for n in range(2, ORACLE_MAX_ORDER + 1):
            for k, prob in enumerate((0.05, 0.3, 0.6, 0.9)):
                rng = Xoshiro256StarStar(derive_seed(6060, 100 * n + k))
                g = seeded_connected_graph(n, rng, prob)
                self.assert_same_bits(g, f"n={n} prob={prob} edges={g.edge_count}")

    def test_disconnected_inputs_are_zero(self):
        two_components = [
            Graph(4, frozenset({(1, 2), (3, 4)})),
            Graph(7, frozenset({(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)})),
        ]
        isolated = [
            Graph(3, frozenset({(1, 2)})),
            Graph(9, frozenset({(u, v) for u in range(1, 7) for v in range(u + 1, 7)})),
        ]
        edgeless = [Graph(n) for n in range(2, 12)]
        for g in two_components + isolated + edgeless:
            msg = f"n={g.n} edges={sorted(g.edges)}"
            self.assertEqual(self.assert_same_bits(g, msg), 0.0, msg=msg)


class TestPeakMemory(unittest.TestCase):

    def test_complete_graph_at_the_cap(self):
        # K20 has the largest cut (10 x 10 = 100 edges) and the largest
        # boundary-plus-degree (100 + 19) of any graph within the cap, so a
        # uint8 wrap would show in the value.  The uint8 boundary and size
        # arrays are 1 MB each, the uint32 masks and their AND with the last
        # vertex's neighbours 2 MB each (7.1 MB peak); 8 MB leaves no room
        # for a float64 ratio array over all subsets (8.4 MB).
        isoperimetric_number(generate_graph("complete", 4))  # warm up imports and caches
        g = generate_graph("complete", 20)
        tracemalloc.start()
        try:
            value = isoperimetric_number(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.assertEqual(value, 10.0)
        self.assertLess(peak, 8_000_000)


if __name__ == "__main__":
    unittest.main()
