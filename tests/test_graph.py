import itertools
import unittest

import numpy as np

from garbagegame.graph import (
    MAX_ORDER,
    Graph,
    GraphError,
    generate_graph,
    is_connected,
    is_star,
    laplacian,
    parse_edge_list,
    render_edge_list,
)
from garbagegame.rng import Xoshiro256StarStar

# frozen golden for the seeded generator; recorded once and pinned
ER_8_05_42 = frozenset(
    {(1, 2), (1, 3), (2, 7), (3, 4), (4, 7), (4, 8), (5, 6), (5, 8), (6, 7), (6, 8)}
)


class TestGraphType(unittest.TestCase):

    def test_edges_canonicalized(self):
        g = Graph(3, frozenset({(2, 1), (3, 2)}))
        self.assertEqual(g.edges, frozenset({(1, 2), (2, 3)}))

    def test_rejects_self_loop(self):
        with self.assertRaises(GraphError):
            Graph(3, frozenset({(2, 2)}))

    def test_rejects_out_of_range(self):
        with self.assertRaises(GraphError):
            Graph(3, frozenset({(1, 4)}))
        with self.assertRaises(GraphError):
            Graph(3, frozenset({(0, 2)}))

    def test_rejects_non_integer_endpoints(self):
        # (1.5, 2) used to be truncated to the edge (1, 2)
        for edges in ([(1.5, 2)], np.array([[1.0, 2.0]]), [("1", "2")]):
            with self.assertRaisesRegex(GraphError, "integer vertex pairs", msg=repr(edges)):
                Graph(3, edges)

    def test_rejects_bool_endpoints(self):
        # np.asarray turned (True, 2) into the edge (1, 2), though no vertex id may be True
        for edges, row in (([(True, 2)], (True, 2)), ([(1, 2), [np.True_, 3]], [np.True_, 3]),
                           ({(2, False)}, (2, False)), ([np.array([1, 3]), (np.False_, 2)], (np.False_, 2))):
            with self.assertRaises(GraphError, msg=repr(edges)) as ctx:
                Graph(3, edges)
            self.assertEqual(str(ctx.exception), f"edge {row!r} has a bool endpoint; endpoints must be integers")
        for edges in ([(True, False)], np.array([[True, False]])):  # all-bool pairs keep a bool dtype
            with self.assertRaisesRegex(GraphError, "integer vertex pairs, got shape \\(1, 2\\), dtype bool"):
                Graph(3, edges)
        self.assertEqual(Graph(3, [(np.int64(1), 2), np.array([1, 3])]).edge_list, ((1, 2), (1, 3)))

    def test_rejects_rows_that_are_not_pairs(self):
        # a (2, 3) array is two rows of three, not three pairs
        not_pairs = ([(1, 2, 3)], [(1, 2), (2, 3, 1)], [(1, 2), (3,)], [()], np.array([1, 2]), [[1, 2, 3], [1, 2, 3]])
        for edges in not_pairs:
            with self.assertRaisesRegex(GraphError, "integer vertex pairs", msg=repr(edges)):
                Graph(3, edges)

    def test_rejects_nonpositive_order(self):
        with self.assertRaises(GraphError):
            Graph(0)
        with self.assertRaises(GraphError):
            Graph(-2)

    def test_rejects_bool_order(self):
        # bool is an int subclass; Graph(True) would be a one-vertex graph with n = True
        with self.assertRaisesRegex(GraphError, "vertex count must be a positive integer"):
            Graph(True)

    def test_order_bound_keeps_edge_keys_in_int64(self):
        # the largest edge key, (n - 2)·n + (n - 1) of the edge (n - 1, n), must fit in int64;
        # one order more used to wrap it: Graph(n + 1, [(n, n + 1)]) read a negative vertex id
        n = MAX_ORDER
        self.assertLessEqual(n * n - n - 1, 2**63 - 1)
        self.assertGreater((n + 1) * (n + 1) - (n + 1) - 1, 2**63 - 1)
        text = f"n {n}\n1 {n}\n{n - 1} {n}\n"
        g = parse_edge_list(text)
        self.assertEqual(g.edge_list, ((1, n), (n - 1, n)))
        self.assertEqual(render_edge_list(g), text)
        with self.assertRaisesRegex(GraphError, f"vertex count {n + 1} exceeds {n}"):
            Graph(n + 1, [(n, n + 1)])
        with self.assertRaisesRegex(GraphError, f"vertex count {n + 1} exceeds {n}"):
            parse_edge_list(f"n {n + 1}\n{n} {n + 1}\n")

    def test_degree_sum_is_twice_edge_count(self):
        rng = Xoshiro256StarStar(5)
        for _ in range(50):
            n = 2 + rng.randrange(10)
            edges = set()
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if rng.random() < 0.4:
                        edges.add((u, v))
            g = Graph(n, frozenset(edges))
            self.assertEqual(sum(g.degree(v) for v in range(1, n + 1)), 2 * g.edge_count)

    def test_neighbors(self):
        g = Graph(4, frozenset({(1, 2), (2, 3), (2, 4)}))
        self.assertEqual(g.neighbors(2), (1, 3, 4))
        self.assertEqual(g.neighbors(1), (2,))
        self.assertEqual(g.neighbors(4), (2,))
        self.assertEqual(g.max_degree, 3)

    def test_vertex_ids_must_be_integers(self):
        # a float id was truncated, silently missed or sent to numpy indexing
        g = Graph(4, frozenset({(1, 2), (2, 3), (2, 4)}))
        for query in (g.neighbors, g.degree):
            for v in (1.5, 2.0, np.float64(2.0), True, "2", None):
                with self.assertRaises(GraphError) as ctx:
                    query(v)
                self.assertEqual(str(ctx.exception), f"vertex {v!r} is not an integer")
            for v in (np.int64(2), np.uint8(2), np.intp(2)):  # numpy integer ids keep working
                self.assertEqual(query(v), query(2))

    def test_edge_list_is_lexicographic(self):
        g = Graph(5, frozenset({(4, 5), (1, 3), (1, 2), (2, 5)}))
        self.assertEqual(g.edge_list, ((1, 2), (1, 3), (2, 5), (4, 5)))


class TestParseEdgeList(unittest.TestCase):

    def test_basic(self):
        g = parse_edge_list("n 3\n1 2\n2 3")
        self.assertEqual(g, Graph(3, frozenset({(1, 2), (2, 3)})))

    def test_self_loop_rejected(self):
        with self.assertRaisesRegex(GraphError, "line 2"):
            parse_edge_list("n 3\n1 1")

    def test_duplicate_rejected(self):
        with self.assertRaisesRegex(GraphError, "line 3"):
            parse_edge_list("n 2\n1 2\n1 2")

    def test_duplicate_reversed_rejected(self):
        with self.assertRaisesRegex(GraphError, "duplicate"):
            parse_edge_list("n 2\n1 2\n2 1")

    def test_comments_and_blank_lines(self):
        text = "# social graph\n\nn 3\n# edges follow\n1 2\n\n2 3\n"
        g = parse_edge_list(text)
        self.assertEqual(g.edges, frozenset({(1, 2), (2, 3)}))

    def test_missing_header(self):
        with self.assertRaises(GraphError):
            parse_edge_list("1 2\n2 3")
        for text, message in (("# no graph\n\n", "missing header line 'n <count>'"),
                              ("n x\n1 2", "line 1: vertex count 'x' is not an integer"),
                              ("# c\nn 0\n", "line 2: vertex count must be positive, got 0")):
            with self.assertRaises(GraphError, msg=text) as ctx:
                parse_edge_list(text)
            self.assertEqual(str(ctx.exception), message)

    def test_malformed_line(self):
        with self.assertRaisesRegex(GraphError, "line 2"):
            parse_edge_list("n 3\n1 2 3")
        with self.assertRaises(GraphError):
            parse_edge_list("n 3\nx y")

    def test_out_of_range_vertex(self):
        with self.assertRaisesRegex(GraphError, "line 2"):
            parse_edge_list("n 3\n1 7")

    def test_round_trip(self):
        g = generate_graph("erdos_renyi", 9, p=0.4, seed=17)
        self.assertEqual(parse_edge_list(render_edge_list(g)), g)

    def test_round_trip_no_edges(self):
        g = Graph(4)
        self.assertEqual(parse_edge_list(render_edge_list(g)), g)


class TestGenerateGraph(unittest.TestCase):

    def test_star_of_order_6(self):
        g = generate_graph("star", 6)
        self.assertEqual(g.edges, frozenset({(1, k) for k in range(2, 7)}))

    def test_complete_3(self):
        g = generate_graph("complete", 3)
        self.assertEqual(g.edges, frozenset({(1, 2), (1, 3), (2, 3)}))

    def test_path_and_cycle(self):
        p = generate_graph("path", 4)
        self.assertEqual(p.edges, frozenset({(1, 2), (2, 3), (3, 4)}))
        c = generate_graph("cycle", 4)
        self.assertEqual(c.edges, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))

    def test_erdos_renyi_golden(self):
        g = generate_graph("erdos_renyi", 8, p=0.5, seed=42)
        self.assertEqual(g.edges, ER_8_05_42)

    def test_referential_transparency(self):
        for kind in ("path", "cycle", "star", "complete"):
            self.assertEqual(generate_graph(kind, 7), generate_graph(kind, 7))
        a = generate_graph("erdos_renyi", 10, p=0.3, seed=9)
        b = generate_graph("erdos_renyi", 10, p=0.3, seed=9)
        self.assertEqual(a, b)

    def test_bad_inputs(self):
        with self.assertRaises(GraphError):
            generate_graph("path", 0)
        with self.assertRaises(GraphError):
            generate_graph("erdos_renyi", 5, p=1.5, seed=0)
        with self.assertRaises(GraphError):
            generate_graph("erdos_renyi", 5, p=-0.1, seed=0)
        with self.assertRaises(GraphError):
            generate_graph("wheel", 5)
        with self.assertRaisesRegex(GraphError, "^edge probability is only valid for erdos_renyi, not 'path'$"):
            generate_graph("path", 4, p=0.5)
        with self.assertRaisesRegex(GraphError, "^erdos_renyi requires an edge probability p$"):
            generate_graph("erdos_renyi", 5)

    def test_rejects_bool_order(self):
        with self.assertRaisesRegex(GraphError, "order must be a positive integer"):
            generate_graph("path", True)

    def test_degenerate_cycle_orders(self):
        # the closing edge coincides with the path edge; set semantics absorb it
        self.assertEqual(generate_graph("cycle", 2), Graph(2, frozenset({(1, 2)})))
        self.assertEqual(generate_graph("cycle", 1), Graph(1))


class TestStructureQueries(unittest.TestCase):

    def test_is_connected(self):
        self.assertTrue(is_connected(generate_graph("path", 3)))
        self.assertFalse(is_connected(Graph(2)))
        self.assertTrue(is_connected(generate_graph("star", 6)))
        self.assertTrue(is_connected(Graph(1)))
        self.assertFalse(is_connected(Graph(4, frozenset({(1, 2), (3, 4)}))))

    def test_is_star(self):
        self.assertTrue(is_star(generate_graph("star", 6)))
        self.assertFalse(is_star(generate_graph("complete", 3)))
        # P3 has degree sequence (1, 2, 1), i.e. a two-leaf star
        self.assertTrue(is_star(generate_graph("path", 3)))
        self.assertFalse(is_star(Graph(1)))
        self.assertTrue(is_star(Graph(2, frozenset({(1, 2)}))))
        self.assertFalse(is_star(Graph(2)))
        self.assertFalse(is_star(generate_graph("path", 4)))
        self.assertFalse(is_star(generate_graph("cycle", 4)))

    def test_is_star_matches_the_counting_rule(self):
        def counting_rule(g):  # one vertex of degree n - 1, the other n - 1 of degree 1
            if g.n < 2:
                return False
            center_count = sum(1 for d in g.degrees if d == g.n - 1)
            leaf_count = sum(1 for d in g.degrees if d == 1)
            if g.n == 2:
                return center_count == 2  # one edge: both endpoints have degree 1 = n-1
            return center_count == 1 and leaf_count == g.n - 1

        graphs = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for picks in itertools.product((False, True), repeat=len(pairs)):
                g = Graph(n, frozenset(itertools.compress(pairs, picks)))
                self.assertEqual(is_star(g), counting_rule(g), msg=sorted(g.edges))
                graphs += 1
        self.assertEqual(graphs, 1099)  # every labelled graph with n <= 5

    def test_star_implies_connected(self):
        rng = Xoshiro256StarStar(31)
        for _ in range(200):
            n = 1 + rng.randrange(9)
            edges = set()
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if rng.random() < 0.3:
                        edges.add((u, v))
            g = Graph(n, frozenset(edges))
            if is_star(g):
                self.assertTrue(is_connected(g))


class TestLaplacian(unittest.TestCase):

    def test_k2(self):
        L = laplacian(Graph(2, frozenset({(1, 2)})))
        np.testing.assert_array_equal(L, [[1, -1], [-1, 1]])

    def test_p3(self):
        L = laplacian(generate_graph("path", 3))
        np.testing.assert_array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_c4(self):
        L = laplacian(generate_graph("cycle", 4))
        self.assertTrue(np.array_equal(np.diag(L), [2, 2, 2, 2]))
        for row in L:
            self.assertEqual(sorted(row), [-1, -1, 0, 2])

    def test_annihilates_constant_vector_exactly(self):
        rng = Xoshiro256StarStar(77)
        for _ in range(30):
            n = 2 + rng.randrange(12)
            edges = set()
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if rng.random() < 0.5:
                        edges.add((u, v))
            L = laplacian(Graph(n, frozenset(edges)))
            ones = np.ones(n, dtype=np.int64)
            self.assertTrue(np.all(L @ ones == 0))
            self.assertTrue(np.all(L.T @ ones == 0))


if __name__ == "__main__":
    unittest.main()
