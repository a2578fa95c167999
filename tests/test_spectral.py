import itertools
import math
import unittest

import numpy as np

from garbagegame.dynamics import GarbageState, Threshold
from garbagegame.graph import Graph, generate_graph, laplacian, random_connected_graph
from garbagegame.rng import Xoshiro256StarStar, derive_seed
from garbagegame.spectral import (
    ISOPERIMETRIC_MAX_ORDER,
    cheeger_check,
    isoperimetric_number,
    lambda2,
    nontrivial_displacement_bound,
)

C4 = generate_graph("cycle", 4)
K2 = Graph(2, frozenset({(1, 2)}))


def brute_force_isoperimetric(g):
    """Independent oracle: scan all subsets via itertools, no bit tricks."""
    vertices = range(1, g.n + 1)
    best = math.inf
    for size in range(1, g.n // 2 + 1):
        for subset in itertools.combinations(vertices, size):
            inside = set(subset)
            boundary = sum(
                1 for (u, v) in g.edges if (u in inside) != (v in inside)
            )
            best = min(best, boundary / size)
    return best


class TestLambda2(unittest.TestCase):

    def test_goldens(self):
        self.assertAlmostEqual(lambda2(C4), 2.0, delta=1e-10)
        self.assertAlmostEqual(lambda2(K2), 2.0, delta=1e-10)
        self.assertAlmostEqual(lambda2(generate_graph("star", 6)), 1.0, delta=1e-10)

    def test_analytic_families(self):
        for n in range(2, 13):
            self.assertAlmostEqual(lambda2(generate_graph("complete", n)),
                                   float(n) if n > 1 else 0.0, delta=1e-9)
            self.assertAlmostEqual(lambda2(generate_graph("path", n)),
                                   2.0 * (1.0 - math.cos(math.pi / n)), delta=1e-9)
        for n in range(3, 13):
            self.assertAlmostEqual(lambda2(generate_graph("cycle", n)),
                                   2.0 * (1.0 - math.cos(2.0 * math.pi / n)), delta=1e-9)

    def test_disconnected_is_zero(self):
        self.assertEqual(lambda2(Graph(3, frozenset({(1, 2)}))), 0.0)
        self.assertEqual(lambda2(Graph(2)), 0.0)

    def test_single_vertex_rejected(self):
        with self.assertRaises(ValueError):
            lambda2(Graph(1))

    def test_trace_identity(self):
        # sum of Laplacian eigenvalues equals twice the edge count
        rng = Xoshiro256StarStar(41)
        for _ in range(25):
            n = 2 + rng.randrange(11)
            g = random_connected_graph(n, rng)
            eigs = np.linalg.eigvalsh(laplacian(g).astype(np.float64))
            self.assertAlmostEqual(float(eigs.sum()), 2.0 * g.edge_count, delta=1e-8)

    def test_lambda2_of_squared_laplacian(self):
        rng = Xoshiro256StarStar(43)
        for _ in range(20):
            n = 2 + rng.randrange(9)
            g = random_connected_graph(n, rng)
            L = laplacian(g).astype(np.float64)
            lam = lambda2(g)
            lam_sq = float(np.linalg.eigvalsh(L @ L)[1])
            self.assertAlmostEqual(lam_sq, lam * lam, delta=1e-8)


class TestIsoperimetricNumber(unittest.TestCase):

    def test_goldens(self):
        self.assertEqual(isoperimetric_number(C4), 1.0)
        self.assertEqual(isoperimetric_number(K2), 1.0)
        self.assertEqual(isoperimetric_number(generate_graph("star", 6)), 1.0)

    def test_families(self):
        for n in range(2, 11):
            self.assertEqual(isoperimetric_number(generate_graph("complete", n)),
                             math.ceil(n / 2))
            self.assertEqual(isoperimetric_number(generate_graph("path", n)),
                             1.0 / (n // 2))
        for n in range(3, 11):
            self.assertEqual(isoperimetric_number(generate_graph("cycle", n)),
                             2.0 / (n // 2))

    def test_matches_brute_force(self):
        rng = Xoshiro256StarStar(47)
        for _ in range(30):
            n = 2 + rng.randrange(7)
            g = random_connected_graph(n, rng)
            self.assertEqual(isoperimetric_number(g), brute_force_isoperimetric(g))

    def test_disconnected_reaches_zero(self):
        self.assertEqual(isoperimetric_number(Graph(4, frozenset({(1, 2), (3, 4)}))), 0.0)

    def test_budget(self):
        with self.assertRaises(ValueError):
            isoperimetric_number(generate_graph("path", ISOPERIMETRIC_MAX_ORDER + 1))
        with self.assertRaises(ValueError):
            isoperimetric_number(Graph(1))

    def test_at_budget_cap(self):
        g = generate_graph("cycle", ISOPERIMETRIC_MAX_ORDER)
        self.assertEqual(isoperimetric_number(g), 2.0 / (ISOPERIMETRIC_MAX_ORDER // 2))


class TestCheegerCheck(unittest.TestCase):

    def test_c4_report(self):
        report = cheeger_check(C4)
        self.assertAlmostEqual(report.lambda2, 2.0, delta=1e-10)
        self.assertEqual(report.isoperimetric, 1.0)
        self.assertEqual(report.max_degree, 2)
        self.assertTrue(report.sandwich_ok)
        self.assertEqual(report.lambda2_floor, 2.0 / 64.0)
        self.assertTrue(report.floor_ok)

    def test_k2_and_star(self):
        self.assertTrue(cheeger_check(K2).sandwich_ok)
        rep = cheeger_check(generate_graph("star", 6))
        self.assertTrue(rep.sandwich_ok)
        self.assertTrue(rep.floor_ok)
        self.assertEqual(rep.max_degree, 5)

    def test_disconnected_rejected(self):
        with self.assertRaises(ValueError):
            cheeger_check(Graph(3, frozenset({(1, 2)})))

    def test_rejections_name_the_rule(self):
        # the texts the spectral command prints; the order rule is checked before connectivity
        small = "^graph too small: n = 1; spectral certificates need at least 2 vertices$"
        large = f"^graph too large for exact certificates: n = 21 > {ISOPERIMETRIC_MAX_ORDER}$"
        for f, g, text in (
            (cheeger_check, Graph(1), small),
            (lambda2, Graph(1), small),
            (isoperimetric_number, Graph(1), small),
            (cheeger_check, generate_graph("cycle", 21), large),
            (cheeger_check, Graph(21), large),
            (isoperimetric_number, generate_graph("cycle", 21), large),
            (cheeger_check, Graph(4, frozenset({(1, 2), (3, 4)})),
             "^graph is disconnected; spectral certificates need a connected graph$"),
        ):
            with self.assertRaisesRegex(ValueError, text, msg=(f.__name__, g.n)):
                f(g)

    def test_sandwich_families(self):
        for n in range(2, 13):
            for kind in ("path", "star", "complete"):
                rep = cheeger_check(generate_graph(kind, n))
                self.assertTrue(rep.sandwich_ok, msg=f"{kind}:{n}")
                self.assertTrue(rep.floor_ok, msg=f"{kind}:{n}")
        for n in range(3, 13):
            rep = cheeger_check(generate_graph("cycle", n))
            self.assertTrue(rep.sandwich_ok, msg=f"cycle:{n}")
            self.assertTrue(rep.floor_ok, msg=f"cycle:{n}")

    def test_sandwich_random_graphs(self):
        for k in range(40):
            rng = Xoshiro256StarStar(derive_seed(3001, k))
            n = 2 + rng.randrange(7)
            g = random_connected_graph(n, rng)
            rep = cheeger_check(g)
            self.assertTrue(rep.sandwich_ok, msg=f"seed index {k}")
            self.assertTrue(rep.floor_ok, msg=f"seed index {k}")
            # explicit inequalities with the same slack the report uses
            self.assertGreaterEqual(2.0 * rep.isoperimetric, rep.lambda2 - 1e-9)
            self.assertGreaterEqual(rep.lambda2,
                                    rep.isoperimetric**2 / (2.0 * rep.max_degree) - 1e-9)

    def test_isoperimetric_floor_two_over_n(self):
        # connected graphs have at least one boundary edge per subset
        for k in range(30):
            rng = Xoshiro256StarStar(derive_seed(3002, k))
            n = 2 + rng.randrange(9)
            g = random_connected_graph(n, rng)
            self.assertGreaterEqual(isoperimetric_number(g), 2.0 / n)


class TestDisplacementDecomposition(unittest.TestCase):

    def test_residual_norm_identity(self):
        # splitting x into mean component plus orthogonal residual: the squared
        # residual coefficient equals the centered sum of squares
        rng = Xoshiro256StarStar(53)
        for _ in range(50):
            n = 2 + rng.randrange(10)
            x = np.array([10.0 * rng.random() for _ in range(n)])
            mean = float(x.mean())
            c_hat_sq_direct = float(np.sum((x - mean) ** 2))
            c_hat_sq_pythagoras = float(np.dot(x, x)) - n * mean * mean
            self.assertAlmostEqual(c_hat_sq_direct, c_hat_sq_pythagoras, delta=1e-10)


class TestDisplacementBound(unittest.TestCase):

    def test_c4_golden(self):
        res = nontrivial_displacement_bound(
            C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite(),
            [1, 2, 3, 4], 1.0)
        self.assertEqual(res.lhs, 2.0)
        self.assertEqual(res.rhs, 2.0 / 65536.0)
        self.assertTrue(res.ok)

    def test_k2_golden(self):
        res = nontrivial_displacement_bound(
            K2, GarbageState([0.0, 3.0]), Threshold.infinite(), [1, 2], 1.0)
        self.assertEqual(res.lhs, 18.0)
        self.assertEqual(res.rhs, 2.0 / 64.0)
        self.assertTrue(res.ok)

    def test_component_with_full_edge_count(self):
        # middle P4 edge dead: two active components, |Et| = 2 counts both
        g = generate_graph("path", 4)
        s = GarbageState([0.0, 1.0, 10.0, 11.0])
        res = nontrivial_displacement_bound(g, s, Threshold(2.0), [1, 2], 0.5)
        self.assertEqual(res.lhs, 0.5)
        self.assertEqual(res.rhs, 2.0 * 0.25 / (2**6 * 2**2))
        self.assertTrue(res.ok)

    def test_randomized_nontrivial_components(self):
        for k in range(60):
            rng = Xoshiro256StarStar(derive_seed(3003, k))
            n = 3 + rng.randrange(10)
            g = random_connected_graph(n, rng)
            s = GarbageState([10.0 * rng.random() for _ in range(n)])
            spread = s.max_pairwise_diff()
            if spread == 0.0:
                continue
            res = nontrivial_displacement_bound(
                g, s, Threshold.infinite(), range(1, n + 1), spread / 2.0)
            self.assertTrue(res.ok, msg=f"seed index {k}: {res}")

    def test_vertex_ids_must_be_integers(self):
        # int(2.9) named vertex 2, so [2.9, 1] passed as the component {1, 2}
        g, s = generate_graph("path", 3), GarbageState([0.0, 1.0, 5.0])
        for bad in (2.9, 2.0):
            with self.assertRaisesRegex(ValueError, f"^vertex {bad!r} is not an integer$"):
                nontrivial_displacement_bound(g, s, 2.0, [bad, 1], 0.5)
        got = nontrivial_displacement_bound(g, s, 2.0, [np.int64(2), np.int64(1)], 0.5)
        self.assertEqual(got, nontrivial_displacement_bound(g, s, 2.0, [2, 1], 0.5))

    def test_not_a_component_rejected(self):
        with self.assertRaises(ValueError):
            nontrivial_displacement_bound(
                C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite(),
                [1, 2], 1.0)

    def test_trivial_component_rejected(self):
        # spread 3 not strictly wider than delta = 3
        with self.assertRaises(ValueError):
            nontrivial_displacement_bound(
                C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite(),
                [1, 2, 3, 4], 3.0)

    def test_bad_delta(self):
        s = GarbageState([0.0, 1.0, 2.0, 3.0])
        for bad in (0.0, -1.0, math.nan):
            with self.assertRaises(ValueError):
                nontrivial_displacement_bound(C4, s, Threshold.infinite(),
                                              [1, 2, 3, 4], bad)


if __name__ == "__main__":
    unittest.main()
