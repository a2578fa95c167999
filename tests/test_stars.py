"""The paper's star exception, as it holds in this model.

The abstract says the amounts converge to the average on any connected graph
that is not a star.  Here, without a threshold (epsilon = inf), the step is
x -> (I - L/|E|)x, whose eigenvalues other than the top one lie strictly
inside (-1, 1) for every connected graph on n >= 3 vertices, because
lambda_max(L) <= n < 2(n - 1) <= 2|E|.  Stars on three or more vertices
converge like any other graph; the one exception is K2 (= star:2), whose step
swaps the two amounts.  Period-2 orbits on larger graphs come from a finite
threshold leaving a single active edge (test_acceptance, criterion 8).
"""

import itertools
import unittest

import numpy as np

from garbagegame.analysis import convergence_report
from garbagegame.dynamics import GarbageState, Threshold, run, transition_matrix
from garbagegame.graph import Graph, generate_graph, is_connected, is_star
from garbagegame.rng import Xoshiro256StarStar, derive_seed


def connected_graphs(n):
    """Every connected labelled graph on vertices 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        g = Graph(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])
        if is_connected(g):
            yield g


class TestFullyActiveSpectrum(unittest.TestCase):

    def test_only_k2_has_eigenvalue_minus_one(self):
        counts, at_minus_one, worst = {}, [], 0.0
        for n in range(2, 6):
            for g in connected_graphs(n):
                counts[n] = counts.get(n, 0) + 1
                A = transition_matrix(g, GarbageState([0.0] * n), Threshold.infinite())
                mu = np.linalg.eigvalsh(A)  # ascending; A is symmetric
                self.assertAlmostEqual(mu[-1], 1.0, delta=1e-12)
                if mu[0] <= -1.0 + 1e-9:
                    at_minus_one.append(g)
                if n >= 3:
                    rest = np.abs(mu[:-1])
                    self.assertLess(rest.max(), 1.0 - 1e-9, msg=g)
                    worst = max(worst, float(rest.max()))
        self.assertEqual(counts, {2: 1, 3: 4, 4: 38, 5: 728})  # 771 graphs
        self.assertEqual(at_minus_one, [generate_graph("star", 2)])
        self.assertLess(worst, 0.95)  # the slowest, the paths on 5 vertices: 1 - lambda_2/4 = 0.9045


class TestStarRuns(unittest.TestCase):

    def initial(self, n, trial):
        rng = Xoshiro256StarStar(derive_seed(8, 100 * n + trial))
        return GarbageState([rng.uniform(0.0, 100.0) for _ in range(n)])

    def test_stars_of_three_or_more_vertices_converge(self):
        for n in range(3, 13):
            g = generate_graph("star", n)
            self.assertTrue(is_star(g))
            for trial in range(3):
                traj = run(g, self.initial(n, trial), Threshold.infinite())
                report = convergence_report(traj)
                self.assertTrue(report.converged, msg=(n, trial))
                self.assertLess(report.max_deviation_from_average, 1e-8, msg=(n, trial))

    def test_star_2_is_an_exact_two_cycle(self):
        g = generate_graph("star", 2)
        self.assertTrue(is_star(g))
        for trial in range(3):
            s0 = self.initial(2, trial)
            a, b = s0.values.tolist()
            traj = run(g, s0, Threshold.infinite(), max_steps=50)
            self.assertEqual(traj.steps_run, 50)
            for k, state in enumerate(traj.states):
                self.assertEqual(state.values.tolist(), [a, b] if k % 2 == 0 else [b, a], msg=(trial, k))
            self.assertFalse(convergence_report(traj).converged)


if __name__ == "__main__":
    unittest.main()
