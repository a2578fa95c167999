import math
import unittest
import warnings

import numpy as np

from garbagegame.analysis import roundoff_slack
from garbagegame.dynamics import (
    GarbageState,
    PeriodicList,
    Threshold,
    Trajectory,
    effective_edges,
    run,
    step,
    transition_matrix,
)
from garbagegame.graph import Graph, GraphError, generate_graph, random_connected_graph
from garbagegame.rng import Xoshiro256StarStar, derive_seed

P3 = generate_graph("path", 3)
C4 = generate_graph("cycle", 4)


def random_instance(seed):
    rng = Xoshiro256StarStar(seed)
    n = 2 + rng.randrange(9)
    g = random_connected_graph(n, rng)
    s = GarbageState([10.0 * rng.random() for _ in range(n)])
    spread = s.max_pairwise_diff()
    if rng.random() < 0.5 or spread == 0.0:
        eps = Threshold.infinite()
    else:
        eps = Threshold((0.25 + rng.random()) * spread)
    return g, s, eps


class TestThreshold(unittest.TestCase):

    def test_positive(self):
        self.assertEqual(Threshold(2.5).epsilon, 2.5)
        self.assertFalse(Threshold(2.5).is_infinite)

    def test_infinite(self):
        self.assertTrue(Threshold.infinite().is_infinite)
        self.assertTrue(Threshold(math.inf).is_infinite)

    def test_rejects_nonpositive_and_nan(self):
        for bad in (0.0, -1.0, math.nan):
            with self.assertRaises(ValueError):
                Threshold(bad)

    def test_parse(self):
        self.assertTrue(Threshold.parse("inf").is_infinite)
        self.assertTrue(Threshold.parse("Infinity").is_infinite)
        self.assertEqual(Threshold.parse("2").epsilon, 2.0)
        with self.assertRaises(ValueError):
            Threshold.parse("banana")
        with self.assertRaises(ValueError):
            Threshold.parse("-3")


class TestGarbageState(unittest.TestCase):

    def test_basic(self):
        s = GarbageState([0.0, 3.0, 6.0])
        self.assertEqual(s.n, 3)
        self.assertEqual(s.time, 0)
        self.assertEqual(s.max_pairwise_diff(), 6.0)

    def test_rejects_negative(self):
        with self.assertRaisesRegex(ValueError, "negative garbage amount -1.0 at agent 2"):
            GarbageState([0.0, -1.0, 2.0])

    def test_rejects_nonfinite(self):
        with self.assertRaises(ValueError):
            GarbageState([1.0, math.inf])
        with self.assertRaises(ValueError):
            GarbageState([1.0, math.nan])

    def test_rejects_bad_time(self):
        with self.assertRaises(ValueError):
            GarbageState([1.0], time=-1)

    def test_rejects_bool_time(self):
        # bool is an int subclass; time=True would make the next state's time 2
        for flag in (True, False):
            with self.assertRaisesRegex(ValueError, "time must be a nonnegative integer"):
                GarbageState([0.0, 1.0, 5.0], time=flag)

    def test_values_are_frozen_copies(self):
        src = np.array([1.0, 2.0])
        s = GarbageState(src)
        src[0] = 99.0
        self.assertEqual(s.values[0], 1.0)
        with self.assertRaises(ValueError):
            s.values[0] = 5.0


class TestEffectiveEdges(unittest.TestCase):

    def test_p3_wide_threshold(self):
        topo = effective_edges(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(10.0))
        self.assertEqual(topo.edges, frozenset({(1, 2), (2, 3)}))
        self.assertEqual(topo.edge_count, 2)
        self.assertEqual(topo.neighbors(2), (1, 3))

    def test_p3_tight_threshold(self):
        topo = effective_edges(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(2.0))
        self.assertEqual(topo.edge_count, 0)
        self.assertEqual(topo.edges, frozenset())

    def test_p3_single_active_edge(self):
        topo = effective_edges(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0))
        self.assertEqual(topo.edges, frozenset({(1, 2)}))

    def test_boundary_is_inclusive(self):
        topo = effective_edges(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(3.0))
        self.assertEqual(topo.edge_count, 2)

    def test_infinite_threshold_activates_everything(self):
        g = generate_graph("erdos_renyi", 10, p=0.4, seed=3)
        s = GarbageState([float(i) for i in range(10)])
        self.assertEqual(effective_edges(g, s, Threshold.infinite()).edges, g.edges)

    def test_components(self):
        # middle edge of P4 inactive: two two-vertex components
        g = generate_graph("path", 4)
        topo = effective_edges(g, GarbageState([0.0, 1.0, 10.0, 11.0]), Threshold(2.0))
        self.assertEqual(sorted(topo.components(), key=min),
                         [frozenset({1, 2}), frozenset({3, 4})])

    def test_length_mismatch(self):
        with self.assertRaises(ValueError):
            effective_edges(P3, GarbageState([1.0, 2.0]), Threshold(1.0))

    def test_neighbors_outside_the_vertex_range(self):
        # a range check, not tuple indexing: v = 0 must not read vertex 3's neighbors
        topo = effective_edges(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(10.0))
        for v in (0, 4):
            with self.assertRaises(GraphError) as ctx:
                topo.neighbors(v)
            self.assertEqual(str(ctx.exception), f"vertex {v} outside 1..3")


class TestTransitionMatrix(unittest.TestCase):

    def test_star6_equal_state(self):
        g = generate_graph("star", 6)
        A = transition_matrix(g, GarbageState([4.0] * 6), Threshold.infinite())
        self.assertEqual(A[0, 0], 0.0)
        for k in range(1, 6):
            self.assertEqual(A[0, k], 0.2)
            self.assertEqual(A[k, 0], 0.2)
            self.assertEqual(A[k, k], 0.8)

    def test_no_active_edges_gives_identity(self):
        A = transition_matrix(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(2.0))
        np.testing.assert_array_equal(A, np.eye(3))

    def test_p3_golden(self):
        A = transition_matrix(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(10.0))
        np.testing.assert_array_equal(
            A, [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
        )

    def test_columns_sum_to_one(self):
        for k in range(60):
            g, s, eps = random_instance(derive_seed(1001, k))
            A = transition_matrix(g, s, eps)
            self.assertLess(float(np.max(np.abs(A.sum(axis=0) - 1.0))), 1e-12)

    def test_entries_in_unit_interval(self):
        for k in range(60):
            g, s, eps = random_instance(derive_seed(1002, k))
            A = transition_matrix(g, s, eps)
            self.assertGreaterEqual(float(A.min()), 0.0)
            self.assertLessEqual(float(A.max()), 1.0)

    def test_symmetric_exchange(self):
        # both endpoints of an active edge dump the same share 1/|Et|
        for k in range(40):
            g, s, eps = random_instance(derive_seed(1003, k))
            topo = effective_edges(g, s, eps)
            if topo.edge_count == 0:
                continue
            A = transition_matrix(g, s, eps)
            w = 1.0 / topo.edge_count
            for u, v in topo.edges:
                self.assertEqual(A[u - 1, v - 1], w)
                self.assertEqual(A[v - 1, u - 1], w)


class TestStep(unittest.TestCase):

    def test_p3_wide_threshold(self):
        nxt = step(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(10.0))
        self.assertEqual(nxt.values.tolist(), [1.5, 3.0, 4.5])
        self.assertEqual(nxt.time, 1)
        self.assertEqual(float(nxt.values.sum()), 9.0)

    def test_p3_swap(self):
        # single active edge with |Et|=1: endpoints trade their full amounts
        nxt = step(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0))
        self.assertEqual(nxt.values.tolist(), [1.0, 0.0, 5.0])

    def test_no_active_edges_passthrough(self):
        s = GarbageState([0.0, 3.0, 6.0])
        nxt = step(P3, s, Threshold(2.0))
        np.testing.assert_array_equal(nxt.values, s.values)
        self.assertEqual(nxt.time, 1)

    def test_equal_state_is_fixed_point(self):
        # exact in real arithmetic; float evaluation may drift by an ulp or two
        rng = Xoshiro256StarStar(515)
        for _ in range(100):
            n = 2 + rng.randrange(9)
            g = random_connected_graph(n, rng)
            c = 10.0 * rng.random()
            nxt = step(g, GarbageState([c] * n), Threshold(1.0))
            self.assertLessEqual(float(np.max(np.abs(nxt.values - c))), roundoff_slack(c))

    def test_length_mismatch(self):
        with self.assertRaises(ValueError):
            step(P3, GarbageState([1.0, 2.0]), Threshold(1.0))

    def test_single_vertex(self):
        nxt = step(Graph(1), GarbageState([7.0]), Threshold.infinite())
        self.assertEqual(nxt.values.tolist(), [7.0])

    def test_overflowing_output_is_rejected(self):
        # finite input, but the centre receives 1e308 + 1e308 = inf: kernel
        # outputs are validated like any other state
        with self.assertRaisesRegex(ValueError, "garbage amounts must be finite"):
            step(P3, GarbageState([1e308, 0.0, 1e308]), Threshold.infinite())

    def test_matches_matrix_product(self):
        for k in range(80):
            g, s, eps = random_instance(derive_seed(1004, k))
            direct = step(g, s, eps).values
            via_matrix = transition_matrix(g, s, eps) @ s.values
            self.assertLess(float(np.max(np.abs(via_matrix - direct))), 1e-12)

    def test_matches_laplacian_form(self):
        for k in range(80):
            g, s, eps = random_instance(derive_seed(1005, k))
            topo = effective_edges(g, s, eps)
            if topo.edge_count == 0:
                continue
            direct = step(g, s, eps).values
            via_lap = (np.eye(g.n) - topo.laplacian() / topo.edge_count) @ s.values
            self.assertLess(float(np.max(np.abs(via_lap - direct))), 1e-12)


class TestStepInvariants(unittest.TestCase):

    def test_conservation(self):
        for k in range(50):
            g, s, eps = random_instance(derive_seed(1006, k))
            cur = s
            for _ in range(25):
                nxt = step(g, cur, eps)
                drift = abs(float(nxt.values.sum()) - float(cur.values.sum()))
                self.assertLessEqual(drift, 1e-12 * g.n * float(cur.values.max()))
                cur = nxt

    def test_nonnegativity(self):
        # the constructor rejects negatives, so completing the loop is the assertion
        for k in range(50):
            g, s, eps = random_instance(derive_seed(1007, k))
            cur = s
            for _ in range(25):
                cur = step(g, cur, eps)
            self.assertGreaterEqual(float(cur.values.min()), 0.0)

    def test_hull_contraction(self):
        for k in range(50):
            g, s, eps = random_instance(derive_seed(1008, k))
            cur = s
            for _ in range(25):
                nxt = step(g, cur, eps)
                slack = roundoff_slack(float(cur.values.max()))
                self.assertGreaterEqual(float(nxt.values.min()), float(cur.values.min()) - slack)
                self.assertLessEqual(float(nxt.values.max()), float(cur.values.max()) + slack)
                cur = nxt

    def test_triviality_preservation(self):
        rng = Xoshiro256StarStar(626)
        for k in range(50):
            g, s, eps = random_instance(derive_seed(1009, k))
            cur = s
            for _ in range(10):
                nxt = step(g, cur, eps)
                delta = cur.max_pairwise_diff() * (1.0 + rng.random())
                if delta > 0.0:
                    slack = roundoff_slack(float(cur.values.max()))
                    self.assertLessEqual(nxt.max_pairwise_diff(), delta + slack)
                cur = nxt

    def test_finite_matches_infinite_when_threshold_exceeds_spread(self):
        # with eps above the initial spread the threshold never binds, and the
        # two trajectories agree bit for bit
        for k in range(40):
            rng = Xoshiro256StarStar(derive_seed(1010, k))
            n = 2 + rng.randrange(9)
            g = random_connected_graph(n, rng)
            s = GarbageState([10.0 * rng.random() for _ in range(n)])
            spread = s.max_pairwise_diff()
            if spread == 0.0:
                continue
            finite = Threshold(math.nextafter(spread, math.inf))
            a, b = s, s
            for _ in range(30):
                a = step(g, a, finite)
                b = step(g, b, Threshold.infinite())
                self.assertEqual(a.values.tolist(), b.values.tolist())


class TestRun(unittest.TestCase):

    def test_c4_converges_to_average(self):
        traj = run(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite(),
                   convergence_tol=1e-9)
        final = traj.final_state.values
        self.assertLess(float(np.max(np.abs(final - 1.5))), 1e-9)
        self.assertLess(traj.steps_run, 100_000)
        self.assertEqual(len(traj.diagnostics), len(traj.states))

    def test_zero_max_steps(self):
        s = GarbageState([0.0, 1.0, 2.0, 3.0])
        traj = run(C4, s, Threshold.infinite(), max_steps=0)
        self.assertEqual(traj.steps_run, 0)
        np.testing.assert_array_equal(traj.initial_state.values, s.values)

    def test_unused_overflowing_successor_is_not_validated(self):
        # the pass that diagnoses the only state also computes its successor,
        # which overflows; with max_steps=0 nothing may see it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = run(P3, GarbageState([1e308, 0.0, 1e308]), Threshold.infinite(), max_steps=0)
        self.assertEqual(len(traj.states), 1)
        self.assertEqual(traj.diagnostics[0].z, math.inf)
        with self.assertRaisesRegex(ValueError, "finite"):
            run(P3, GarbageState([1e308, 0.0, 1e308]), Threshold.infinite(), max_steps=1)

    def test_rejects_bool_max_steps(self):
        # bool is an int subclass; max_steps=True would silently run one step
        for flag in (True, False):
            with self.assertRaisesRegex(ValueError, "max_steps must be a nonnegative integer"):
                run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=flag)

    def test_p3_oscillation_not_converged(self):
        traj = run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        self.assertEqual(traj.steps_run, 50)  # never stops early
        for k, state in enumerate(traj.states):
            expect = [0.0, 1.0, 5.0] if k % 2 == 0 else [1.0, 0.0, 5.0]
            self.assertEqual(state.values.tolist(), expect)

    def test_already_converged_start(self):
        traj = run(C4, GarbageState([2.0, 2.0, 2.0, 2.0]), Threshold.infinite())
        self.assertEqual(traj.steps_run, 0)

    def test_convergence_requires_full_active_graph(self):
        # spread is below tol but above eps, so the only social edge is dead;
        # the run must not stop early on value agreement alone
        g = Graph(2, frozenset({(1, 2)}))
        traj = run(g, GarbageState([0.0, 5e-10]), Threshold(1e-12),
                   max_steps=10, convergence_tol=1e-9)
        self.assertEqual(traj.steps_run, 10)

    def test_time_indices(self):
        traj = run(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite(), max_steps=5)
        self.assertEqual([s.time for s in traj.states], list(range(6)))

    def test_bad_arguments(self):
        s = GarbageState([1.0, 2.0, 3.0, 4.0])
        with self.assertRaises(ValueError):
            run(C4, s, Threshold.infinite(), max_steps=-1)
        with self.assertRaises(ValueError):
            run(C4, s, Threshold.infinite(), convergence_tol=0.0)

    def test_converged_records_the_stop_test(self):
        one = run(Graph(1), GarbageState([7.0]), Threshold.infinite())
        self.assertEqual((one.steps_run, one.converged), (0, True))  # no edges, no spread: stops at step 0
        orbit = run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        self.assertIsNotNone(orbit.periodic_tail)
        self.assertFalse(orbit.converged)
        # C4 from 0,1,2,3 meets the default tol first at step 31: the last state of
        # a 31-step run is still tested, and a 30-step run ends one step short
        x = GarbageState([0.0, 1.0, 2.0, 3.0])
        self.assertTrue(run(C4, x, Threshold.infinite(), max_steps=31).converged)
        self.assertFalse(run(C4, x, Threshold.infinite(), max_steps=30).converged)
        self.assertEqual(run(C4, x, Threshold.infinite()).steps_run, 31)

    def test_values_matrix_shape(self):
        traj = run(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite(), max_steps=7)
        self.assertEqual(traj.values_matrix().shape, (8, 4))


class TestTrajectoryType(unittest.TestCase):

    def test_diagnostics_must_align(self):
        s = GarbageState([1.0, 2.0])
        g = Graph(2, frozenset({(1, 2)}))
        with self.assertRaises(ValueError):
            Trajectory(graph=g, threshold=Threshold(1.0), states=[s, s],
                       diagnostics=[None])

    def test_states_without_diagnostics_rejected(self):
        s0 = GarbageState([0.0, 1.0, 5.0])
        with self.assertRaisesRegex(ValueError, "align one-to-one"):
            Trajectory(graph=P3, threshold=Threshold(2.0), states=[s0, step(P3, s0, Threshold(2.0))])
        empty = Trajectory(graph=P3, threshold=Threshold(2.0), states=[])  # no states, no diagnostics: valid
        self.assertEqual(empty.steps_run, 0)
        self.assertEqual(empty.values_matrix().shape, (0, 3))
        self.assertFalse(empty.converged)


class TestPeriodicList(unittest.TestCase):

    def test_start_is_the_stored_length_less_one_period(self):
        items = PeriodicList(["a", "b", "c"], 2, 7)
        self.assertEqual(items.tail, (1, 2))
        self.assertEqual(list(items), ["a", "b", "c", "b", "c", "b", "c"])

    def test_rejects_a_tail_that_does_not_fit(self):
        for period, length in ((0, 5), (4, 5), (2, 3), (2, 2)):  # no period, period > stored, no repeat
            with self.assertRaisesRegex(ValueError, "periodic tail", msg=f"period {period} length {length}"):
                PeriodicList(["a", "b", "c"], period, length)


if __name__ == "__main__":
    unittest.main()
