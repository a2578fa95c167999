import math
import unittest
import warnings
from unittest import mock

import numpy as np

from garbagegame import analysis, dynamics

from garbagegame.analysis import (
    conservation_violation,
    convergence_report,
    decrement_lower_bound,
    hull_bounds,
    hull_violation,
    is_trivial,
    lyapunov_record,
    lyapunov_z,
    roundoff_slack,
)
from garbagegame.dynamics import (
    GarbageState,
    Threshold,
    Trajectory,
    effective_edges,
    run,
    step,
)
from garbagegame.graph import Graph, generate_graph, random_connected_graph
from garbagegame.rng import Xoshiro256StarStar, derive_seed

P3 = generate_graph("path", 3)
C4 = generate_graph("cycle", 4)


class TestLyapunovZ(unittest.TestCase):

    def test_p3_golden(self):
        # edge ordered pairs: 4 x 9; non-edge ordered pairs (1,3),(3,1): 2 x 100
        z = lyapunov_z(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(10.0))
        self.assertEqual(z, 236.0)

    def test_p3_all_zero(self):
        z = lyapunov_z(P3, GarbageState([0.0, 0.0, 0.0]), Threshold(10.0))
        self.assertEqual(z, 200.0)

    def test_c4_reduced_form(self):
        z = lyapunov_z(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite())
        self.assertEqual(z, 24.0)

    def test_capping(self):
        # both edge differences exceed eps, so each ordered edge pair caps at eps^2
        z = lyapunov_z(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(2.0))
        self.assertEqual(z, 4 * 4.0 + 2 * 4.0)

    def test_edgeless_graph(self):
        z = lyapunov_z(Graph(2), GarbageState([0.0, 5.0]), Threshold(3.0))
        self.assertEqual(z, 18.0)

    def test_infinite_eps_ignores_non_edges(self):
        z = lyapunov_z(Graph(3, frozenset({(1, 2)})),
                       GarbageState([1.0, 4.0, 100.0]), Threshold.infinite())
        self.assertEqual(z, 18.0)

    def test_length_mismatch(self):
        with self.assertRaises(ValueError):
            lyapunov_z(P3, GarbageState([1.0, 2.0]), Threshold(1.0))

    def test_overflow_saturates_to_inf(self):
        # |d| = 1e200 squares past the float64 range; Z is inf, with no warning
        s = GarbageState([1e200, 0.0, 1e200])
        self.assertEqual(lyapunov_z(P3, s, Threshold.infinite()), math.inf)
        self.assertEqual(lyapunov_z(P3, s, Threshold(1e160)), math.inf)
        self.assertEqual(lyapunov_z(P3, s, Threshold(1.0)), 4 * 1.0 + 2 * 1.0)

    def test_complete_graph_with_infinite_eps_squared(self):
        # no non-edges, so eps^2 = inf must not enter as 0 * inf = nan
        z = lyapunov_z(generate_graph("complete", 3), GarbageState([1.0, 2.0, 3.0]), Threshold(1e200))
        self.assertEqual(z, 12.0)


class TestDecrementBound(unittest.TestCase):

    def test_p3_golden(self):
        s = GarbageState([0.0, 3.0, 6.0])
        self.assertEqual(decrement_lower_bound(P3, s, Threshold(10.0)), 18.0)
        z0 = lyapunov_z(P3, s, Threshold(10.0))
        z1 = lyapunov_z(P3, step(P3, s, Threshold(10.0)), Threshold(10.0))
        self.assertEqual(z0 - z1, 27.0)
        self.assertGreaterEqual(z0 - z1, 18.0)

    def test_c4_golden(self):
        s = GarbageState([0.0, 1.0, 2.0, 3.0])
        eps = Threshold.infinite()
        self.assertEqual(decrement_lower_bound(C4, s, eps), 16.0)
        z0 = lyapunov_z(C4, s, eps)
        z1 = lyapunov_z(C4, step(C4, s, eps), eps)
        self.assertEqual(z0 - z1, 20.0)

    def test_no_active_edges(self):
        s = GarbageState([0.0, 3.0, 6.0])
        self.assertEqual(decrement_lower_bound(P3, s, Threshold(2.0)), 0.0)

    def test_overflow_saturates_to_inf(self):
        # x - x' = (5e199, -1e200, 5e199) squares past the float64 range; the
        # bound is inf, with no overflow warning, as Z is
        s = GarbageState([1e200, 0.0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assertEqual(decrement_lower_bound(P3, s, Threshold.infinite()), math.inf)

    def test_record_invariants(self):
        rec = lyapunov_record(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(10.0))
        self.assertEqual((rec.z, rec.decrement, rec.bound), (236.0, 27.0, 18.0))
        self.assertGreaterEqual(rec.decrement, rec.bound - 1e-9)
        self.assertGreaterEqual(rec.bound, 0.0)
        # the record's fields are Python floats whenever an edge is active
        for g, s in ((P3, GarbageState([0.0, 3.0, 6.0])),
                     (generate_graph("cycle", 5), GarbageState([0.0, 1.0, 2.0, 3.0, 4.0]))):
            rec = lyapunov_record(g, s, Threshold(10.0))
            self.assertEqual([type(v) for v in (rec.z, rec.decrement, rec.bound)], [float] * 3)

    def test_length_mismatch(self):
        # the certificate checks the state's length before its first index: a
        # short state would otherwise raise IndexError, a long one a broadcast error
        for values in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            want = f"state has {len(values)} entries but graph has 3 vertices"
            for eps in (Threshold(1.0), Threshold.infinite()):
                with self.assertRaisesRegex(ValueError, f"^{want}$"):
                    lyapunov_record(P3, GarbageState(values), eps)
                with self.assertRaisesRegex(ValueError, f"^{want}$"):
                    next(analysis._lyapunov_steps(P3, GarbageState(values), eps))

    def test_overflowing_next_state_is_rejected(self):
        # the centre's next amount is 1e308 + 1e308 = inf: the certificate
        # path validates the next state like step does
        s = GarbageState([1e308, 0.0, 1e308])
        for certificate in (lyapunov_record, decrement_lower_bound):
            with self.assertRaisesRegex(ValueError, "garbage amounts must be finite"):
                certificate(P3, s, Threshold.infinite())

    def test_no_false_violation_near_consensus(self):
        # Z and Z' share the non-edge constant (n(n-1) - 2|E|) eps^2 = 2.35e11 here;
        # Z - Z' read up to 1.3e-5 below the bound on 7 of these 400 steps
        g = generate_graph("cycle", 50)
        eps = Threshold(1e4)
        s = GarbageState([float(i % 7) for i in range(50)])
        for _ in range(400):
            rec = lyapunov_record(g, s, eps)
            self.assertGreaterEqual(rec.decrement, rec.bound - 1e-9, msg=f"t={s.time}")
            s = step(g, s, eps)


class TestZMonotonicity(unittest.TestCase):

    def test_descent_with_certified_bound(self):
        # states drawn in [0, 10], bound checked with the stated 1e-9 slack
        for k in range(60):
            rng = Xoshiro256StarStar(derive_seed(2001, k))
            n = 3 + rng.randrange(8)
            g = random_connected_graph(n, rng)
            s = GarbageState([10.0 * rng.random() for _ in range(n)])
            spread = s.max_pairwise_diff()
            eps = Threshold.infinite() if k % 2 == 0 else Threshold(
                (0.25 + rng.random()) * spread if spread > 0 else 1.0)
            cur = s
            for _ in range(20):
                rec = lyapunov_record(g, cur, eps)
                self.assertGreaterEqual(rec.decrement, rec.bound - 1e-9)
                self.assertGreaterEqual(rec.bound, 0.0)
                self.assertGreaterEqual(rec.decrement, -1e-9)  # nonincreasing
                cur = step(g, cur, eps)


class TestIsTrivial(unittest.TestCase):

    def test_inclusive_boundary(self):
        s = GarbageState([0.0, 3.0, 6.0])
        self.assertTrue(is_trivial(s, [1, 2, 3], 6.0))
        self.assertFalse(is_trivial(s, [1, 2, 3], 5.0))

    def test_vertex_subset(self):
        s = GarbageState([0.0, 1.0, 5.0])
        self.assertTrue(is_trivial(s, [1, 2], 2.0))
        self.assertFalse(is_trivial(s, [1, 3], 2.0))

    def test_single_vertex(self):
        self.assertTrue(is_trivial(GarbageState([7.0, 9.0]), [2], 1e-12))

    def test_infinite_delta(self):
        self.assertTrue(is_trivial(GarbageState([0.0, 100.0]), [1, 2], math.inf))

    def test_errors(self):
        s = GarbageState([1.0, 2.0])
        with self.assertRaises(ValueError):
            is_trivial(s, [], 1.0)
        with self.assertRaises(ValueError):
            is_trivial(s, [1, 3], 1.0)
        with self.assertRaises(ValueError):
            is_trivial(s, [1], 0.0)
        with self.assertRaises(ValueError):
            is_trivial(s, [1], math.nan)

    def test_vertex_ids_must_be_integers(self):
        s = GarbageState([1.0, 2.0])
        for bad in (1.5, 2.0):
            with self.assertRaisesRegex(ValueError, f"^vertex {bad!r} is not an integer$"):
                is_trivial(s, [1, bad], 1.0)
        self.assertTrue(is_trivial(s, [np.int64(1), np.int32(2)], 1.0))


class TestHullBounds(unittest.TestCase):

    def test_golden(self):
        self.assertEqual(hull_bounds(GarbageState([0.0, 3.0, 6.0])), (0.0, 6.0))
        self.assertEqual(hull_bounds(GarbageState([1.5, 3.0, 4.5])), (1.5, 4.5))
        self.assertEqual(hull_bounds(GarbageState([2.0, 2.0])), (2.0, 2.0))

    def test_step_stays_inside(self):
        after = hull_bounds(step(P3, GarbageState([0.0, 3.0, 6.0]), Threshold(10.0)))
        self.assertEqual(after, (1.5, 4.5))


class TestStepViolations(unittest.TestCase):

    def test_conservation(self):
        a = GarbageState([0.0, 1.0, 2.0, 3.0], time=5)
        self.assertIsNone(conservation_violation(a, step(C4, a, Threshold.infinite())))
        # budget 1e-12 * n * max(a) = 1.2e-11, n taken from a
        self.assertIsNone(conservation_violation(a, GarbageState([0.0, 1.0, 2.0, 3.0 + 1e-11])))
        message = conservation_violation(a, GarbageState([0.0, 1.0, 2.0, 3.0 + 1e-9]))
        self.assertIn("t=5", message)
        self.assertIn("conservation drift", message)

    def test_conservation_beyond_float64_range(self):
        # both plain totals overflow to inf, and inf - inf = nan never exceeds a budget
        a = GarbageState([1e308, 0.0, 1e308], time=1)
        message = conservation_violation(a, GarbageState([1e308] * 3))
        self.assertEqual(message, "conservation drift 1.000e+308 exceeds 3.000e+296 at t=1")
        self.assertIsNone(conservation_violation(a, GarbageState([1e308, 0.0, 1e308])))

    def test_hull(self):
        a = GarbageState([1.0, 3.0], time=2)
        self.assertIsNone(hull_violation(a, GarbageState([1.5, 2.5])))
        message = hull_violation(a, GarbageState([0.5, 3.5]))
        self.assertIn("t=2", message)

    def test_hull_slack_boundary(self):
        # the slack is 4 ulps of the top of a's hull: 4 * 2**-51 at 3.0
        a = GarbageState([1.0, 3.0])
        slack = roundoff_slack(3.0)
        self.assertEqual(slack, 2.0 ** -49)
        for lo, hi in ((1.0 - slack, 3.0), (1.0, 3.0 + slack)):
            self.assertIsNone(hull_violation(a, GarbageState([lo, hi])))
        for lo, hi in ((math.nextafter(1.0 - slack, 0.0), 3.0),
                       (1.0, math.nextafter(3.0 + slack, math.inf))):
            self.assertIsNotNone(hull_violation(a, GarbageState([lo, hi])))


class TestConvergenceReport(unittest.TestCase):

    def test_c4_converges(self):
        traj = run(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite())
        report = convergence_report(traj)
        self.assertTrue(report.converged)
        self.assertLess(abs(report.limit_estimate - 1.5), 1e-9)
        self.assertEqual(report.initial_average, 1.5)
        self.assertEqual(report.trivialization_time, 0)
        self.assertLess(report.max_deviation_from_average, 1e-9)
        self.assertLessEqual(report.conservation_error, 1e-12 * 4 * 3.0)

    def test_p3_oscillation(self):
        traj = run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        report = convergence_report(traj)
        self.assertFalse(report.converged)
        self.assertIsNone(report.trivialization_time)
        self.assertEqual(report.steps_run, 50)

    def test_trivialization_time_finite_threshold(self):
        # spread shrinks below eps only after some steps
        traj = run(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold(4.0), max_steps=20)
        report = convergence_report(traj)
        self.assertEqual(report.trivialization_time, 0)  # 3 <= 4 already
        traj2 = run(C4, GarbageState([0.0, 4.0, 8.0, 12.0]), Threshold(4.0), max_steps=0)
        report2 = convergence_report(traj2)
        self.assertIsNone(report2.trivialization_time)  # spread 12 > 4, no steps taken
        traj3 = run(generate_graph("cycle", 6), GarbageState([0.0, 2.0, 4.0, 6.0, 8.0, 10.0]), Threshold(8.0))
        report3 = convergence_report(traj3)
        self.assertEqual(report3.trivialization_time, 4)  # spread 10 > 8 until t=4
        self.assertGreater(traj3.states[3].max_pairwise_diff(), 8.0)
        self.assertTrue(report3.converged)
        self.assertEqual(report3.steps_run, 129)

    def test_totals_beyond_float64_range(self):
        # the plain sums overflow; the means and drift are exact, without a warning
        p2 = generate_graph("path", 2)
        report = convergence_report(run(p2, GarbageState([1.7e308] * 2), Threshold.infinite()))
        self.assertEqual((report.initial_average, report.limit_estimate), (1.7e308, 1.7e308))
        self.assertEqual((report.max_deviation_from_average, report.conservation_error), (0.0, 0.0))
        report = convergence_report(run(P3, GarbageState([1e308, 0.0, 1e308]), Threshold(1e300), max_steps=3))
        mean = 1e308 / 3 * 2  # (2 * 1e308) / 3, correctly rounded
        self.assertEqual((report.initial_average, report.limit_estimate), (mean, mean))
        self.assertEqual((report.max_deviation_from_average, report.conservation_error), (mean, 0.0))

    def test_single_vertex(self):
        traj = run(Graph(1), GarbageState([7.0]), Threshold.infinite())
        report = convergence_report(traj)
        self.assertTrue(report.converged)
        self.assertEqual(report.steps_run, 0)
        self.assertEqual(report.limit_estimate, 7.0)

    def test_reads_the_diagnostics_without_a_kernel_pass(self):
        def no_pass(*args, **kwargs):
            raise AssertionError("convergence_report made a kernel pass")

        locked = run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        converging = run(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite())
        with mock.patch.object(analysis, "effective_edges", no_pass), \
                mock.patch.object(analysis, "_active", no_pass), mock.patch.object(analysis, "_orbit", no_pass), \
                mock.patch.object(dynamics, "_active", no_pass):
            self.assertFalse(convergence_report(locked).converged)
            self.assertTrue(convergence_report(converging).converged)

    def test_follows_the_run_tolerance(self):
        # the report follows run's own tolerance in both directions
        x = GarbageState([0.0, 1.0, 2.0, 3.0])
        loose = run(C4, x, Threshold.infinite(), convergence_tol=1e-6)
        self.assertEqual((loose.steps_run, loose.diagnostics[-1].max_diff), (21, 2.0**-20))
        self.assertTrue(convergence_report(loose).converged)  # spread 9.5e-7 > 1e-9, yet run stopped
        tight = run(C4, x, Threshold.infinite(), max_steps=31, convergence_tol=1e-12)
        self.assertEqual((tight.steps_run, tight.diagnostics[-1].max_diff), (31, 2.0**-30))
        self.assertFalse(convergence_report(tight).converged)  # spread 9.3e-10 <= 1e-9, yet run ran out

    def test_reads_the_record_of_a_built_trajectory(self):
        traj = run(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite())
        self.assertTrue(convergence_report(traj).converged)
        built = Trajectory(graph=C4, threshold=traj.threshold, states=traj.states, diagnostics=traj.diagnostics)
        self.assertFalse(convergence_report(built).converged)  # not known to have converged

    def test_errors(self):
        g = Graph(2, frozenset({(1, 2)}))
        with self.assertRaisesRegex(ValueError, "at least one state"):  # so a report always has a final state
            Trajectory(graph=g, threshold=Threshold(1.0), states=[], diagnostics=[])


class TestAbsorbingRegime(unittest.TestCase):

    def test_full_activity_persists_after_trivialization(self):
        # once the spread is within eps, every social edge stays active
        for k in range(40):
            rng = Xoshiro256StarStar(derive_seed(2002, k))
            n = 3 + rng.randrange(7)
            g = random_connected_graph(n, rng)
            s = GarbageState([10.0 * rng.random() for _ in range(n)])
            spread = s.max_pairwise_diff()
            eps = Threshold((0.4 + rng.random()) * spread if spread > 0 else 1.0)
            traj = run(g, s, eps, max_steps=300)
            hit = False
            for state in traj.states:
                if not hit and state.max_pairwise_diff() <= eps.epsilon:
                    hit = True
                if hit:
                    self.assertEqual(
                        effective_edges(g, state, eps).edge_count, g.edge_count,
                        msg=f"seed index {k}, t={state.time}",
                    )


class TestDeskScaleConvergence(unittest.TestCase):

    def test_families_reach_initial_average(self):
        for g in (generate_graph("cycle", 5), generate_graph("complete", 4),
                  generate_graph("path", 6)):
            rng = Xoshiro256StarStar(g.n)
            s = GarbageState([10.0 * rng.random() for _ in range(g.n)])
            traj = run(g, s, Threshold.infinite(), convergence_tol=1e-10)
            avg = float(s.values.mean())
            dev = max(abs(v - avg) for v in traj.final_state.values.tolist())
            self.assertLess(dev, 1e-8)


if __name__ == "__main__":
    unittest.main()
