import math
import sys
import unittest
import warnings
from itertools import pairwise
from unittest import mock

import numpy as np

from garbagegame import analysis, dynamics

from garbagegame.analysis import (
    ConvergenceReport,
    _SummaryFold,
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
    StepDiagnostics,
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

    def test_no_active_edge_gives_positive_zero(self):
        # no branch for |E_t| = 0: x' has x's bits and every degree is 0, so each term is +0.0
        for values in ([0.0, 3.0, 6.0], [1e308, 0.0, 1e308]):
            s = GarbageState(values)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bounds = decrement_lower_bound(P3, s, Threshold(2.0)), lyapunov_record(P3, s, Threshold(2.0)).bound
            for bound in bounds:
                self.assertEqual((bound, math.copysign(1.0, bound)), (0.0, 1.0), msg=values)

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
        with mock.patch.object(analysis, "effective_edges", no_pass), mock.patch.object(analysis, "_orbit", no_pass), \
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


def _two_sums(s: GarbageState, k: int) -> tuple[float, float]:
    with np.errstate(over="ignore"):
        return float(s.values.sum()), float(np.ldexp(s.values, -k).sum())


def _two_sum_report(n, epsilon, states, spreads, final, converged, steps_run) -> ConvergenceReport:
    """The report by the two-sum rule, the oracle of the one-scale fold: every state is summed plainly and
    at 2^-k, k = n.bit_length(), and the scaled sums are read once any plain total is inf."""
    k = n.bit_length()
    totals = [_two_sums(s, k) for s in states]
    overflow = math.inf in [plain for plain, _ in totals]
    picked, unit = [t[overflow] for t in totals], 2.0**k if overflow else 1.0
    largest_step = 0.0
    for a, b in pairwise(picked):
        largest_step = max(largest_step, abs(b - a))
    initial_average = picked[0] / n * unit
    return ConvergenceReport(
        converged=converged,
        limit_estimate=_two_sums(final, k)[overflow] / n * unit,
        initial_average=initial_average,
        max_deviation_from_average=float(np.max(np.abs(final.values - initial_average))),
        trivialization_time=next((s.time for s, d in zip(states, spreads) if d <= epsilon), None),
        steps_run=steps_run,
        conservation_error=largest_step * unit,
    )


def _two_sum_violation(a: GarbageState, b: GarbageState) -> str | None:
    """conservation_violation by the two-sum rule: plain totals, and totals at 2^-k once one is inf."""
    budget = 1e-12 * a.n * float(a.values.max())
    with np.errstate(over="ignore"):
        totals, unit = [float(s.values.sum()) for s in (a, b)], 1.0
    if math.inf in totals:
        k = a.n.bit_length()
        totals, unit = [float(np.ldexp(s.values, -k).sum()) for s in (a, b)], 2.0**k
    drift = abs(totals[1] - totals[0]) * unit
    if drift > budget:
        return f"conservation drift {drift:.3e} exceeds {budget:.3e} at t={a.time}"
    return None


class _CountedSums(np.ndarray):
    calls = 0

    def sum(self, *args, **kwargs):
        _CountedSums.calls += 1
        return super().sum(*args, **kwargs)


def _counted(s: GarbageState) -> GarbageState:
    """s, with every .sum of its values (or of an array computed from them) counted."""
    s = GarbageState(s.values, s.time)
    object.__setattr__(s, "values", s.values.view(_CountedSums))
    return s


class TestOneScalePerRun(unittest.TestCase):
    """The fold and conservation_violation sum each state once, at a scale decided once from the
    largest amount, with the same bits as the two-sum rule on both sides of n * max = 2^1023."""

    TINY = (0.0, 5e-324, 1e-310, 1e-300)

    def test_matches_the_two_sum_rule_across_the_ceiling(self):
        sides = [0, 0]  # runs with n * max below 2^1023; at or above it with every plain total finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trial in range(400):
                rng = Xoshiro256StarStar(derive_seed(2003, trial))
                n = 9 + rng.randrange(40)
                g = generate_graph("cycle" if trial % 2 else "path", n)
                hi = 3.0 ** rng.uniform(-1.0, 1.0) / n * 2.0**1023  # receipts, <= 2 * hi, stay finite
                x = [hi * rng.random() if rng.random() < 0.7 else self.TINY[rng.randrange(4)] for _ in range(n)]
                x[rng.randrange(n)] = hi
                eps = Threshold.infinite() if trial % 4 < 2 else Threshold((0.05 + rng.random()) * hi)
                traj = run(g, GarbageState(x), eps, max_steps=rng.randrange(12))
                k = traj.distinct_length()
                states, spreads = traj.states[:k], [d.max_diff for d in traj.diagnostics[:k]]
                if n * hi < 2.0**1023:
                    sides[0] += 1
                elif all(_two_sums(s, 0)[0] < math.inf for s in states):
                    sides[1] += 1
                want = repr(_two_sum_report(n, eps.epsilon, states, spreads, traj.states[-1], traj.converged,
                                            traj.steps_run))
                fold = _SummaryFold(n, eps.epsilon, hi)  # as simulate folds: the scale from s0's max
                for s, spread in zip(states, spreads):
                    fold.add(s, spread)
                self.assertEqual(repr(fold.report(traj.states[-1], traj.converged, traj.steps_run)), want)
                self.assertEqual(repr(convergence_report(traj)), want)
                for a, b in pairwise(states):
                    y = b.values.copy()
                    j = rng.randrange(n)  # moved by 1e-16 to 1e-9 of itself: about half are violations
                    y[j] = min(y[j] * (1.0 + (rng.random() - 0.5) * 10.0 ** (-16 + 7 * rng.random())) +
                               self.TINY[rng.randrange(4)], sys.float_info.max)
                    for c in (b, GarbageState(y, b.time)):
                        self.assertEqual(conservation_violation(a, c), _two_sum_violation(a, c))
        self.assertGreater(min(sides), 150)

    def test_built_trajectory_whose_later_total_overflows(self):
        # the first state's n * max is below 2^1023, so the scale comes from the later state's max
        states = [GarbageState([2.9e307] * 3), GarbageState([1e308, 0.0, 1e308], time=1)]
        spreads = [s.max_pairwise_diff() for s in states]
        traj = Trajectory(graph=P3, threshold=Threshold.infinite(), states=states,
                          diagnostics=[StepDiagnostics(0.0, 2, d) for d in spreads])
        report = convergence_report(traj)
        self.assertEqual(repr(report), repr(_two_sum_report(3, math.inf, states, spreads, states[-1], False, 1)))
        self.assertEqual((report.initial_average, report.limit_estimate), (2.9e307, 1e308 / 3 * 2))
        self.assertTrue(math.isfinite(report.conservation_error))

    def test_real_violation_at_the_float_ceiling(self):
        top = sys.float_info.max
        for a, b, want in (
            # n * max beyond 2^1023 with finite plain totals; then b's plain total is inf, with a's n * max
            # beyond 2^1023 and below it
            ([8e307, 8e307, 0.0], [8e307, 8e307, 1e300], "conservation drift 1.000e+300 exceeds 2.400e+296 at t=4"),
            ([top, 0.0], [top, 1e297], "conservation drift 1.000e+297 exceeds 3.595e+296 at t=4"),
            ([4.4e307, 4.4e307], [1e308, 1e308], "conservation drift 1.120e+308 exceeds 8.800e+295 at t=4"),
        ):
            a, b = GarbageState(a, time=4), GarbageState(b, time=5)
            self.assertEqual(conservation_violation(a, b), want)
            self.assertEqual(_two_sum_violation(a, b), want)

    def test_ordinary_scale_sums_each_state_once(self):
        traj = run(C4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold(2.5), max_steps=6)
        states = [_counted(s) for s in traj.states]
        with mock.patch.object(np, "ldexp", wraps=np.ldexp) as ldexp, \
                mock.patch.object(np, "errstate", wraps=np.errstate) as errstate:
            _CountedSums.calls = 0
            fold = _SummaryFold(4, 2.5, 3.0)
            for s, d in zip(states, traj.diagnostics):
                fold.add(s, d.max_diff)
            self.assertEqual(_CountedSums.calls, len(states))
            _CountedSums.calls = 0
            for a, b in pairwise(states):
                self.assertIsNone(conservation_violation(a, b))
            self.assertEqual(_CountedSums.calls, 2 * (len(states) - 1))
        self.assertEqual((ldexp.call_count, errstate.call_count), (0, 0))

    def test_beyond_the_ceiling_each_state_is_summed_once_too(self):
        states = [_counted(GarbageState([1e308, 0.0, 1e308], time=t)) for t in range(3)]
        _CountedSums.calls = 0
        fold = _SummaryFold(3, 1e300, 1e308)
        for s in states:
            fold.add(s, 1e308)
        self.assertEqual(_CountedSums.calls, 3)
        self.assertEqual(fold.report(states[-1], False, 2).initial_average, 1e308 / 3 * 2)


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
