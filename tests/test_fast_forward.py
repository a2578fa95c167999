"""Fast-forward of exact periodic tails in run, the CSV and --validate.

The oracle is the plain loop run used before the fast-forward: one step and
one diagnosis per state until the stop test or max_steps.  It builds the
diagnostics from public functions only, so it shares no code path with run's
fused kernel pass.  A run must agree with it in every state's bytes, every
time index and every diagnostic's repr, so the CSV and summary bytes cannot
move.  run records a periodic tail instead of storing it; its trajectory must
read like the oracle's plain lists through every sequence operation.
"""

import contextlib
import dataclasses
import io
import os
import tempfile
import tracemalloc
import unittest
from itertools import islice
from unittest import mock

from garbagegame import cli, dynamics
from garbagegame.analysis import _lyapunov_steps, convergence_report, lyapunov_z
from garbagegame.cli import trajectory_csv, validate_trajectory
from garbagegame.dynamics import GarbageState, StepDiagnostics, Threshold, Trajectory, effective_edges, run, step
from garbagegame.graph import Graph, generate_graph, random_connected_graph, render_edge_list
from garbagegame.rng import Xoshiro256StarStar, derive_seed

P3 = generate_graph("path", 3)


def diagnose(g, s, threshold):
    return StepDiagnostics(
        lyapunov_z(g, s, threshold), effective_edges(g, s, threshold).edge_count, s.max_pairwise_diff()
    )


def plain_run(g, s0, threshold, max_steps, tol=1e-9):
    """The loop the fast-forward replaced: every state stepped and diagnosed;
    converged is its stop test on the final state."""
    states = [s0]
    diags = [diagnose(g, s0, threshold)]

    def stopped(d):
        return d.max_diff <= tol and d.active_edges == g.edge_count

    for _ in range(max_steps):
        if stopped(diags[-1]):
            break
        states.append(step(g, states[-1], threshold))
        diags.append(diagnose(g, states[-1], threshold))
    return Trajectory(graph=g, threshold=threshold, states=states, diagnostics=diags, converged=stopped(diags[-1]))


def plain_csv(traj):
    """Every row formatted afresh, as before the x-cell reuse."""
    n = traj.graph.n
    lines = ["t," + ",".join(f"x_{i}" for i in range(1, n + 1)) + ",z,active_edges,max_diff"]
    for state, diag in zip(traj.states, traj.diagnostics):
        cells = [str(state.time)] + [format(v, ".17g") for v in state.values.tolist()]
        cells += [format(diag.z, ".17g"), str(diag.active_edges), format(diag.max_diff, ".17g")]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def tail_period(traj):
    """1 or 2 if the last state repeats the state 1 or 2 steps before it, else 0."""
    bits = [s.values.tobytes() for s in traj.states[-3:]]
    if len(bits) >= 2 and bits[-1] == bits[-2]:
        return 1
    if len(bits) == 3 and bits[-1] == bits[-3]:
        return 2
    return 0


def seeded_instances():
    """(label, graph, initial state, threshold) for 60 seeded runs: converged,
    threshold-locked and oscillating ones all occur."""
    rng = Xoshiro256StarStar(derive_seed(4042, 0))
    for k in range(60):
        n = 2 + rng.randrange(11)
        g = random_connected_graph(n, rng)
        scale = (1.0, 1e3, 1e12)[rng.randrange(3)]
        x = [scale * rng.random() for _ in range(n)]
        pick = rng.randrange(3)
        if pick == 0:
            u, v = g.edge_list[rng.randrange(g.edge_count)]
            eps = abs(x[u - 1] - x[v - 1]) or scale  # a tie on this edge
        elif pick == 1:
            eps = (0.05 + 0.5 * rng.random()) * scale
        else:
            eps = float("inf")
        yield f"instance {k}", g, GarbageState(x), Threshold(eps)


def copied(traj):
    """The same trajectory with every values array and diagnostics object a
    bit-equal copy, so nothing is shared; the converged record carries over."""
    states = [GarbageState(s.values.copy(), time=s.time) for s in traj.states]
    diags = [StepDiagnostics(d.z, d.active_edges, d.max_diff) for d in traj.diagnostics]
    return Trajectory(graph=traj.graph, threshold=traj.threshold, states=states, diagnostics=diags,
                      converged=traj.converged)


def locked_cycle16():
    """A cycle:16 run that locks into a fixed point after a transient of some steps."""
    rng = Xoshiro256StarStar(derive_seed(11, 1))
    return generate_graph("cycle", 16), GarbageState([rng.uniform(0.0, 100.0) for _ in range(16)]), Threshold(10.0)


def state_key(s):
    return s.time, s.values.tobytes()


def counting(calls, real):
    def counted(*args, **kwargs):
        calls.append(args[1].time)
        return real(*args, **kwargs)

    return counted


def counting_passes(passes, real):
    """Wraps the kernel's _next_values(g, x, gathered, mask): records each pass's amounts array."""
    def counted(g, x, gathered, mask):
        passes.append(x)
        return real(g, x, gathered, mask)

    return counted


def pass_times(passes, traj):
    """The time of the stored state whose amounts array each kernel pass read (None if none)."""
    stored = traj.states[: traj.distinct_length()]
    return [next((s.time for s in stored if s.values is x), None) for x in passes]


class TestMatchesPlainLoop(unittest.TestCase):

    def assert_same_run(self, g, s0, threshold, max_steps, tol=1e-9, msg=""):
        got = run(g, s0, threshold, max_steps=max_steps, convergence_tol=tol)
        want = plain_run(g, s0, threshold, max_steps, tol)
        self.assertEqual(got.steps_run, want.steps_run, msg=msg)
        self.assertEqual(len(got.diagnostics), len(want.diagnostics), msg=msg)
        for a, b, da, db in zip(got.states, want.states, got.diagnostics, want.diagnostics):
            self.assertEqual(a.time, b.time, msg=msg)
            self.assertEqual(a.values.tobytes(), b.values.tobytes(), msg=f"{msg} t={b.time}")
            self.assertEqual(repr(da), repr(db), msg=f"{msg} t={b.time}")
        self.assertEqual(trajectory_csv(got), plain_csv(want), msg=msg)
        self.assertEqual(repr(convergence_report(got)), repr(convergence_report(want)), msg=msg)
        validate_trajectory(got)
        return got

    def test_locked_fixed_point(self):
        traj = self.assert_same_run(*locked_cycle16(), 600)
        self.assertEqual(tail_period(traj), 1)

    def test_p3_orbit(self):
        traj = self.assert_same_run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), 301)
        self.assertEqual(tail_period(traj), 2)
        self.assertEqual(traj.steps_run, 301)

    def test_float_fixed_point_above_tolerance(self):
        # consensus up to rounding at a 1e12 scale: a bitwise fixed point whose
        # spread never reaches tol, so the run spins to max_steps
        rng = Xoshiro256StarStar(derive_seed(14, 1))
        s0 = GarbageState([1e12 * rng.random() for _ in range(6)])
        traj = self.assert_same_run(generate_graph("complete", 6), s0, Threshold.infinite(), 500)
        self.assertEqual(tail_period(traj), 1)
        self.assertEqual(traj.steps_run, 500)

    def test_no_active_edge(self):
        traj = self.assert_same_run(P3, GarbageState([0.0, 10.0, 20.0]), Threshold(1.0), 40)
        self.assertEqual(traj.diagnostics[-1].active_edges, 0)
        self.assertEqual(tail_period(traj), 1)
        s0 = GarbageState([3.0, 1.0, 4.0, 1.0])
        traj = self.assert_same_run(Graph(4), s0, Threshold.infinite(), 40)  # no edges at all
        self.assertEqual(traj.steps_run, 40)

    def test_single_vertex(self):
        traj = self.assert_same_run(Graph(1), GarbageState([3.0]), Threshold.infinite(), 40)
        self.assertEqual(traj.steps_run, 0)  # converged on the (empty) full graph

    def test_tie_at_threshold(self):
        # |d| == eps on the first edge is active, so the pair swaps forever
        traj = self.assert_same_run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(1.0), 50)
        self.assertEqual(tail_period(traj), 2)

    def test_nonzero_start_time(self):
        traj = self.assert_same_run(P3, GarbageState([0.0, 1.0, 5.0], time=7), Threshold(2.0), 20)
        self.assertEqual([s.time for s in traj.states], list(range(7, 28)))

    def test_seeded_instances(self):
        periods = set()
        for label, g, s0, threshold in seeded_instances():
            traj = self.assert_same_run(g, s0, threshold, 400, msg=label)
            periods.add(tail_period(traj))
        self.assertEqual(periods, {0, 1, 2})  # converged, locked and oscillating runs all occur

    def test_report_converged_is_the_stop_test(self):
        # the plain loop's stop test on its final state, from public functions only
        verdicts = set()
        for label, g, s0, threshold in seeded_instances():
            want = plain_run(g, s0, threshold, 400)
            d = diagnose(g, want.final_state, threshold)
            stopped = d.max_diff <= 1e-9 and d.active_edges == g.edge_count
            self.assertEqual(convergence_report(run(g, s0, threshold, max_steps=400)).converged, stopped, msg=label)
            verdicts.add(stopped)
        self.assertEqual(verdicts, {False, True})


class TestBitwiseNotValuePeriodicity(unittest.TestCase):

    def test_signed_zero_is_not_tiled(self):
        # state 0 holds -0.0 and state 2 holds +0.0: equal as floats, not in bits
        g = generate_graph("path", 4)
        s0 = GarbageState([-0.0, 100.0, 200.0, 205.0])
        got = run(g, s0, Threshold(10.0), max_steps=6)
        want = plain_run(g, s0, Threshold(10.0), 6)
        self.assertEqual([s.values.tobytes() for s in got.states], [s.values.tobytes() for s in want.states])
        rows = trajectory_csv(got).splitlines()
        self.assertEqual(trajectory_csv(got), plain_csv(want))
        self.assertTrue(rows[1].startswith("0,-0,100,200,205,"), msg=rows[1])
        self.assertTrue(rows[5].startswith("4,0,100,200,205,"), msg=rows[5])

    def test_cli_csv_keeps_signed_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--generate", "path:4", "--init=-0,100,200,205",
                                 "--epsilon", "10", "--max-steps", "6", "--out", path, "--validate"])
            self.assertEqual(code, 0)
            with open(path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()
        self.assertEqual([r.split(",")[1] for r in rows[1:]], ["-0", "0", "0", "0", "0", "0", "0"])
        self.assertTrue(rows[5].startswith("4,0,100,200,205,"), msg=rows[5])


class TestStepCalls(unittest.TestCase):

    def test_p3_tail_is_not_stepped(self):
        passes, steps = [], []
        counted_step = counting(steps, dynamics.step)
        with mock.patch.object(dynamics, "_next_values", counting_passes(passes, dynamics._next_values)), \
                mock.patch.object(dynamics, "step", counted_step), mock.patch.object(cli, "step", counted_step):
            traj = run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=100_000)
            self.assertEqual(pass_times(passes, traj), [0, 1])  # one pass per distinct state; t=2 repeats t=0
            self.assertEqual(steps, [])
            validate_trajectory(traj)
            start, period = traj.periodic_tail
            self.assertLessEqual(len(steps), start + period + 1)  # the transient, one period, the wrap pair
        self.assertEqual(traj.steps_run, 100_000)
        self.assertEqual(traj.final_state.values.tolist(), [0.0, 1.0, 5.0])

    def test_one_kernel_pass_per_state(self):
        passes = []
        with mock.patch.object(dynamics, "_next_values", counting_passes(passes, dynamics._next_values)):
            traj = run(generate_graph("cycle", 6), GarbageState([0.0, 2.0, 4.0, 6.0, 8.0, 10.0]), Threshold(8.0))
        self.assertEqual(pass_times(passes, traj), [s.time for s in traj.states])  # the last state's pass included

    def test_bit_equal_copies_are_replayed_to_the_same_output(self):
        # a trajectory run did not build: nothing is shared, so every pair is replayed
        for g, x in ((P3, [0.0, 1.0, 5.0]), (generate_graph("path", 4), [0.0, 1.0, 10.0, 11.0])):
            traj = run(g, GarbageState(x), Threshold(2.0), max_steps=60)
            self.assertIs(traj.states[-1].values, traj.states[-3].values)  # a fast-forwarded tail
            steps = []
            with mock.patch.object(cli, "step", counting(steps, dynamics.step)):
                validate_trajectory(copied(traj))
            self.assertEqual(trajectory_csv(copied(traj)), trajectory_csv(traj))
            self.assertEqual(steps, [s.time for s in traj.states[:-1]])

    def test_validate_replays_the_distinct_prefix(self):
        traj = run(*locked_cycle16(), max_steps=600)
        start, period = traj.periodic_tail
        self.assertGreater(start, 0)
        steps = []
        with mock.patch.object(cli, "step", counting(steps, dynamics.step)):
            validate_trajectory(traj)
        self.assertEqual(steps, [s.time for s in traj.states[: start + period]])

    def test_tail_states_share_values(self):
        traj = run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        self.assertIs(traj.states[40].values, traj.states[2].values)
        self.assertIs(traj.diagnostics[41], traj.diagnostics[1])
        self.assertFalse(traj.states[40].values.flags.writeable)


class TestCertificatePasses(unittest.TestCase):

    def test_one_kernel_pass_per_state_read(self):
        # k records read s and k next states, each from one pass of the orbit run walks
        g, s = generate_graph("cycle", 6), GarbageState([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        for threshold in (Threshold(3.0), Threshold.infinite()):  # masked and all-active passes
            for k in (1, 2, 26):
                passes = []
                with mock.patch.object(dynamics, "_next_values", counting_passes(passes, dynamics._next_values)):
                    read = [s, *(nxt for _, nxt in islice(_lyapunov_steps(g, s, threshold), k))]
                self.assertEqual(len(passes), k + 1)
                self.assertTrue(all(x is state.values for x, state in zip(passes, read)))


class TestCompressedTrajectory(unittest.TestCase):
    """run's trajectory, which records its tail, read against the oracle's plain lists."""

    def cases(self):
        yield "P3 orbit", P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), 301
        yield ("locked cycle:16", *locked_cycle16(), 600)

    def assert_same_entries(self, got, want, msg):
        self.assertEqual([state_key(s) for s in got.states], [state_key(s) for s in want.states], msg=msg)
        self.assertEqual([repr(d) for d in got.diagnostics], [repr(d) for d in want.diagnostics], msg=msg)

    def test_reads_match_the_plain_loop(self):
        for label, g, s0, threshold, max_steps in self.cases():
            got, want = run(g, s0, threshold, max_steps=max_steps), plain_run(g, s0, threshold, max_steps)
            n = len(want.states)
            start, period = got.periodic_tail
            self.assertLess(start + period + 1, n, msg=label)  # most entries are derived, not stored
            self.assertEqual(got.distinct_length(), start + period + 1, msg=label)
            self.assertIsNone(want.periodic_tail, msg=label)
            self.assertEqual(want.distinct_length(), n, msg=label)
            self.assertEqual((len(got.states), len(got.diagnostics)), (n, n), msg=label)
            self.assert_same_entries(got, want, label)  # iteration
            for i in (start + period, start + period + 1, n // 2, n - 1, -1, -2, -n):
                self.assertEqual(state_key(got.states[i]), state_key(want.states[i]), msg=f"{label} [{i}]")
                self.assertEqual(repr(got.diagnostics[i]), repr(want.diagnostics[i]), msg=f"{label} [{i}]")
            for part in (slice(-3, None), slice(None, -1), slice(None, None, 7), slice(start + 1, start + period + 4)):
                self.assertEqual([state_key(s) for s in got.states[part]],
                                 [state_key(s) for s in want.states[part]], msg=f"{label} {part}")
                self.assertEqual([repr(d) for d in got.diagnostics[part]],
                                 [repr(d) for d in want.diagnostics[part]], msg=f"{label} {part}")
            for i in (n, -n - 1):
                with self.assertRaises(IndexError, msg=f"{label} [{i}]"):
                    got.states[i]
            matrix = got.values_matrix()
            self.assertEqual(matrix.shape, (n, g.n), msg=label)
            self.assertEqual(matrix.tobytes(), want.values_matrix().tobytes(), msg=label)

    def test_a_record_less_copy_is_handled_entry_by_entry(self):
        for label, g, s0, threshold, max_steps in self.cases():
            want = plain_run(g, s0, threshold, max_steps)
            traj = copied(run(g, s0, threshold, max_steps=max_steps))
            self.assertIsNone(traj.periodic_tail, msg=label)
            self.assertEqual(traj.distinct_length(), len(want.states), msg=label)
            self.assert_same_entries(traj, want, label)
            steps = []
            with mock.patch.object(cli, "step", counting(steps, dynamics.step)):
                validate_trajectory(traj)
            self.assertEqual(steps, [s.time for s in want.states[:-1]], msg=label)
            self.assertEqual(trajectory_csv(traj), plain_csv(want), msg=label)
            self.assertEqual(repr(convergence_report(traj)), repr(convergence_report(want)), msg=label)

    def test_a_recorded_trajectory_is_read_only(self):
        for label, g, s0, threshold, max_steps in self.cases():
            traj = run(g, s0, threshold, max_steps=max_steps)
            tail = traj.periodic_tail
            self.assertIsNotNone(tail, msg=label)
            for name in ("states", "diagnostics"):
                entries = getattr(traj, name)
                with self.assertRaises(TypeError, msg=f"{label} {name}"):
                    entries[-5] = entries[-5]
                self.assertEqual(traj.periodic_tail, tail, msg=f"{label} {name}")
                with self.assertRaises(dataclasses.FrozenInstanceError, msg=f"{label} {name}"):
                    setattr(traj, name, list(entries))
            with self.assertRaises(dataclasses.FrozenInstanceError, msg=label):
                traj.converged = True
            self.assertEqual((traj.periodic_tail, traj.distinct_length()), (tail, sum(tail) + 1), msg=label)

    def test_csv_makes_no_tail_state(self):
        for label, g, s0, threshold, max_steps in self.cases():
            want = plain_run(g, s0, threshold, max_steps)
            with mock.patch.object(GarbageState, "_retimed", wraps=GarbageState._retimed) as retimed:
                traj = run(g, s0, threshold, max_steps=max_steps)  # its periodic lists retime through the spy
                text = trajectory_csv(traj)
                self.assertEqual(retimed.call_count, 0, msg=label)
                traj.states[-1]
                self.assertEqual(retimed.call_count, 1, msg=label)  # the spy sees a tail state being made
            self.assertEqual(text, plain_csv(want), msg=label)


class TestStreamedCsv(unittest.TestCase):

    def test_seeded_instances_through_the_cli(self):
        with tempfile.TemporaryDirectory() as tmp:
            graph_path, out = os.path.join(tmp, "graph.txt"), os.path.join(tmp, "traj.csv")
            for label, g, s0, threshold in seeded_instances():
                with open(graph_path, "w", encoding="utf-8") as fh:
                    fh.write(render_edge_list(g))
                init = ",".join(format(v, ".17g") for v in s0.values.tolist())
                eps = "inf" if threshold.is_infinite else format(threshold.epsilon, ".17g")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["simulate", "--graph", graph_path, "--init", init, "--epsilon", eps,
                                     "--max-steps", "400", "--out", out, "--validate"])
                self.assertEqual(code, 0, msg=label)
                with open(out, "rb") as fh:
                    self.assertEqual(fh.read(), plain_csv(plain_run(g, s0, threshold, 400)).encode(), msg=label)

    def test_locked_record_streams_in_little_memory(self):
        # a threshold-locked cycle:64 run of 10000 steps: about 12 MB of CSV, almost all of it tail rows
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "traj.csv")
            argv = ["simulate", "--generate", "cycle:64", "--init-random", "uniform:0:100", "--epsilon", "10",
                    "--max-steps", "10000", "--out", out, "--validate"]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.assertEqual(code, 0)
            with open(out, "rb") as fh:
                data = fh.read()
        s0 = cli.random_uniform_state(64, 0.0, 100.0, seed=derive_seed(0, 1))
        self.assertEqual(data, trajectory_csv(run(generate_graph("cycle", 64), s0, Threshold(10.0), 10000)).encode())
        self.assertLess(peak, len(data) / 8)


if __name__ == "__main__":
    unittest.main()
