"""Fast-forward of exact periodic tails in run, the CSV and --validate.

The oracle is the plain loop run used before the fast-forward: one step and
one diagnosis per state until the stop test or max_steps.  It builds the
diagnostics from public functions only, so it shares no code path with run's
fused kernel pass.  A run must agree with it in every state's bytes, every
time index and every diagnostic's repr, so the CSV and summary bytes cannot
move.
"""

import contextlib
import io
import os
import tempfile
import unittest
from unittest import mock

from garbagegame import cli, dynamics
from garbagegame.analysis import lyapunov_z
from garbagegame.cli import trajectory_csv, validate_trajectory
from garbagegame.dynamics import GarbageState, StepDiagnostics, Threshold, Trajectory, effective_edges, run, step
from garbagegame.graph import Graph, generate_graph, random_connected_graph
from garbagegame.rng import Xoshiro256StarStar, derive_seed

P3 = generate_graph("path", 3)


def diagnose(g, s, threshold):
    return StepDiagnostics(
        lyapunov_z(g, s, threshold), effective_edges(g, s, threshold).edge_count, s.max_pairwise_diff()
    )


def plain_run(g, s0, threshold, max_steps, tol=1e-9):
    """The loop the fast-forward replaced: every state stepped and diagnosed."""
    states = [s0]
    diags = [diagnose(g, s0, threshold)]
    for _ in range(max_steps):
        d = diags[-1]
        if d.max_diff <= tol and d.active_edges == g.edge_count:
            break
        states.append(step(g, states[-1], threshold))
        diags.append(diagnose(g, states[-1], threshold))
    return Trajectory(graph=g, threshold=threshold, states=states, diagnostics=diags)


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


def counting(calls, real):
    def counted(*args, **kwargs):
        calls.append(args[1].time)
        return real(*args, **kwargs)

    return counted


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
        validate_trajectory(got)
        return got

    def test_locked_fixed_point(self):
        g = generate_graph("cycle", 16)
        rng = Xoshiro256StarStar(derive_seed(11, 1))
        s0 = GarbageState([rng.uniform(0.0, 100.0) for _ in range(16)])
        traj = self.assert_same_run(g, s0, Threshold(10.0), 600)
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
        rng = Xoshiro256StarStar(derive_seed(4042, 0))
        periods = set()
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
            traj = self.assert_same_run(g, GarbageState(x), Threshold(eps), 400, msg=f"instance {k}")
            periods.add(tail_period(traj))
        self.assertEqual(periods, {0, 1, 2})  # converged, locked and oscillating runs all occur


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
        advances, steps = [], []
        counted_step = counting(steps, dynamics.step)
        with mock.patch.object(dynamics, "_advance", counting(advances, dynamics._advance)), \
                mock.patch.object(dynamics, "step", counted_step), mock.patch.object(cli, "step", counted_step):
            traj = run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=100_000)
            self.assertEqual(advances, [0, 1])  # one pass per distinct state; t=2 repeats t=0
            self.assertEqual(steps, [])
            validate_trajectory(traj)
            self.assertLessEqual(len(steps), 3)
        self.assertEqual(traj.steps_run, 100_000)
        self.assertEqual(traj.final_state.values.tolist(), [0.0, 1.0, 5.0])

    def test_one_advance_per_state(self):
        advances = []
        with mock.patch.object(dynamics, "_advance", counting(advances, dynamics._advance)):
            traj = run(generate_graph("cycle", 6), GarbageState([0.0, 2.0, 4.0, 6.0, 8.0, 10.0]), Threshold(8.0))
        self.assertEqual(advances, [s.time for s in traj.states])  # the last state's pass included

    def test_tail_states_share_values(self):
        traj = run(P3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        self.assertIs(traj.states[40].values, traj.states[2].values)
        self.assertIs(traj.diagnostics[41], traj.diagnostics[1])
        self.assertFalse(traj.states[40].values.flags.writeable)


if __name__ == "__main__":
    unittest.main()
