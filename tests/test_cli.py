import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import tempfile
import unittest
import warnings
from unittest import mock

from garbagegame.cli import CliError, main, run_verify, to_json, trajectory_csv, validate_trajectory
from garbagegame.dynamics import GarbageState, Threshold, run
from garbagegame.graph import generate_graph, render_edge_list

from fresh_python import run_python


def run_cli(argv):
    """Invoke the entry point capturing exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_fresh(argv):
    """Invoke the package in a fresh interpreter, where a numpy warning would reach stderr."""
    return run_python("-m", "garbagegame", *argv)


class TestFreshInterpreter(unittest.TestCase):

    def test_a_numpy_warning_fails_the_child(self):
        # the child errors on the warnings pytest's filterwarnings makes errors in-process
        proc = run_python("-c", "import numpy as np; np.float64(1e308) * 10")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("RuntimeWarning: overflow", proc.stderr)


class TestSimulate(unittest.TestCase):

    def test_cycle4_summary(self):
        code, out, err = run_cli(["simulate", "--generate", "cycle:4",
                                  "--init", "0,1,2,3", "--epsilon", "inf"])
        self.assertEqual(code, 0, msg=err)
        summary = json.loads(out)
        self.assertTrue(summary["converged"])
        self.assertAlmostEqual(summary["limit_estimate"], 1.5, delta=1e-9)
        self.assertEqual(summary["epsilon"], "inf")
        self.assertEqual(summary["n"], 4)
        self.assertFalse(summary["is_star"])
        self.assertTrue(summary["is_connected"])
        self.assertEqual(summary["trivialization_time"], 0)

    def test_oscillation_not_converged(self):
        code, out, _ = run_cli(["simulate", "--generate", "path:3",
                                "--init", "0,1,5", "--epsilon", "2",
                                "--max-steps", "50"])
        self.assertEqual(code, 0)
        summary = json.loads(out)
        self.assertFalse(summary["converged"])
        self.assertIsNone(summary["trivialization_time"])
        self.assertEqual(summary["steps_run"], 50)

    def test_negative_garbage_rejected(self):
        code, _, err = run_cli(["simulate", "--generate", "path:3",
                                "--init", "0,-1,2", "--epsilon", "inf"])
        self.assertNotEqual(code, 0)
        self.assertIn("negative garbage", err)

    def test_summary_keys(self):
        code, out, _ = run_cli(["simulate", "--generate", "complete:3",
                                "--init", "1,2,3", "--epsilon", "5"])
        self.assertEqual(code, 0)
        summary = json.loads(out)
        self.assertEqual(
            list(summary.keys()),
            ["n", "epsilon", "steps_run", "converged", "limit_estimate",
             "initial_average", "max_abs_dev_from_average", "conservation_error",
             "trivialization_time", "is_star", "is_connected"])
        self.assertEqual(summary["epsilon"], 5)

    def test_csv_and_summary_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = os.path.join(tmp, "traj.csv")
            json_path = os.path.join(tmp, "summary.json")
            code, out, _ = run_cli(["simulate", "--generate", "cycle:4",
                                    "--init", "0,1,2,3", "--epsilon", "inf",
                                    "--out", csv_path, "--summary", json_path,
                                    "--validate"])
            self.assertEqual(code, 0)
            with open(json_path, encoding="utf-8") as fh:
                self.assertEqual(json.load(fh), json.loads(out))
            with open(csv_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            self.assertEqual(lines[0], "t,x_1,x_2,x_3,x_4,z,active_edges,max_diff")
            summary = json.loads(out)
            self.assertEqual(len(lines), summary["steps_run"] + 2)  # header + step 0
            first = lines[1].split(",")
            self.assertEqual(first[0], "0")
            self.assertEqual([float(v) for v in first[1:5]], [0.0, 1.0, 2.0, 3.0])
            self.assertEqual(float(first[5]), 24.0)  # energy of the start state
            self.assertEqual(first[6], "4")

    def test_graph_file_input(self):
        g = generate_graph("erdos_renyi", 7, p=0.6, seed=11)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.edges")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_edge_list(g))
            code, out, _ = run_cli(["simulate", "--graph", path,
                                    "--init-random", "uniform:0:10",
                                    "--epsilon", "inf", "--seed", "3"])
            self.assertEqual(code, 0)
            self.assertEqual(json.loads(out)["n"], 7)

    def test_graph_file_is_closed(self):
        # an unclosed handle only warns (from its finalizer), so record the
        # ResourceWarning and fail on it
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.edges")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_edge_list(generate_graph("path", 3)))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                code, _, err = run_cli(["simulate", "--graph", path, "--init", "1,2,3",
                                        "--epsilon", "inf"])
            self.assertEqual(code, 0, msg=err)
            leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
            self.assertEqual(leaked, [])
            code, _, err = run_cli(["simulate", "--graph", os.path.join(tmp, "missing.edges"),
                                    "--init", "1,2,3", "--epsilon", "inf"])
            self.assertEqual(code, 1)
            self.assertIn("cannot read graph file", err)

    def test_init_random_deterministic(self):
        args = ["simulate", "--generate", "erdos_renyi:6:0.5", "--init-random",
                "uniform:0:10", "--epsilon", "inf", "--seed", "99"]
        a = run_cli(args)
        b = run_cli(args)
        self.assertEqual(a, b)

    def test_flag_conflicts(self):
        # graph source must be exactly one of --graph/--generate
        code, _, err = run_cli(["simulate", "--init", "1,2", "--epsilon", "inf"])
        self.assertEqual(code, 1)
        self.assertIn("--graph or --generate", err)
        code, _, err = run_cli(["simulate", "--generate", "path:3",
                                "--epsilon", "inf"])
        self.assertEqual(code, 1)
        self.assertIn("--init", err)
        code, _, err = run_cli(["simulate", "--generate", "path:3",
                                "--init", "1,2,3", "--init-random", "uniform:0:1",
                                "--epsilon", "inf"])
        self.assertEqual(code, 1)

    def test_bad_epsilon(self):
        code, _, err = run_cli(["simulate", "--generate", "path:3",
                                "--init", "1,2,3", "--epsilon", "-4"])
        self.assertEqual(code, 1)
        code, _, err = run_cli(["simulate", "--generate", "path:3",
                                "--init", "1,2,3", "--epsilon", "zero"])
        self.assertEqual(code, 1)

    def test_init_length_mismatch(self):
        code, _, err = run_cli(["simulate", "--generate", "path:3",
                                "--init", "1,2", "--epsilon", "inf"])
        self.assertEqual(code, 1)
        self.assertIn("3 vertices", err)

    def test_overflowing_step_fails_cleanly(self):
        code, out, err = run_cli(["simulate", "--generate", "path:3",
                                  "--init", "1e308,0,1e308", "--epsilon", "inf"])
        self.assertEqual(code, 1)
        self.assertEqual(out, "")
        self.assertIn("error: garbage amounts must be finite", err)

    def test_overflowing_energy_is_inf_and_silent(self):
        # Z of a finite state with |d| ~ 1e200 saturates to inf
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.csv")
            proc = run_fresh(["simulate", "--generate", "path:3", "--init", "1e200,0,1e200",
                              "--epsilon", "inf", "--max-steps", "5", "--out", path])
            self.assertEqual(proc.returncode, 0, msg=proc.stderr)
            self.assertEqual(proc.stderr, "")
            with open(path, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        self.assertEqual(len(rows), 6)
        self.assertEqual([row["z"] for row in rows], ["inf"] * 6)

    def test_totals_beyond_float64_range(self):
        # the plain float64 sums overflow: the summary still holds the exact means, as JSON
        mean = 1e308 / 3 * 2
        for argv, want in (
            (["--generate", "path:2", "--init", "1.7e308,1.7e308", "--epsilon", "inf"], (1.7e308, 0.0)),
            (["--generate", "path:3", "--init", "1e308,0,1e308", "--epsilon", "1e300", "--max-steps", "3",
              "--validate"], (mean, mean)),
        ):
            proc = run_fresh(["simulate", *argv])
            self.assertEqual(proc.returncode, 0, msg=proc.stderr)
            self.assertEqual(proc.stderr, "")
            summary = json.loads(proc.stdout)
            self.assertEqual(summary["limit_estimate"], want[0])
            self.assertEqual(summary["initial_average"], want[0])
            self.assertEqual(summary["max_abs_dev_from_average"], want[1])
            self.assertEqual(summary["conservation_error"], 0)

    def test_bad_generate_spec(self):
        for spec in ("blob:4", "cycle", "cycle:x", "erdos_renyi:5", "cycle:4:9"):
            code, _, err = run_cli(["simulate", "--generate", spec,
                                    "--init", "1,2,3,4", "--epsilon", "inf"])
            self.assertEqual(code, 1, msg=spec)


class TestValidate(unittest.TestCase):

    def test_tampered_state_names_the_step(self):
        traj = run(generate_graph("cycle", 6), GarbageState([0.0, 9.0, 1.0, 8.0, 2.0, 7.0]),
                   Threshold.infinite(), max_steps=10)
        values = traj.states[4].values.copy()
        values[[0, 1]] = values[[1, 0]]  # same total, so only the replay can catch it
        traj.states[4] = GarbageState(values, time=4)
        with self.assertRaises(CliError) as ctx:
            validate_trajectory(traj)
        self.assertIn("step from t=3 does not reproduce t=4", str(ctx.exception))

    def test_tampering_inside_a_periodic_tail_is_caught(self):
        traj = run(generate_graph("path", 3), GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        states = list(traj.states)
        values = states[40].values.copy()
        values[[0, 1]] = values[[1, 0]]  # the orbit's other state: the right bits at the wrong time
        states[40] = GarbageState(values, time=40)
        with self.assertRaises(CliError) as ctx:
            validate_trajectory(dataclasses.replace(traj, states=states, diagnostics=list(traj.diagnostics)))
        self.assertIn("step from t=39 does not reproduce t=40", str(ctx.exception))

    def test_shared_array_at_the_wrong_time_is_caught(self):
        # t=40 shares the array of the orbit's other state: sharing alone must not skip the pair
        traj = run(generate_graph("path", 3), GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        states = list(traj.states)
        states[40] = GarbageState._retimed(states[41], -1)
        with self.assertRaises(CliError) as ctx:
            validate_trajectory(dataclasses.replace(traj, states=states, diagnostics=list(traj.diagnostics)))
        self.assertIn("step from t=39 does not reproduce t=40", str(ctx.exception))

    def test_replayed_step_that_breaks_an_invariant(self):
        # step is patched to return the stored successor, so the replay passes and the
        # invariant checks decide: conservation first, then the hull
        traj = run(generate_graph("path", 4), GarbageState([10.0, 11.0, 12.0, 13.0]), Threshold.infinite(),
                   max_steps=5)
        a, b = traj.states[2], traj.states[3].values
        lo, hi = float(a.values.min()), float(a.values.max())
        low, high = int(b.argmin()), int(b.argmax())
        drifted = b.copy()
        drifted[low] += 0.5 * (hi - b[low])  # stays in the hull
        spilled = b.copy()
        spilled[low] -= hi - b[high] + 1.0  # the same total, 1.0 above the hull
        spilled[high] += hi - b[high] + 1.0
        drift = r"^invalid trajectory: conservation drift \d\.\d{3}e[+-]\d+ exceeds \d\.\d{3}e[+-]\d+ at t=2$"
        hull = f"invalid trajectory: hull grew at t=2: [{lo},{hi}] -> [{float(spilled.min())},{float(spilled.max())}]"
        cases = (("drift", drifted, drift), ("hull", spilled, f"^{re.escape(hull)}$"), ("both", spilled + 5.0, drift))
        for label, values, want in cases:
            states = list(traj.states)
            states[3] = GarbageState(values, time=3)
            tampered = dataclasses.replace(traj, states=states, diagnostics=list(traj.diagnostics))
            with mock.patch("garbagegame.cli.step", lambda g, s, eps: states[s.time + 1]), \
                    self.assertRaises(CliError, msg=label) as ctx:
                validate_trajectory(tampered)
            self.assertRegex(str(ctx.exception), want, msg=label)


class TestVerify(unittest.TestCase):

    def test_all_suites_pass(self):
        for suite in ("conservation", "lyapunov", "triviality", "hull",
                      "equivalence"):
            code, out, err = run_cli(["verify", "--suite", suite,
                                      "--trials", "20", "--seed", "1",
                                      "--sizes", "3:9"])
            self.assertEqual(code, 0, msg=f"{suite}: {err}")
            report = json.loads(out)
            self.assertTrue(report["passed"])
            self.assertEqual(report["violations"], [])
            self.assertEqual(report["trials"], 20)

    def test_cheeger_suite(self):
        code, out, _ = run_cli(["verify", "--suite", "cheeger", "--trials", "50",
                                "--seed", "0", "--sizes", "2:8"])
        self.assertEqual(code, 0)
        self.assertTrue(json.loads(out)["passed"])

    def test_displacement_suite(self):
        code, out, _ = run_cli(["verify", "--suite", "displacement",
                                "--trials", "30", "--seed", "0",
                                "--sizes", "3:12"])
        self.assertEqual(code, 0)
        self.assertTrue(json.loads(out)["passed"])

    def test_unknown_suite(self):
        code, _, err = run_cli(["verify", "--suite", "astrology", "--trials", "5"])
        self.assertEqual(code, 2)  # argparse rejects the choice

    def test_zero_trials(self):
        code, _, err = run_cli(["verify", "--suite", "lyapunov", "--trials", "0"])
        self.assertEqual(code, 1)
        self.assertIn("trials", err)

    def test_size_budget(self):
        code, _, err = run_cli(["verify", "--suite", "cheeger", "--trials", "2",
                                "--sizes", "2:50"])
        self.assertEqual(code, 1)
        self.assertIn("budget", err)
        code, _, err = run_cli(["verify", "--suite", "lyapunov", "--trials", "2",
                                "--sizes", "5:3"])
        self.assertEqual(code, 1)
        self.assertIn("sizes must satisfy 2 <= lo <= hi, got 5:3", err)
        code, _, err = run_cli(["verify", "--suite", "lyapunov", "--trials", "2",
                                "--sizes", "3-9"])
        self.assertEqual(code, 1)
        self.assertIn("bad --sizes '3-9'; expected lo:hi", err)
        with self.assertRaises(CliError) as ctx:
            run_verify("nope", 1, 0, 3, 10)
        self.assertIn("unknown suite 'nope'", str(ctx.exception))
        self.assertIn("'conservation', 'lyapunov', 'triviality', 'hull', 'equivalence', 'cheeger', 'displacement'",
                      str(ctx.exception))

    def test_triviality_suite_builds_no_topology(self):
        # whether every social edge stayed active is read from the kernel's mask
        def no_topology(*args, **kwargs):
            raise AssertionError("the triviality suite built an active topology")

        with mock.patch("garbagegame.cli.effective_edges", no_topology):
            self.assertTrue(run_verify("triviality", 20, 1, 3, 30)["passed"])

    def test_report_is_deterministic(self):
        args = ("lyapunov", 10, 7, 3, 8)
        self.assertEqual(run_verify(*args), run_verify(*args))


class TestSpectralCommand(unittest.TestCase):

    def test_cycle4(self):
        code, out, _ = run_cli(["spectral", "--generate", "cycle:4"])
        self.assertEqual(code, 0)
        report = json.loads(out)
        self.assertAlmostEqual(report["lambda2"], 2.0, delta=1e-10)
        self.assertEqual(report["isoperimetric"], 1.0)
        self.assertEqual(report["max_degree"], 2)
        self.assertTrue(report["sandwich_ok"])
        self.assertAlmostEqual(report["lambda2_floor"], 2.0 / 64.0, delta=1e-15)

    def test_star6(self):
        code, out, _ = run_cli(["spectral", "--generate", "star:6"])
        self.assertEqual(code, 0)
        report = json.loads(out)
        self.assertAlmostEqual(report["lambda2"], 1.0, delta=1e-10)
        self.assertEqual(report["isoperimetric"], 1.0)
        self.assertEqual(report["max_degree"], 5)
        self.assertTrue(report["sandwich_ok"])

    def test_disconnected_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.edges")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("n 4\n1 2\n3 4\n")
            code, _, err = run_cli(["spectral", "--graph", path])
            self.assertEqual(code, 1)
            self.assertIn("disconnected", err)

    def test_oversize_rejected(self):
        code, _, err = run_cli(["spectral", "--generate", "cycle:21"])
        self.assertEqual(code, 1)
        self.assertIn("too large", err)

    def test_single_vertex_rejected(self):
        code, out, err = run_cli(["spectral", "--generate", "path:1"])
        self.assertEqual(code, 1)
        self.assertEqual(out, "")
        self.assertEqual(err, "error: graph too small: n = 1; spectral certificates need at least 2 vertices\n")


class TestSerialization(unittest.TestCase):

    def test_float_formatting_round_trips(self):
        for v in (0.1, 1.5, 2.0 / 3.0, 1e-300, 12345.678901234567):
            self.assertEqual(float(format(v, ".17g")), v)

    def test_to_json_values(self):
        self.assertEqual(to_json({"a": None, "b": True, "c": [1, 2.5]}),
                         '{"a": null, "b": true, "c": [1, 2.5]}')
        self.assertEqual(to_json("inf"), '"inf"')

    def test_trajectory_csv_shape(self):
        g = generate_graph("cycle", 4)
        traj = run(g, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite(),
                   max_steps=5)
        text = trajectory_csv(traj)
        lines = text.splitlines()
        self.assertEqual(len(lines), 7)
        self.assertTrue(all(len(line.split(",")) == 8 for line in lines))


if __name__ == "__main__":
    unittest.main()
