import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import tempfile
import unittest
import warnings
from unittest import mock

import numpy as np

from garbagegame.analysis import _lyapunov_steps
from garbagegame.cli import VERIFY_SUITES, CliError, main, run_verify, to_json, trajectory_csv, validate_trajectory
from garbagegame.dynamics import GarbageState, Threshold, _orbit, run, step, transition_matrix
from garbagegame.graph import generate_graph, render_edge_list
from garbagegame.rng import derive_seed
from garbagegame.spectral import cheeger_check, nontrivial_displacement_bound

from fresh_python import ROOT, run_python


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


# an interpreter imports sitecustomize from its path at start-up, before -m or -c runs
FREEZE_HOOK = 'import atexit, gc, sys\natexit.register(lambda: print(f"frozen={gc.get_freeze_count() > 0}", file=sys.stderr))\n'


class TestProcessEntry(unittest.TestCase):
    """`python -m garbagegame` and the `garbagegame` script share __main__.run, which freezes the
    import-time heap; main() called in-process touches no gc state.  run() is never called here."""

    VERIFY = ["verify", "--suite", "hull", "--trials", "3", "--seed", "1"]

    def run_hooked(self, *args):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "sitecustomize.py"), "w", encoding="utf-8") as fh:
                fh.write(FREEZE_HOOK)
            with mock.patch.dict(os.environ, PYTHONPATH=tmp):
                return run_python(*args)

    def test_both_launches_freeze_before_exit_and_print_the_same(self):
        # the installed script imports the [project.scripts] target and exits with what it returns
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        module, func = re.search(r'^garbagegame = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        launches = {
            "-m": (["-m", "garbagegame"], "frozen=True\n"),
            "script": (["-c", f"import sys; from {module} import {func}; sys.exit({func}())"], "frozen=True\n"),
            "main": (["-c", "import sys; from garbagegame.cli import main; sys.exit(main())"], "frozen=False\n"),
        }
        code, want, _ = run_cli(self.VERIFY)
        self.assertEqual(code, 0)
        for name, (launch, frozen) in launches.items():
            proc = self.run_hooked(*launch, *self.VERIFY)
            self.assertEqual((proc.returncode, proc.stdout, proc.stderr), (0, want, frozen), msg=name)

    def test_exit_codes_through_the_entry(self):
        for argv, code, stderr in (
            (self.VERIFY, 0, ""),
            (["simulate", "--generate", "nope:3", "--epsilon", "inf"], 1,
             "error: unknown graph kind 'nope' in --generate spec\n"),
            (["simulate", "--generate", "cycle:4"], 2,
             "(?s)usage: .*: error: the following arguments are required: --epsilon\n"),
            (["--help"], 0, ""),
        ):
            proc = run_fresh(argv)
            self.assertEqual(proc.returncode, code, msg=argv)
            self.assertIsNotNone(re.fullmatch(stderr, proc.stderr), msg=(argv, proc.stderr))

    def test_main_in_process_leaves_the_collector_alone(self):
        before = gc.get_freeze_count(), gc.isenabled()
        self.assertEqual(run_cli(self.VERIFY)[0], 0)
        self.assertEqual((gc.get_freeze_count(), gc.isenabled()), before)


class TestNoExitCollectionNeeded(unittest.TestCase):
    """Each subcommand through the entry, in a child with warnings as errors and dev mode, writes
    nothing to stderr and the same bytes as in-process: no file or warning waits for the exit-time
    collection that the frozen heap skips."""

    def run_both(self, argv, child_argv=None):
        """(exit code, stdout, stderr) of argv in-process, after asserting that the child's are the same."""
        with mock.patch.dict(os.environ, PYTHONDEVMODE="1"):
            proc = run_fresh(child_argv or argv)
        got = run_cli(argv)
        self.assertEqual((proc.returncode, proc.stdout, proc.stderr), got, msg=argv)
        return got

    def test_each_subcommand_matches_the_in_process_run(self):
        for argv in (["verify", "--suite", "lyapunov", "--trials", "5", "--seed", "2"],
                     ["spectral", "--generate", "erdos_renyi:8:0.5", "--seed", "4"]):
            code, out, err = self.run_both(argv)
            self.assertEqual((code, err), (0, ""), msg=argv)
            self.assertTrue(out)
        simulate = ["simulate", "--generate", "cycle:12", "--init-random", "uniform:0:100", "--epsilon", "10",
                    "--max-steps", "400", "--seed", "3", "--validate"]
        with tempfile.TemporaryDirectory() as tmp:
            child, here = ([f"--out={tmp}/{side}.csv", f"--summary={tmp}/{side}.json"] for side in ("child", "main"))
            self.assertEqual(self.run_both(simulate + here, simulate + child)[::2], (0, ""))
            for ext in ("csv", "json"):
                with open(os.path.join(tmp, f"child.{ext}"), "rb") as a, open(os.path.join(tmp, f"main.{ext}"), "rb") as b:
                    self.assertEqual(a.read(), b.read(), msg=ext)


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
        code, _, err = run_cli(["simulate", "--generate", "path:3",
                                "--init", "1,x,3", "--epsilon", "inf"])
        self.assertEqual((code, err), (1, "error: bad --init list '1,x,3'\n"))
        for spec, message in (("uniform:0", "--init-random expects uniform:<lo>:<hi>"),
                              ("normal:0:1", "--init-random expects uniform:<lo>:<hi>"),
                              ("uniform:a:1", "bad --init-random bounds in 'uniform:a:1'"),
                              ("uniform:5:1", "uniform bounds must satisfy 0 <= lo <= hi, got 5.0:1.0")):
            code, _, err = run_cli(["simulate", "--generate", "path:3",
                                    "--init-random", spec, "--epsilon", "inf"])
            self.assertEqual((code, err), (1, f"error: {message}\n"), msg=spec)

    def test_overflowing_step_fails_cleanly(self):
        code, out, err = run_cli(["simulate", "--generate", "path:3",
                                  "--init", "1e308,0,1e308", "--epsilon", "inf"])
        self.assertEqual(code, 1)
        self.assertEqual(out, "")
        self.assertIn("error: garbage amounts must be finite", err)

    def test_out_is_written_all_or_nothing(self):
        # the run fails at its first step, after its first CSV row was made
        fails = ["simulate", "--generate", "path:3", "--init", "1e308,0,1e308", "--epsilon", "inf"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.csv")
            for before in (None, "t,x_1\n0,1\n"):
                if before is not None:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(before)
                code, out, err = run_cli([*fails, "--out", path])
                self.assertEqual((code, out, err), (1, "", "error: garbage amounts must be finite\n"))
                self.assertEqual(os.listdir(tmp), [] if before is None else ["traj.csv"])
                if before is not None:
                    with open(path, encoding="utf-8") as fh:
                        self.assertEqual(fh.read(), before)
            # a --validate failure half way through the rows
            real_step = step

            def bad_step(g, s, eps):
                nxt = real_step(g, s, eps)
                return GarbageState(nxt.values[::-1], time=nxt.time) if s.time == 5 else nxt

            with mock.patch("garbagegame.cli.step", bad_step):
                code, _, err = run_cli(["simulate", "--generate", "path:4", "--init", "0,1,2,4", "--epsilon", "inf",
                                        "--out", path, "--validate"])
            self.assertEqual((code, err), (1, "error: trajectory mismatch: step from t=5 does not reproduce t=6\n"))
            self.assertEqual(os.listdir(tmp), ["traj.csv"])
            with open(path, encoding="utf-8") as fh:
                self.assertEqual(fh.read(), "t,x_1\n0,1\n")

    def test_out_has_the_mode_of_a_plain_open(self):
        argv = ["simulate", "--generate", "cycle:4", "--init", "0,1,2,3", "--epsilon", "inf"]
        with tempfile.TemporaryDirectory() as tmp:
            plain, path = os.path.join(tmp, "plain.csv"), os.path.join(tmp, "traj.csv")
            for mode in (None, 0o640):  # a new file, then an existing one with its own mode
                if mode is not None:
                    os.chmod(plain, mode)
                    os.chmod(path, mode)
                with open(plain, "w", encoding="utf-8"):
                    pass
                self.assertEqual(run_cli([*argv, "--out", path])[0], 0)
                self.assertEqual(oct(os.stat(path).st_mode), oct(os.stat(plain).st_mode), msg=mode)
            self.assertEqual(sorted(os.listdir(tmp)), ["plain.csv", "traj.csv"])

    def test_out_through_a_link_writes_the_linked_file(self):
        argv = ["simulate", "--generate", "cycle:4", "--init", "0,1,2,3", "--epsilon", "inf"]
        with tempfile.TemporaryDirectory() as tmp:
            plain, target = os.path.join(tmp, "plain.csv"), os.path.join(tmp, "target.csv")
            symlink, hardlink = os.path.join(tmp, "sym.csv"), os.path.join(tmp, "hard.csv")
            self.assertEqual(run_cli([*argv, "--out", plain])[0], 0)
            with open(plain, encoding="utf-8") as fh:
                expected = fh.read()
            with open(target, "w", encoding="utf-8") as fh:
                fh.write("old\n")
            os.symlink(target, symlink)
            os.link(target, hardlink)
            for link in (symlink, hardlink):
                self.assertEqual(run_cli([*argv, "--out", link])[0], 0)
                self.assertTrue(os.path.islink(symlink))
                self.assertTrue(os.path.samefile(target, hardlink))
                with open(target, encoding="utf-8") as fh:
                    self.assertEqual(fh.read(), expected, msg=link)
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write("old\n")

    def test_out_in_a_missing_directory_names_the_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "missing", "traj.csv")
            code, out, err = run_cli(["simulate", "--generate", "cycle:4", "--init", "0,1,2,3", "--epsilon", "inf",
                                      "--out", path])
            self.assertEqual((code, out), (1, ""))
            self.assertEqual(err, f"error: [Errno 2] No such file or directory: {path!r}\n")
            # the file is opened after the walk, so a failing walk is the error reported
            code, out, err = run_cli(["simulate", "--generate", "path:3", "--init", "1e308,0,1e308", "--epsilon",
                                      "inf", "--out", path])
            self.assertEqual((code, out, err), (1, "", "error: garbage amounts must be finite\n"))
            self.assertEqual(os.listdir(tmp), [])

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
        # the plain float64 sums overflow: the summary still holds the exact means, as JSON, and the summary
        # and CSV keep their bytes (sha256)
        mean = 1e308 / 3 * 2
        for argv, want, digests in (
            (["--generate", "path:2", "--init", "1.7e308,1.7e308", "--epsilon", "inf"], (1.7e308, 0.0),
             ("feb91b3caf239fe27f3be35becb95b7a4d8a639987a204d0e931bcc16f40a48b",
              "fe8c7777ced1e3f37158c93f50f937e4fc7fe8edc9f16d007b213d87c16ac39c")),
            (["--generate", "path:3", "--init", "1e308,0,1e308", "--epsilon", "1e300", "--max-steps", "3",
              "--validate"], (mean, mean),
             ("5887dfeb12437590ed30ed26e38058e1bdefd18e721afa904568f2203587a8a8",
              "46ba3665339e43f24b0ce5bdc7a9c5fa6897b6427508c7e54bd253c39865a4f2")),
        ):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "traj.csv")
                proc = run_fresh(["simulate", *argv, "--out", path])
                with open(path, "rb") as fh:
                    csv_bytes = fh.read()
            self.assertEqual(proc.returncode, 0, msg=proc.stderr)
            self.assertEqual(proc.stderr, "")
            self.assertEqual(tuple(hashlib.sha256(b).hexdigest() for b in (proc.stdout.encode(), csv_bytes)), digests)
            summary = json.loads(proc.stdout)
            self.assertEqual(summary["limit_estimate"], want[0])
            self.assertEqual(summary["initial_average"], want[0])
            self.assertEqual(summary["max_abs_dev_from_average"], want[1])
            self.assertEqual(summary["conservation_error"], 0)

    def test_bad_generate_spec(self):
        one = "--generate {0} takes exactly one parameter: {0}:<order>"
        two = "--generate erdos_renyi takes two parameters: erdos_renyi:<order>:<p>"
        for spec, message in (
            ("nope:3", "unknown graph kind 'nope' in --generate spec"),
            ("blob:4", "unknown graph kind 'blob' in --generate spec"),
            ("", "unknown graph kind '' in --generate spec"),
            (":3", "unknown graph kind '' in --generate spec"),
            ("PATH:3", "unknown graph kind 'PATH' in --generate spec"),
            ("path", one.format("path")),
            ("cycle", one.format("cycle")),
            ("path:3:4", one.format("path")),
            ("cycle:4:9", one.format("cycle")),
            ("path:x", "bad --generate spec 'path:x': invalid literal for int() with base 10: 'x'"),
            ("cycle:x", "bad --generate spec 'cycle:x': invalid literal for int() with base 10: 'x'"),
            ("path:0", "bad --generate spec 'path:0': order must be a positive integer, got 0"),
            ("star:2.5", "bad --generate spec 'star:2.5': invalid literal for int() with base 10: '2.5'"),
            ("cycle:-1", "bad --generate spec 'cycle:-1': order must be a positive integer, got -1"),
            ("erdos_renyi:5", two),
            ("erdos_renyi:5:x", "bad --generate spec 'erdos_renyi:5:x': could not convert string to float: 'x'"),
            ("erdos_renyi:5:2", "bad --generate spec 'erdos_renyi:5:2': edge probability must be in [0, 1], got 2.0"),
            ("erdos_renyi:5:0.5:1", two),
        ):
            code, out, err = run_cli(["simulate", "--generate", spec, "--epsilon", "inf"])
            self.assertEqual((code, out, err), (1, "", f"error: {message}\n"), msg=spec)


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


def scaled_walk(g, s, eps):
    """The real walk with each state scaled by 1 + t: the total and the hull's top grow at every step."""
    for state, *rest in _orbit(g, s, eps):
        yield (GarbageState(state.values * (1 + state.time), time=state.time), *rest)


def short_decrements(g, s, eps):
    """The real records with each decrement one below its bound."""
    for rec, nxt in _lyapunov_steps(g, s, eps):
        yield dataclasses.replace(rec, decrement=rec.bound - 1.0), nxt


# per suite: the patches of cli's callees that force violations, the message of each kind of
# violation, and how many violations 2 trials at seed 0 and sizes 3:5 report
FORCED_VIOLATIONS = {
    "conservation": ({"_orbit": scaled_walk}, [r"conservation drift \S+ exceeds \S+ at t=\d+"], 50),
    "lyapunov": ({"_lyapunov_steps": short_decrements}, [r"decrement \S+ below bound \S+ at t=\d+"], 52),
    "triviality": (
        # scaled, and with one social edge inactive after every step
        {"_orbit": lambda g, s, eps: ((a, d, m - 1, deg) for a, d, m, deg in scaled_walk(g, s, eps))},
        [r"delta-triviality lost at t=\d+ for delta=\S+", r"active graph shrank after threshold-trivial state at t=\d+"],
        37,
    ),
    "hull": ({"_orbit": scaled_walk}, [r"hull grew at t=\d+: \[\S+,\S+\] -> \[\S+,\S+\]"], 50),
    "equivalence": (
        {"transition_matrix": lambda g, a, eps: 2.0 * transition_matrix(g, a, eps)},
        [r"matrix form disagrees with direct step at t=\d+", r"column sums off by 1\.000e\+00 at t=\d+"],
        24,
    ),
    "cheeger": (
        {"cheeger_check": lambda g: dataclasses.replace(cheeger_check(g), sandwich_ok=False, lambda2_floor=float("inf"))},
        [r"sandwich violated on n=\d+: lambda2=\S+ i=\S+", r"lambda2 \S+ not above floor inf"],
        4,
    ),
    "displacement": (
        {"nontrivial_displacement_bound": lambda *args: nontrivial_displacement_bound(*args)._replace(ok=False)},
        [r"displacement \S+ not above bound \S+ on n=\d+"],
        2,
    ),
}


class TestVerify(unittest.TestCase):

    def test_a_forced_violation_fails_the_report_and_the_exit_code(self):
        self.assertEqual(tuple(FORCED_VIOLATIONS), VERIFY_SUITES)
        for suite, (patches, patterns, count) in FORCED_VIOLATIONS.items():
            with self.subTest(suite=suite), contextlib.ExitStack() as stack:
                for name, fake in patches.items():
                    stack.enter_context(mock.patch(f"garbagegame.cli.{name}", fake))
                code, out, err = run_cli(["verify", "--suite", suite, "--trials", "2",
                                          "--seed", "0", "--sizes", "3:5"])
                self.assertEqual((code, err), (1, ""))
                report = json.loads(out)
                self.assertFalse(report["passed"])
                violations = report["violations"]
                self.assertEqual(len(violations), count)
                kinds = set()
                for v in violations:
                    self.assertEqual(list(v), ["trial", "seed", "message"])
                    self.assertIn(v["trial"], (0, 1))
                    self.assertEqual(v["seed"], derive_seed(0, v["trial"]))
                    kind = [i for i, p in enumerate(patterns) if re.fullmatch(p, v["message"])]
                    self.assertEqual(len(kind), 1, msg=v["message"])
                    kinds.update(kind)
                self.assertEqual(kinds, set(range(len(patterns))))

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

        with contextlib.ExitStack() as stack:
            for module in ("dynamics", "analysis", "spectral"):  # the modules that bind effective_edges
                stack.enter_context(mock.patch(f"garbagegame.{module}.effective_edges", no_topology))
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

    def test_stdout_bytes(self):
        # key order, ", " and ": " separators, %.17g numbers (integral floats without a point),
        # lowercase booleans and one trailing newline; lambda2's last bits come from this
        # machine's eigvalsh, so its text is taken from the in-process certificate
        cases = [
            (["--generate", "cycle:4"], generate_graph("cycle", 4),
             '"isoperimetric": 1, "max_degree": 2, "sandwich_ok": true, "lambda2_floor": 0.03125'),
            (["--generate", "star:6"], generate_graph("star", 6),
             '"isoperimetric": 1, "max_degree": 5, "sandwich_ok": true, "lambda2_floor": 0.0092592592592592587'),
            (["--generate", "erdos_renyi:12:0.4", "--seed", "3"],
             generate_graph("erdos_renyi", 12, 0.4, seed=derive_seed(3, 0)),
             '"isoperimetric": 1.5, "max_degree": 7, "sandwich_ok": true, "lambda2_floor": 0.0011574074074074073'),
        ]
        for argv, g, rest in cases:
            code, out, err = run_cli(["spectral", *argv])
            self.assertEqual((code, err), (0, ""), msg=argv)
            lambda2 = "%.17g" % cheeger_check(g).lambda2
            self.assertEqual(out, f'{{"lambda2": {lambda2}, {rest}}}\n', msg=argv)

    def test_disconnected_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.edges")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("n 4\n1 2\n3 4\n")
            code, out, err = run_cli(["spectral", "--graph", path])
            self.assertEqual((code, out), (1, ""))
            self.assertEqual(err, "error: graph is disconnected; spectral certificates need a connected graph\n")

    def test_oversize_rejected(self):
        # erdos_renyi:21:0 is disconnected too: the order rule is checked first
        for spec in ("cycle:21", "erdos_renyi:21:0"):
            code, out, err = run_cli(["spectral", "--generate", spec])
            self.assertEqual((code, out), (1, ""), msg=spec)
            self.assertEqual(err, "error: graph too large for exact certificates: n = 21 > 20\n", msg=spec)

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
        # JSON literals, a big int, escapes, -0.0, the least subnormal and a numpy float, nested
        probe = {"a": [None, True, False, 0, -5, 2**70, 'é"', [0.1, -0.0, 5e-324, np.float64(1.5)]], "n": {}}
        self.assertEqual(to_json(probe),
                         '{"a": [null, true, false, 0, -5, 1180591620717411303424, "\\u00e9\\"", '
                         '[0.10000000000000001, -0, 4.9406564584124654e-324, 1.5]], "n": {}}')
        self.assertEqual(to_json(("x", (1, 2.0), [])), '["x", [1, 2], []]')
        for value in ({1}, np.int64(1), object()):
            with self.assertRaises(TypeError, msg=repr(value)):
                to_json(value)

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
