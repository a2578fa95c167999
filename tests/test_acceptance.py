"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured margins (visible under pytest -s / on failure).

Criteria with a stated tolerance use exactly that tolerance.  Checks of
identities that are exact in real arithmetic but not in float64 (hull
nesting, triviality preservation) use a four-ulp roundoff allowance, six
orders of magnitude below the tightest stated tolerance.
"""

import json
import math
import tempfile
import time
import unittest
from itertools import pairwise
from pathlib import Path

import numpy as np

from garbagegame.analysis import (
    conservation_violation,
    decrement_lower_bound,
    hull_bounds,
    hull_violation,
    is_trivial,
    lyapunov_z,
    roundoff_slack,
)
from garbagegame.dynamics import (
    GarbageState,
    Threshold,
    effective_edges,
    run,
    step,
    transition_matrix,
)
from garbagegame.graph import (
    Graph,
    generate_graph,
    is_star,
    laplacian,
    random_connected_graph,
)
from garbagegame.rng import Xoshiro256StarStar, derive_seed

from fresh_python import run_python

SEED = 20260814

_criterion1_cache = None


def random_connected_nonstar_graph(order: int, rng: Xoshiro256StarStar) -> Graph:
    """Connected non-star instance; resamples until the star shape is avoided."""
    if order < 3:
        raise ValueError("non-star instances need at least 3 vertices")
    for _ in range(1000):
        g = random_connected_graph(order, rng)
        if not is_star(g):
            return g
    raise RuntimeError("failed to sample a non-star graph")  # pragma: no cover


def criterion1_runs():
    """100 seeded connected non-star instances, each run under both the
    no-threshold variant and a finite threshold above the initial spread.
    Shared between criteria 1 and 2."""
    global _criterion1_cache
    if _criterion1_cache is None:
        t0 = time.perf_counter()
        out = []
        for trial in range(100):
            rng = Xoshiro256StarStar(derive_seed(SEED, trial))
            n = 3 + rng.randrange(10)  # orders 3..12
            g = random_connected_nonstar_graph(n, rng)
            s0 = GarbageState([rng.uniform(0.0, 10.0) for _ in range(n)])
            spread = s0.max_pairwise_diff()
            finite = Threshold(1.5 * spread) if spread > 0.0 else Threshold(1.0)
            trajs = [run(g, s0, eps, max_steps=100_000, convergence_tol=1e-9)
                     for eps in (Threshold.infinite(), finite)]
            out.append((g, s0, trajs))
        _criterion1_cache = (out, time.perf_counter() - t0)
    return _criterion1_cache


class TestAcceptance(unittest.TestCase):

    def test_criterion_1_convergence_to_initial_average(self):
        runs, elapsed = criterion1_runs()
        worst = 0.0
        for g, s0, trajs in runs:
            avg0 = float(s0.values.mean())
            for traj in trajs:
                self.assertLessEqual(traj.steps_run, 100_000)
                dev = float(np.max(np.abs(traj.final_state.values - avg0)))
                worst = max(worst, dev)
                self.assertLessEqual(dev, 1e-8)
        self.assertLess(elapsed, 10.0)
        print(f"criterion 1 (convergence to initial average): PASS — "
              f"100 graphs x 2 thresholds, worst deviation {worst:.3e}, "
              f"{elapsed:.2f}s")

    def test_criterion_2_conservation_every_step(self):
        runs, _ = criterion1_runs()
        worst_ratio = 0.0
        steps = 0
        for g, s0, trajs in runs:
            budget = 1e-12 * g.n * float(s0.values.max())
            for traj in trajs:
                # each distinct step against its own state's budget, by the checker verify and --validate use
                for a, b in pairwise(traj.states[: traj.distinct_length()]):
                    self.assertIsNone(conservation_violation(a, b))
                sums = traj.values_matrix().sum(axis=1)
                drifts = np.abs(np.diff(sums))
                steps += drifts.size
                if drifts.size:
                    self.assertLessEqual(float(drifts.max()), budget)
                    worst_ratio = max(worst_ratio, float(drifts.max()) / budget)
        print(f"criterion 2 (conservation): PASS — {steps} steps, "
              f"worst drift at {worst_ratio:.3f} of budget")

    def test_criterion_3_energy_decrement_bound(self):
        # golden instance first
        s = GarbageState([0.0, 3.0, 6.0])
        p3 = generate_graph("path", 3)
        eps10 = Threshold(10.0)
        z0 = lyapunov_z(p3, s, eps10)
        z1 = lyapunov_z(p3, step(p3, s, eps10), eps10)
        self.assertEqual(z0 - z1, 27.0)
        self.assertEqual(decrement_lower_bound(p3, s, eps10), 18.0)
        self.assertGreaterEqual(z0 - z1, 18.0)

        worst_margin = math.inf
        for trial in range(100):
            rng = Xoshiro256StarStar(derive_seed(SEED + 1, trial))
            n = 3 + rng.randrange(8)  # orders 3..10
            g = random_connected_graph(n, rng)
            cur = GarbageState([rng.uniform(0.0, 10.0) for _ in range(n)])
            spread = cur.max_pairwise_diff()
            if trial % 2 == 0 or spread == 0.0:
                eps = Threshold.infinite()
            else:
                eps = Threshold((0.25 + rng.random()) * spread)
            for _ in range(25):
                z = lyapunov_z(g, cur, eps)
                nxt = step(g, cur, eps)
                z_next = lyapunov_z(g, nxt, eps)
                bound = decrement_lower_bound(g, cur, eps)
                self.assertGreaterEqual(z - z_next, bound - 1e-9)
                worst_margin = min(worst_margin, (z - z_next) - bound)
                cur = nxt
        print(f"criterion 3 (energy decrement bound): PASS — golden 27 >= 18, "
              f"100 runs x 25 steps, smallest margin {worst_margin:.3e}")

    def test_criterion_4_triviality_preservation_and_hull_nesting(self):
        preserved = 0
        for trial in range(1000):
            rng = Xoshiro256StarStar(derive_seed(SEED + 2, trial))
            n = 2 + rng.randrange(9)
            g = random_connected_graph(n, rng)
            s = GarbageState([rng.uniform(0.0, 10.0) for _ in range(n)])
            md = s.max_pairwise_diff()
            if md == 0.0:
                delta = 1e-9
            elif trial % 3 == 0:
                delta = md  # exact boundary
            else:
                delta = md * (1.0 + rng.random())
            eps = Threshold.infinite() if trial % 2 == 0 else Threshold(
                (0.25 + rng.random()) * md if md > 0.0 else 1.0)
            everyone = range(1, n + 1)
            self.assertTrue(is_trivial(s, everyone, delta))
            nxt = step(g, s, eps)
            slack = roundoff_slack(hull_bounds(s)[1])
            self.assertLessEqual(nxt.max_pairwise_diff(), delta + slack,
                                 msg=f"trial {trial}")
            preserved += 1

        nested_steps = 0
        for trial in range(100):
            rng = Xoshiro256StarStar(derive_seed(SEED + 3, trial))
            n = 2 + rng.randrange(9)
            g = random_connected_graph(n, rng)
            cur = GarbageState([rng.uniform(0.0, 10.0) for _ in range(n)])
            spread = cur.max_pairwise_diff()
            eps = Threshold.infinite() if trial % 2 == 0 else Threshold(
                (0.25 + rng.random()) * spread if spread > 0.0 else 1.0)
            for _ in range(20):
                nxt = step(g, cur, eps)
                self.assertIsNone(hull_violation(cur, nxt), msg=f"trial {trial}")
                nested_steps += 1
                cur = nxt
        print(f"criterion 4 (triviality preservation + hull nesting): PASS — "
              f"{preserved} one-step trials, {nested_steps} nested hull steps "
              f"(4-ulp roundoff allowance)")

    def test_criterion_5_cheeger_sandwich(self):
        from garbagegame.spectral import cheeger_check, isoperimetric_number, lambda2

        checked = 0

        def check(g, label):
            nonlocal checked
            lam = lambda2(g)
            iso = isoperimetric_number(g)
            delta_max = g.max_degree
            self.assertGreaterEqual(2.0 * iso, lam - 1e-9, msg=label)
            self.assertGreaterEqual(lam, iso * iso / (2.0 * delta_max) - 1e-9,
                                    msg=label)
            self.assertGreater(lam, 2.0 / g.n**3, msg=label)
            checked += 1

        for n in range(2, 13):
            for kind in ("path", "cycle", "star", "complete"):
                check(generate_graph(kind, n), f"{kind}:{n}")
        for trial in range(50):
            rng = Xoshiro256StarStar(derive_seed(SEED + 4, trial))
            n = 2 + rng.randrange(7)  # orders 2..8
            check(random_connected_graph(n, rng), f"random trial {trial}")

        c4 = generate_graph("cycle", 4)
        k2 = generate_graph("path", 2)
        self.assertAlmostEqual(lambda2(c4), 2.0, delta=1e-10)
        self.assertEqual(isoperimetric_number(c4), 1.0)
        self.assertAlmostEqual(lambda2(k2), 2.0, delta=1e-10)
        self.assertEqual(isoperimetric_number(k2), 1.0)
        print(f"criterion 5 (Cheeger sandwich + spectral floor): PASS — "
              f"{checked} graphs, goldens exact")

    def test_criterion_6_displacement_bound(self):
        from garbagegame.spectral import nontrivial_displacement_bound

        c4 = generate_graph("cycle", 4)
        res = nontrivial_displacement_bound(
            c4, GarbageState([0.0, 1.0, 2.0, 3.0]), Threshold.infinite(),
            [1, 2, 3, 4], 1.0)
        self.assertEqual(res.lhs, 2.0)
        self.assertEqual(res.rhs, 2.0 / 65536.0)
        self.assertTrue(res.ok)

        smallest_ratio = math.inf
        done = 0
        for trial in range(100):
            rng = Xoshiro256StarStar(derive_seed(SEED + 5, trial))
            n = 3 + rng.randrange(10)
            g = random_connected_graph(n, rng)
            s = GarbageState([rng.uniform(0.0, 10.0) for _ in range(n)])
            spread = s.max_pairwise_diff()
            if spread == 0.0:
                continue
            delta = spread / 2.0
            res = nontrivial_displacement_bound(
                g, s, Threshold.infinite(), range(1, n + 1), delta)
            self.assertTrue(res.ok, msg=f"trial {trial}: {res}")
            smallest_ratio = min(smallest_ratio, res.lhs / res.rhs)
            done += 1
        print(f"criterion 6 (displacement bound): PASS — golden rhs 2/65536, "
              f"{done} configurations, smallest lhs/rhs {smallest_ratio:.3e}")

    def test_criterion_7_step_form_equivalence(self):
        worst_gap = 0.0
        worst_col = 0.0
        for trial in range(1000):
            rng = Xoshiro256StarStar(derive_seed(SEED + 6, trial))
            n = 2 + rng.randrange(9)
            g = random_connected_graph(n, rng)
            s = GarbageState([rng.uniform(0.0, 10.0) for _ in range(n)])
            spread = s.max_pairwise_diff()
            eps = Threshold.infinite() if trial % 2 == 0 else Threshold(
                (0.25 + rng.random()) * spread if spread > 0.0 else 1.0)
            direct = step(g, s, eps).values
            A = transition_matrix(g, s, eps)
            gap = float(np.max(np.abs(A @ s.values - direct)))
            self.assertLessEqual(gap, 1e-12)
            worst_gap = max(worst_gap, gap)
            topo = effective_edges(g, s, eps)
            if topo.edge_count > 0:
                via_lap = (np.eye(n) - laplacian(topo) / topo.edge_count) @ s.values
                gap = float(np.max(np.abs(via_lap - direct)))
                self.assertLessEqual(gap, 1e-12)
                worst_gap = max(worst_gap, gap)
            col = float(np.max(np.abs(A.sum(axis=0) - 1.0)))
            self.assertLessEqual(col, 1e-12)
            worst_col = max(worst_col, col)
        print(f"criterion 7 (step-form equivalence): PASS — 1000 states, worst "
              f"componentwise gap {worst_gap:.3e}, worst column-sum error "
              f"{worst_col:.3e}")

    def test_criterion_8_star_degeneracy(self):
        # The paper excludes stars from convergence.  In this model the orbit
        # below is a threshold effect: at eps = inf every connected graph on
        # n >= 3 vertices converges, stars included, and only K2 oscillates.
        # Whether the paper's exclusion belongs to its proof or to a different
        # update rule is an open question.
        p3 = generate_graph("path", 3)
        traj = run(p3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0), max_steps=50)
        self.assertEqual(traj.steps_run, 50)
        for k, state in enumerate(traj.states):
            expect = [0.0, 1.0, 5.0] if k % 2 == 0 else [1.0, 0.0, 5.0]
            self.assertEqual(state.values.tolist(), expect, msg=f"t={k}")
        from garbagegame.analysis import convergence_report
        self.assertFalse(convergence_report(traj).converged)

        star6 = generate_graph("star", 6)
        A = transition_matrix(star6, GarbageState([3.0] * 6), Threshold.infinite())
        self.assertEqual(A[0, 0], 0.0)  # the center empties completely
        for k in range(1, 6):
            self.assertEqual(A[0, k], 0.2)
            self.assertEqual(A[k, k], 0.8)
        print("criterion 8 (star degeneracy): PASS — P3 = K_{1,2} at eps 2 keeps one "
              "active edge and swaps it: exact period-2 orbit for 50 steps, reported "
              "non-converged (a threshold effect; at eps = inf only K2 oscillates, "
              "tests/test_stars.py); star-6 center weight 0")

    def test_criterion_9_byte_identical_outputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = []
            for tag in ("a", "b"):
                csv = Path(tmp, f"{tag}.csv")
                summ = Path(tmp, f"{tag}.json")
                proc = run_python(
                    "-m", "garbagegame", "simulate",
                    "--generate", "erdos_renyi:9:0.4", "--init-random",
                    "uniform:0:10", "--epsilon", "inf", "--seed", "31415",
                    "--out", str(csv), "--summary", str(summ), text=False, check=True)
                outputs.append((proc.stdout, csv.read_bytes(), summ.read_bytes()))
            self.assertEqual(outputs[0], outputs[1])
            self.assertGreater(len(outputs[0][1]), 0)
            summary = json.loads(outputs[0][2])
            self.assertTrue(summary["converged"])
        print("criterion 9 (byte-identical reruns): PASS — stdout, CSV and "
              "summary JSON all byte-equal across two invocations")


if __name__ == "__main__":
    unittest.main()
