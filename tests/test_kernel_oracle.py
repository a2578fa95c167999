"""Bitwise oracle for the vectorized step and energy kernels.

The reference functions below are the pure-Python loops the kernels
replaced, kept here verbatim in arithmetic order.  The kernels must agree
with them bit for bit (``tobytes`` / ``repr`` equality), not merely within a
tolerance: the CSV and summary bytes depend on every last digit.
"""

import math
import unittest
from itertools import compress, islice
from unittest import mock

import numpy as np

from garbagegame import dynamics
from garbagegame.analysis import _lyapunov_steps, decrement_lower_bound, lyapunov_record, lyapunov_z
from garbagegame.cli import random_uniform_state
from garbagegame.dynamics import (
    GarbageState,
    Threshold,
    _active,
    _next_values,
    effective_edges,
    run,
    step,
    transition_matrix,
)
from garbagegame.graph import Graph, connected_components, generate_graph, laplacian, random_connected_graph
from garbagegame.rng import Xoshiro256StarStar, derive_seed

MAGNITUDES = (1e-6, 1e-3, 1.0, 1e3, 1e12, 1e50, 1e150)


def ref_step(g, x, threshold):
    """Edges in lexicographic order, so each vertex's sum ascends in neighbor id."""
    x = list(x)
    recv = [0.0] * g.n
    deg = [0] * g.n
    m = 0
    for u, v in g.edge_list:
        u, v = u - 1, v - 1
        if abs(x[u] - x[v]) <= threshold:
            recv[u] += x[v]
            recv[v] += x[u]
            deg[u] += 1
            deg[v] += 1
            m += 1
    if m == 0:
        return np.array(x)
    return np.array([recv[i] / m + (1.0 - deg[i] / m) * x[i] for i in range(g.n)])


def ref_lyapunov_z(g, x, threshold):
    """Energy summed sequentially in edge order, starting from 0.0."""
    x = list(x)
    total = 0.0
    if math.isinf(threshold):
        for u, v in g.edge_list:
            d = x[u - 1] - x[v - 1]
            total += d * d
        return 2.0 * total
    e2 = threshold * threshold
    for u, v in g.edge_list:
        d = x[u - 1] - x[v - 1]
        total += min(e2, d * d)
    return 2.0 * total + (g.n * (g.n - 1) - 2 * g.edge_count) * e2


def ref_decrement_lower_bound(g, x, threshold):
    """4 * sum_i (|E_t| - |N_i|) * (x_i - x_i')^2, summed in vertex order."""
    active = [(u - 1, v - 1) for u, v in g.edge_list if abs(x[u - 1] - x[v - 1]) <= threshold]
    if not active:
        return 0.0
    deg = [0] * g.n
    for u, v in active:
        deg[u] += 1
        deg[v] += 1
    y = ref_step(g, x, threshold).tolist()
    total = 0.0
    for i in range(g.n):
        d = x[i] - y[i]
        total += (len(active) - deg[i]) * d * d
    return 4.0 * total


def ref_decrement(g, x, threshold):
    """2 * sum over edges of min(eps^2, d^2) - min(eps^2, d'^2), summed in edge order."""
    cap = threshold * threshold
    y = ref_step(g, x, threshold).tolist()
    total = 0.0
    for u, v in g.edge_list:
        d = x[u - 1] - x[v - 1]
        d_next = y[u - 1] - y[v - 1]
        total += min(cap, d * d) - min(cap, d_next * d_next)
    return 2.0 * total


def ref_active_topology(g, s, threshold):
    """The eager build effective_edges made before the active topology became a
    Graph: the edge set, each vertex's neighbor tuple cut from the half-edges
    (src, dst, edge id) sorted by (dst, src), and the Laplacian of a second Graph
    on the active edges."""
    _, mask, *_ = _active(g, s, threshold)
    eu, ev = g._ends
    ids = np.arange(g.edge_count)
    src, dst, eid = np.concatenate((eu, ev)), np.concatenate((ev, eu)), np.concatenate((ids, ids))
    order = np.lexsort((src, dst))
    src, dst, eid = src[order], dst[order], eid[order]
    on = mask[eid]
    flat = (src[on] + 1).tolist()  # active neighbors, grouped by vertex, each group ascending
    stops = np.cumsum(np.bincount(dst[on], minlength=g.n)).tolist()
    active_edges = frozenset(compress(g.edge_list, mask.tolist()))
    active = Graph(g.n, active_edges)
    return {
        "active_edges": active_edges,
        "neighborhoods": tuple(tuple(flat[a:b]) for a, b in zip([0] + stops, stops)),
        "edge_count": int(np.count_nonzero(mask)),
        "laplacian": laplacian(active),
        "components": connected_components(active),
    }


def ref_transition_matrix(g, s, threshold):
    """The builder transition_matrix had before it became I - L_t/|E_t| over effective_edges:
    its own masked endpoint arrays, bincount degrees on the diagonal, and 1/|E_t| assigned
    both ways along each active edge."""
    _, mask, _, m = _active(g, s, threshold)
    if m == 0:
        return np.eye(g.n)
    eu, ev = (ends[mask] for ends in g._ends)
    A = np.diag(1.0 - np.bincount(np.concatenate((eu, ev)), minlength=g.n) / m)
    A[eu, ev] = 1.0 / m
    A[ev, eu] = 1.0 / m
    return A


def instances(seed, count):
    """Seeded (graph, values, threshold) triples across shapes, magnitudes and ties."""
    rng = Xoshiro256StarStar(seed)
    for k in range(count):
        n = 1 + rng.randrange(14)
        shape = k % 5
        if shape == 0 and n >= 2:
            g = random_connected_graph(n, rng)
        elif shape == 1:
            g = generate_graph("star", n)
        elif shape == 2:
            g = Graph(n)  # no edges
        elif shape == 3:
            g = generate_graph("erdos_renyi", n, p=0.3, seed=k)  # may be disconnected
        else:
            g = generate_graph("complete", n)
        scale = MAGNITUDES[rng.randrange(len(MAGNITUDES))]
        x = [scale * rng.random() for _ in range(n)]
        if rng.random() < 0.25 and n >= 2:
            x[rng.randrange(n)] = x[rng.randrange(n)]  # an exactly equal pair
        pick = rng.randrange(4)
        if pick == 0 or not g.edge_list:
            eps = math.inf
        elif pick == 1:
            u, v = g.edge_list[rng.randrange(g.edge_count)]
            eps = abs(x[u - 1] - x[v - 1]) or scale  # a tie |d| == eps on this edge
        elif pick == 2:
            eps = (0.1 + rng.random()) * scale
        else:
            eps = scale * 1e-9
        yield g, x, eps


class TestKernelMatchesLoops(unittest.TestCase):

    def assert_same_bits(self, got, want, msg):
        self.assertIs(type(got), float, msg=msg)
        self.assertEqual(repr(got), repr(want), msg=msg)

    def test_step_energy_and_bound_are_bitwise_equal(self):
        for k, (g, x, eps) in enumerate(instances(derive_seed(4040, 0), 600)):
            msg = f"instance {k}: n={g.n} edges={g.edge_count} eps={eps!r}"
            cur = x
            for t in range(4):
                s = GarbageState(cur, time=t)
                got = step(g, s, Threshold(eps))
                want = ref_step(g, cur, eps)
                self.assertEqual(got.values.tobytes(), want.tobytes(), msg=f"{msg} t={t}")
                self.assert_same_bits(lyapunov_z(g, s, Threshold(eps)), ref_lyapunov_z(g, cur, eps), msg)
                self.assert_same_bits(
                    decrement_lower_bound(g, s, Threshold(eps)), ref_decrement_lower_bound(g, cur, eps), msg
                )
                rec = lyapunov_record(g, s, eps)
                self.assert_same_bits(rec.z, ref_lyapunov_z(g, cur, eps), msg)
                self.assert_same_bits(rec.decrement, ref_decrement(g, cur, eps), msg)
                self.assert_same_bits(rec.bound, ref_decrement_lower_bound(g, cur, eps), msg)
                _, nxt = next(_lyapunov_steps(g, s, Threshold(eps)))
                self.assertEqual(nxt.values.tobytes(), got.values.tobytes(), msg=f"{msg} t={t}")
                self.assertEqual(nxt.time, t + 1, msg=msg)
                cur = want.tolist()

    def test_run_diagnostics_match_loops(self):
        for k, (g, x, eps) in enumerate(instances(derive_seed(4041, 0), 150)):
            traj = run(g, GarbageState(x), Threshold(eps), max_steps=6)
            want = np.array(x)
            for state, diag in zip(traj.states, traj.diagnostics):
                values = state.values.tolist()
                msg = f"instance {k}, t={state.time}"
                self.assertEqual(state.values.tobytes(), want.tobytes(), msg=msg)
                want = ref_step(g, values, eps)
                self.assert_same_bits(diag.z, ref_lyapunov_z(g, values, eps), msg)
                self.assertIs(type(diag.max_diff), float, msg=msg)
                self.assertEqual(diag.max_diff, max(values) - min(values), msg=msg)
                active = sum(1 for u, v in g.edge_list if abs(values[u - 1] - values[v - 1]) <= eps)
                self.assertEqual(diag.active_edges, active, msg=msg)
                self.assertEqual(effective_edges(g, state, Threshold(eps)).edge_count, active, msg=msg)

    def test_carried_orbit_matches_chained_records_and_loops(self):
        # the certificate reads each state's differences, mask and squares off the
        # one pass of the orbit walk that also steps it; a fresh one-step record
        # from that state, and the loops, must give the same bits
        seen = set()
        for k, (g, x, eps) in enumerate(instances(derive_seed(4042, 0), 120)):
            msg = f"instance {k}: n={g.n} edges={g.edge_count} eps={eps!r}"
            seen |= {("n", g.n), ("inf", math.isinf(eps)), ("decade", math.ceil(math.log10(max(x) or 1.0)))}
            seen.add(("star", g.n >= 3 and max(g.degrees) == g.n - 1 == g.edge_count))
            seen.add(("tie", any(abs(x[u - 1] - x[v - 1]) == eps for u, v in g.edge_list)))
            s, cur = GarbageState(x), x
            for rec, nxt in islice(_lyapunov_steps(g, s, Threshold(eps)), 40):
                self.assertEqual(repr(rec), repr(lyapunov_record(g, s, eps)), msg=f"{msg} t={s.time}")
                self.assert_same_bits(rec.z, ref_lyapunov_z(g, cur, eps), msg)
                self.assert_same_bits(rec.decrement, ref_decrement(g, cur, eps), msg)
                self.assert_same_bits(rec.bound, ref_decrement_lower_bound(g, cur, eps), msg)
                seen.add(("no active edge", rec.bound == 0.0 and not any(
                    abs(cur[u - 1] - cur[v - 1]) <= eps for u, v in g.edge_list)))
                s, cur = step(g, s, eps), ref_step(g, cur, eps).tolist()
                self.assertEqual(nxt.values.tobytes(), s.values.tobytes(), msg=f"{msg} t={s.time}")
                self.assertEqual(nxt.values.tobytes(), np.array(cur).tobytes(), msg=f"{msg} t={s.time}")
                self.assertEqual(nxt.time, s.time, msg=msg)
        for case in (("n", 2), ("star", True), ("tie", True), ("no active edge", True), ("inf", True)):
            self.assertIn(case, seen)
        for decade in (-6, 0, 150):  # amounts up to 1e-6, 1 and 1e150
            self.assertIn(("decade", decade), seen)

    def test_all_active_exchange_matches_masked_path(self):
        # the masked path, taken with an all-true mask once edge_count no longer
        # says that the mask covers every edge
        for k, (g, x, _) in enumerate(instances(derive_seed(4043, 0), 200)):
            msg = f"instance {k}: n={g.n} edges={g.edge_count}"
            s = GarbageState(x)
            _, mask, gathered, m = _active(g, s, math.inf)
            self.assertEqual(m, g.edge_count, msg=msg)
            self.assertTrue(mask.all(), msg=msg)
            all_active = _next_values(g, s.values, gathered, mask, m)
            with mock.patch.object(Graph, "edge_count", -1):
                masked = _next_values(g, s.values, gathered, mask, m)
            for got, want in zip(all_active, masked):
                self.assertEqual(got.dtype, want.dtype, msg=msg)
                self.assertEqual(got.tobytes(), want.tobytes(), msg=msg)

    def test_all_active_step_skips_the_mask(self):
        # all active: one sum, over the gathered amounts themselves, and g's own degrees
        passes = []
        def spy(g, x, gathered, mask, m):
            passes.append((gathered, mask, _next_values(g, x, gathered, mask, m)))
            return passes[-1][2]

        g, s = generate_graph("cycle", 5), GarbageState([0.0, 1.0, 2.0, 3.0, 9.0])
        g._degree_array  # cached before bincount is watched
        sums = []
        with mock.patch.object(dynamics, "_next_values", spy):
            for eps in (Threshold.infinite(), Threshold(5.0)):  # every edge active; (4, 5) and (1, 5) inactive
                with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
                    step(g, s, eps)
                sums.append([c.kwargs["weights"] for c in bincount.call_args_list])
        (gathered, _, (_, deg)), (_, mask, _) = passes
        self.assertEqual(len(sums[0]), 1)
        self.assertIs(sums[0][0], gathered)
        self.assertIs(deg, g._degree_array)
        self.assertEqual(mask.tolist(), [True, False, True, True, False])
        self.assertEqual(len(sums[1]), 2)  # the masked amounts, then the active degrees
        self.assertEqual(sums[1][0].tolist(), [0.0, 0.0, 1.0, 2.0, 0.0, 1.0, 0.0, 2.0, 3.0, 0.0])

    def test_transition_matrix_is_bitwise_equal(self):
        # I - L_t/|E_t| of effective_edges against the masked builder it replaced: each entry is
        # 1 - deg/m, 0 - (-1/m) or 0 - 0, one IEEE operation as before
        seen = set()
        for k, (g, x, eps) in enumerate(instances(derive_seed(4045, 0), 400)):
            for s in (*run(g, GarbageState(x), Threshold(eps), max_steps=3).states, GarbageState([0.0] * g.n)):
                msg = f"instance {k}, t={s.time}: n={g.n} edges={g.edge_count} eps={eps!r} x={s.values.tolist()}"
                got, want = transition_matrix(g, s, Threshold(eps)), ref_transition_matrix(g, s, eps)
                self.assertEqual((got.dtype, got.shape), (want.dtype, want.shape), msg=msg)
                self.assertEqual(got.tobytes(), want.tobytes(), msg=msg)
                values = s.values.tolist()
                diffs = [abs(values[u - 1] - values[v - 1]) for u, v in g.edge_list]
                seen |= {("n", g.n), ("inf", math.isinf(eps)), ("zero state", not any(values)), ("tie", eps in diffs)}
                seen.add(("edges, none active", bool(diffs) and not any(d <= eps for d in diffs)))
        for case in (("n", 1), ("inf", True), ("zero state", True), ("edges, none active", True), ("tie", True)):
            self.assertIn(case, seen)

    def test_tie_is_active(self):
        g = generate_graph("path", 3)
        x = [0.1, 0.1 + 0.2, 0.7]
        eps = abs(x[0] - x[1])  # the float difference, compared inclusively
        got = step(g, GarbageState(x), Threshold(eps)).values
        self.assertEqual(got.tobytes(), ref_step(g, x, eps).tobytes())
        self.assertEqual(effective_edges(g, GarbageState(x), Threshold(eps)).edge_count, 1)


class TestRunMatchesLoopAtScale(unittest.TestCase):
    """Sums over dozens of neighbors, where a change of summation order shows in the bits."""

    def assert_run_matches_loop(self, g, s0, eps, steps):
        traj = run(g, s0, Threshold(eps), max_steps=steps)
        self.assertEqual(traj.steps_run, steps)
        want = s0.values
        for state, diag in zip(traj.states, traj.diagnostics):
            msg = f"t={state.time}"
            self.assertEqual(state.values.tobytes(), want.tobytes(), msg=msg)
            values = want.tolist()
            self.assertEqual(repr(diag.z), repr(ref_lyapunov_z(g, values, eps)), msg=msg)
            self.assertTrue(0 < diag.active_edges < g.edge_count, msg=msg)  # the masked pass
            want = ref_step(g, values, eps)

    def test_er_threshold_instance(self):
        # the benchmark's er_threshold input: 1000 vertices, 5037 edges, ~85% of them active
        g = generate_graph("erdos_renyi", 1000, 0.01, seed=derive_seed(0, 0))
        self.assertEqual(g.edge_count, 5037)
        self.assert_run_matches_loop(g, random_uniform_state(g.n, 0.0, 100.0, seed=derive_seed(0, 1)), 60.0, 20)

    def test_complete_graph_with_ties(self):
        rng = Xoshiro256StarStar(derive_seed(4044, 0))
        x = [10.0 * rng.randrange(11) for _ in range(60)]  # on a grid of 10
        g = generate_graph("complete", 60)
        self.assertTrue(any(abs(x[u - 1] - x[v - 1]) == 20.0 for u, v in g.edge_list))
        self.assert_run_matches_loop(g, GarbageState(x), 20.0, 20)


class TestActiveSubgraphMatchesEagerBuild(unittest.TestCase):

    def test_every_view_matches(self):
        for k, (g, x, eps) in enumerate(instances(derive_seed(4041, 0), 150)):
            for s in run(g, GarbageState(x), Threshold(eps), max_steps=3).states:
                msg = f"instance {k}, t={s.time}: n={g.n} eps={eps!r}"
                topo = effective_edges(g, s, Threshold(eps))
                want = ref_active_topology(g, s, eps)
                self.assertEqual(topo.edges, want["active_edges"], msg=msg)
                for v in range(1, g.n + 1):
                    self.assertEqual(topo.neighbors(v), want["neighborhoods"][v - 1], msg=msg)
                self.assertEqual(topo.edge_count, want["edge_count"], msg=msg)
                self.assertEqual(topo.degrees, tuple(map(len, want["neighborhoods"])), msg=msg)
                self.assertEqual(connected_components(topo), want["components"], msg=msg)
                L = laplacian(topo)
                self.assertEqual(L.dtype, np.int64, msg=msg)
                self.assertEqual(L.tobytes(), want["laplacian"].tobytes(), msg=msg)
                if topo.edge_count:  # the step matrix I - L/|E_t|: int64 L / m has the bits of a float L / m
                    float_form = want["laplacian"].astype(np.float64) / topo.edge_count
                    self.assertEqual((L / topo.edge_count).tobytes(), float_form.tobytes(), msg=msg)

    def test_one_active_set_is_one_value(self):
        p3 = generate_graph("path", 3)
        a = effective_edges(p3, GarbageState([0.0, 1.0, 5.0]), Threshold(2.0))
        b = effective_edges(p3, GarbageState([3.0, 3.5, 9.0]), Threshold(2.0))
        self.assertEqual(a, b)
        self.assertEqual(hash(a), hash(b))
        self.assertIs(type(a), Graph)
        self.assertEqual(a, Graph(3, frozenset({(1, 2)})))
        self.assertNotEqual(a, effective_edges(p3, GarbageState([0.0, 1.0, 2.0]), Threshold(2.0)))


if __name__ == "__main__":
    unittest.main()
