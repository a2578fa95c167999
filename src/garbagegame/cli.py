"""Command-line front end.

Subcommands:
    simulate   run the dynamics from a config, emit trajectory CSV + summary JSON
    verify     run a named property suite on randomized instances
    spectral   print the spectral certificate of one graph as JSON

Numbers in emitted files use 17 significant digits, which round-trips
float64 exactly, so identical flags and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from itertools import islice, pairwise
from typing import Any, Callable

import numpy as np

from .analysis import (
    _lyapunov_steps,
    _SummaryFold,
    conservation_violation,
    hull_bounds,
    hull_violation,
    is_trivial,
    roundoff_slack,
)
from .dynamics import (
    GarbageState,
    Threshold,
    Trajectory,
    _energy_terms,
    _orbit,
    _Walk,
    effective_edges,
    step,
    transition_matrix,
)
from .graph import Graph, generate_graph, is_connected, is_star, laplacian, parse_edge_list, random_connected_graph
from .output import _FLOAT_FORMAT, _CsvRows, _written_on_success
from .rng import Xoshiro256StarStar, derive_seed
from .spectral import ISOPERIMETRIC_MAX_ORDER, cheeger_check, nontrivial_displacement_bound

_GENERAL_MAX_ORDER = 200  # dense eigen/step work stays desk-scale
_RUN_STATES = 26  # the states of a 25-step run, which each run-reading verify suite checks


class CliError(Exception):
    """Operational CLI failure; message goes to stderr, exit is nonzero."""


# ---------------------------------------------------------------------------
# deterministic serialization


def to_json(value: Any) -> str:
    """Deterministic JSON with float64-exact number formatting."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _FLOAT_FORMAT % value
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {to_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def trajectory_csv(traj: Trajectory) -> str:
    """Per-step CSV: t, x_1..x_n, energy, active edge count, max difference.
    Only the stored rows of a recorded periodic tail are formatted; simulate
    --out streams the same pieces to the file."""
    csv, tail = _CsvRows(), traj.periodic_tail
    stored = sum(tail) if tail else len(traj.states)
    pieces = []
    for s, d in zip(traj.states[:stored], traj.diagnostics[:stored]):
        pieces += csv.row(s, d.z, d.active_edges, d.max_diff)
    pieces += csv.tail(len(traj.states) - stored, tail[1] if tail else 0)
    return "".join(pieces)


# ---------------------------------------------------------------------------
# config parsing


def parse_generate_spec(spec: str, seed: int) -> Graph:
    """Parse a '--generate kind:params' token, e.g. cycle:4 or erdos_renyi:8:0.5."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind in ("path", "cycle", "star", "complete"):
            if len(parts) != 2:
                raise CliError(f"--generate {kind} takes exactly one parameter: {kind}:<order>")
            return generate_graph(kind, int(parts[1]))
        if kind == "erdos_renyi":
            if len(parts) != 3:
                raise CliError("--generate erdos_renyi takes two parameters: erdos_renyi:<order>:<p>")
            return generate_graph(kind, int(parts[1]), p=float(parts[2]), seed=seed)
    except ValueError as exc:
        raise CliError(f"bad --generate spec {spec!r}: {exc}") from None
    raise CliError(f"unknown graph kind {kind!r} in --generate spec")


def _load_graph(args: argparse.Namespace) -> Graph:
    if (args.graph is None) == (args.generate is None):
        raise CliError("exactly one of --graph or --generate is required")
    if args.graph is not None:
        try:
            with open(args.graph, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read graph file: {exc}") from None
        return parse_edge_list(text)
    return parse_generate_spec(args.generate, seed=derive_seed(args.seed, 0))


def random_uniform_state(n: int, lo: float, hi: float, seed: int) -> GarbageState:
    """Independent uniform(lo, hi) amount per agent from the seeded stream."""
    if not (0.0 <= lo <= hi):
        raise CliError(f"uniform bounds must satisfy 0 <= lo <= hi, got {lo}:{hi}")
    rng = Xoshiro256StarStar(seed)
    return GarbageState([rng.uniform(lo, hi) for _ in range(n)])


def _initial_state(args: argparse.Namespace, n: int) -> GarbageState:
    if (args.init is None) == (args.init_random is None):
        raise CliError("exactly one of --init or --init-random is required")
    if args.init is not None:
        try:
            values = [float(tok) for tok in args.init.split(",")]
        except ValueError:
            raise CliError(f"bad --init list {args.init!r}") from None
        if len(values) != n:
            raise CliError(f"--init has {len(values)} values but the graph has {n} vertices")
        return GarbageState(values)
    parts = args.init_random.split(":")
    if len(parts) != 3 or parts[0] != "uniform":
        raise CliError("--init-random expects uniform:<lo>:<hi>")
    try:
        lo, hi = float(parts[1]), float(parts[2])
    except ValueError:
        raise CliError(f"bad --init-random bounds in {args.init_random!r}") from None
    return random_uniform_state(n, lo, hi, seed=derive_seed(args.seed, 1))


# ---------------------------------------------------------------------------
# verify suites on randomized instances


def _random_graph(rng: Xoshiro256StarStar, lo: int, hi: int) -> Graph:
    return random_connected_graph(lo + rng.randrange(hi - lo + 1), rng)


def _random_instance(rng: Xoshiro256StarStar, lo: int, hi: int) -> tuple[Graph, GarbageState, Threshold]:
    g = _random_graph(rng, lo, hi)
    s = GarbageState([10.0 * rng.random() for _ in range(g.n)])
    if rng.random() < 0.5:
        eps = Threshold.infinite()
    else:
        spread = s.max_pairwise_diff()
        eps = Threshold((0.25 + rng.random()) * spread) if spread > 0 else Threshold(1.0)
    return g, s, eps


def _suite_steps(check, rng, lo, hi) -> list[str]:
    """The message of check(a, b) for each step of a 25-step run that fails it."""
    g, s, eps = _random_instance(rng, lo, hi)
    walk = islice(_orbit(g, s, eps), _RUN_STATES)
    return [m for (a, *_), (b, *_) in pairwise(walk) if (m := check(a, b))]


def _suite_lyapunov(rng, lo, hi) -> list[str]:
    g, s, eps = _random_instance(rng, lo, hi)
    out = []
    for rec, nxt in islice(_lyapunov_steps(g, s, eps), _RUN_STATES):  # a record for each state
        if rec.decrement < rec.bound - 1e-9:
            out.append(f"decrement {rec.decrement!r} below bound {rec.bound!r} at t={nxt.time - 1}")
    return out


def _suite_triviality(rng, lo, hi) -> list[str]:
    g, s, eps = _random_instance(rng, lo, hi)
    out = []
    vertices = range(1, g.n + 1)
    for (a, *_), (b, _, m_b, _) in pairwise(islice(_orbit(g, s, eps), _RUN_STATES)):
        slack = roundoff_slack(hull_bounds(a)[1])
        delta = max(a.max_pairwise_diff() * (0.5 + rng.random()), 1e-9)
        if is_trivial(a, vertices, delta) and not is_trivial(b, vertices, delta + slack):
            out.append(f"delta-triviality lost at t={a.time} for delta={delta!r}")
        if a.max_pairwise_diff() <= eps.epsilon and m_b != g.edge_count:
            out.append(f"active graph shrank after threshold-trivial state at t={a.time}")
    return out


def _suite_equivalence(rng, lo, hi) -> list[str]:
    g, s, eps = _random_instance(rng, lo, hi)
    out = []
    for (a, *_), (b, *_) in pairwise(islice(_orbit(g, s, eps), 7)):  # the states of a 6-step run
        direct = b.values
        A = transition_matrix(g, a, eps)
        via_matrix = A @ a.values
        if float(np.max(np.abs(via_matrix - direct))) > 1e-12:
            out.append(f"matrix form disagrees with direct step at t={a.time}")
        topo = effective_edges(g, a, eps)
        if topo.edge_count > 0:
            via_laplacian = (np.eye(g.n) - laplacian(topo) / topo.edge_count) @ a.values
            if float(np.max(np.abs(via_laplacian - direct))) > 1e-12:
                out.append(f"laplacian form disagrees with direct step at t={a.time}")
        col_err = float(np.max(np.abs(A.sum(axis=0) - 1.0)))
        if col_err > 1e-12:
            out.append(f"column sums off by {col_err:.3e} at t={a.time}")
    return out


def _suite_cheeger(rng, lo, hi) -> list[str]:
    g = _random_graph(rng, lo, hi)
    report = cheeger_check(g)
    out = []
    if not report.sandwich_ok:
        out.append(f"sandwich violated on n={g.n}: lambda2={report.lambda2!r} i={report.isoperimetric!r}")
    if not report.floor_ok:
        out.append(f"lambda2 {report.lambda2!r} not above floor {report.lambda2_floor!r}")
    return out


def _suite_displacement(rng, lo, hi) -> list[str]:
    g, s, _ = _random_instance(rng, lo, hi)  # the threshold, drawn last, goes unused
    spread = s.max_pairwise_diff()
    if spread <= 0.0:
        return []
    res = nontrivial_displacement_bound(g, s, Threshold.infinite(), range(1, g.n + 1), spread / 2.0)
    if not res.ok:
        return [f"displacement {res.lhs!r} not above bound {res.rhs!r} on n={g.n}"]
    return []


_SUITE_FUNCS: dict[str, Callable[[Xoshiro256StarStar, int, int], list[str]]] = {
    "conservation": functools.partial(_suite_steps, conservation_violation),
    "lyapunov": _suite_lyapunov,
    "triviality": _suite_triviality,
    "hull": functools.partial(_suite_steps, hull_violation),
    "equivalence": _suite_equivalence,
    "cheeger": _suite_cheeger,
    "displacement": _suite_displacement,
}
VERIFY_SUITES = tuple(_SUITE_FUNCS)


def run_verify(suite: str, trials: int, seed: int, size_lo: int, size_hi: int) -> dict:
    """Run one property suite on seeded random instances; returns the report."""
    if suite not in _SUITE_FUNCS:
        raise CliError(f"unknown suite {suite!r}; expected one of {VERIFY_SUITES}")
    if trials < 1:
        raise CliError(f"trials must be >= 1, got {trials}")
    max_order = ISOPERIMETRIC_MAX_ORDER if suite == "cheeger" else _GENERAL_MAX_ORDER
    if not (2 <= size_lo <= size_hi):
        raise CliError(f"sizes must satisfy 2 <= lo <= hi, got {size_lo}:{size_hi}")
    if size_hi > max_order:
        raise CliError(f"size budget exceeded for suite {suite!r}: {size_hi} > {max_order}")
    violations = []
    for trial in range(trials):
        trial_seed = derive_seed(seed, trial)
        rng = Xoshiro256StarStar(trial_seed)
        for message in _SUITE_FUNCS[suite](rng, size_lo, size_hi):
            violations.append({"trial": trial, "seed": trial_seed, "message": message})
    return {
        "suite": suite,
        "trials": trials,
        "seed": seed,
        "sizes": [size_lo, size_hi],
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# trajectory re-validation (--validate)


def _check_step(g: Graph, threshold: Threshold, a: GarbageState, b: GarbageState) -> None:
    """Raise on the first of: b is not a's step bit for bit, the total moved, the hull grew."""
    if not np.array_equal(step(g, a, threshold).values, b.values):
        raise CliError(f"trajectory mismatch: step from t={a.time} does not reproduce t={b.time}")
    message = conservation_violation(a, b) or hull_violation(a, b)
    if message:
        raise CliError(f"invalid trajectory: {message}")


def validate_trajectory(traj: Trajectory) -> None:
    """Re-check each distinct step on an emitted trajectory: it reproduces bit
    for bit, conserves the total and stays in the hull; raises on the first
    violation.  All three checks depend only on the two states' values, so
    with a periodic tail record, read-only like its trajectory, only the pairs
    of the distinct prefix (Trajectory.distinct_length) are replayed: the
    transient, one period and the wrap to the period's start.  Without a
    record (a trajectory built from lists, edited or not), every pair is."""
    for a, b in pairwise(traj.states[: traj.distinct_length()]):
        _check_step(traj.graph, traj.threshold, a, b)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    s0 = _initial_state(args, g.n)
    threshold = Threshold.parse(args.epsilon)
    walk = _Walk(g, s0, threshold, args.max_steps, args.tol)
    fold, csv, prev = _SummaryFold(g.n, threshold.epsilon, hull_bounds(s0)[1]), _CsvRows(), None
    # one pass over the walk feeds --validate, the summary and the CSV; no trajectory is kept
    with _written_on_success(args.out) if args.out else contextlib.nullcontext() as fh:
        for s, d, m, spread in walk:
            if args.validate and prev:
                _check_step(g, threshold, prev, s)
            fold.add(s, spread)
            if fh:
                fh.writelines(csv.row(s, _energy_terms(g, d, threshold)[1], m, spread))
            prev = s
        if fh:
            fh.writelines(csv.tail(walk.steps_run - (s.time - s0.time), walk.period))
    report = fold.report(walk.final, walk.converged, walk.steps_run)
    summary = {
        "n": g.n,
        "epsilon": "inf" if threshold.is_infinite else threshold.epsilon,
        "steps_run": report.steps_run,
        "converged": report.converged,
        "limit_estimate": report.limit_estimate,
        "initial_average": report.initial_average,
        "max_abs_dev_from_average": report.max_deviation_from_average,
        "conservation_error": report.conservation_error,
        "trivialization_time": report.trivialization_time,
        "is_star": is_star(g),
        "is_connected": is_connected(g),
    }
    summary_text = to_json(summary) + "\n"
    if args.summary:
        with open(args.summary, "w", encoding="utf-8", newline="") as fh:
            fh.write(summary_text)
    sys.stdout.write(summary_text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        lo_text, hi_text = args.sizes.split(":")
        size_lo, size_hi = int(lo_text), int(hi_text)
    except ValueError:
        raise CliError(f"bad --sizes {args.sizes!r}; expected lo:hi") from None
    report = run_verify(args.suite, args.trials, args.seed, size_lo, size_hi)
    sys.stdout.write(to_json(report) + "\n")
    return 0 if report["passed"] else 1


def cmd_spectral(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if g.n < 2:
        raise CliError(f"graph too small: n = {g.n}; spectral certificates need at least 2 vertices")
    if g.n > ISOPERIMETRIC_MAX_ORDER:
        raise CliError(f"graph too large for exact certificates: n = {g.n} > {ISOPERIMETRIC_MAX_ORDER}")
    if not is_connected(g):
        raise CliError("graph is disconnected; spectral certificates need a connected graph")
    report = cheeger_check(g)
    payload = {
        "lambda2": report.lambda2,
        "isoperimetric": report.isoperimetric,
        "max_degree": report.max_degree,
        "sandwich_ok": report.sandwich_ok,
        "lambda2_floor": report.lambda2_floor,
    }
    sys.stdout.write(to_json(payload) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="path to an edge-list file")
    parser.add_argument("--generate", help="generator spec, e.g. cycle:4 or erdos_renyi:8:0.5")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garbagegame",
        description="Simulate and verify the threshold-constrained garbage disposal game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the dynamics and emit CSV + summary JSON")
    _add_graph_source(sim)
    sim.add_argument("--init", help="comma-separated initial amounts, e.g. 0,1,2,3")
    sim.add_argument("--init-random", help="seeded distribution spec uniform:<lo>:<hi>")
    sim.add_argument("--epsilon", required=True, help="confidence threshold: positive real or 'inf'")
    sim.add_argument("--max-steps", type=int, default=100_000)
    sim.add_argument("--tol", type=float, default=1e-9, help="convergence tolerance on the spread")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", help="trajectory CSV output path")
    sim.add_argument("--summary", help="summary JSON output path (always printed to stdout)")
    sim.add_argument("--validate", action="store_true", help="re-check invariants before writing")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run a property suite on randomized instances")
    ver.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--sizes", default="3:10", help="graph order range lo:hi")
    ver.set_defaults(func=cmd_verify)

    spec = sub.add_parser("spectral", help="print the spectral certificate of a graph")
    _add_graph_source(spec)
    spec.add_argument("--seed", type=int, default=0)
    spec.set_defaults(func=cmd_spectral)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
