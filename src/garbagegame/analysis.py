"""Descent certificates and convergence reporting for the disposal dynamics.

The central object is a nonincreasing energy over trajectories: the sum of
thresholded squared differences over ordered vertex pairs.  Its per-step
decrease admits an explicit lower bound, which the verification suites check
on every step of every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dynamics import (
    GarbageState,
    Threshold,
    Trajectory,
    _orbit,
    _ordered_sum,
    as_threshold,
    effective_edges,
    step,
)
from .graph import Graph, _vertex_ids


@dataclass(frozen=True)
class LyapunovRecord:
    """Energy at one state, its measured one-step decrease, and the certified
    lower bound on that decrease."""

    z: float
    decrement: float
    bound: float


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    limit_estimate: float
    initial_average: float
    max_deviation_from_average: float
    trivialization_time: int | None
    steps_run: int
    conservation_error: float


def lyapunov_z(g: Graph, s: GarbageState, eps: "Threshold | float") -> float:
    """Energy of a state: sum over ordered vertex pairs i != j.

    Finite threshold: social-edge pairs contribute min(eps^2, diff^2) and
    non-edge pairs contribute the constant eps^2.  Infinite threshold: the
    reduced form, plain squared differences over social-edge pairs only
    (the capped form would be infinite; the dropped terms are constant).
    """
    return next(_orbit(g, s, as_threshold(eps)))[2]


def _decrement_bound(edge_count: int, deg: np.ndarray, x: np.ndarray, x_next: np.ndarray) -> float:
    """4 * sum_i (|E_t| - |N_i|) * (x_i - x_i')^2, summed in vertex order.  It
    saturates as _energy_terms' Z does: a term beyond the float64 range is inf,
    and so is the bound, without an overflow warning."""
    if edge_count == 0:
        return 0.0
    d = x - x_next
    with np.errstate(over="ignore"):
        return 4.0 * _ordered_sum((edge_count - deg) * d * d)


def decrement_lower_bound(g: Graph, s: GarbageState, eps: "Threshold | float") -> float:
    """Certified lower bound on the one-step energy decrease:
    4 * sum_i (|E_t| - |N_i|) * (x_i - x_i')^2.  Zero when no edge is active.
    lyapunov_record(...).bound has the same bits from one kernel pass; this two-pass path
    stays while perfbench's test_tracer_restores_the_package pins its spans (ROADMAP.md item 2)."""
    threshold = as_threshold(eps)
    topo = effective_edges(g, s, threshold)
    return _decrement_bound(topo.edge_count, topo._degree_array, s.values, step(g, s, threshold).values)


def _lyapunov_steps(
    g: Graph, s: GarbageState, threshold: Threshold
) -> Iterator[tuple[LyapunovRecord, GarbageState]]:
    """lyapunov_record for s and each later state, with the validated next state, without
    end: read off consecutive pairs of dynamics._orbit, the walk run reads too, so k records
    take k kernel passes, one for each step they measure."""
    for (cur, sq, z, m, _), (nxt, sq_next, _, _, deg) in pairwise(_orbit(g, s, threshold)):
        decrement = 2.0 * _ordered_sum(sq - sq_next)
        yield LyapunovRecord(z, decrement, _decrement_bound(m, deg, cur.values, nxt.values)), nxt


def lyapunov_record(g: Graph, s: GarbageState, eps: "Threshold | float") -> LyapunovRecord:
    """Energy, measured decrease, and bound for one step from s, from one kernel pass.

    The decrease is summed edge by edge, not taken as Z - Z': both energies
    carry the non-edge constant (n(n-1) - 2|E|) eps^2, whose float64 rounding
    would otherwise read as a violation of the bound.
    """
    return next(_lyapunov_steps(g, s, as_threshold(eps)))[0]


def is_trivial(s: GarbageState, vertices: Iterable[int], delta: float) -> bool:
    """True iff all amounts on the given vertices lie within delta of each
    other (inclusive)."""
    delta = float(delta)
    if math.isnan(delta) or delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    vals = s.values[[v - 1 for v in _vertex_ids(vertices, s.n)]]
    return float(vals.max() - vals.min()) <= delta


def hull_bounds(s: GarbageState) -> tuple[float, float]:
    """The interval [min, max] spanned by the state; it never grows under a step."""
    return float(s.values.min()), float(s.values.max())


def roundoff_slack(scale: float) -> float:
    """Headroom for checking real-arithmetic identities in float64.

    The step is a convex combination evaluated in floating point, so hull
    bounds and pairwise spreads can overshoot their true values by a unit
    in the last place.  Four ulps of the value scale covers the observed
    worst case with margin while staying far below every stated tolerance.
    """
    return 4.0 * math.ulp(max(1.0, abs(scale)))


def _scaled_totals(states: Sequence[GarbageState]) -> tuple[list[float], float]:
    """The states' float64 totals and the factor that scales them back: 1 unless a
    plain sum overflows; then every total is summed from x * 2^-k, 2^k > n.  Sums
    scale exactly by 2^-k, as step does, so means and total differences come out
    as with an unbounded exponent (short of amounts below 2^(k-1022))."""
    with np.errstate(over="ignore"):
        totals = [float(s.values.sum()) for s in states]
    if math.inf not in totals:
        return totals, 1.0
    k = states[0].n.bit_length()
    return [float(np.ldexp(s.values, -k).sum()) for s in states], 2.0**k


def conservation_violation(a: GarbageState, b: GarbageState) -> str | None:
    """Why the step a -> b changed the total beyond 1e-12 * a.n * max(a), or None."""
    budget = 1e-12 * a.n * float(a.values.max())
    (total_a, total_b), unit = _scaled_totals((a, b))
    drift = abs(total_b - total_a) * unit
    if drift > budget:
        return f"conservation drift {drift:.3e} exceeds {budget:.3e} at t={a.time}"
    return None


def hull_violation(a: GarbageState, b: GarbageState) -> str | None:
    """Why the step a -> b left a's hull by more than the roundoff slack, or None."""
    lo_a, hi_a = hull_bounds(a)
    lo_b, hi_b = hull_bounds(b)
    slack = roundoff_slack(hi_a)
    if lo_b < lo_a - slack or hi_b > hi_a + slack:
        return f"hull grew at t={a.time}: [{lo_a},{hi_a}] -> [{lo_b},{hi_b}]"
    return None


def convergence_report(traj: Trajectory) -> ConvergenceReport:
    """Summarise a trajectory against the convergence-to-average prediction.

    converged is run's recorded verdict (Trajectory.converged), whose stop test
    requires every social edge to be active, so threshold-locked oscillations
    are reported honestly; the report makes no test of its own.

    Only the trajectory's distinct prefix is read (Trajectory.distinct_length):
    a periodic tail repeats its states' totals, step-to-step drifts and
    spreads, so conservation_error and trivialization_time come out as over
    every state.
    """
    g = traj.graph
    k = traj.distinct_length()
    states, diags = traj.states[:k], traj.diagnostics[:k]
    final = traj.states[-1]
    # the final state repeats one of the first k, so it changes no overflow decision;
    # a mean is its total / n: numpy's mean, bit for bit
    (*totals, final_total), unit = _scaled_totals([*states, final])
    initial_average = totals[0] / g.n * unit
    max_dev = float(np.max(np.abs(final.values - initial_average)))
    conservation_error = max((abs(b - a) for a, b in zip(totals, totals[1:])), default=0.0) * unit
    trivialization_time = next((s.time for s, d in zip(states, diags) if d.max_diff <= traj.threshold.epsilon), None)
    return ConvergenceReport(
        converged=traj.converged,
        limit_estimate=final_total / g.n * unit,
        initial_average=initial_average,
        max_deviation_from_average=max_dev,
        trivialization_time=trivialization_time,
        steps_run=traj.steps_run,
        conservation_error=conservation_error,
    )
