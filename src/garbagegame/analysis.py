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
from typing import Iterable, Iterator

import numpy as np

from .dynamics import (
    GarbageState,
    Threshold,
    Trajectory,
    _energy_terms,
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
    threshold = as_threshold(eps)
    return _energy_terms(g, next(_orbit(g, s, threshold))[1], threshold)[1]


def _decrement_bound(edge_count: int, deg: np.ndarray, x: np.ndarray, x_next: np.ndarray) -> float:
    """4 * sum_i (|E_t| - |N_i|) * (x_i - x_i')^2, summed in vertex order.  It
    saturates as _energy_terms' Z does: a term beyond the float64 range is inf,
    and so is the bound, without an overflow warning.  With no active edge,
    x_next has x's bits and every degree is 0, so the sum is +0.0."""
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
    walk = ((state, *_energy_terms(g, d, threshold), m, deg) for state, d, m, deg in _orbit(g, s, threshold))
    for (cur, sq, z, m, _), (nxt, sq_next, _, _, deg) in pairwise(walk):
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


def _scale_exponent(n: int, hi: float) -> int:
    """The k at which totals of n amounts of at most hi are summed, as sum(x * 2^-k) * 2^k: 0 while
    n * hi < 2^1023, so no plain total can overflow (the spare factor 2 covers a step's few-ulp
    overshoot of the hull); otherwise n.bit_length(), so 2^k > n and no scaled total can."""
    return 0 if n * hi < 2.0**1023 else n.bit_length()


def _total(s: GarbageState, k: int) -> float:
    """The total of s at scale 2^-k, summed once.  Sums scale exactly by 2^-k, as step does, short of
    amounts below 2^(k-1022); with k > 0 a run's totals are at least 2^1023 / n and absorb what those lose."""
    return float((np.ldexp(s.values, -k) if k else s.values).sum())


class _SummaryFold:
    """The quantities of convergence_report, folded state by state in O(1) memory: add takes a
    run's states in order (the distinct prefix of a recorded tail is enough: the tail repeats its
    totals, their steps and its spreads), report then reads the final state.

    hi is the largest amount any state added holds (up to a step's roundoff), so the scale of every
    total is decided once, by _scale_exponent: each state is summed once, and means and total
    differences come out as with an unbounded exponent."""

    def __init__(self, n: int, epsilon: float, hi: float) -> None:
        self.n, self.k, self.epsilon = n, _scale_exponent(n, hi), epsilon
        self.first = self.last = None  # totals at scale 2^-k
        self.step = 0.0  # the largest |total difference| of consecutive states, at scale 2^-k
        self.trivialization_time = None

    def add(self, s: GarbageState, spread: float) -> None:
        """Fold in the next state, and its spread for the first time it is at most epsilon."""
        total = _total(s, self.k)
        if self.last is None:
            self.first = total
        else:
            self.step = max(self.step, abs(total - self.last))
        self.last = total
        if self.trivialization_time is None and spread <= self.epsilon:
            self.trivialization_time = s.time

    def report(self, final: GarbageState, converged: bool, steps_run: int) -> ConvergenceReport:
        """The report of a run that ended at final, one of the states added (a mean is its total / n:
        numpy's mean, bit for bit)."""
        unit = 2.0**self.k
        initial_average = self.first / self.n * unit
        return ConvergenceReport(
            converged=converged,
            limit_estimate=_total(final, self.k) / self.n * unit,
            initial_average=initial_average,
            max_deviation_from_average=float(np.max(np.abs(final.values - initial_average))),
            trivialization_time=self.trivialization_time,
            steps_run=steps_run,
            conservation_error=self.step * unit,
        )


def conservation_violation(a: GarbageState, b: GarbageState) -> str | None:
    """Why the step a -> b changed the total beyond 1e-12 * a.n * max(a), or None.  Both totals
    are summed once, at the scale _scale_exponent takes from the pair's largest amount."""
    hi = float(a.values.max())
    budget = 1e-12 * a.n * hi
    k = _scale_exponent(a.n, max(hi, float(b.values.max())))
    drift = abs(_total(b, k) - _total(a, k)) * 2.0**k
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
    k = traj.distinct_length()
    states = traj.states[:k]  # the largest amount of them all: a built trajectory may leave its first hull
    fold = _SummaryFold(traj.graph.n, traj.threshold.epsilon, max(float(s.values.max()) for s in states))
    for s, d in zip(states, traj.diagnostics[:k]):
        fold.add(s, d.max_diff)
    return fold.report(traj.states[-1], traj.converged, traj.steps_run)
