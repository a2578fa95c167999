"""Synchronous dynamics of the threshold-constrained garbage disposal game.

Each agent holds a nonnegative amount of garbage.  At every step the agents
whose amounts differ by at most the confidence threshold, and who are social
neighbors, exchange a fixed share: along each active edge both endpoints
dump the fraction 1/|E_t| of their garbage onto each other, where E_t is the
set of active edges.  The update is column-stochastic, so the total amount
is conserved.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class Threshold:
    """Confidence threshold; positive real or +infinity (no threshold)."""

    epsilon: float

    def __post_init__(self) -> None:
        eps = float(self.epsilon)
        if math.isnan(eps) or eps <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)

    @classmethod
    def infinite(cls) -> "Threshold":
        return cls(math.inf)

    @classmethod
    def parse(cls, text: str) -> "Threshold":
        """Parse a CLI token: 'inf' (or 'infinity') or a positive real."""
        token = text.strip().lower()
        if token in ("inf", "infinity"):
            return cls.infinite()
        try:
            return cls(float(token))
        except ValueError:
            raise ValueError(f"invalid threshold {text!r}: expected a positive real or 'inf'") from None

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.epsilon)


def as_threshold(eps: "Threshold | float") -> Threshold:
    return eps if isinstance(eps, Threshold) else Threshold(eps)


@dataclass(frozen=True, eq=False)
class GarbageState:
    """Garbage amounts of all agents at one time step.

    ``values`` is stored as a read-only float64 vector; every entry must be
    finite and nonnegative.
    """

    values: np.ndarray
    time: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("state must be a nonempty 1-D vector")
        if not np.isfinite(arr).all():
            raise ValueError("garbage amounts must be finite")
        if (arr < 0.0).any():
            i = int(np.argmin(arr))
            raise ValueError(f"negative garbage amount {float(arr[i])!r} at agent {i + 1}")
        if not isinstance(self.time, int) or isinstance(self.time, bool) or self.time < 0:
            raise ValueError(f"time must be a nonnegative integer, got {self.time!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _retimed(cls, s: "GarbageState", shift: int) -> "GarbageState":
        """The state s shift steps later, sharing s's validated read-only values."""
        new = object.__new__(cls)
        object.__setattr__(new, "values", s.values)
        object.__setattr__(new, "time", s.time + shift)
        return new

    @property
    def n(self) -> int:
        return int(self.values.size)

    def max_pairwise_diff(self) -> float:
        """Largest difference between any two agents' amounts."""
        return float(self.values.max() - self.values.min())


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-state trajectory diagnostics."""

    z: float
    active_edges: int
    max_diff: float


class PeriodicList(Sequence):
    """A read-only list of the given length whose stored items end with one
    period that repeats to the end: tail = (start, period) with start =
    len(items) - period, and entry i >= start is stored entry j = source(i),
    passed through retime(entry j, i - j) (unchanged without retime).

    Reads (len, iteration, indexing, slices) see every entry.  There is no
    assignment, so the tail, set once here, always describes the entries.
    """

    def __init__(self, items: list, period: int, length: int, retime: Callable | None = None) -> None:
        if not (1 <= period <= len(items) < length):
            raise ValueError("a periodic tail needs its transient, one period and at least one repeat")
        self._items, self._length, self._retime = tuple(items), length, retime
        self._start, self._period = len(items) - period, period  # start: the transient's length

    @property
    def tail(self) -> tuple[int, int]:
        """(start, period)."""
        return self._start, self._period

    def __len__(self) -> int:
        return self._length

    def source(self, i: int) -> int:
        """Index of the stored entry that entry i (0 <= i < len) repeats."""
        if i < len(self._items):
            return i
        return self._start + (i - self._start) % self._period

    def _entry(self, i: int):
        j = self.source(i)
        entry = self._items[j]
        return entry if i == j or self._retime is None else self._retime(entry, i - j)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._entry(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError("periodic list index out of range")
        return self._entry(i % len(self))

    def __iter__(self) -> Iterator:
        return (self._entry(i) for i in range(len(self)))


@dataclass(frozen=True)
class Trajectory:
    """Ordered states of one run, at least one, and a diagnostics entry per state.

    run records a periodic tail instead of storing it: states and diagnostics
    are then read-only PeriodicLists with the same tail, which hold the
    transient plus one period and make the re-timed tail entries on demand.
    Consumers read that record (periodic_tail, distinct_length) and handle only
    the distinct entries.  A trajectory built from plain lists has no record
    and is handled entry by entry.  All of this is checked once, when built.
    converged is run's stop verdict on the final state (False if built elsewhere).
    """

    graph: Graph
    threshold: Threshold
    states: Sequence[GarbageState]
    diagnostics: Sequence[StepDiagnostics]
    converged: bool = False

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a trajectory needs at least one state")
        if len(self.diagnostics) != len(self.states):
            raise ValueError("diagnostics must align one-to-one with states")
        layouts = [seq.tail if isinstance(seq, PeriodicList) else None for seq in (self.states, self.diagnostics)]
        if layouts[0] != layouts[1]:
            raise ValueError(f"states and diagnostics must share one periodic layout, got tails {layouts}")

    @property
    def initial_state(self) -> GarbageState:
        return self.states[0]

    @property
    def final_state(self) -> GarbageState:
        return self.states[-1]

    @property
    def steps_run(self) -> int:
        return len(self.states) - 1

    @property
    def periodic_tail(self) -> tuple[int, int] | None:
        """(start, period) of the tail run recorded, or None: from index start
        on, states and diagnostics repeat with that period."""
        return self.states.tail if isinstance(self.states, PeriodicList) else None

    def distinct_length(self) -> int:
        """Length of the shortest prefix that holds every distinct entry and
        every distinct pair of consecutive entries: with a periodic tail, the
        transient, one period and the entry that wraps round to the period's
        start; otherwise every entry."""
        tail = self.periodic_tail
        return len(self.states) if tail is None else sum(tail) + 1

    def values_matrix(self) -> np.ndarray:
        """States stacked as a (steps+1, n) array, row k = time index k."""
        return np.stack([s.values for s in self.states])


def _active(g: Graph, s: GarbageState, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge differences d = x[eu] - x[ev] in edge order, the active mask |d| <= threshold,
    and the tail amounts x[tails] of g's orientations, which _next_values sums."""
    if s.n != g.n:
        raise ValueError(f"state has {s.n} entries but graph has {g.n} vertices")
    gathered, m = s.values[g._orientations[0]], g.edge_count
    d = gathered[:m] - gathered[m:]
    return d, np.abs(d) <= threshold, gathered


def _ordered_sum(terms: np.ndarray) -> float:
    """Sum from 0.0 sequentially in array order.  numpy's sum is pairwise and
    Python >= 3.12's builtin sum is compensated; both would change the bits."""
    return float(terms.cumsum()[-1]) if terms.size else 0.0


def _energy_terms(g: Graph, d: np.ndarray, threshold: Threshold) -> tuple[np.ndarray, float]:
    """From the edge differences d: the capped squares min(ε², d²) per edge (plain
    d² at an infinite threshold) and the Lyapunov energy Z; see analysis.lyapunov_z.

    Z saturates: a square or a running sum beyond the float64 range (|d| or ε
    above ~1.3e154) is inf, and so is Z, without an overflow warning.  A graph
    with no non-edges adds no ε² term, so an infinite ε² never makes 0·inf = nan.
    """
    with np.errstate(over="ignore"):
        sq = d * d
        if threshold.is_infinite:
            return sq, 2.0 * _ordered_sum(sq)
        e2 = threshold.epsilon * threshold.epsilon
        np.minimum(sq, e2, out=sq)
        non_edges = g.n * (g.n - 1) - 2 * g.edge_count
        return sq, 2.0 * _ordered_sum(sq) + (non_edges * e2 if non_edges else 0.0)


def effective_edges(g: Graph, s: GarbageState, eps: "Threshold | float") -> Graph:
    """The active subgraph on g's vertices: the social edges whose endpoint
    amounts differ by at most the threshold (inclusive comparison)."""
    _, mask, _ = _active(g, s, as_threshold(eps).epsilon)
    return Graph(g.n, np.column_stack(g._ends)[mask] + 1)


def transition_matrix(g: Graph, s: GarbageState, eps: "Threshold | float") -> np.ndarray:
    """Column-stochastic transition matrix of one step.

    Off-diagonal entries are 1/|E_t| on active edges; the diagonal keeps the
    remainder 1 - |N_i|/|E_t|.  With no active edges the matrix is the
    identity.
    """
    _, mask, _ = _active(g, s, as_threshold(eps).epsilon)
    m = int(np.count_nonzero(mask))
    if m == 0:
        return np.eye(g.n)
    eu, ev = (ends[mask] for ends in g._ends)
    A = np.diag(1.0 - np.bincount(np.concatenate((eu, ev)), minlength=g.n) / m)
    A[eu, ev] = 1.0 / m
    A[ev, eu] = 1.0 / m
    return A


def _next_values(
    g: Graph, x: np.ndarray, gathered: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The unvalidated next values from the amounts x, their tail amounts gathered
    (see _active) and the active mask, with the active degrees |N_i| and the active
    edge count |E_t|.  Receipts are summed over g's orientations in stored order
    (bincount adds in input order), so in ascending neighbor id; an inactive one adds
    ±0.0, which changes no partial sum, as every bin starts at +0.0 and the amounts
    are finite and nonnegative.  With every edge active no mask is applied and the
    degrees are g's own."""
    m = int(np.count_nonzero(mask))
    if m == 0:
        return x, np.zeros(g.n, dtype=np.intp), 0
    heads = g._orientations[1]
    if m == g.edge_count:
        recv, deg = np.bincount(heads, weights=gathered, minlength=g.n), g._degree_array
    else:
        on = np.concatenate((mask, mask), dtype=np.float64)  # cast once for both sums
        recv = np.bincount(heads, weights=gathered * on, minlength=g.n)
        deg = np.bincount(heads, weights=on, minlength=g.n)
    return recv / m + (1.0 - deg / m) * x, deg.astype(np.intp, copy=False), m


def step(g: Graph, s: GarbageState, eps: "Threshold | float") -> GarbageState:
    """Advance one synchronous step.

    Each agent receives 1/|E_t| of every active neighbor's garbage and keeps
    the fraction 1 - |N_i|/|E_t| of its own.  Neighbor contributions
    accumulate in ascending neighbor id so results are reproducible.
    Runs in O(n + |E|): the threshold is tested on every social edge.
    """
    _, mask, gathered = _active(g, s, as_threshold(eps).epsilon)
    return GarbageState(_next_values(g, s.values, gathered, mask)[0], time=s.time + 1)


def _orbit(g: Graph, s: GarbageState, threshold: Threshold) -> Iterator[tuple]:
    """s and its later states, without end, each as one kernel pass gives it: (state, capped
    squares, Z, active degrees, |E_t|, next values); those are validated when the walk resumes."""
    while True:
        d, mask, gathered = _active(g, s, threshold.epsilon)
        x_next, deg, m = _next_values(g, s.values, gathered, mask)
        yield (s, *_energy_terms(g, d, threshold), deg, m, x_next)
        s = GarbageState(x_next, time=s.time + 1)


def run(
    g: Graph,
    s0: GarbageState,
    eps: "Threshold | float",
    max_steps: int = 100_000,
    convergence_tol: float = 1e-9,
) -> Trajectory:
    """Iterate the step up to max_steps, recording diagnostics each step.

    The states are read from _orbit, the one walk that the Lyapunov
    certificate reads too: the kernel pass that computes a state's successor
    also gives its energy Z and active edge count |E_t|.  The successor of
    the last state is computed but never validated or kept.

    Stops early once the amounts agree within convergence_tol AND every
    social edge is active (the post-threshold regime); oscillation on a
    proper subgraph is never reported as converged.  Every state is tested,
    the last of a max_steps run too; the final verdict is Trajectory.converged.

    Once a successor has the bits of the state 1 or 2 steps back (-0.0 and
    +0.0 differ), the rest of the run is that periodic orbit: its states
    already failed the stop test, so the remaining steps up to max_steps are
    not stepped (converged stays False).  The trajectory records where the
    orbit starts and its period (see Trajectory.periodic_tail) and stores only
    the transient plus one period, in read-only PeriodicLists; a tail entry is
    made on demand, a state re-timed around its period's values array and the
    period's diagnostics object itself.
    """
    threshold = as_threshold(eps)
    if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps < 0:
        raise ValueError(f"max_steps must be a nonnegative integer, got {max_steps!r}")
    if not (convergence_tol > 0.0):
        raise ValueError(f"convergence_tol must be positive, got {convergence_tol!r}")
    states, diags = [], []
    for s, _, z, _, m, x_next in _orbit(g, s0, threshold):
        states.append(s)
        diags.append(StepDiagnostics(z, m, s.max_pairwise_diff()))
        converged = diags[-1].max_diff <= convergence_tol and m == g.edge_count
        if converged or len(states) > max_steps:
            break
        bits = x_next.tobytes()  # equal bits are those of a state already validated
        period = next((p for p in (1, 2) if p <= len(states) and states[-p].values.tobytes() == bits), 0)
        if period:
            states = PeriodicList(states, period, max_steps + 1, GarbageState._retimed)
            diags = PeriodicList(diags, period, max_steps + 1)
            break
    return Trajectory(graph=g, threshold=threshold, states=states, diagnostics=diags, converged=converged)
