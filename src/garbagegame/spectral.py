"""Spectral certificates: algebraic connectivity, exact isoperimetric number,
the two-sided Cheeger bound, and the displacement lower bound for states that
are spread wider than a given delta on an active component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .dynamics import GarbageState, Threshold, _ordered_sum, as_threshold, effective_edges, step
from .graph import Graph, _vertex_ids, connected_components, is_connected, laplacian

ISOPERIMETRIC_MAX_ORDER = 20  # 2^n uint8 boundaries filled by numpy, ~7 MB at n = 20
_TOO_SMALL = "graph too small: n = {}; spectral certificates need at least 2 vertices"


@dataclass(frozen=True)
class SpectralReport:
    lambda2: float
    isoperimetric: float
    max_degree: int
    sandwich_ok: bool
    lambda2_floor: float

    @property
    def floor_ok(self) -> bool:
        """Strict spectral-gap floor 2/n^3 for connected graphs."""
        return self.lambda2 > self.lambda2_floor


class DisplacementBound(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def lambda2(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue (algebraic connectivity).

    Returns 0 for disconnected graphs; requires at least two vertices.
    """
    if g.n < 2:
        raise ValueError(_TOO_SMALL.format(g.n))
    if not is_connected(g):
        return 0.0
    eigs = np.linalg.eigvalsh(laplacian(g).astype(np.float64))
    return float(eigs[1])


def isoperimetric_number(g: Graph) -> float:
    """Exact isoperimetric number: the minimum over all nonempty vertex sets
    S with |S| <= n/2 of (boundary edge count) / |S|.

    Every subset's boundary is filled into one uint8 array of 2^n entries by
    the recurrence d(S + v) = d(S) + deg(v) - 2|N(v) & S| over S below v, one
    vectorized slice per vertex (~7 MB peak at n = 20).  The least boundary of
    each size is then compared exactly as a rational; capped at n = 20.
    """
    n = g.n
    if n < 2:
        raise ValueError(_TOO_SMALL.format(n))
    if n > ISOPERIMETRIC_MAX_ORDER:
        raise ValueError(f"graph too large for exact certificates: n = {n} > {ISOPERIMETRIC_MAX_ORDER}")
    lower = [0] * n  # neighbours u < v of each v, as a bit mask
    eu, ev = g._ends
    for u, v in zip(eu.tolist(), ev.tolist()):
        lower[v] |= 1 << u
    masks = np.arange(1 << (n - 1), dtype=np.uint32)
    boundary = np.zeros(1 << n, dtype=np.uint8)  # cuts of n <= 20 hold at most 100 edges
    size = np.zeros(1 << n, dtype=np.uint8)
    for v, deg in enumerate(g.degrees):
        below, above = slice(0, 1 << v), slice(1 << v, 2 << v)
        inside = np.bitwise_count(masks[below] & lower[v])
        np.add(boundary[below], deg, out=boundary[above])
        np.subtract(boundary[above], np.left_shift(inside, 1, out=inside), out=boundary[above])
        np.add(size[below], 1, out=size[above])
    best_num, best_den = 1, 0  # ratio +inf sentinel replaced on first candidate
    for s in range(1, n // 2 + 1):
        b = int(boundary[size == s].min())
        if b * best_den < best_num * s:
            best_num, best_den = b, s
    return best_num / best_den


def cheeger_check(g: Graph) -> SpectralReport:
    """Evaluate the two-sided bound 2*i(G) >= lambda2 >= i(G)^2 / (2*max_degree)
    together with the connectivity floor lambda2 > 2/n^3.

    Accepts an order within the enumeration budget (checked first), then only a connected graph.
    """
    iso = isoperimetric_number(g)
    if not is_connected(g):
        raise ValueError("graph is disconnected; spectral certificates need a connected graph")
    lam = lambda2(g)
    max_deg = g.max_degree
    sandwich_ok = (2.0 * iso >= lam - 1e-9) and (lam >= iso * iso / (2.0 * max_deg) - 1e-9)
    return SpectralReport(
        lambda2=lam,
        isoperimetric=iso,
        max_degree=max_deg,
        sandwich_ok=sandwich_ok,
        lambda2_floor=2.0 / float(g.n) ** 3,
    )


def nontrivial_displacement_bound(
    g: Graph,
    s: GarbageState,
    eps: "Threshold | float",
    component: Iterable[int],
    delta: float,
) -> DisplacementBound:
    """Check the displacement inequality on one active connected component H:

        sum_{i in H} (x_i - x_i')^2  >  2*delta^2 / (|H|^6 * |E_t|^2)

    where x' is the full-graph one-step update and |E_t| counts all active
    edges.  The component's amounts must be spread strictly wider than delta
    (otherwise the precondition fails), and H must be exactly one connected
    component of the active graph.
    """
    threshold = as_threshold(eps)
    delta = float(delta)
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta!r}")
    topo = effective_edges(g, s, threshold)
    comp = frozenset(_vertex_ids(component, g.n))
    if comp not in connected_components(topo):
        raise ValueError("given vertex set is not a connected component of the active graph")
    rows = [v - 1 for v in sorted(comp)]
    vals = s.values[rows]
    if float(vals.max() - vals.min()) <= delta:
        raise ValueError(f"component amounts lie within delta = {delta}; bound only applies beyond it")
    nxt = step(g, s, threshold)
    d = (s.values - nxt.values)[rows]
    lhs = _ordered_sum(d * d)
    rhs = 2.0 * delta * delta / (len(comp) ** 6 * topo.edge_count**2)
    return DisplacementBound(lhs=lhs, rhs=rhs, ok=lhs > rhs)
