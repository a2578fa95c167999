"""Spectral certificates: algebraic connectivity, exact isoperimetric number,
the two-sided Cheeger bound, and the displacement lower bound for states that
are spread wider than a given delta on an active component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .dynamics import GarbageState, Threshold, _ordered_sum, as_threshold, effective_edges, step
from .graph import Graph, is_connected, laplacian

ISOPERIMETRIC_MAX_ORDER = 20  # exhaustive subset enumeration, ~10^6 subsets


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
        raise ValueError("lambda2 requires at least 2 vertices")
    if not is_connected(g):
        return 0.0
    eigs = np.linalg.eigvalsh(laplacian(g).astype(np.float64))
    return float(eigs[1])


def isoperimetric_number(g: Graph) -> float:
    """Exact isoperimetric number: the minimum over all nonempty vertex sets
    S with |S| <= n/2 of (boundary edge count) / |S|.

    Computed by exhaustive subset enumeration with exact rational
    comparisons; capped at n = 20.
    """
    n = g.n
    if n < 2:
        raise ValueError("isoperimetric number requires at least 2 vertices")
    if n > ISOPERIMETRIC_MAX_ORDER:
        raise ValueError(f"subset enumeration budget exceeded: n = {n} > {ISOPERIMETRIC_MAX_ORDER}")
    nbr_mask = [0] * n
    eu, ev = g._ends
    for u, v in zip(eu.tolist(), ev.tolist()):
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    full = (1 << n) - 1
    half = n // 2
    best_num = 1  # ratio +inf sentinel replaced on first candidate
    best_den = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > half:
            continue
        complement = full ^ mask
        boundary = 0
        bits = mask
        while bits:
            lsb = bits & -bits
            bits ^= lsb
            boundary += (nbr_mask[lsb.bit_length() - 1] & complement).bit_count()
        # keep the smaller of boundary/size vs best_num/best_den, exactly
        if boundary * best_den < best_num * size:
            best_num, best_den = boundary, size
    return best_num / best_den


def cheeger_check(g: Graph) -> SpectralReport:
    """Evaluate the two-sided bound 2*i(G) >= lambda2 >= i(G)^2 / (2*max_degree)
    together with the connectivity floor lambda2 > 2/n^3.

    Requires a connected graph within the enumeration budget.
    """
    if not is_connected(g):
        raise ValueError("cheeger_check requires a connected graph")
    lam = lambda2(g)
    iso = isoperimetric_number(g)
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
    comp = frozenset(int(v) for v in component)
    if not comp:
        raise ValueError("component must be nonempty")
    if comp not in topo.components():
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
