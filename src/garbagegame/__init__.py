"""Threshold-constrained garbage-disposal averaging on undirected graphs.

Agents sit on the vertices of a simple graph and each hold a nonnegative
amount of garbage.  At every step, agents connected by an edge exchange a
common fraction of their load, but only across edges whose endpoint values
differ by at most a confidence threshold epsilon.  The package simulates
the resulting column-stochastic dynamics and verifies its structural
guarantees: conservation, hull contraction, monotone Lyapunov descent,
and the spectral certificates behind convergence to the average.

The paper states convergence for connected graphs that are not stars.
In this model, without a threshold (epsilon = inf), every connected graph on
three or more vertices converges, stars included; the only exception is K2
(= star:2), whose step swaps the two amounts forever.  A finite threshold
can leave a single active edge that swaps the same way, as on P3 = K_{1,2}
at epsilon 2: a threshold effect, not a star one.  Open question: whether
the paper's exclusion of stars belongs to its proof or to an update rule
that differs from this one; the package does not guess which.
"""

from .analysis import (
    ConvergenceReport,
    LyapunovRecord,
    convergence_report,
    decrement_lower_bound,
    hull_bounds,
    is_trivial,
    lyapunov_record,
    lyapunov_z,
)
from .dynamics import (
    GarbageState,
    StepDiagnostics,
    Threshold,
    Trajectory,
    effective_edges,
    run,
    step,
    transition_matrix,
)
from .graph import (
    GRAPH_KINDS,
    Graph,
    GraphError,
    generate_graph,
    is_connected,
    is_star,
    laplacian,
    parse_edge_list,
    render_edge_list,
)
from .rng import SplitMix64, Xoshiro256StarStar, derive_seed
from .spectral import (
    ISOPERIMETRIC_MAX_ORDER,
    DisplacementBound,
    SpectralReport,
    cheeger_check,
    isoperimetric_number,
    lambda2,
    nontrivial_displacement_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "DisplacementBound",
    "GRAPH_KINDS",
    "GarbageState",
    "Graph",
    "GraphError",
    "ISOPERIMETRIC_MAX_ORDER",
    "LyapunovRecord",
    "SpectralReport",
    "SplitMix64",
    "StepDiagnostics",
    "Threshold",
    "Trajectory",
    "Xoshiro256StarStar",
    "cheeger_check",
    "convergence_report",
    "decrement_lower_bound",
    "derive_seed",
    "effective_edges",
    "generate_graph",
    "hull_bounds",
    "is_connected",
    "is_star",
    "is_trivial",
    "isoperimetric_number",
    "lambda2",
    "laplacian",
    "lyapunov_record",
    "lyapunov_z",
    "nontrivial_displacement_bound",
    "parse_edge_list",
    "render_edge_list",
    "run",
    "step",
    "transition_matrix",
]
