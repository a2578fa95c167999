"""
Convergence to the initial average
==================================

Without a threshold (epsilon = inf), every agent's garbage amount converges
to the average of the initial amounts on every connected graph with three or
more vertices, stars included; only K2 swaps its two amounts forever.  This
script runs the dynamics on a few graphs and prints how the spread collapses.
"""

from garbagegame import (
    GarbageState,
    Threshold,
    convergence_report,
    generate_graph,
    is_star,
    run,
)
from garbagegame.rng import Xoshiro256StarStar

for kind, order in (("cycle", 6), ("complete", 5), ("erdos_renyi", 10)):
    if kind == "erdos_renyi":
        g = generate_graph(kind, order, p=0.45, seed=8)
    else:
        g = generate_graph(kind, order)

    rng = Xoshiro256StarStar(order)
    s0 = GarbageState([rng.uniform(0.0, 10.0) for _ in range(g.n)])

    traj = run(g, s0, Threshold.infinite(), convergence_tol=1e-10)
    report = convergence_report(traj)

    print(f"{kind}:{order}  (star: {is_star(g)})")
    print(f"  initial average     {report.initial_average:.6f}")
    print(f"  steps to converge   {report.steps_run}")
    print(f"  limit estimate      {report.limit_estimate:.6f}")
    print(f"  final deviation     {report.max_deviation_from_average:.2e}")

    # the spread shrinks geometrically; sample a few diagnostics
    for d in traj.diagnostics[:: max(1, traj.steps_run // 5)][:6]:
        print(f"    spread {d.max_diff:.3e}  active edges {d.active_edges}")
    print()
