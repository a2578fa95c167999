"""
Threshold-locked oscillation
============================

A finite confidence threshold can freeze part of the graph: agents whose
amounts differ by more than epsilon never exchange.  On a path of three
agents with amounts (0, 1, 5) and epsilon = 2, only the first edge is
active, its two agents swap their amounts forever, and the third agent
never participates.  Raising epsilon above the spread restores full
averaging.
"""

from garbagegame import GarbageState, Threshold, convergence_report, effective_edges, generate_graph, run
from garbagegame.graph import connected_components

p3 = generate_graph("path", 3)
s0 = GarbageState([0.0, 1.0, 5.0])

print("epsilon = 2: the far agent is cut off")
topo = effective_edges(p3, s0, Threshold(2.0))
print(f"  active edges at t=0: {sorted(topo.edges)}")
print(f"  components:          {sorted(connected_components(topo), key=min)}")

traj = run(p3, s0, Threshold(2.0), max_steps=8)
for state in traj.states:
    print(f"  t={state.time}  x = {state.values.tolist()}")
print(f"  converged: {convergence_report(traj).converged}")
print()

print("epsilon = inf: everything averages out")
traj = run(p3, s0, Threshold.infinite(), convergence_tol=1e-9)
report = convergence_report(traj)
print(f"  t={traj.steps_run}  x = {[round(v, 6) for v in traj.final_state.values.tolist()]}")
print(f"  converged: {report.converged}, limit {report.limit_estimate:.6f} "
      f"(initial average {report.initial_average:.6f})")
