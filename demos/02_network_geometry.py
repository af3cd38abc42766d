"""Lay out a small network and inspect where interference is measured.

Every pair of nodes whose range disks overlap shares a lens-shaped region;
each node of the pair gets one measurement point inside that lens.  The
network holds its overlapping id pairs, sorted, in scenario.pairs, and
their points in scenario.points, one row of two points per pair, the lower
id's first.  Path
gains follow a clamped power law so a point can never pick up gain above
the reference distance value.
"""
import numpy as np

from beamlink import Node, build_scenario, detect_overlaps, path_gain

nodes = [
    Node(id=0, position=np.array([0.0, 0.0]), range_radius=6.0),
    Node(id=1, position=np.array([8.0, 0.0]), range_radius=6.0),
    Node(id=2, position=np.array([16.0, 0.0]), range_radius=6.0),
    Node(id=3, position=np.array([40.0, 0.0]), range_radius=6.0),  # isolated
]

pairs = detect_overlaps(nodes)
print("overlapping pairs:", pairs)
print("node 3 overlaps nothing: its disk is 18 m short of node 2's")
print()

scenario = build_scenario(nodes, path_loss_exponent=3.0, reference_distance=1.0)
for (i, j), (p_i, p_j) in zip(scenario.pairs, scenario.points):
    print(f"pair {i}-{j}: point for {i} at {np.round(p_i, 3)}, "
          f"point for {j} at {np.round(p_j, 3)}")

# by default both points of a pair sit at the lens center
center = scenario.points[0, 0]
print()
print(f"lens center sits {np.linalg.norm(center - nodes[0].position):.3f} m from node 0 "
      f"along the 0-1 axis")

print()
print("path gain from node 0, exponent 3, clamped at 1 m:")
distances = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
for d, gain in zip(distances, path_gain(distances, scenario)):
    print(f"  distance {d:>4} m -> gain {gain:.6f}")

# each point placed a set distance from its own node; the lens here spans
# 2-6 m from node 0, so 3 m keeps both points inside it
shifted = build_scenario(nodes[:2], own_point_distance=3.0)
p_0, p_1 = shifted.points[0]
print()
print("with own_point_distance 3 m each point sits 3 m from its own node:")
print(f"  point for 0: {np.round(p_0, 3)}")
print(f"  point for 1: {np.round(p_1, 3)}")
try:
    build_scenario(nodes[:2], own_point_distance=1.5)
except ValueError as e:
    print(f"  own_point_distance 1.5 m is rejected: {e}")
