"""Solve one coordinated pair and verify the driver equations by hand.

Each node of an overlapping pair drives the fading correlation seen at the
pair's measurement points toward a phase-rotated target.  The two driver
matrices are coupled through both stacked channels, so they are solved
jointly; afterwards we confirm both defining equations hold and build the
network normalization from the composites.
"""
import numpy as np

from beamlink import (
    NakagamiParams,
    build_rotator,
    compose,
    derive_moments,
    normalization,
    sample_channel,
    solve_coupled_drivers,
    stack,
)

rng = np.random.default_rng(11)
dim = 2
mom = derive_moments(NakagamiParams(1.0, 1.0))

rot = build_rotator(mom, dim)
print("rotation target (default half-turn phase):")
print(np.round(rot, 4))
print()

# one stacked channel per node: rows 1..M toward the partner's point,
# rows M+1..2M toward the node's own point
s_a = stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))
s_c = stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))

# each node's stack is the other's cross term, and both share the rotator
d_ac, d_ca = solve_coupled_drivers(s_a, s_c, rot)
print("driver of node a toward its pair with c:")
print(np.round(d_ac, 4))

p_a = np.linalg.pinv(s_a)
p_c = np.linalg.pinv(s_c)
r1 = np.linalg.norm(d_ac - p_a @ (rot - s_c @ d_ca))
r2 = np.linalg.norm(d_ca - p_c @ (rot - s_a @ d_ac))
print(f"defining-equation residuals: {r1:.2e}, {r2:.2e}")
print()

comp_a = compose([d_ac])
comp_c = compose([d_ca])
g = normalization([comp_a, comp_c])
print(f"normalization over both composites: {g:.4f}")
print("a single-pair composite is just the driver itself; with several")
print("neighbors the per-pair drivers multiply in ascending target order")
