"""Walk through the fading model: moment split, sampling, gram convergence.

The channel entries are mean-plus-scatter: a deterministic level set by the
squared mean of the amplitude distribution plus a circular complex residual
carrying the rest of the power.  This script shows how the split moves with
the shape parameter and checks a sampled Gram matrix against its closed form.
"""
import numpy as np

from beamlink import NakagamiParams, derive_moments, expected_gram, sample_channel, stack

print("moment split vs shape parameter (unit average power)")
print(f"{'m':>8} {'mean part':>12} {'scatter':>12} {'mean share':>12}")
for m in (0.5, 1.0, 2.0, 3.0, 8.0, 1e6):
    mom = derive_moments(NakagamiParams(m, 1.0))
    share = mom.squared_mean / (mom.squared_mean + mom.variance)
    print(f"{m:>8g} {mom.squared_mean:>12.6f} {mom.variance:>12.6f} {share:>12.4f}")

# harsh fading keeps barely half the power in the mean; a huge m is
# effectively a wire: the scatter vanishes and the entry freezes at 1.
print()

rng = np.random.default_rng(42)
mom = derive_moments(NakagamiParams(1.0, 1.0))
dim = 2
draws = 40_000

acc = np.zeros((2 * dim, 2 * dim), dtype=complex)
for _ in range(draws):
    s = stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))
    acc += s @ s.conj().T
avg = acc / draws

ref = expected_gram(mom, dim)
rel = np.max(np.abs(avg - ref) / np.abs(ref))
print(f"sampled gram over {draws} stacked draws, m=1:")
print(np.round(avg.real, 3))
print("closed form:")
print(np.round(ref.real, 3))
print(f"worst relative gap: {rel:.4f}")
