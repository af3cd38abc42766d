"""Monte-Carlo run of one coordinated link, counters to estimates by hand.

Two nodes, overlapping ranges, fading redrawn every trial.  Each trial solves
the pair's drivers, sends one packet per antenna stream through the received
signal model, and detects it; the counters then turn into rate estimates with
95% intervals.
"""
import numpy as np

from beamlink import (
    BPSK,
    LinkConfig,
    NakagamiParams,
    Node,
    build_scenario,
    estimate_rates,
    mean_confidence,
    run_trials,
)

nodes = [
    Node(id=0, position=np.array([0.0, 0.0]), range_radius=6.0),
    Node(id=1, position=np.array([8.0, 0.0]), range_radius=6.0),
]
scenario = build_scenario(nodes, path_loss_exponent=3.0, reference_distance=1.0)

link = LinkConfig(
    snr_db=(40.0, 60.0, 80.0),
    dimension=2,
    modulation=BPSK,
    packet_bits=96,
    fading=NakagamiParams(1.0, 1.0),
    mode="diversity",
    include_interference=True,
)

results = run_trials([(scenario, link)], n_trials=400, master_seed=31, workers=1)

print(f"{'snr dB':>7} {'ber':>22} {'per':>22} {'capacity':>10} {'erased':>7}")
for point in results:
    rates = estimate_rates(point.stats)
    ber, per = rates["ber"], rates["per"]
    cap = mean_confidence(point.capacity_samples)
    print(
        f"{point.snr_db:>7.0f} "
        f"{ber.value:>10.2e} [{ber.ci_low:.1e},{ber.ci_high:.1e}] "
        f"{per.value:>8.3f} [{per.ci_low:.3f},{per.ci_high:.3f}] "
        f"{cap.value:>10.4f} {point.stats.erasures:>7}"
    )

print()
print("the transmit-referenced snr has to be large: the composites share unit")
print("total power, so every signal amplitude carries 1/sqrt(g) before noise is added")
