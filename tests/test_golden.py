"""Golden CSV digests: every named experiment at a small seeded budget.

Each entry of EXPERIMENTS runs at trials 3, seed 7 and its default snr grid,
and the sha256 of the CSV it writes is pinned.  LARGER_RUNS pins thirteen runs
that the trials-3 digests never reach: a batch of 100 nearly deterministic
channels (capacity_vs_nodes with nakagami_m 1e6, which erases no trial but
hands the slicer values up to ~6e11 whose sign, not their distance to the
constellation, decides the bit; test_erasing_run_on_a_pool erases one of
its 8-node trials on purpose), a 20-trial link sweep, a
20-trial QPSK link sweep, a multiplexing link sweep (2 and 4 streams
of 8-bit packets) under per_formula "literal", whose per_model values
(6e-10 to 0.09) are not clamped, and a 3-node chain, with and without
interference, where a node outside the measured pair is heard at its
receive point.  Two more send diversity past interferers: a 30-trial
distance sweep (PER 0.9 / 0.2 / 0.0) and the chain at M = 4 and 80 dB,
where both other nodes are heard.  Two more lay out explicit nodes: a
triangle of three overlapping pairs with own_point_distance set, where the
third node is heard, and a disk inside another, whose default receive
points are clamped into the small disk.  The last link sweep has a
three-word master seed, 2^64 + 5, and 300 trials per point, so each
point's trials split into two spans and the second span's streams start
at trial 150.  Two more send the chain at 60 dB: one with 100-bit BPSK
packets, which are not a whole number of bytes, and one with QPSK past the
interferer.  A refactor must leave these bytes unchanged; moving a
digest on purpose needs a CHANGES.md entry that says why the output
changed.  CAPACITY_ROWS_SHA256 pins the capacity
rows of the first seventeen runs apart from the rest of the CSV.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from beamlink import experiments, linksim
from beamlink.experiments import EXPERIMENTS, emit_csv, load_config, run_experiment

GOLDEN_SHA256 = {
    "capacity_vs_nodes": "82a35bcc12338cf7e272a4bf7d8979465255d03cf976e8d968b996a32b1af27f",
    "per_vs_distance": "1f4726b6656bb045ad364567ca7782ed2d3a8d4b69ea7234902d8527912c9fe9",
    "per_vs_modulation": "59a98fd55beee35c910cc577c6ddcec422301c16e1cccded2bfb71a19511663e",
    "ber_vs_dimension": "8fb0c54a996dd50400e1b06a00621fb3848a6a34642db8341973065b2c85007c",
    "custom": "8e5ad44176e8978a3660254227baf2deb3516b904f510c4a5746d150b00ee7b7",
}

# nodes 0, 1, 2 on a 5 m chain with 12 m disks: node 2 covers the receive
# point of the measured pair (0, 1) without being in it
_CHAIN3 = {"node_count": 3, "node_spacing": 5.0, "range_radius": 12.0}

# three pairs of unequal disks, each point placed 4.3 m from its own node;
# node 2 sits off the 0-1 axis and covers that pair's receive points
_TRIANGLE = {
    "own_point_distance": 4.3,
    "packet_bits": 64,
    "nodes": [
        {"id": 0, "x": 0.0, "y": 0.0, "radius": 7.0},
        {"id": 1, "x": 9.0, "y": 0.0, "radius": 5.0},
        {"id": 2, "x": 6.0, "y": 4.0, "radius": 6.0},
    ],
}

# node 1's disk lies inside node 0's, so the chord foot falls outside the
# lens and both default points are clamped into the small disk
_CONTAINED = {
    "packet_bits": 64,
    "nodes": [
        {"id": 0, "x": 0.0, "y": 0.0, "radius": 20.0},
        {"id": 1, "x": 5.0, "y": 0.0, "radius": 2.0},
    ],
}

LARGER_RUNS = {
    "capacity_vs_nodes-m1e6-trials100-seed3": (
        {"experiment": "capacity_vs_nodes", "trials": 100, "seed": 3, "scenario": {"nakagami_m": 1e6}},
        "255a367447100118f5ccbe1c573be1e2b0fddea04d8f963f4292fe36650091a4",
    ),
    "ber_vs_dimension-trials20-seed7": (
        {"experiment": "ber_vs_dimension", "trials": 20, "seed": 7},
        "b3bbb5fa17ec0e28ba99ede76d8caea6deabf91bdd3ebe7ceb9b933491f56b5b",
    ),
    "ber_vs_dimension-multiplexing-bits8-literal-trials30-seed2": (
        {
            "experiment": "ber_vs_dimension",
            "trials": 30,
            "seed": 2,
            "scenario": {"transmission_mode": "multiplexing", "packet_bits": 8, "per_formula": "literal"},
        },
        "ac2cd4549369c68e826f6a6511825172bea9ef6c5f4a37f7c8186c961a7522fb",
    ),
    "ber_vs_dimension-qpsk-trials20-seed4": (
        {"experiment": "ber_vs_dimension", "trials": 20, "seed": 4, "scenario": {"modulation": "qpsk"}},
        "b1fb73e0bd921351b51bf1f3a28e35bdda8d63a8739765ff61f6ff16268cf9cd",
    ),
    "custom-chain3-interference-trials20-seed5": (
        {"trials": 20, "seed": 5, "snr": {"start": 20.0}, "scenario": _CHAIN3},
        "df20ec311e1b30eaa89fcf944d6affd510546f1d17fc80573b28553024009fcd",
    ),
    "custom-chain3-no-interference-trials20-seed5": (
        {
            "trials": 20,
            "seed": 5,
            "snr": {"start": 20.0},
            "scenario": {**_CHAIN3, "include_interference": False},
        },
        "9b3994bc8e3d7354702f81e857535e731c993125db4110d86c0533a44bfb4572",
    ),
    "per_vs_distance-trials30-seed11": (
        {"experiment": "per_vs_distance", "trials": 30, "seed": 11},
        "86811677dc276eb2dd1806f683ba1de33f6ed3aecf41713b1b9a6a13f907aeeb",
    ),
    "custom-chain3-diversity-m4-trials20-seed6": (
        {
            "trials": 20,
            "seed": 6,
            "snr": {"start": 80.0},
            "scenario": {**_CHAIN3, "dimension": 4, "transmission_mode": "diversity", "packet_bits": 64},
        },
        "49cc7976e0abd3cc79e0b94bb6bfcc8405b808547fbe80e7b5d6a5fd8d422b04",
    ),
    "custom-triangle-own-point-trials20-seed9": (
        {"trials": 20, "seed": 9, "snr": {"start": 30.0}, "scenario": _TRIANGLE},
        "c1fbfc45e4dd7fc6efc8e4b75fbef3f9b240de23e15caa0229ed22fd8b5230cd",
    ),
    "custom-contained-disk-trials20-seed4": (
        {"trials": 20, "seed": 4, "snr": {"start": 20.0}, "scenario": _CONTAINED},
        "61fb2e7b89aeb90f427af5fd9f64df273b6c8334e2fa769928a6707fc5b0e9fa",
    ),
    "ber_vs_dimension-bits64-trials300-seed2e64+5": (
        {
            "experiment": "ber_vs_dimension",
            "trials": 300,
            "seed": 2**64 + 5,
            "scenario": {"packet_bits": 64},
        },
        "b21c4be0216190e465d393b9e54ff7c14ae993875b824ba5690bdbfc4c7252c9",
    ),
    "custom-chain3-bits100-trials20-seed5": (
        {"trials": 20, "seed": 5, "snr": {"start": 60.0}, "scenario": {**_CHAIN3, "packet_bits": 100}},
        "1878bb46d2cf5a4f2328dbeffcf46f305546103b1340defdb7d472477b4a198c",
    ),
    "custom-chain3-qpsk-trials20-seed5": (
        {"trials": 20, "seed": 5, "snr": {"start": 60.0}, "scenario": {**_CHAIN3, "modulation": "qpsk"}},
        "e0953e5bd976c36364028580b48f4e10915f231ca4016f970a5c61d3497ffbfa",
    ),
}


# sha256 of each golden CSV's capacity rows (metric == capacity, in file
# order) as the full-block packet stage wrote them: drawing the packet from
# the slicer's axes moved every digest above but must leave the capacity
# rows and the erasures alone, since the channels still come first in each
# trial's stream and no golden run erases a trial
CAPACITY_ROWS_SHA256 = {
    "capacity_vs_nodes":
        "a3bc973a9cf8e67a1611737522ce1caf70647dc322f0324849140dac758e98f2",
    "per_vs_distance":
        "2cae50f156276d4f08b69ed27a69205e26530d51f59131da0dc6c52505e15264",
    "per_vs_modulation":
        "45b0fdbfd06d38bfbbf480983e1eede551256bbf70828f4c1383457aa12354ad",
    "ber_vs_dimension":
        "0e9a2584691b8fe051d6ce05f503de008e22176284bd20a1ee44a5a6654c9457",
    "custom":
        "802990e9a44877f5832e9ffaa2aee029c5a40126162deff85576d77f5913b1d0",
    "capacity_vs_nodes-m1e6-trials100-seed3":
        "e5120d2a587fc309bbbd3e9fd0b6508988ecc588ffcc07496b3b57d08d4f4f6c",
    "ber_vs_dimension-trials20-seed7":
        "2e27f5a633e9a151d06df9077d101e856d644e190d814137ced3da3f632db119",
    "ber_vs_dimension-multiplexing-bits8-literal-trials30-seed2":
        "a740daeebf269a1dde271a97e56395bbf2d77a067a9b33b3f44b98eef22ab237",
    "ber_vs_dimension-qpsk-trials20-seed4":
        "d2e6adccda9689947e2cfd960f0330c28169a762e548ffa414a8cb36be1d0540",
    "custom-chain3-interference-trials20-seed5":
        "ff3feafef35ac7af6625cfe194d5667de404d5e3b3508230ffd6ee6216cdb134",
    "custom-chain3-no-interference-trials20-seed5":
        "a1e067469fe424f6d40b67b3f5a4eee1cdac1aa2d47fd56525efd99f028e5258",
    "per_vs_distance-trials30-seed11":
        "989ee5713a1bc987f459e281dd285863008bf087d3e684d801df86fe68044b59",
    "custom-chain3-diversity-m4-trials20-seed6":
        "5f95eef5f02deebc3753a9d9758d0f12c4d31999dc715cdaa0524dcecda05299",
    "custom-triangle-own-point-trials20-seed9":
        "1e21b1f845df9b487982f17af13ebeeefe48dfc6b9fc5457a26ad254cd3dce90",
    "custom-contained-disk-trials20-seed4":
        "6559e2d364ea1b73cefd50ca3d0c22a30e3c50ae8fef9136e2c941161da3548b",
    "ber_vs_dimension-bits64-trials300-seed2e64+5":
        "133a457a7bd205fe7201c3d0c60cb887e772a932c81b6e11a98665272bf95e7a",
    "custom-chain3-bits100-trials20-seed5":
        "03120b8986550084588bd4ecf10eb0775f6129e8cf334bbea8ec3d5328cb882e",
}


def _digest(overrides, path):
    emit_csv(run_experiment(load_config(overrides=overrides)), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_overrides(name):
    """The config overrides of a golden run: a LARGER_RUNS entry, or a named
    experiment at trials 3, seed 7."""
    if name in LARGER_RUNS:
        return LARGER_RUNS[name][0]
    return {"experiment": name, "trials": 3, "seed": 7}


def test_every_experiment_is_pinned():
    assert set(GOLDEN_SHA256) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_csv_digest(tmp_path, name):
    overrides = {"experiment": name, "trials": 3, "seed": 7}
    assert _digest(overrides, tmp_path / f"{name}.csv") == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", LARGER_RUNS)
def test_larger_run_digest(tmp_path, name):
    overrides, digest = LARGER_RUNS[name]
    assert _digest(overrides, tmp_path / f"{name}.csv") == digest


def test_erasing_run_on_a_pool(tmp_path, monkeypatch, real_pool):
    # every sweep value's tasks share one pool of processes, each of the 3
    # values in spans of 25 trials; trial 60 of the 8-node value (7 pairs)
    # draws all-zero channels, and its erasure must land where the 1-worker
    # run puts it
    monkeypatch.setattr(linksim, "_BATCH_TRIALS", 30)
    draw = linksim._TaskPlan.draw

    def zero_trial_60_of_8_nodes(p, rngs):
        zeroed = [len(p.pairs) == 7 and rng.bit_generator.seed_seq.spawn_key == (0, 60)
                  for rng in rngs]
        return draw(p, rngs) * np.where(zeroed, 0.0, 1.0)[:, None, None, None]

    monkeypatch.setattr(linksim._TaskPlan, "draw", zero_trial_60_of_8_nodes)
    name = "capacity_vs_nodes-m1e6-trials100-seed3"
    overrides, digest = LARGER_RUNS[name]
    emit_csv(run_experiment(load_config(overrides=overrides)), str(tmp_path / "w1.csv"))
    emit_csv(run_experiment(load_config(overrides={**overrides, "workers": 3})), str(tmp_path / "w3.csv"))
    one_worker = (tmp_path / "w1.csv").read_bytes()
    assert hashlib.sha256(one_worker).hexdigest() != digest  # the erasure shows
    assert (tmp_path / "w3.csv").read_bytes() == one_worker
    assert real_pool == [(3, 12)]


@pytest.mark.parametrize("name", CAPACITY_ROWS_SHA256)
def test_capacity_rows_and_erasures_unchanged(tmp_path, monkeypatch, name):
    results = []
    run_trials = experiments.run_trials

    def recorded(*args, **kwargs):
        points = run_trials(*args, **kwargs)
        results.extend(points)
        return points

    monkeypatch.setattr(experiments, "run_trials", recorded)
    path = tmp_path / f"{name}.csv"
    emit_csv(run_experiment(load_config(overrides=golden_overrides(name))), str(path))
    rows = [line for line in path.read_bytes().splitlines(keepends=True)
            if line.split(b",")[3] == b"capacity"]
    assert rows
    assert hashlib.sha256(b"".join(rows)).hexdigest() == CAPACITY_ROWS_SHA256[name]
    assert sum(r.stats.erasures for r in results) == 0
