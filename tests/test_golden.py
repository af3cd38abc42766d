"""Golden CSV digests: every named experiment at a small seeded budget.

Each entry of EXPERIMENTS runs at trials 3, seed 7 and its default snr grid,
and the sha256 of the CSV it writes is pinned.  LARGER_RUNS pins ten runs
that the trials-3 digests never reach: a batch of 100 nearly deterministic
channels (capacity_vs_nodes with nakagami_m 1e6, which erases no trial but
equalizes values up to ~1e13 whose sign, not their distance to the
constellation, decides the bit; test_erasing_run_on_a_pool erases one of
its 8-node trials on purpose), a 20-trial link sweep, a
20-trial QPSK link sweep, a multiplexing link sweep (2 and 4 streams
of 8-bit packets) under per_formula "literal", whose per_model values
(6e-10 to 0.09) are not clamped, and a 3-node chain, with and without
interference, where a node outside the measured pair is heard at its
receive point.  Two more send diversity past interferers: a 30-trial
distance sweep (PER 0.9 / 0.2 / 0.0) and the chain at M = 4 and 80 dB,
where both other nodes are heard.  The last two lay out explicit nodes: a
triangle of three overlapping pairs with own_point_distance set, where the
third node is heard, and a disk inside another, whose default receive
points are clamped into the small disk.  A refactor must leave
these bytes unchanged; moving a digest on purpose needs a CHANGES.md entry
that says why the output changed.
"""
from __future__ import annotations

import hashlib

import pytest

from beamlink import linksim
from beamlink.experiments import EXPERIMENTS, emit_csv, load_config, run_experiment

GOLDEN_SHA256 = {
    "capacity_vs_nodes": "e7a987a4f83acd6eb3632e8803371dfb71bf54b6a256577c31f8db03925821dd",
    "per_vs_distance": "fd5163f64f822e3f7d1712e0284db1f90ee813a0da10cdf2c8fae4468e79e02f",
    "per_vs_modulation": "f3097d1c0dfedb757f014ee82482111e0d5936adc1266eae4a4a3314588f5885",
    "ber_vs_dimension": "3238c6b51c288e18440d077821c6e6dbb4263c37b0ec91006fb2f69b0c48be64",
    "custom": "9ae9bf9c21bd49cf70fd19f1cba381a20190ff31d212b21553a2cff2e8a04e66",
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
        "ec7554699854096e60afbb88279db4fa268990327a71e7f1bab417fde818ecf9",
    ),
    "ber_vs_dimension-trials20-seed7": (
        {"experiment": "ber_vs_dimension", "trials": 20, "seed": 7},
        "58e791a74402e6b16214fffa49470d152c4a32dc351cfe142a9cc2d301c3fac2",
    ),
    "ber_vs_dimension-multiplexing-bits8-literal-trials30-seed2": (
        {
            "experiment": "ber_vs_dimension",
            "trials": 30,
            "seed": 2,
            "scenario": {"transmission_mode": "multiplexing", "packet_bits": 8, "per_formula": "literal"},
        },
        "ec2582b6d513d7b8a10c9be1d378a3191003cf3e13df25c977d8a2de30dee1f7",
    ),
    "ber_vs_dimension-qpsk-trials20-seed4": (
        {"experiment": "ber_vs_dimension", "trials": 20, "seed": 4, "scenario": {"modulation": "qpsk"}},
        "38a5cbc403e198caa3fe49cbaf5690a6ad7cc40cac4f96a9e6aad3c7a91d80dc",
    ),
    "custom-chain3-interference-trials20-seed5": (
        {"trials": 20, "seed": 5, "snr": {"start": 20.0}, "scenario": _CHAIN3},
        "09e99efdc48d5cb7fcce77b696d263eff78f772dba3dda6d6afe4bbbd0d9bab6",
    ),
    "custom-chain3-no-interference-trials20-seed5": (
        {
            "trials": 20,
            "seed": 5,
            "snr": {"start": 20.0},
            "scenario": {**_CHAIN3, "include_interference": False},
        },
        "20ed410d30578cfb195404e04f0be294095ef6ebb04ebb5d32faa3aebd9ff739",
    ),
    "per_vs_distance-trials30-seed11": (
        {"experiment": "per_vs_distance", "trials": 30, "seed": 11},
        "edfbed08912fea2f9d005921e40a7d641e69ce060d7ce164fc86c0efee0f0f1f",
    ),
    "custom-chain3-diversity-m4-trials20-seed6": (
        {
            "trials": 20,
            "seed": 6,
            "snr": {"start": 80.0},
            "scenario": {**_CHAIN3, "dimension": 4, "transmission_mode": "diversity", "packet_bits": 64},
        },
        "722aa823b87f13741fb26dfda8f19dd7fdfe9c383459d986072cd57aba2f2263",
    ),
    "custom-triangle-own-point-trials20-seed9": (
        {"trials": 20, "seed": 9, "snr": {"start": 30.0}, "scenario": _TRIANGLE},
        "776984b1ed2728ddb846e7d14d8dd4d9582ba400c42422296e519c096e63438f",
    ),
    "custom-contained-disk-trials20-seed4": (
        {"trials": 20, "seed": 4, "snr": {"start": 20.0}, "scenario": _CONTAINED},
        "97464d20d848da1979e79576963ed270ff6ef0858c5be92334c85c156f020d61",
    ),
}


def _digest(overrides, path):
    emit_csv(run_experiment(load_config(overrides=overrides)), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def zero_trial_60_of_8_nodes(p, rng):
        zeroed = len(p.pairs) == 7 and rng.bit_generator.seed_seq.spawn_key == (0, 60)
        return draw(p, rng) * (0.0 if zeroed else 1.0)

    monkeypatch.setattr(linksim._TaskPlan, "draw", zero_trial_60_of_8_nodes)
    name = "capacity_vs_nodes-m1e6-trials100-seed3"
    overrides, digest = LARGER_RUNS[name]
    emit_csv(run_experiment(load_config(overrides=overrides)), str(tmp_path / "w1.csv"))
    emit_csv(run_experiment(load_config(overrides={**overrides, "workers": 3})), str(tmp_path / "w3.csv"))
    one_worker = (tmp_path / "w1.csv").read_bytes()
    assert hashlib.sha256(one_worker).hexdigest() != digest  # the erasure shows
    assert (tmp_path / "w3.csv").read_bytes() == one_worker
    assert real_pool == [(3, 12)]
