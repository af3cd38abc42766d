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
    "capacity_vs_nodes": "e9efc308b32308b3cfc71245cbe92a5e15c55361820e20e0ac72baf1b7a565b9",
    "per_vs_distance": "996c4eef208d2db8a8ef426f892ee4aaf280cc7273271faa7212bdcc1591a0fb",
    "per_vs_modulation": "5de56b4e55e7a4b7f375a42a84ee69447223d6729ffb9f90fb9dbbe1f6be8441",
    "ber_vs_dimension": "adcc78ca2c50b8c181a97e8822debf823539f643fb3b9353c2679241f8f5faff",
    "custom": "e2b637db03467aab1c28466b408db55148e718c0535dc26c71b7bb67e6c8b06a",
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
        "f947899efa2709e3d9f08bf8353ead77be4d1c1555c2b74e5a9d017382de2a10",
    ),
    "ber_vs_dimension-trials20-seed7": (
        {"experiment": "ber_vs_dimension", "trials": 20, "seed": 7},
        "2537cbdc6d44b14f1f49cf2e18944169718b2476dfe3d19bbbc8e47644f9c7f8",
    ),
    "ber_vs_dimension-multiplexing-bits8-literal-trials30-seed2": (
        {
            "experiment": "ber_vs_dimension",
            "trials": 30,
            "seed": 2,
            "scenario": {"transmission_mode": "multiplexing", "packet_bits": 8, "per_formula": "literal"},
        },
        "c3cc7e7bd7fde4e24cc18daf311766c4cd3e687d35e72878a455d8721e7fff69",
    ),
    "ber_vs_dimension-qpsk-trials20-seed4": (
        {"experiment": "ber_vs_dimension", "trials": 20, "seed": 4, "scenario": {"modulation": "qpsk"}},
        "86ded672d127427382b2f2de9892cce0c142702d5ff98d1c2a4abe2eb2546a59",
    ),
    "custom-chain3-interference-trials20-seed5": (
        {"trials": 20, "seed": 5, "snr": {"start": 20.0}, "scenario": _CHAIN3},
        "679f3a8904a993256ee00a294becf28567c2f591501a06ad65af0b9794d5fc8f",
    ),
    "custom-chain3-no-interference-trials20-seed5": (
        {
            "trials": 20,
            "seed": 5,
            "snr": {"start": 20.0},
            "scenario": {**_CHAIN3, "include_interference": False},
        },
        "fea4df2c0e6fd2abe8a5157d68819389596d3d98eb36019f5d611a1c3bf7cf9c",
    ),
    "per_vs_distance-trials30-seed11": (
        {"experiment": "per_vs_distance", "trials": 30, "seed": 11},
        "813141122434306dc5b6824fcb873587c74a0e4bf5410772e2c03edcf07d4164",
    ),
    "custom-chain3-diversity-m4-trials20-seed6": (
        {
            "trials": 20,
            "seed": 6,
            "snr": {"start": 80.0},
            "scenario": {**_CHAIN3, "dimension": 4, "transmission_mode": "diversity", "packet_bits": 64},
        },
        "bc9b052e92d2387941083996a415fac52e4a70ce40993faf0569dc693001a6b9",
    ),
    "custom-triangle-own-point-trials20-seed9": (
        {"trials": 20, "seed": 9, "snr": {"start": 30.0}, "scenario": _TRIANGLE},
        "cf54d68af3cf84a1133c25c0b2fb365d419ec529aaa70d8146555f9d6d566bfe",
    ),
    "custom-contained-disk-trials20-seed4": (
        {"trials": 20, "seed": 4, "snr": {"start": 20.0}, "scenario": _CONTAINED},
        "fc2082919557b57dfe8f3365611aa49dc92141375391131aa1c13c0ce39eb9ee",
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
