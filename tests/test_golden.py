"""Golden CSV digests: every named experiment at a small seeded budget.

Each entry of EXPERIMENTS runs at trials 3, seed 7 and its default snr grid,
and the sha256 of the CSV it writes is pinned.  LARGER_RUNS pins ten runs
that the trials-3 digests never reach: one that erases a trial inside a
batch of 100 (capacity_vs_nodes with nakagami_m 1e6 erases exactly one
trial, at 8 nodes, and equalizes values up to ~1e13 whose sign, not their
distance to the constellation, decides the bit), a 20-trial link sweep, a
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
    "capacity_vs_nodes": "5a9c1fa090e796a2bbe81065bfd535eed1b224e2971f413b6504abb16a40f365",
    "per_vs_distance": "505eb6cb9e6a42f7c2faf7edf97b57b04fc4799dc28b7b076c4d33e531a0e7d1",
    "per_vs_modulation": "5de56b4e55e7a4b7f375a42a84ee69447223d6729ffb9f90fb9dbbe1f6be8441",
    "ber_vs_dimension": "adcc78ca2c50b8c181a97e8822debf823539f643fb3b9353c2679241f8f5faff",
    "custom": "6e5f20112678e124a6b7531441b4a9a43b95d2a132d2ddf5a58562e48ad1bab5",
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
        "4a55e1e773821971ca5bf3e29771ce89e48d8fbe1168a4b42283be9bf8700060",
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
        "249466c91af1e407b04187332e948abed30cbc4aa8435709db64f344282a686a",
    ),
    "custom-chain3-no-interference-trials20-seed5": (
        {
            "trials": 20,
            "seed": 5,
            "snr": {"start": 20.0},
            "scenario": {**_CHAIN3, "include_interference": False},
        },
        "5f1a1eada1bc794757505dd4d5ceeebfe8375056e00d2ffdd457c85045a56476",
    ),
    "per_vs_distance-trials30-seed11": (
        {"experiment": "per_vs_distance", "trials": 30, "seed": 11},
        "b4ffe2a346fe8fc903fd7a23f7e61fcfa43801edc6930c2c1fa8d1c514061969",
    ),
    "custom-chain3-diversity-m4-trials20-seed6": (
        {
            "trials": 20,
            "seed": 6,
            "snr": {"start": 80.0},
            "scenario": {**_CHAIN3, "dimension": 4, "transmission_mode": "diversity", "packet_bits": 64},
        },
        "c95b9eb5f63bc5471fe4a3b26d4ebf1c633a451362b8ed4ac48872fd0c5ec908",
    ),
    "custom-triangle-own-point-trials20-seed9": (
        {"trials": 20, "seed": 9, "snr": {"start": 30.0}, "scenario": _TRIANGLE},
        "f60fa69d537b0cfa3635c4d543421b7664198f131db63ddb42bca57eb5e4116b",
    ),
    "custom-contained-disk-trials20-seed4": (
        {"trials": 20, "seed": 4, "snr": {"start": 20.0}, "scenario": _CONTAINED},
        "1c73ae4e7afc7e9effcf0d6640a8d4e7d9676228f9f4c52e0eebd06b0adc3715",
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
    # values in spans of 25 trials, and the 8-node value's erased trial must
    # land where the 1-worker run puts it
    monkeypatch.setattr(linksim, "_BATCH_TRIALS", 30)
    name = "capacity_vs_nodes-m1e6-trials100-seed3"
    overrides, digest = LARGER_RUNS[name]
    assert _digest({**overrides, "workers": 3}, tmp_path / f"{name}.csv") == digest
    assert real_pool == [(3, 12)]
