"""Golden CSV digests: every named experiment at a small seeded budget.

Each entry of EXPERIMENTS runs at trials 3, seed 7 and its default snr grid,
and the sha256 of the CSV it writes is pinned.  LARGER_RUNS pins sixteen runs
that the trials-3 digests never reach: a batch of 100 nearly deterministic
channels (capacity_vs_nodes with nakagami_m 1e6, which erases no trial but
hands the slicer values up to ~5e10 whose sign, not their distance to the
constellation, decides the bit; test_erasing_run_on_a_pool erases one of
its 8-node trials on purpose), a 20-trial link sweep, a
20-trial QPSK link sweep, a multiplexing link sweep (2 and 4 streams
of 8-bit packets) under per_formula "literal", whose per_model values
(5e-8 to 0.09) are not clamped, and a 3-node chain, with and without
interference, where a node outside the measured pair is heard at its
receive point.  Two more send diversity past interferers: a 30-trial
distance sweep (PER 0.93 / 0.23 / 0.0) and the chain at M = 4 and 80 dB,
where both other nodes are heard.  Two more lay out explicit nodes: a
triangle of three overlapping pairs with own_point_distance set, where the
third node is heard, and a disk inside another, whose default receive
points are clamped into the small disk.  The last link sweep has a
three-word master seed, 2^64 + 5, and 300 trials per point, so each
point's trials split into two blocks and the second block's streams start
at trial 256.  Two more send the chain at 60 dB: one with 100-bit BPSK
packets, which are not a whole number of bytes, and one with QPSK past the
interferer.  Two more lay out four nodes off the axes at non-integer
positions, with clamped default points, and three of them with
own_point_distance set.  The last lays out a triangle where one pair's
chord foot lands exactly on its lower node, so one channel is drawn at
distance 0.  A refactor must leave these bytes unchanged; moving a
digest on purpose needs a CHANGES.md entry that says why the output
changed.  CAPACITY_ROWS_SHA256 pins the capacity
rows of the first seventeen runs apart from the rest of the CSV.
"""
from __future__ import annotations

import hashlib

import pytest

from beamlink import experiments, linksim
from beamlink.experiments import EXPERIMENTS, emit_csv, load_config, run_experiment

GOLDEN_SHA256 = {
    "capacity_vs_nodes": "bfbd9f27552b94d968566ffc02e3bb8db4cf674f6bc4f3aedb2dce482b448539",
    "per_vs_distance": "cd5d21a0902992ab9911e3df3e32374d50ba144e2ddd1c1d18119b8d45e7eeda",
    "per_vs_modulation": "36c96046ca1291169bf66d9a43fd1e04d483d310dd63927b01f05c4a6d25b659",
    "ber_vs_dimension": "3d3bcda75ffb006e5dab1cc167e0479708274484ee712203aa38beb4571d7bb4",
    "custom": "f134da9cd90d1390ca13c921cf36d1a0d804ddbfd29095839c7513c4b8aff464",
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

# four nodes at non-integer, off-axis positions: node 3's small disk lies
# inside each of the other three, so its three pairs' default points are
# clamped, and pair (1, 2) is one whose distance np.linalg.norm(axis=1)
# puts an ulp away from the one-pair norm its points are placed from; the
# first three again with own_point_distance set
_OFF_AXIS_NODES = [
    {"id": 0, "x": -0.303, "y": -1.935, "radius": 13.8829},
    {"id": 1, "x": -2.437, "y": 4.559, "radius": 10.0592},
    {"id": 2, "x": -2.556, "y": 8.162, "radius": 10.6112},
    {"id": 3, "x": -8.506, "y": 2.211, "radius": 2.0516},
]
_OFF_AXIS = {"packet_bits": 64, "transmission_mode": "diversity"}

# the chord foot of pair (0, 1), (9 + 16 - 25) / 6 = 0 m from node 0, lands
# exactly on node 0: its channel to its own receive point is drawn at
# distance 0, where the path gain is 1
_CHORD_ON_NODE = {
    "packet_bits": 64,
    "nodes": [
        {"id": 0, "x": 0.0, "y": 0.0, "radius": 4.0},
        {"id": 1, "x": 3.0, "y": 0.0, "radius": 5.0},
        {"id": 2, "x": 1.0, "y": 2.5, "radius": 3.0},
    ],
}

LARGER_RUNS = {
    "capacity_vs_nodes-m1e6-trials100-seed3": (
        {"experiment": "capacity_vs_nodes", "trials": 100, "seed": 3, "scenario": {"nakagami_m": 1e6}},
        "68d4aad3c00ef5e052d1224152d88aa060b2e17f13cc51a8ff67b388700b6d0a",
    ),
    "ber_vs_dimension-trials20-seed7": (
        {"experiment": "ber_vs_dimension", "trials": 20, "seed": 7},
        "a27670d43a2d3e8a20a958f403c1d698894cb455ebb02022ba6e1c8ed7854c30",
    ),
    "ber_vs_dimension-multiplexing-bits8-literal-trials30-seed2": (
        {
            "experiment": "ber_vs_dimension",
            "trials": 30,
            "seed": 2,
            "scenario": {"transmission_mode": "multiplexing", "packet_bits": 8, "per_formula": "literal"},
        },
        "34fbb4d657a7305b7ff03889e1695daefa930ea8216c7e95d7299c2ee6086bed",
    ),
    "ber_vs_dimension-qpsk-trials20-seed4": (
        {"experiment": "ber_vs_dimension", "trials": 20, "seed": 4, "scenario": {"modulation": "qpsk"}},
        "377b43bae912082072aea75ee3a816016ceb051659a024b42ec11b5f77af30c4",
    ),
    "custom-chain3-interference-trials20-seed5": (
        {"trials": 20, "seed": 5, "snr": {"start": 20.0}, "scenario": _CHAIN3},
        "ed502d4c495846ae10edc51d639974891041119b846027798beec42d7db65abb",
    ),
    "custom-chain3-no-interference-trials20-seed5": (
        {
            "trials": 20,
            "seed": 5,
            "snr": {"start": 20.0},
            "scenario": {**_CHAIN3, "include_interference": False},
        },
        "51f3a0af2802b7653869643f717720a4545aaae43b1e65848814c723cd4e723d",
    ),
    "per_vs_distance-trials30-seed11": (
        {"experiment": "per_vs_distance", "trials": 30, "seed": 11},
        "961ab0d3b174a00b27413f4cf8b70d37986c86b3cf868d382b985a91aa23598b",
    ),
    "custom-chain3-diversity-m4-trials20-seed6": (
        {
            "trials": 20,
            "seed": 6,
            "snr": {"start": 80.0},
            "scenario": {**_CHAIN3, "dimension": 4, "transmission_mode": "diversity", "packet_bits": 64},
        },
        "e5984ce810e0f999ed3eca07b5bc5396d47f16a60b371cdb243232b183d3ed63",
    ),
    "custom-triangle-own-point-trials20-seed9": (
        {"trials": 20, "seed": 9, "snr": {"start": 30.0}, "scenario": _TRIANGLE},
        "7312255f9e4a71e270f37040f4cde7b423549707306fde1266bd0c9126d4b574",
    ),
    "custom-contained-disk-trials20-seed4": (
        {"trials": 20, "seed": 4, "snr": {"start": 20.0}, "scenario": _CONTAINED},
        "51f6f5a1322d3a61379c469683c9c1486ea47a43099a148a60145ddb017ab831",
    ),
    "ber_vs_dimension-bits64-trials300-seed2e64+5": (
        {
            "experiment": "ber_vs_dimension",
            "trials": 300,
            "seed": 2**64 + 5,
            "scenario": {"packet_bits": 64},
        },
        "98c6713ee6abe31e88ffff015f07e45909ea06149f89fab636598dabe9eba642",
    ),
    "custom-chain3-bits100-trials20-seed5": (
        {"trials": 20, "seed": 5, "snr": {"start": 60.0}, "scenario": {**_CHAIN3, "packet_bits": 100}},
        "484412397c4f4c8fa1d7bfba4a9236e035945cd8be48d60e697972bab0de629d",
    ),
    "custom-chain3-qpsk-trials20-seed5": (
        {"trials": 20, "seed": 5, "snr": {"start": 60.0}, "scenario": {**_CHAIN3, "modulation": "qpsk"}},
        "476404653e4c3fd6b68050affab8219e32d49261f81bdce340adf81b5ad3ef1a",
    ),
    "custom-off-axis-trials20-seed8": (
        {
            "trials": 20,
            "seed": 8,
            "snr": {"start": 60.0},
            "scenario": {**_OFF_AXIS, "measured_pair": [1, 2], "nodes": _OFF_AXIS_NODES},
        },
        "e4313c8dace7729cd427cc1311406a991e4954f6850d932b8b4bc7d379c5ae5a",
    ),
    "custom-off-axis-own-point-trials20-seed8": (
        {
            "trials": 20,
            "seed": 8,
            "snr": {"start": 60.0},
            "scenario": {**_OFF_AXIS, "own_point_distance": 5.07, "nodes": _OFF_AXIS_NODES[:3]},
        },
        "02b617f432f90d19aa8922c133c1e2db3f67b57fd4760980c266ec94f24e96ce",
    ),
    "custom-chord-on-node-trials20-seed3": (
        {
            "trials": 20,
            "seed": 3,
            "snr": {"start": 0.0, "stop": 20.0, "step": 10.0},
            "scenario": _CHORD_ON_NODE,
        },
        "6c2a8848eed34b0717e650c0e3ca8e65532f9138f38ef6dff08589a00d5c4f77",
    ),
}


# sha256 of each golden CSV's capacity rows (metric == capacity, in file
# order), which read only the channels: a change to the packet's bits or
# noise moves the digests above but must leave these rows and the erasures
# alone, since the channels have a stream of their own in each block and
# no golden run erases a trial
CAPACITY_ROWS_SHA256 = {
    "capacity_vs_nodes":
        "42456b989c85a67cd8b9779356916b24951de9c24d4ffb6e2fed82ae8b496ccf",
    "per_vs_distance":
        "9c45c1debaa7bed0939d3be92cf2c57ceb2f79a220d06fbc45ff3963a5c0ee8b",
    "per_vs_modulation":
        "822d266c660e7301c96ae536f428c31b9c8cb2fb97f2be579f405d39c538a608",
    "ber_vs_dimension":
        "7f9d799f2d8eec9a1c31c637639055a3160243bdab0d09f02486a33928a7e941",
    "custom":
        "fc74ab76c37d932d9560510702308ef97aa1353950e826c066e40edd17ed9ef0",
    "capacity_vs_nodes-m1e6-trials100-seed3":
        "8283b07776499d0a00f7f7715eebb5a69d0a84026c3623d990e72032f14cb62b",
    "ber_vs_dimension-trials20-seed7":
        "9fdd660016b43bfb2d868e6b8cfa0e2df22b51a98b378afaaf1a6ad7ae1a5b59",
    "ber_vs_dimension-multiplexing-bits8-literal-trials30-seed2":
        "76a03217052bedeb74dfc48406eea60246f4ba086c4cca2732bf24dee20e17df",
    "ber_vs_dimension-qpsk-trials20-seed4":
        "ca397a2312ce9d92a08a00a5736e5c0487f41650a6745844a9518bde6239fab0",
    "custom-chain3-interference-trials20-seed5":
        "13151501363d5e81f1b53c797ce76c5e84b1965a38eec7cca1754ae392d1b219",
    "custom-chain3-no-interference-trials20-seed5":
        "3b4536b8ec732d507b5302593f642fd7d0db58584571628775f0aebec68b7304",
    "per_vs_distance-trials30-seed11":
        "fad6ca59d8ac9eeb98016efc9f7345dbfc8762a39de77276e63216c06fd4c795",
    "custom-chain3-diversity-m4-trials20-seed6":
        "938442186f40918f3f388ea0287a19ba0eb79edf16fbb47eb205bdef8f93e077",
    "custom-triangle-own-point-trials20-seed9":
        "56826b89d6ac605af2ac61d894761f78669d9c9b72838c114dc7ed7355ba4fc1",
    "custom-contained-disk-trials20-seed4":
        "0186eaaacb1f05b1790875b7075ffa2a5b7a07d414706664554af5c391dc7429",
    "ber_vs_dimension-bits64-trials300-seed2e64+5":
        "4b0df8509b4c619c89096f98161f915bb99dc9d593b1e6bedc8e36ff5e206778",
    "custom-chain3-bits100-trials20-seed5":
        "0c1321f5f911a4b267061ec7b09e2050012d6df9f4b3c5c2c4210f480308f0b9",
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


def test_erasing_run_on_a_pool(tmp_path, monkeypatch, real_pool, zero_channels):
    # every sweep value's tasks share one pool of processes, each of the 3
    # values in blocks of 30 trials; trial 60 of the 8-node value (7 pairs)
    # draws all-zero channels, and its erasure must land where the 1-worker
    # run puts it
    monkeypatch.setattr(linksim, "_BATCH_TRIALS", 30)
    overrides = LARGER_RUNS["capacity_vs_nodes-m1e6-trials100-seed3"][0]

    def csv_bytes(name, workers):
        emit_csv(run_experiment(load_config(overrides={**overrides, "workers": workers})), str(tmp_path / name))
        return (tmp_path / name).read_bytes()

    clean = csv_bytes("clean.csv", 1)
    zero_channels(lambda plan, p, t: len(plan.pairs) == 7 and (p, t) == (0, 60))
    one_worker = csv_bytes("w1.csv", 1)
    assert one_worker != clean  # the erasure shows
    assert csv_bytes("w3.csv", 3) == one_worker
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
