"""Golden CSV digests: every named experiment at a small seeded budget.

Each entry of EXPERIMENTS runs at trials 3, seed 7 and its default snr grid,
and the sha256 of the CSV it writes is pinned.  LARGER_RUNS pins three runs
that the trials-3 digests never reach: one that erases a trial inside a
batch of 100 (capacity_vs_nodes with nakagami_m 1e6 erases exactly one
trial, at 8 nodes), a 20-trial link sweep, and a multiplexing link sweep
(2 and 4 streams of 8-bit packets) under per_formula "literal", whose
per_model values (6e-10 to 0.09) are not clamped.  A refactor must leave
these bytes unchanged; moving a digest on purpose needs a CHANGES.md entry
that says why the output changed.
"""
from __future__ import annotations

import hashlib

import pytest

from beamlink.experiments import EXPERIMENTS, emit_csv, load_config, run_experiment

GOLDEN_SHA256 = {
    "capacity_vs_nodes": "5a9c1fa090e796a2bbe81065bfd535eed1b224e2971f413b6504abb16a40f365",
    "per_vs_distance": "505eb6cb9e6a42f7c2faf7edf97b57b04fc4799dc28b7b076c4d33e531a0e7d1",
    "per_vs_modulation": "5de56b4e55e7a4b7f375a42a84ee69447223d6729ffb9f90fb9dbbe1f6be8441",
    "ber_vs_dimension": "adcc78ca2c50b8c181a97e8822debf823539f643fb3b9353c2679241f8f5faff",
    "custom": "6e5f20112678e124a6b7531441b4a9a43b95d2a132d2ddf5a58562e48ad1bab5",
}

LARGER_RUNS = {
    "capacity_vs_nodes-m1e6-trials100-seed3": (
        {"experiment": "capacity_vs_nodes", "trials": 100, "seed": 3, "scenario": {"nakagami_m": 1e6}},
        "c1e2b8e4a047ca35b54cb48738f81b075b67595f8218f5cea9dae32c3b4b2844",
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
