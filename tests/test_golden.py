"""Golden CSV digests: every named experiment at a small seeded budget.

Each entry of EXPERIMENTS runs at trials 3, seed 7 and its default snr grid,
and the sha256 of the CSV it writes is pinned.  A refactor must leave these
bytes unchanged; moving a digest on purpose needs a CHANGES.md entry that
says why the output changed.
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


def test_every_experiment_is_pinned():
    assert set(GOLDEN_SHA256) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_csv_digest(tmp_path, name):
    cfg = load_config(overrides={"experiment": name, "trials": 3, "seed": 7})
    path = tmp_path / f"{name}.csv"
    emit_csv(run_experiment(cfg), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
