"""The packet stage and the full-block reference against an exact oracle.

The configs are four named ones, where noise and interference both decide
bits, and every golden run of tests/test_golden.py.  For every run the counted bit errors must lie within five standard
deviations of the oracle's expected count, sum p with variance
sum p (1 - p) (tests/reference.py).  The seeds are fixed, so each check
reads the same numbers on every run.  Where noise decides no bit (the
120 dB distance sweep) every p is 0 or 1 and the counts must be equal.
"""
from __future__ import annotations

import math
from dataclasses import replace

import pytest
import numpy as np
from reference import full_block_run, mrc_bpsk_ber, stage_run
from test_golden import CAPACITY_ROWS_SHA256, golden_overrides

from beamlink import linksim
from beamlink.channel import derive_moments
from beamlink.experiments import load_config

# the golden runs' 3-node chain: node 2 is heard at the measured receive point
_CHAIN3 = {"node_count": 3, "node_spacing": 5.0, "range_radius": 12.0, "packet_bits": 256}

# SNRs where both noise and interference decide bits
NAMED = {
    "multiplexing-2x2-interference": {
        "trials": 40, "seed": 21, "snr": {"start": 35.0, "stop": 50.0, "step": 5.0},
        "scenario": _CHAIN3,
    },
    "chain3-diversity-m4": {
        "trials": 40, "seed": 22, "snr": {"start": 15.0, "stop": 30.0, "step": 5.0},
        "scenario": {**_CHAIN3, "dimension": 4, "transmission_mode": "diversity"},
    },
    "qpsk-multiplexing-interference": {
        "trials": 40, "seed": 23, "snr": {"start": 35.0, "stop": 50.0, "step": 5.0},
        "scenario": {**_CHAIN3, "modulation": "qpsk"},
    },
    "identity-channel": {
        "trials": 40, "seed": 24, "snr": {"start": 0.0, "stop": 6.0, "step": 2.0},
        "scenario": {"node_count": 1, "identity_channel": True, "packet_bits": 256},
    },
}
CONFIGS = {**NAMED, **{name: golden_overrides(name) for name in CAPACITY_ROWS_SHA256}}


def _runs(overrides):
    config = load_config(overrides=overrides)
    return config, [(scenario, link) for *_, scenario, link in config.runs]


def _assert_within_oracle(stats, mean, var):
    assert stats.bits_sent > 0
    assert abs(stats.bit_errors - mean) <= 5.0 * math.sqrt(var), (stats.bit_errors, mean, var)


@pytest.mark.parametrize("name", CONFIGS)
def test_stage_matches_oracle(name, monkeypatch):
    config, runs = _runs(CONFIGS[name])
    for scenario, link in runs:
        _assert_within_oracle(*stage_run(scenario, link, config.trials, config.seed, monkeypatch))


@pytest.mark.parametrize("name", CONFIGS)
def test_full_block_reference_matches_oracle(name):
    config, runs = _runs(CONFIGS[name])
    for scenario, link in runs:
        _assert_within_oracle(*full_block_run(scenario, link, config.trials, config.seed))


def test_oracle_sees_a_wrong_noise_power(monkeypatch):
    # the identity channel's 2x2 BPSK link counts its errors on two axes;
    # counted with its noise 2x too strong, they leave the oracle's bound
    count = linksim._count_errors
    monkeypatch.setattr(linksim, "_count_errors",
                        lambda patterns, leaks, spread, *args: count(patterns, leaks, 2.0 * spread, *args))
    config, ((scenario, link),) = _runs(NAMED["identity-channel"])
    assert linksim._plan(scenario, link).patterns is not None
    stats, mean, var = stage_run(scenario, link, config.trials, config.seed, monkeypatch)
    assert abs(stats.bit_errors - mean) > 5.0 * math.sqrt(var)


def test_oracle_sees_a_wrong_noise_power_in_the_packet_stage(monkeypatch):
    # the same link through the packet stage, with its noise drawn 2x too
    # strong, leaves the oracle's bound too
    plan = linksim._plan
    monkeypatch.setattr(linksim, "_plan", lambda *args: replace(plan(*args), patterns=None))
    factor = linksim._noise_factor
    monkeypatch.setattr(linksim, "_noise_factor", lambda *args: factor(*args) * math.sqrt(2.0))
    config, ((scenario, link),) = _runs(NAMED["identity-channel"])
    stats, mean, var = stage_run(scenario, link, config.trials, config.seed, monkeypatch)
    assert abs(stats.bit_errors - mean) > 5.0 * math.sqrt(var)


def test_counted_ber_matches_the_mrc_closed_form():
    # ber_vs_dimension counts its errors; over 20 seeds of 300 trials, the
    # mean BER of each of its 16 points (M = 2 and 4, 0 to 14 dB) lies within
    # four standard errors of the even-M Rayleigh MRC closed form, the
    # standard error taken from the seeds' own spread
    seeds = range(100, 120)
    bers = []
    for seed in seeds:
        config, runs = _runs({"experiment": "ber_vs_dimension", "trials": 300, "seed": seed})
        results = linksim.run_trials(runs, config.trials, config.seed)
        bers.append([r.stats.bit_errors / r.stats.bits_sent for r in results])
    variance = derive_moments(runs[0][1].fading).variance
    exact = [mrc_bpsk_ber(link.dimension, variance * 10.0 ** (snr / 10.0))
             for _, link in runs for snr in link.snr_db]
    assert [link.dimension for _, link in runs] == [2, 4]
    mean, se = np.mean(bers, axis=0), np.std(bers, axis=0, ddof=1) / math.sqrt(len(seeds))
    z = (mean - np.array(exact)) / se
    assert np.all(np.abs(z) <= 4.0), z.round(2).tolist()
