"""References for the packet stage: the full-block path and an exact oracle.

The full-block path is how a trial's packet went through the link before
the stage drew only the slicer's axes: `2 * M * N` complex-noise normals per
packet, the `(M, N)` received block summed sender by sender, then the
zero-forcing combiner applied antenna by antenna and a sign slicer.  It
draws its bits and noise on its own stream contract (bits from
`integers(0, 2)`, then `(2, M, N)` normals) and stays here, in the tests,
to check the stage against.

The oracle is quasi-analytic (Jeruchim, Balaban & Shanmugan, *Simulation of
Communication Systems*, 2nd ed., 2000): once a trial's channels, composites
and symbols are known, its slicer input is `e = d + W n` with the known part
`d = sum_s A_s x_s`, `A_s = W a_s`, and `W n` Gaussian with variance
`sigma2 ||w_k||^2 / 2` on each real axis of stream k.  So every bit has an
exact conditional error probability `p = Q(x d / sqrt(var))` on its axis,
with x the sign sent there.  Summed over the bits of a run, `sum p` is the
expected count of bit errors and `sum p (1 - p)` its variance.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from beamlink import linksim
from beamlink.beamformer import SolveError
from beamlink.linksim import LinkConfig, TrialStats, equalizers, modulate


def full_block_received_signal(
    effective: dict[int, np.ndarray], transmit: dict[int, np.ndarray], noise: np.ndarray
) -> np.ndarray:
    """The (M, N) received block: noise plus effective @ transmit summed over
    the senders in ascending id order, row by row; noise is not written."""
    y = noise.astype(complex)
    for node_id in sorted(transmit):
        rows = list(transmit[node_id])
        for y_m, coefficients in zip(y, effective[node_id].tolist()):
            for a_mk, x_k in zip(coefficients, rows):
                y_m += a_mk * x_k
    return y


def full_block_detect(y: np.ndarray, pinv: np.ndarray, scheme) -> np.ndarray:
    """pinv applied to the (M, N) block antenna by antenna, then the sign
    slicer: BPSK bit = Re e < 0, QPSK bits (Im e < 0, Re e < 0)."""
    y2 = np.atleast_2d(y)
    equalized = pinv[:, :1] * y2[0]
    for m in range(1, len(y2)):
        equalized += pinv[:, m : m + 1] * y2[m]
    if scheme.kind == "bpsk":
        return (equalized.real < 0.0).view(np.uint8).reshape(-1)
    bits = np.empty(equalized.shape + (2,), dtype=bool)
    np.less(equalized.imag, 0.0, out=bits[..., 0])
    np.less(equalized.real, 0.0, out=bits[..., 1])
    return bits.view(np.uint8).reshape(-1)


def trial_link(plan, rng) -> tuple[list[np.ndarray], np.ndarray] | None:
    """One trial's channels drawn from rng, solved alone: each sender's
    effective channel a_s (through the repetition vector in diversity mode)
    and the combiner W, or None where the trial is erased."""
    channels = plan.draw(rng)[None]
    try:
        composites = linksim._solve_network(plan, channels)
        effective = [channels[:, d] @ composites[node_id] for node_id, d in plan.senders]
        w = equalizers(effective[0], plan.repetition)[0]
    except SolveError:
        return None
    rep = plan.repetition
    return [e[0] if rep is None else e[0] @ rep[:, None] for e in effective], w


def bit_error_probabilities(sent, w, symbols, sigma2: float, scheme) -> np.ndarray:
    """Each bit's error probability given the trial, in the order the bits
    were sent: Q(x d / sqrt(var)) on the bit's slicer axis."""
    known = sum(w @ a @ x for a, x in zip(sent, symbols))
    sd = np.sqrt(sigma2 * np.sum(np.abs(w) ** 2, axis=1) / 2.0)[:, None]
    x0 = symbols[0]
    axes = [(known.real, x0.real)]
    if scheme.kind == "qpsk":
        axes = [(known.imag, x0.imag), (known.real, x0.real)]
    # Q(u) = erfc(u / sqrt 2) / 2
    p = [0.5 * erfc(np.sign(x) * d / (sd * math.sqrt(2.0))) for d, x in axes]
    return np.stack(p, axis=-1).reshape(-1)


def trial_stream(master_seed: int, point: int, trial: int) -> np.random.Generator:
    """The stream run_trials gives trial `trial` of SNR point `point`."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(point, trial)))


def full_block_run(scenario, link: LinkConfig, n_trials: int, master_seed: int):
    """Every trial of every SNR point through the full-block path, one at a
    time: (counters, oracle sum p, oracle sum p (1 - p))."""
    plan = linksim._plan(scenario, link)
    scheme, m = link.modulation, link.dimension
    shape = (len(plan.senders), link.streams, link.symbols_per_stream)
    stats, mean, var = TrialStats(), 0.0, 0.0
    for point, snr_db in enumerate(link.snr_db):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        for trial in range(n_trials):
            rng = trial_stream(master_seed, point, trial)
            solved = trial_link(plan, rng)
            if solved is None:
                stats = stats + TrialStats(packets_sent=1, packet_errors=1, erasures=1)
                continue
            sent, w = solved
            bits = rng.integers(0, 2, size=(len(sent), link.packet_bits))
            symbols = modulate(bits.reshape(-1), scheme).reshape(shape)
            normals = rng.standard_normal((2, m, link.symbols_per_stream))
            noise = (normals[0] + 1j * normals[1]) * math.sqrt(sigma2 / 2.0)
            y = full_block_received_signal(dict(enumerate(sent)), dict(enumerate(symbols)), noise)
            wrong = full_block_detect(y, w, scheme) != bits[0]
            p = bit_error_probabilities(sent, w, symbols, sigma2, scheme)
            mean, var = mean + p.sum(), var + (p * (1.0 - p)).sum()
            stats = stats + TrialStats(
                bits_sent=link.packet_bits,
                bit_errors=int(wrong.sum()),
                symbols_sent=link.packet_bits // scheme.bits_per_symbol,
                symbol_errors=int(wrong.reshape(-1, scheme.bits_per_symbol).any(axis=1).sum()),
                packets_sent=1,
                packet_errors=int(wrong.any()),
            )
    return stats, mean, var


def stage_run(scenario, link: LinkConfig, n_trials: int, master_seed: int, monkeypatch):
    """run_trials on one run, with the oracle's sums from the symbols each
    trial hands received_signal: (counters, sum p, sum p (1 - p))."""
    handed = []
    stage = linksim.received_signal

    def recorded(symbols, *args):
        handed.append(symbols.copy())
        return stage(symbols, *args)

    monkeypatch.setattr(linksim, "received_signal", recorded)
    results = linksim.run_trials([(scenario, link)], n_trials, master_seed)
    plan = linksim._plan(scenario, link)
    symbols = iter(handed)
    mean = var = 0.0
    for point, snr_db in enumerate(link.snr_db):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        for trial in range(n_trials):
            solved = trial_link(plan, trial_stream(master_seed, point, trial))
            if solved is not None:
                p = bit_error_probabilities(*solved, next(symbols), sigma2, link.modulation)
                mean, var = mean + p.sum(), var + (p * (1.0 - p)).sum()
    assert next(symbols, None) is None
    return sum((r.stats for r in results), TrialStats()), mean, var
