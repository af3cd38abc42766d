"""References for the packet stage: the full-block path, the per-trial
stage and an exact oracle; and for the draw plan, the per-draw planner.

The full-block path is how a trial's packet went through the link before
the stage drew only the slicer's axes: `2 * M * N` complex-noise normals per
packet, the `(M, N)` received block summed sender by sender, then the
zero-forcing combiner applied antenna by antenna and a sign slicer.  It
takes its channels where run_trials does but draws its bits and noise on
its own contract (bits from `integers(0, 2)` on the block's bits stream,
`(2, M, N)` normals on its noise stream) and stays here, in the tests, to
check the stage against.

The per-trial stage is how a trial's packet went through the slicer's axes
before the stage took a chunk of trials at once: one trial at a time, its
raw words and normals drawn by calls of its own, complex symbols, the known
part summed row by row in complex arithmetic, and the decisions compared
bit by bit.  It draws on run_trials' block contract, one trial after the
other, so its counters must equal the chunked stage's.

The oracle is quasi-analytic (Jeruchim, Balaban & Shanmugan, *Simulation of
Communication Systems*, 2nd ed., 2000): once a trial's channels, composites
and symbols are known, its slicer input is `e = d + W n` with the known part
`d = sum_s A_s x_s`, `A_s = W a_s`, and `W n` Gaussian with variance
`sigma2 ||w_k||^2 / 2` on each real axis of stream k.  So every bit has an
exact conditional error probability `p = Q(x d / sqrt(var))` on its axis,
with x the sign sent there.  Summed over the bits of a run, `sum p` is the
expected count of bit errors and `sum p (1 - p)` its variance.

The per-draw planner is how the draw plan was built before it took its
geometry as arrays: draw by draw, a 1-D `np.linalg.norm` for each distance,
one scalar path gain per draw with gain 1 at distance 0, and the heard-node
test node by node.  The plan must equal it bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from beamlink import linksim
from beamlink.beamformer import SolveError, left_pseudoinverse
from beamlink.linksim import LinkConfig, TrialStats

# complex constellation points; index k is the symbol's bits read msb-first
POINTS = {
    "bpsk": np.array([1.0, -1.0], dtype=complex),
    "qpsk": np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j], dtype=complex) / math.sqrt(2.0),
}


def complex_modulate(bits: np.ndarray, scheme) -> np.ndarray:
    """0/1 bits, read b at a time msb-first along the last axis, to complex
    unit-energy symbols."""
    groups = np.asarray(bits, dtype=np.uint8).reshape(*np.shape(bits)[:-1], -1, scheme.bits_per_symbol)
    index = groups[..., 0]
    for b in range(1, scheme.bits_per_symbol):
        index = (index << 1) | groups[..., b]
    return POINTS[scheme.kind].take(index)


def complex_symbols(coordinates: np.ndarray) -> np.ndarray:
    """The complex symbols of modulate's (..., D/K, N) coordinates: Re x
    for BPSK, (Im x, Re x) for QPSK."""
    if coordinates.shape[-2] == 1:
        return coordinates[..., 0, :] + 0j
    return coordinates[..., 1, :] + 1j * coordinates[..., 0, :]


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
    """One trial's channels, the next on the channel stream rng, solved
    alone: each sender's effective channel a_s (through the repetition
    vector in diversity mode) and the combiner W, or None where the trial is
    erased."""
    channels, rep = plan.draw(rng, 1), plan.repetition
    try:
        composites = linksim._solve_network(plan, channels)
        sent = [channels[:, d] @ composites[node_id] for node_id, d in plan.senders]
        if rep is not None:
            sent = [a @ rep[:, None] for a in sent]
        w = left_pseudoinverse(sent[0])[0]
    except SolveError:
        return None
    return [a[0] for a in sent], w


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


def block_streams(master_seed: int, point: int, block: int) -> list[np.random.Generator]:
    """The channel, bits and noise streams run_trials gives block `block` of
    SNR point `point`, as numpy documents them."""
    seeds = [np.random.SeedSequence(master_seed, spawn_key=(point, block, kind)) for kind in range(3)]
    return [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]


def trial_streams(master_seed: int, point: int, n_trials: int):
    """Each trial's (channel, bits, noise) streams in trial order: its
    block's, which stand at the trial's draws once every earlier trial of
    the block has drawn its own."""
    size = linksim._BATCH_TRIALS
    for start in range(0, n_trials, size):
        streams = block_streams(master_seed, point, start // size)
        for _ in range(start, min(start + size, n_trials)):
            yield streams


def full_block_run(scenario, link: LinkConfig, n_trials: int, master_seed: int):
    """Every trial of every SNR point through the full-block path, one at a
    time: (counters, oracle sum p, oracle sum p (1 - p))."""
    plan = linksim._plan(scenario, link)
    scheme, m = link.modulation, link.dimension
    shape = (len(plan.senders), link.streams, link.symbols_per_stream)
    stats, mean, var = TrialStats(), 0.0, 0.0
    for point, snr_db in enumerate(link.snr_db):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        for channel_rng, bits_rng, noise_rng in trial_streams(master_seed, point, n_trials):
            solved = trial_link(plan, channel_rng)
            if solved is None:
                stats = stats + TrialStats(packets_sent=1, packet_errors=1, erasures=1)
                continue
            sent, w = solved
            bits = bits_rng.integers(0, 2, size=(len(sent), link.packet_bits))
            symbols = complex_modulate(bits, scheme).reshape(shape)
            normals = noise_rng.standard_normal((2, m, link.symbols_per_stream))
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


def per_trial_run(scenario, link: LinkConfig, n_trials: int, master_seed: int):
    """Every trial of every SNR point through the per-trial stage, one at a
    time: (counters, capacity samples of every point in turn)."""
    plan = linksim._plan(scenario, link)
    scheme, streams = link.modulation, link.streams
    b, per_stream = scheme.bits_per_symbol, link.symbols_per_stream
    shape = (len(plan.senders), streams, per_stream)
    packet_bytes = (link.packet_bits + 7) // 8
    words = -(-len(plan.senders) * packet_bytes // 8)
    stats, caps = TrialStats(), []
    for point, snr_db in enumerate(link.snr_db):
        sigma2 = 1.0 / (10.0 ** (snr_db / 10.0))
        for channel_rng, bits_rng, noise_rng in trial_streams(master_seed, point, n_trials):
            solved = trial_link(plan, channel_rng)
            # an erased trial draws its words and normals all the same
            raw = np.asarray(bits_rng.bit_generator.random_raw(words), dtype="<u8")
            normals = noise_rng.standard_normal((streams * b, per_stream))
            if solved is None:
                stats = stats + TrialStats(packets_sent=1, packet_errors=1, erasures=1)
                caps.append(math.nan)
                continue
            sent, w = solved
            leaks = [(w[None] @ a[None])[0] for a in sent[1:]]
            noise_gain = np.sum(np.abs(w) ** 2, axis=-1)
            interference = sum((np.sum(np.abs(a) ** 2, axis=-1) for a in leaks), np.zeros(streams))
            caps.append(linksim.capacity(linksim.effective_snr(interference, noise_gain, sigma2)))
            packed = raw.view(np.uint8)[: len(sent) * packet_bytes].reshape(len(sent), -1)
            bits = np.unpackbits(packed, axis=1, count=link.packet_bits)
            symbols = complex_modulate(bits, scheme).reshape(shape)
            known = symbols[0].copy()
            for a, x in zip(leaks, symbols[1:]):
                for known_k, row in zip(known, a.tolist()):
                    for a_kj, x_j in zip(row, x):
                        known_k += a_kj * x_j
            e = np.stack([known.real] if b == 1 else [known.imag, known.real], axis=1)
            factor = linksim._noise_factor(w[None], sigma2, b)[0]
            for axis, row in zip(e.reshape(-1, per_stream), factor.tolist()):
                for f, z in zip(row, normals):
                    axis += f * z
            wrong = (e < 0.0).swapaxes(1, 2).reshape(-1) != bits[0]
            stats = stats + TrialStats(
                bits_sent=link.packet_bits,
                bit_errors=int(wrong.sum()),
                symbols_sent=link.packet_bits // b,
                symbol_errors=int(wrong.reshape(-1, b).any(axis=1).sum()),
                packets_sent=1,
                packet_errors=int(wrong.any()),
            )
    return stats, np.array(caps)


def stage_run(scenario, link: LinkConfig, n_trials: int, master_seed: int, monkeypatch):
    """run_trials on one run, with the oracle's sums from the symbols each
    chunk hands received_signal: (counters, sum p, sum p (1 - p))."""
    handed = []
    stage = linksim.received_signal

    def recorded(symbols, *args):
        # one (senders, K, N) block of complex symbols per trial of the chunk
        handed.extend(complex_symbols(symbols))
        return stage(symbols, *args)

    monkeypatch.setattr(linksim, "received_signal", recorded)
    results = linksim.run_trials([(scenario, link)], n_trials, master_seed)
    plan = linksim._plan(scenario, link)
    symbols = iter(handed)
    mean = var = 0.0
    for point, snr_db in enumerate(link.snr_db):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        for channel_rng, *_ in trial_streams(master_seed, point, n_trials):
            solved = trial_link(plan, channel_rng)
            if solved is not None:
                p = bit_error_probabilities(*solved, next(symbols), sigma2, link.modulation)
                mean, var = mean + p.sum(), var + (p * (1.0 - p)).sum()
    assert next(symbols, None) is None
    return sum((r.stats for r in results), TrialStats()), mean, var


def per_draw_plan(scenario, link: LinkConfig):
    """The draw plan's (pairs, senders, amplitudes), one draw at a time."""
    desired, pairs = scenario.measured_node, list(scenario.pairs)
    by_id = {node.id: node for node in scenario.nodes}
    if scenario.measured_pair is None:
        node = by_id[desired]
        draws = [(node, node.position + np.array([scenario.reference_distance, 0.0]))]
        heard = {desired: 0}
    else:
        measured = pairs.index(scenario.measured_pair)
        point = scenario.points[measured, scenario.measured_pair.index(desired)]
        draws, heard = [], {}
        for k, (i, j) in enumerate(pairs):
            p_i, p_j = scenario.points[k]
            if k == measured:
                heard = {i: 4 * k + 1, j: 4 * k + 2} if desired == i else {i: 4 * k, j: 4 * k + 3}
            draws += [(by_id[i], p_j), (by_id[i], p_i), (by_id[j], p_i), (by_id[j], p_j)]
        paired = {node_id for pair in pairs for node_id in pair}
        for node in sorted(scenario.nodes, key=lambda n: n.id):
            if node.id in heard or node.id not in paired:
                continue
            if float(np.linalg.norm(point - node.position)) < node.range_radius:
                heard[node.id] = len(draws)
                draws.append((node, point))
    senders = [(desired, heard.pop(desired))]
    if link.include_interference:
        senders += sorted(heard.items())
    d0, eta = scenario.reference_distance, scenario.path_loss_exponent
    amplitudes = []
    for node, p in draws:
        dist = float(np.linalg.norm(p - node.position))
        gain = 1.0 if dist == 0.0 else (max(dist, d0) / d0) ** (-eta)
        amplitudes.append(math.sqrt(gain * node.tx_power))
    return pairs, senders, np.array(amplitudes)
