"""Seeded Monte-Carlo packet trials through the coordinated-beamforming link.

Each trial draws fresh channels for every overlapping pair, solves the
coupled drivers, composes per-node beamformers, sends one packet from the
measured node, and detects it at that node's receive point with every other
covering node contributing interference.  Trials are independent: trial t
of SNR-sweep point p uses the random stream spawned from
(master_seed, spawn_key=(p, t)), so results are bit-identical for any
worker count or execution order.  A task hashes the seed words of all its
trials at once, to the same streams numpy's SeedSequence gives.

What does not depend on the draws (moments, rotator, which channels to
draw and their path amplitudes, which nodes send at the measured point) is
worked out once per run.  The tasks of all the runs (one run, one SNR
point, one span of trials each) go to one scheduler, which runs them here
for one process or on one process pool.  A task solves the pairs and the
link algebra of all its trials as stacks, then sends one packet per trial,
a few trials at a time: the slicer reads e = sum_s A_s x_s + W n behind the
zero-forcing combiner W, so a trial draws only the normals of the real
axes the slicer reads and colors them with a factor of W n's covariance,
and the decisions are counted as packed bytes.  A singular solve,
normalization or equalizer erases the trials its SolveError marks, and the
stacked steps run again on the rest.
"""
from __future__ import annotations

import math
import operator
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from beamlink.beamformer import (
    SolveError,
    build_rotator,
    compose,
    normalization,
    rank_deficient,
    solve_coupled_drivers,
)
from beamlink.channel import (
    MomentDecomposition,
    NakagamiParams,
    derive_moments,
    sample_channel,
    stack,
)
from beamlink.metrics import capacity, effective_snr
from beamlink.topology import NetworkScenario, Node, path_gain

__all__ = [
    "ModulationScheme",
    "BPSK",
    "QPSK",
    "modulation_by_name",
    "TrialStats",
    "LinkConfig",
    "PointResult",
    "DetectionError",
    "modulate",
    "received_signal",
    "equalizers",
    "detect",
    "run_trials",
]

class DetectionError(SolveError):
    """Effective channel too singular to equalize; mask marks those members."""


@dataclass(frozen=True)
class ModulationScheme:
    kind: str
    bits_per_symbol: int

    @property
    def min_distance(self) -> float:
        """Minimum Euclidean distance of the unit-energy constellation."""
        return 2.0 if self.kind == "bpsk" else math.sqrt(2.0)


BPSK = ModulationScheme(kind="bpsk", bits_per_symbol=1)
QPSK = ModulationScheme(kind="qpsk", bits_per_symbol=2)


def modulation_by_name(name: str) -> ModulationScheme:
    schemes = {"bpsk": BPSK, "qpsk": QPSK}
    try:
        return schemes[name.lower()]
    except KeyError:
        raise ValueError(f"unknown modulation {name!r}; expected bpsk or qpsk") from None


@dataclass
class TrialStats:
    """Additive Monte-Carlo counters; erased trials count one packet error
    without touching the bit/symbol rows."""

    bits_sent: int = 0
    bit_errors: int = 0
    symbols_sent: int = 0
    symbol_errors: int = 0
    packets_sent: int = 0
    packet_errors: int = 0
    erasures: int = 0

    def __post_init__(self):
        for sent, errors in [
            (self.bits_sent, self.bit_errors),
            (self.symbols_sent, self.symbol_errors),
            (self.packets_sent, self.packet_errors),
        ]:
            if errors < 0 or sent < 0 or errors > sent:
                raise ValueError(f"bad counter pair errors={errors} sent={sent}")
        if self.erasures < 0 or self.erasures > self.packets_sent:
            raise ValueError(f"bad erasure count {self.erasures}")

    def __add__(self, other: "TrialStats") -> "TrialStats":
        return TrialStats(
            bits_sent=self.bits_sent + other.bits_sent,
            bit_errors=self.bit_errors + other.bit_errors,
            symbols_sent=self.symbols_sent + other.symbols_sent,
            symbol_errors=self.symbol_errors + other.symbol_errors,
            packets_sent=self.packets_sent + other.packets_sent,
            packet_errors=self.packet_errors + other.packet_errors,
            erasures=self.erasures + other.erasures,
        )


@dataclass(frozen=True)
class LinkConfig:
    """Everything a Monte-Carlo run needs besides the network and its measured link.

    fading=None replaces every channel draw with the identity matrix (AWGN
    calibration).  mode 'multiplexing' sends one independent stream per
    antenna; 'diversity' repeats a single stream over all antennas through
    an alternating-sign unit-norm vector and combines the receive antennas
    before slicing.  include_interference=False keeps the full beamformer
    chain, its normalization and every channel draw, but the draw plan
    lists the desired node as the only sender at the receive point: the
    idealized no-interference test condition.
    """

    snr_db: tuple[float, ...]
    dimension: int = 2
    modulation: ModulationScheme = BPSK
    packet_bits: int = 2304
    fading: NakagamiParams | None = NakagamiParams(m=1.0, omega=1.0)
    rotation_angle: float = math.pi
    mode: str = "multiplexing"
    include_interference: bool = True

    def __post_init__(self):
        if len(self.snr_db) == 0:
            raise ValueError("snr_db sweep is empty")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.mode not in ("multiplexing", "diversity"):
            raise ValueError(f"mode must be multiplexing or diversity, got {self.mode!r}")
        if self.packet_bits < 1:
            raise ValueError(f"packet_bits must be >= 1, got {self.packet_bits}")
        if self.packet_bits % (self.streams * self.modulation.bits_per_symbol) != 0:
            raise ValueError(
                f"{self.packet_bits} bits do not split into {self.streams} streams "
                f"of {self.modulation.bits_per_symbol}-bit symbols"
            )

    @property
    def streams(self) -> int:
        return self.dimension if self.mode == "multiplexing" else 1

    @property
    def symbols_per_stream(self) -> int:
        return self.packet_bits // (self.streams * self.modulation.bits_per_symbol)


@dataclass
class PointResult:
    """Raw outcome of one SNR point: counters plus per-trial capacity samples
    (NaN where the trial was erased), indexed by trial."""

    snr_db: float
    stats: TrialStats
    capacity_samples: np.ndarray


def modulate(bits: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Map 0/1 bits to their unit-energy symbols' coordinates on the slicer axes.

    bits is (..., N * b): one stream's bits in the order sent, every b of
    them one symbol.  Returns the (..., b, N) coordinates, (1 - 2 bit) /
    sqrt b each: Re x for BPSK, and for QPSK (Im x, Re x), the Gray map of
    bits (b0, b1) to ((1 - 2 b1) + i (1 - 2 b0)) / sqrt 2.
    """
    bits = np.asarray(bits)
    b = scheme.bits_per_symbol
    if bits.ndim < 1 or bits.shape[-1] % b != 0:
        raise ValueError(f"bits of shape {bits.shape} are not rows of whole {b}-bit symbols")
    # one reduction on a chunk's uint8 bits; only a signed input can go below 0
    if bits.max(initial=0) > 1 or (bits.dtype.kind not in "ub" and bits.min(initial=0) < 0):
        raise ValueError("bits must be 0 or 1")
    groups = bits.astype(np.uint8, copy=False).reshape(*bits.shape[:-1], -1, b)
    # each unit-energy symbol's magnitude on every axis it uses
    c = 1.0 / math.sqrt(b)
    return np.array([c, -c]).take(groups.swapaxes(-1, -2))


def received_signal(
    symbols: np.ndarray, leaks: np.ndarray, factor: np.ndarray, normals: np.ndarray
) -> np.ndarray:
    """A chunk of packets' slicer statistics: each axis's known part plus its colored noise.

    symbols is the (trials, senders, K, D/K, N) coordinates modulate gives,
    the desired sender's first, and leaks the (trials, senders - 1, D, D)
    real forms (_real_axes) of each other sender's A_s = W a_s.  The
    desired stream passes W at unit gain, so the known part of axis i is
    x_0[i] + sum_s sum_j L_s[i, j] x_s[j], added term by term, senders and
    then j in order.  factor is the (trials, D, D) real F with F F^T the
    axes' noise covariance, normals the (trials, D, N) white normals, and
    sum_j F[i, j] z_j is added after, j in order.  Returns the (trials, K,
    D/K, N) axes: Re e_k for BPSK, (Im e_k, Re e_k) for QPSK.
    """
    trials, senders, *axes, per_axis = symbols.shape
    x = symbols.reshape(trials, senders, -1, per_axis)
    e = x[:, 0].copy()
    # elementwise products, not a matmul, so no BLAS thread runs and every
    # axis sums its terms in the same order for any chunk
    terms = [(leaks[:, s - 1], x[:, s]) for s in range(1, senders)] + [(factor, normals)]
    for coefficients, values in terms:
        for j in range(e.shape[1]):
            e += coefficients[:, :, j, None] * values[:, None, j]
    return e.reshape(trials, *axes, per_axis)


def equalizers(effective: np.ndarray, repetition: np.ndarray | None) -> np.ndarray:
    """Zero-forcing equalizers of the desired node for a stack of trials.

    effective is the (trials, M, M) stack of its channel @ composite.  The
    effective channel h_eff is that, taken through the repetition vector in
    diversity mode; a single column reduces the pseudoinverse to
    maximum-ratio combining.  One SVD of the stack gives both the rank
    check and the (trials, streams, M) pseudoinverses, by
    numpy.linalg.pinv's own formula.  Raises DetectionError whose mask
    marks the members whose h_eff is rank deficient.
    """
    h_eff = effective if repetition is None else effective @ repetition[:, None]
    u, sv, vh = np.linalg.svd(h_eff, full_matrices=False)
    bad = rank_deficient(sv)
    if bad.any():
        raise DetectionError("effective channel singular; cannot equalize", bad)
    return vh.conj().swapaxes(1, 2) @ ((1.0 / sv)[:, :, None] * u.conj().swapaxes(1, 2))


def _real_axes(m: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """What the complex (..., K, K) matrix m does on the slicer axes, as a
    real (..., D, D) matrix: Re m on the axes Re e_k of BPSK; on the axes
    (Im e_k, Re e_k) of QPSK, the block [[Re, Im], [-Im, Re]] of each entry,
    since Im(m x) = Re m Im x + Im m Re x and Re(m x) = Re m Re x - Im m Im x."""
    if bits_per_symbol == 1:
        return m.real
    *lead, streams, _ = m.shape
    out = np.empty((*lead, streams, 2, streams, 2))
    out[..., 0, :, 0] = out[..., 1, :, 1] = m.real
    out[..., 0, :, 1] = m.imag
    out[..., 1, :, 0] = -m.imag
    return out.reshape(*lead, 2 * streams, 2 * streams)


def _noise_factor(pinv: np.ndarray, sigma2: float, bits_per_symbol: int) -> np.ndarray:
    """(trials, D, D) real factors F, F F^T the covariance of the slicer axes' noise.

    The slicer sees W n ~ CN(0, sigma2 W W^H) (Tse & Viswanath 2005,
    section 8.3.1): Re and Im each have covariance Re(sigma2 W W^H) / 2, and
    E[Im e_k Re e_j] = Im(sigma2 W W^H)[k, j] / 2, which is the real form of
    sigma2 W W^H / 2 on the axes.  One batched eigh, with the negative
    eigenvalues of a near-singular W W^H clipped to 0, gives F where a
    Cholesky factor would fail.
    """
    half = (sigma2 / 2.0) * (pinv @ pinv.conj().swapaxes(1, 2))
    lam, v = np.linalg.eigh(_real_axes(half, bits_per_symbol))
    return v * np.sqrt(np.maximum(lam, 0.0))[:, None, :]


def detect(e: np.ndarray) -> np.ndarray:
    """Sign decisions on a chunk of slicer statistics, packed into bytes.

    e is what received_signal returns.  BPSK decides bit = Re e < 0 and
    QPSK the bits (Im e < 0, Re e < 0).  For these Gray-mapped
    constellations that is the minimum-distance decision, and it stays
    exact where |Im e| / |Re e| is so large that the distances to the
    points tie in floating point.  Returns each packet's decisions in the
    order sent, msb-first, one row of bytes per packet; the bits that pad
    the last byte are 0.
    """
    # rows are streams, each symbol's bits in turn: the transmit order
    decisions = (e < 0.0).swapaxes(-1, -2).reshape(len(e), -1)
    return np.packbits(decisions, axis=-1)


def _alternating_unit_vector(dimension: int) -> np.ndarray:
    # repetition vector for diversity mode; alternating signs cancel the
    # common channel mean so the combined branches actually fade
    v = np.ones(dimension, dtype=complex)
    v[1::2] = -1.0
    return v / math.sqrt(dimension)


@dataclass
class _TaskPlan:
    """What every trial of a task shares; nothing here depends on the draws.

    A trial draws one channel per entry of amplitudes.  Overlap k of pairs
    solves draws 4k .. 4k+3.  senders lists (node id, draw of its channel at
    the measured receive point) for each node that transmits there: the
    desired node first, then, when the link includes interference, every
    other node heard there by ascending id.  A heard node that does not
    send still has its channel drawn, so the per-trial streams do not
    depend on include_interference.
    """

    dimension: int
    moments: MomentDecomposition | None
    rotator: np.ndarray
    desired: int
    pairs: list[tuple[int, int]]
    senders: list[tuple[int, int]]
    amplitudes: np.ndarray  # (draws, 1, 1): sqrt(path gain * tx power)
    repetition: np.ndarray | None  # (M,) in diversity mode, None for multiplexing

    def draw(self, rngs: Sequence[Generator]) -> np.ndarray:
        """The (trials, draws, M, M) channels of one trial per generator:
        trial i's come first on rngs[i], from one sample_channel call for
        the whole stack."""
        if self.moments is None:
            eye = self.amplitudes * np.eye(self.dimension, dtype=complex)
            return np.repeat(eye[None], len(rngs), axis=0)
        return self.amplitudes * sample_channel(
            self.moments, self.dimension, rngs, (len(self.amplitudes),)
        )


def _amplitude(node: Node, point: np.ndarray, scenario: NetworkScenario) -> float:
    dist = float(np.linalg.norm(point - node.position))
    gain = 1.0 if dist == 0.0 else path_gain(dist, scenario)
    return math.sqrt(gain * node.tx_power)


def _plan(scenario: NetworkScenario, link: LinkConfig) -> _TaskPlan:
    """Fix the draw order: per overlap (sorted by id pair) the four pair
    channels, then the measured point's other interferers by ascending id.
    The desired node and its region are the scenario's measured link."""
    moments = derive_moments(link.fading) if link.fading is not None else None
    corr = moments if moments is not None else MomentDecomposition(0.0, 1.0)
    rotator = build_rotator(corr, link.dimension, link.rotation_angle)
    desired, region = scenario.measured_node, scenario.measured_region

    if region is None:
        # single-link calibration: no neighbors to drive, unit normalization
        node = scenario.node_by_id(desired)
        draws = [(node, node.position + np.array([scenario.reference_distance, 0.0]))]
        pairs, heard = [], {desired: 0}
    else:
        point = region.point_for(desired)
        pairs = [overlap.pair for overlap in scenario.overlaps]
        draws, heard = [], {}
        for overlap in scenario.overlaps:
            i, j = overlap.pair
            node_i, node_j = scenario.node_by_id(i), scenario.node_by_id(j)
            p_i, p_j = overlap.point_a, overlap.point_b
            if overlap.pair == region.pair:
                # keep the realizations the solver sees at the measured point
                k = len(draws)
                heard = {i: k + 1, j: k + 2} if desired == i else {i: k, j: k + 3}
            # stack order: channel to the neighbor's point on top, own point below
            draws += [(node_i, p_j), (node_i, p_i), (node_j, p_i), (node_j, p_j)]
        # other nodes whose disks cover the measured point also interfere
        # there; their channels to this point are not part of any solve
        paired = {node_id for overlap in scenario.overlaps for node_id in overlap.pair}
        for node in sorted(scenario.nodes, key=lambda n: n.id):
            if node.id in heard or node.id not in paired:
                continue
            if float(np.linalg.norm(point - node.position)) < node.range_radius:
                heard[node.id] = len(draws)
                draws.append((node, point))
    senders = [(desired, heard.pop(desired))]
    if link.include_interference:
        senders += sorted(heard.items())

    amplitudes = np.array([_amplitude(node, p, scenario) for node, p in draws])
    return _TaskPlan(
        dimension=link.dimension,
        moments=moments,
        rotator=rotator,
        desired=desired,
        pairs=pairs,
        senders=senders,
        amplitudes=amplitudes[:, None, None],
        repetition=_alternating_unit_vector(link.dimension) if link.mode == "diversity" else None,
    )


def _solve_network(plan: _TaskPlan, channels: np.ndarray) -> dict[int, np.ndarray]:
    """Solve every pair's drivers for a (trials, draws, M, M) stack of
    channels and compose per-node beamformers; returns each node's
    (trials, M, M) composite divided by the square root of the network
    normalization g, so every trial's composites carry unit total power."""
    trials, dim = len(channels), plan.dimension
    if not plan.pairs:
        # single link: identity composite, nothing to normalize
        eye = np.eye(dim, dtype=complex)
        return {plan.desired: np.broadcast_to(eye, (trials, dim, dim))}
    # every pair of every trial in one solve: (trials, pairs, 2M, M) stacks
    # of draws 4k, 4k + 1 (node i's) and 4k + 2, 4k + 3 (node j's)
    end = 4 * len(plan.pairs)
    d_i, d_j = solve_coupled_drivers(
        stack(channels[:, 0:end:4], channels[:, 1:end:4]),
        stack(channels[:, 2:end:4], channels[:, 3:end:4]),
        plan.rotator,
    )
    # the pairs come sorted by id, so each node's drivers are appended in
    # ascending order of their target, the order compose needs
    drivers: dict[int, list[np.ndarray]] = {}
    for k, (i, j) in enumerate(plan.pairs):
        drivers.setdefault(i, []).append(d_i[:, k])
        drivers.setdefault(j, []).append(d_j[:, k])
    composites = {node_id: compose(drivers[node_id]) for node_id in sorted(drivers)}
    scale = 1.0 / np.sqrt(normalization(list(composites.values())))[:, None, None]
    return {node_id: composite * scale for node_id, composite in composites.items()}


# at most this many trials are solved as one stack: bounds a task's memory,
# not its results
_BATCH_TRIALS = 256

# the packet stage takes a task's surviving trials a chunk of at most this
# many slicer values at a time (at least one trial), since a packet of B
# bits puts B values on the slicer's axes: 4 packets of 2304 bits, small
# enough that a chunk's arrays stay in cache (README, engine step 3)
_CHUNK_VALUES = 4 * 2304

# bits set in each byte value
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

# numpy's SeedSequence hash on 32-bit words (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of a word (an int, or a uint64 array of
    words): returns the hashed word and the next hash constant."""
    following = const * mult & _MASK32
    value = (value ^ const) * following & _MASK32
    return value ^ value >> 16, following


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: 32-bit words, least
    significant first, and [0] for 0."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _TrialSeed(ISeedSequence):
    """SeedSequence(entropy, spawn_key=spawn_key) with its PCG64 state
    words already hashed; it answers no other request."""

    def __init__(self, entropy: int, spawn_key: tuple[int, int], state: np.ndarray):
        self.entropy, self.spawn_key, self._state = entropy, spawn_key, state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a trial seed holds only PCG64's four 64-bit state words")
        return self._state


def _trial_rngs(master_seed: int, point_idx: int, start: int, stop: int) -> list[Generator]:
    """default_rng(SeedSequence(master_seed, spawn_key=(point_idx, t))) for
    t in [start, stop), bit for bit, from one pass of the seed hash.

    The entropy words are the seed's words padded with zeros to the pool
    size, point_idx's words, then t's one word.  All but the last are the
    same for every trial, so they are mixed once, as Python ints; t is
    mixed for every trial at once, as a uint64 array of 32-bit words.
    """
    if stop > 1 << 32:
        raise ValueError(f"trial index {stop - 1} does not fit one 32-bit word")
    master_seed = operator.index(master_seed)
    words = _words(master_seed)
    words += [0] * (_POOL_WORDS - len(words)) + _words(point_idx)
    const, pool = _INIT_A, []
    for word in words[:_POOL_WORDS]:
        hashed, const = _hashmix(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in [*words[_POOL_WORDS:], np.arange(start, stop, dtype=np.uint64)]:
        for dst in range(_POOL_WORDS):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    # generate_state(4, uint64): eight words from the pool in turn, paired
    # low word first
    const, state = _INIT_B, []
    for i in range(8):
        hashed, const = _hashmix(pool[i % _POOL_WORDS], const, _MULT_B)
        state.append(hashed)
    seeds = np.stack([low | high << 32 for low, high in zip(state[::2], state[1::2])], axis=1)
    return [
        Generator(PCG64(_TrialSeed(master_seed, (point_idx, t), seed)))
        for t, seed in zip(range(start, stop), seeds)
    ]


def _run_task(
    plan: _TaskPlan, link: LinkConfig, master_seed: int, point_idx: int, start: int, stop: int
) -> tuple[TrialStats, np.ndarray]:
    """Counters and capacity samples of trials [start, stop) of one SNR point.

    Trial t's stream is default_rng(SeedSequence(master_seed,
    spawn_key=(point_idx, t))); the task hashes the seed words of all its
    trials in one pass (_trial_rngs), and one sample_channel call draws
    every trial's channels, each first on its own stream.  Every pair of
    every trial is solved as one stack, and so is the link algebra at the
    measured point: each sender's channel @ composite (@ rep in diversity
    mode) a_s, the desired node's equalizer W, each other sender's
    A_s = W a_s, the SINR terms, the capacities and the noise factor.  Then
    each trial draws its packet from its stream: ceil(senders * bytes / 8)
    raw 64-bit words, whose first senders * bytes little-endian bytes are
    each sender's ceil(packet_bits / 8) bytes in turn (the bytes
    integers(0, 256, (senders, bytes), uint8) would draw), then the (D, N)
    normals of its D = K * bits-per-symbol slicer axes.  The surviving
    trials go through the packet stage a chunk at a time, at most
    _CHUNK_VALUES slicer values: modulate, received_signal and detect each
    run once per chunk, and the packed decisions are XORed against the
    desired sender's bytes and counted by a popcount table.

    A numerical failure in the solve, the normalization or the equalizer
    erases its trials: one lost packet each, NaN capacity.  The failing
    step's SolveError marks them; the stacked steps run again on the rest,
    which gives every other trial the result it would get alone.
    """
    rngs = _trial_rngs(master_seed, point_idx, start, stop)
    channels = plan.draw(rngs)
    alive = np.arange(len(rngs))
    while True:
        try:
            composites = _solve_network(plan, channels[alive])
            effective = [channels[alive, d] @ composites[node_id] for node_id, d in plan.senders]
            pinv = equalizers(effective[0], plan.repetition)
            break
        except SolveError as exc:
            # the pair solve marks (trials, pairs), the other steps (trials,)
            alive = alive[~exc.mask.reshape(len(alive), -1).any(axis=1)]

    scheme, rep = link.modulation, plan.repetition
    # diversity sends its one stream through channel @ composite @ rep
    sent = effective if rep is None else [e @ rep[:, None] for e in effective]
    # what W makes of each interferer, and each stream's (trials, K) SINR terms
    leaks = [pinv @ a for a in sent[1:]]
    noise_gain = np.sum(np.abs(pinv) ** 2, axis=-1)
    interference = sum((np.sum(np.abs(a) ** 2, axis=-1) for a in leaks), np.zeros_like(noise_gain))
    sigma2 = 1.0 / (10.0 ** (link.snr_db[point_idx] / 10.0))
    caps = np.full(len(rngs), math.nan)
    caps[alive] = capacity(effective_snr(interference, noise_gain, sigma2))

    b = scheme.bits_per_symbol
    axes = link.streams * b
    factor = _noise_factor(pinv, sigma2, b)
    leak_axes = np.empty((len(alive), len(leaks), axes, axes))
    for s, a in enumerate(leaks):
        leak_axes[:, s] = _real_axes(a, b)
    senders, packet_bytes = len(sent), (link.packet_bits + 7) // 8
    chunk = max(1, _CHUNK_VALUES // link.packet_bits)
    raw = np.empty((chunk, -(-senders * packet_bytes // 8)), dtype="<u8")
    normals = np.empty((chunk, axes, link.symbols_per_stream))
    # the decisions pad the last byte with 0s, the drawn bytes with random bits
    last_byte = 0xFF & 0xFF << (-link.packet_bits % 8)
    bit_errors = symbol_errors = packet_errors = 0
    for lo in range(0, len(alive), chunk):
        trials = alive[lo : lo + chunk].tolist()
        n = len(trials)
        for i, k in enumerate(trials):
            raw[i] = rngs[k].bit_generator.random_raw(raw.shape[1])
            rngs[k].standard_normal(out=normals[i])
        packed = raw[:n].view(np.uint8)[:, : senders * packet_bytes].reshape(n, senders, -1)
        bits = np.unpackbits(packed, axis=-1, count=link.packet_bits)
        symbols = modulate(bits.reshape(n, senders, link.streams, -1), scheme)
        e = received_signal(symbols, leak_axes[lo : lo + n], factor[lo : lo + n], normals[:n])
        wrong = detect(e) ^ packed[:, 0]
        wrong[:, -1] &= last_byte
        errors = int(_POPCOUNT.take(wrong).sum())
        bit_errors += errors
        # a QPSK symbol is wrong exactly when one of its two bits is
        symbol_errors += errors if b == 1 else int(_POPCOUNT.take((wrong | wrong >> 1) & 0x55).sum())
        packet_errors += int(np.count_nonzero(wrong.any(axis=1)))
    erased = len(rngs) - len(alive)
    stats = TrialStats(
        bits_sent=len(alive) * link.packet_bits,
        bit_errors=bit_errors,
        symbols_sent=len(alive) * link.packet_bits // scheme.bits_per_symbol,
        symbol_errors=symbol_errors,
        packets_sent=len(rngs),
        packet_errors=packet_errors + erased,
        erasures=erased,
    )
    return stats, caps


def run_trials(
    runs: Sequence[tuple[NetworkScenario, LinkConfig]],
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> list[PointResult]:
    """Monte-Carlo sweep of every (scenario, link) run: one PointResult per
    SNR point of each run, run-major (run 0's points, then run 1's).

    Each run's draw plan is built once.  Each SNR point's trials are split
    into spans of at most _BATCH_TRIALS, and every (run, SNR point, span)
    task runs in this process when one process is used and otherwise on
    one pool of min(workers, tasks, CPU count) processes.  Every run
    derives its per-trial streams from (master_seed, point index, trial
    index), so the runs share them.  Counters merge by integer addition in
    task order and capacity samples land positionally, so the result is
    identical for every worker count.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not runs:
        raise ValueError("no runs to sweep")

    plans = [_plan(scenario, link) for scenario, link in runs]
    points = [(r, p) for r, (_, link) in enumerate(runs) for p in range(len(link.snr_db))]
    bounds = np.linspace(0, n_trials, -(-n_trials // _BATCH_TRIALS) + 1, dtype=int)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    tasks = [(i, a, b) for i in range(len(points)) for a, b in spans]
    args = [(plans[r], runs[r][1], master_seed, p, a, b) for r, p in points for a, b in spans]
    # the pool starts all its processes at once, so never more than the CPUs
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes == 1:
        chunks = [_run_task(*task) for task in args]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(_run_task, *zip(*args)))

    results = [
        PointResult(
            snr_db=runs[r][1].snr_db[p], stats=TrialStats(), capacity_samples=np.empty(n_trials)
        )
        for r, p in points
    ]
    for (i, a, b), (chunk_stats, chunk_caps) in zip(tasks, chunks):
        results[i].stats = results[i].stats + chunk_stats
        results[i].capacity_samples[a:b] = chunk_caps
    return results
