"""Seeded Monte-Carlo packet trials through the coordinated-beamforming link.

Each trial draws fresh channels for every overlapping pair, solves the
coupled drivers, composes per-node beamformers, sends one packet from the
measured node, and detects it at that node's receive point with every other
covering node contributing interference.  The trials of SNR-sweep point
p are counted in blocks of _BATCH_TRIALS from trial 0, and block b draws
each kind of draw (channels, bits, noise) from its own stream, spawned from
(master_seed, spawn_key=(p, b, kind)) and filled in trial order.  So every
draw of a trial sits at a position fixed by its index: results are
bit-identical for any worker count, execution order, chunk size or run
trial count, and an erased trial moves no other trial's draws.

What does not depend on the draws (moments, rotator, which channels to
draw and their path amplitudes, which nodes send at the measured point) is
worked out once per run.  The tasks of all the runs (one run, one SNR
point, one block of trials each) go to one scheduler, which runs them here
for one process or on one process pool.  A task solves the pairs and the
link algebra of all its trials as stacks, then sends one packet per trial,
a few trials at a time: the slicer reads e = sum_s A_s x_s + W n behind the
zero-forcing combiner W (beamformer.left_pseudoinverse of the desired
sender's effective channel), so a trial draws only the normals of the real
axes the slicer reads and colors them with a factor of W n's covariance,
and its errors are the sign decisions on those axes that differ from the
signs of the desired sender's coordinates.  A singular solve,
normalization or equalizer erases the trials its SolveError marks, and the
stacked steps run again on the rest.
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from beamlink.beamformer import (
    SolveError,
    build_rotator,
    compose,
    left_pseudoinverse,
    normalization,
    solve_coupled_drivers,
)
from beamlink.channel import (
    MomentDecomposition,
    NakagamiParams,
    derive_moments,
    sample_channel,
    stack,
)
from beamlink.metrics import RATES, capacity, effective_snr, uncoded_stream_params
from beamlink.topology import NetworkScenario, _distance, path_gain

__all__ = [
    "ModulationScheme",
    "BPSK",
    "QPSK",
    "MODULATIONS",
    "TrialStats",
    "LinkConfig",
    "PointResult",
    "DetectionError",
    "modulate",
    "received_signal",
    "detect",
    "run_trials",
]

class DetectionError(SolveError):
    """Nothing raises it; perfbench/bench.py imports it.  A rank-deficient
    equalizer raises beamformer.IllConditionedChannelError."""


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


MODULATIONS = {"bpsk": BPSK, "qpsk": QPSK}


@dataclass
class TrialStats:
    """Additive Monte-Carlo counters, each of RATES' error counts within its
    trials; an erased trial counts one packet error and no bits or symbols."""

    bits_sent: int = 0
    bit_errors: int = 0
    symbols_sent: int = 0
    symbol_errors: int = 0
    packets_sent: int = 0
    packet_errors: int = 0
    erasures: int = 0

    def __post_init__(self):
        for _, errors_field, sent_field in RATES:
            errors, sent = getattr(self, errors_field), getattr(self, sent_field)
            if errors < 0 or sent < 0 or errors > sent:
                raise ValueError(f"bad counter pair {errors_field}={errors} {sent_field}={sent}")
        if self.erasures < 0 or self.erasures > self.packets_sent:
            raise ValueError(f"bad erasure count {self.erasures}")

    def __add__(self, other: "TrialStats") -> "TrialStats":
        return TrialStats(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


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
        self.symbols_per_stream  # raises ValueError unless the packet splits evenly

    @property
    def streams(self) -> int:
        return self.dimension if self.mode == "multiplexing" else 1

    @property
    def symbols_per_stream(self) -> int:
        return uncoded_stream_params(self.packet_bits, self.modulation.bits_per_symbol, self.streams)[0]


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
    """Sign decisions on a chunk of slicer statistics.

    e is what received_signal returns.  BPSK decides bit = Re e < 0 and
    QPSK the bits (Im e < 0, Re e < 0).  For these Gray-mapped
    constellations that is the minimum-distance decision, and it stays
    exact where |Im e| / |Re e| is so large that the distances to the
    points tie in floating point.  Returns the decided bits in e's own
    (trials, K, D/K, N) layout, the layout of modulate's coordinates.
    """
    return e < 0.0


def _alternating_unit_vector(dimension: int) -> np.ndarray:
    # repetition vector for diversity mode; alternating signs cancel the
    # common channel mean so the combined branches actually fade
    v = np.ones(dimension, dtype=complex)
    v[1::2] = -1.0
    return v / math.sqrt(dimension)


@dataclass
class _TaskPlan:
    """What every trial of a task shares; nothing here depends on the draws.

    A trial draws one channel per entry of amplitudes, each its node's
    sqrt(path gain * tx power) at the point it is drawn to.  Overlap k of
    pairs solves draws 4k .. 4k+3.  senders lists (node id, draw of its
    channel at the measured receive point) for each node that transmits
    there: the desired node first, then, when the link includes
    interference, every other node heard there by ascending id.  A heard
    node that does not send still has its channel drawn, so the channel
    stream does not depend on include_interference.
    """

    dimension: int
    moments: MomentDecomposition | None
    rotator: np.ndarray
    desired: int
    pairs: list[tuple[int, int]]
    senders: list[tuple[int, int]]
    amplitudes: np.ndarray  # (draws, 1, 1): sqrt(path gain * tx power)
    repetition: np.ndarray | None  # (M,) in diversity mode, None for multiplexing

    def draw(self, rng: Generator, trials: int) -> np.ndarray:
        """The (trials, draws, M, M) channels of that many trials in turn,
        from one sample_channel call on rng."""
        if self.moments is None:
            eye = self.amplitudes * np.eye(self.dimension, dtype=complex)
            return np.repeat(eye[None], trials, axis=0)
        return self.amplitudes * sample_channel(
            self.moments, self.dimension, rng, (trials, len(self.amplitudes))
        )


def _plan(scenario: NetworkScenario, link: LinkConfig) -> _TaskPlan:
    """Fix the draw order: per overlap (sorted by id pair) the four pair
    channels, then the measured point's other interferers by ascending id.
    The desired node and its pair are the scenario's measured link.  Every
    distance comes from topology._distance, every gain from one path_gain."""
    moments = derive_moments(link.fading) if link.fading is not None else None
    corr = moments if moments is not None else MomentDecomposition(0.0, 1.0)
    rotator = build_rotator(corr, link.dimension, link.rotation_angle)
    desired, pairs = scenario.measured_node, scenario.pairs
    ranked = sorted(scenario.nodes, key=lambda n: n.id)
    ids = [node.id for node in ranked]
    positions = np.array([node.position for node in ranked])

    if scenario.measured_pair is None:
        # single-link calibration: no neighbors to drive, unit normalization
        at = np.array([ids.index(desired)])
        points = positions[at] + np.array([scenario.reference_distance, 0.0])
        heard = {desired: 0}
    else:
        k = pairs.index(scenario.measured_pair)
        a, c = scenario.measured_pair
        point = scenario.points[k, 0 if desired == a else 1]
        # keep the realizations the solver sees at the measured point
        heard = {a: 4 * k + 1, c: 4 * k + 2} if desired == a else {a: 4 * k, c: 4 * k + 3}
        # stack order per pair (i, j): node i's channels to j's point and to
        # its own, then node j's to i's point and to its own
        ends = np.searchsorted(ids, pairs)
        at = ends[:, [0, 0, 1, 1]].ravel()
        points = scenario.points[:, [1, 0, 0, 1]].reshape(-1, 2)
        # other nodes whose disks cover the measured point also interfere
        # there; their channels to this point are not part of any solve
        others = np.bincount(ends.ravel(), minlength=len(ranked)) > 0
        others[ends[k]] = False
        radii = np.array([node.range_radius for node in ranked])
        covering = np.flatnonzero(others & (_distance(point - positions) < radii))
        heard.update((ids[m], len(at) + q) for q, m in enumerate(covering.tolist()))
        at = np.concatenate([at, covering])
        points = np.concatenate([points, np.broadcast_to(point, (len(covering), 2))])
    senders = [(desired, heard.pop(desired))]
    if link.include_interference:
        senders += sorted(heard.items())

    power = np.array([node.tx_power for node in ranked])[at]
    amplitudes = np.sqrt(path_gain(_distance(points - positions[at]), scenario) * power)
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


# a task is one block of this many trials (fewer in a point's last block),
# counted from trial 0 and solved as one stack.  The block keys the task's
# streams, so this size is part of every result; with
# experiments.MAX_CHANNEL_ENTRIES it also bounds a task's memory
_BATCH_TRIALS = 256

# the packet stage takes a task's trials a chunk of at most this many
# slicer values at a time (at least one trial), since a packet of B bits
# puts B values on the slicer's axes: 4 packets of 2304 bits, small enough
# that a chunk's arrays stay in cache (README, engine step 3).  Each kind of
# draw has its own stream, filled trial by trial, so the chunk size moves
# no draw and bounds only memory
_CHUNK_VALUES = 4 * 2304


def _block_streams(master_seed: int, point_idx: int, block: int) -> list[Generator]:
    """The channel, bits and noise streams of one block of trials: kind k's
    is keyed SeedSequence(master_seed, spawn_key=(point_idx, block, k))."""
    return [
        Generator(PCG64(SeedSequence(master_seed, spawn_key=(point_idx, block, kind))))
        for kind in range(3)
    ]


def _run_task(
    plan: _TaskPlan, link: LinkConfig, master_seed: int, point_idx: int, start: int, stop: int
) -> tuple[TrialStats, np.ndarray]:
    """Counters and capacity samples of trials [start, stop) of one SNR point.

    The trials are one block: start is a multiple of _BATCH_TRIALS, and
    block start // _BATCH_TRIALS takes each kind of draw from its own
    stream (_block_streams), in trial order.  The channel stream (kind 0)
    gives every trial's channels in one sample_channel call.  The bits
    stream (kind 1) gives each trial ceil(senders * bytes / 8) raw 64-bit
    words, whose first senders * bytes little-endian bytes are each
    sender's ceil(packet_bits / 8) bytes in turn.  The noise stream (kind
    2) gives each trial the (D, N) normals of its D = K * bits-per-symbol
    slicer axes.  Every trial draws, erased or not, so a trial's draws sit
    at positions fixed by its index within the block.

    Every pair of every trial is solved as one stack, and so is the link
    algebra at the measured point: the (trials, senders, M, K) stack of
    each sender's channel @ composite (@ rep in diversity mode) a_s, the
    desired node's zero-forcing equalizer W = left_pseudoinverse(a_0), the
    other senders' A_s = W a_s, the SINR terms, the capacities and the
    noise factor.  The packet stage then takes the trials a chunk of at most
    _CHUNK_VALUES slicer values at a time: one random_raw and one
    standard_normal call draw the chunk's words and normals, the surviving
    trials' rows are kept, and modulate, received_signal and detect each run
    once.  A coordinate is negative exactly where its bit is 1, so a
    decision is wrong where it differs from the sign of the desired
    sender's coordinate; on that one (trials, K, D/K, N) array a symbol is
    wrong where any of its D/K bits is, and a packet where any of its bits is.

    A numerical failure in the solve, the normalization or the equalizer
    erases its trials: one lost packet each, NaN capacity.  The failing
    step's SolveError marks them; the stacked steps run again on the rest,
    which gives every other trial the result it would get alone.
    """
    n = stop - start
    channel_rng, bits_rng, noise_rng = _block_streams(master_seed, point_idx, start // _BATCH_TRIALS)
    channels = plan.draw(channel_rng, n)
    scheme, rep = link.modulation, plan.repetition
    alive = np.arange(n)
    while True:
        try:
            composites = _solve_network(plan, channels[alive])
            # (trials, senders, M, K): each sender's channel @ composite, and
            # in diversity mode @ rep, which its one stream goes through
            sent = np.stack([channels[alive, d] @ composites[k] for k, d in plan.senders], axis=1)
            if rep is not None:
                sent = sent @ rep[:, None]
            pinv = left_pseudoinverse(sent[:, 0])
            break
        except SolveError as exc:
            # the pair solve marks (trials, pairs), the other steps (trials,)
            alive = alive[~exc.mask.reshape(len(alive), -1).any(axis=1)]

    # what W makes of each interferer, and each stream's (trials, K) SINR terms
    leaks = pinv[:, None] @ sent[:, 1:]
    noise_gain = np.sum(np.abs(pinv) ** 2, axis=-1)
    interference = np.sum(np.abs(leaks) ** 2, axis=-1).sum(axis=1)
    sigma2 = 1.0 / (10.0 ** (link.snr_db[point_idx] / 10.0))
    caps = np.full(n, math.nan)
    caps[alive] = capacity(effective_snr(interference, noise_gain, sigma2))

    b = scheme.bits_per_symbol
    axes = link.streams * b
    factor = _noise_factor(pinv, sigma2, b)
    leak_axes = _real_axes(leaks, b)
    senders, packet_bytes = len(plan.senders), (link.packet_bits + 7) // 8
    words = -(-senders * packet_bytes // 8)
    chunk = max(1, _CHUNK_VALUES // link.packet_bits)
    normals = np.empty((chunk, axes, link.symbols_per_stream))
    bit_errors = symbol_errors = packet_errors = 0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        raw = bits_rng.bit_generator.random_raw((hi - lo, words)).astype("<u8", copy=False)
        noise_rng.standard_normal(out=normals[: hi - lo])
        # the chunk's survivors: rows keep of the draws, [i, j) of alive
        i, j = np.searchsorted(alive, (lo, hi))
        if i == j:
            continue
        keep = slice(hi - lo) if j - i == hi - lo else alive[i:j] - lo
        packed = raw[keep].view(np.uint8)[:, : senders * packet_bytes].reshape(j - i, senders, -1)
        bits = np.unpackbits(packed, axis=-1, count=link.packet_bits)
        symbols = modulate(bits.reshape(j - i, senders, link.streams, -1), scheme)
        e = received_signal(symbols, leak_axes[i:j], factor[i:j], normals[keep])
        wrong = detect(e) != (symbols[:, 0] < 0.0)
        bit_errors += int(np.count_nonzero(wrong))
        symbol_errors += int(np.count_nonzero(wrong.any(axis=2)))
        packet_errors += int(np.count_nonzero(wrong.any(axis=(1, 2, 3))))
    erased = n - len(alive)
    stats = TrialStats(
        bits_sent=len(alive) * link.packet_bits,
        bit_errors=bit_errors,
        symbols_sent=len(alive) * link.packet_bits // b,
        symbol_errors=symbol_errors,
        packets_sent=n,
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
    into blocks of _BATCH_TRIALS counted from trial 0, and every (run, SNR
    point, block) task runs in this process when one process is used and
    otherwise on one pool of min(workers, tasks, CPU count) processes.
    Every run derives its streams from (master_seed, point index, block
    index, kind of draw) (_run_task), so the runs share them, and a trial
    reads the same at any run trial count.  Counters merge by integer
    addition in task order and capacity samples land positionally, so the
    result is identical for every worker count.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not runs:
        raise ValueError("no runs to sweep")

    plans = [_plan(scenario, link) for scenario, link in runs]
    points = [(r, p) for r, (_, link) in enumerate(runs) for p in range(len(link.snr_db))]
    spans = [(a, min(a + _BATCH_TRIALS, n_trials)) for a in range(0, n_trials, _BATCH_TRIALS)]
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
