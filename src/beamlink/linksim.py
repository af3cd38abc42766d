"""Seeded Monte-Carlo packet trials through the coordinated-beamforming link.

Each trial draws fresh channels for every overlapping pair, solves the
coupled drivers, composes per-node beamformers, sends one packet from the
measured node, and detects it at that node's receive point with every other
covering node contributing interference.  Trials are independent: trial t
of SNR-sweep point p uses the random stream spawned from
(master_seed, spawn_key=(p, t)), so results are bit-identical for any
worker count or execution order.

What does not depend on the draws (moments, rotator, which channels to
draw and their path amplitudes, which nodes send at the measured point) is
worked out once per run.  The tasks of all the runs (one run, one SNR
point, one span of trials each) go to one scheduler, which runs them here
for one process or on one process pool.  A task runs in three steps: each
trial draws all of its channels from its own stream; every pair of every
trial is solved as one stack, whose composites leave the solve scaled to
unit total power per trial, and the link algebra at the measured point
(each sender's channel @ composite, through the repetition vector in
diversity mode, the desired node's pseudoinverse, and each stream's
interference power and noise gain behind it) is one more; then each trial
draws its bits and noise from its own stream into buffers the task
reuses, forms the received block row by row without BLAS, equalizes it
and slices each symbol by sign, and its capacity sums the streams'
zero-forcing output SINRs.  A singular solve, normalization or equalizer
erases the trials its SolveError marks, and the stacked steps run again
on the rest.
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

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

# constellation index k is the integer formed by the symbol's bits msb-first
_POINTS = {
    "bpsk": np.array([1.0, -1.0], dtype=complex),
    "qpsk": np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j], dtype=complex) / math.sqrt(2.0),
}


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
    """Map a 0/1 bit vector to unit-average-energy constellation symbols."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError(f"bits must be one-dimensional, got shape {bits.shape}")
    if bits.size % scheme.bits_per_symbol != 0:
        raise ValueError(
            f"{bits.size} bits are not a whole number of {scheme.bits_per_symbol}-bit symbols"
        )
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    groups = bits.reshape(-1, scheme.bits_per_symbol)
    # msb-first integer index into the constellation table
    index = np.zeros(groups.shape[0], dtype=np.int64)
    for b in range(scheme.bits_per_symbol):
        index = (index << 1) | groups[:, b]
    return _POINTS[scheme.kind][index]


def received_signal(
    effective: dict[int, np.ndarray],
    transmit: dict[int, np.ndarray],
    noise: np.ndarray,
) -> np.ndarray:
    """Sum of effective @ transmit over transmitting nodes, plus noise.

    effective maps each node to its (M, K) channel @ composite at the
    receive point (K = M streams, or K = 1 where diversity mode has taken
    it through the repetition vector) and transmit to its (K, N) symbols.
    The composites already carry the network's power normalization.  The
    sum starts from a copy of noise, which is never written, and adds each
    node's rows one at a time, y[m] += effective[m, k] * x[k], with nodes
    in ascending id order so the float accumulation is reproducible.
    """
    # a numpy contraction, not effective @ x: that product is a BLAS zgemm,
    # which the default threaded OpenBLAS runs 2.3x slower at packet size
    # than one thread does; row by row no temporary exceeds one row
    y = noise.astype(complex)
    for node_id in sorted(transmit):
        rows = list(transmit[node_id])
        for y_m, coefficients in zip(y, effective[node_id].tolist()):
            for a_mk, x_k in zip(coefficients, rows):
                y_m += a_mk * x_k
    return y


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


def detect(y: np.ndarray, pinv: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Zero-forcing equalization, then sign decisions to 0/1 bits.

    pinv is the (streams, M) pseudoinverse of the effective channel, one
    member of what equalizers returns.  BPSK decides bit = Re e < 0 and
    QPSK the bits (Im e < 0, Re e < 0).  For these Gray-mapped
    constellations that is the minimum-distance decision, and it stays
    exact where |Im e| / |Re e| is so large that the distances to the
    points tie in floating point.
    """
    # a numpy contraction summed antenna by antenna, not pinv @ y: with one
    # stream that product takes BLAS's row-vector path, which OpenBLAS
    # splits over threads that keep spinning after it, doubling the CPU a
    # trial costs and starving the other workers of a pool
    y2 = np.atleast_2d(y)
    equalized = pinv[:, :1] * y2[0]
    for m in range(1, len(y2)):
        equalized += pinv[:, m : m + 1] * y2[m]
    # rows are streams; row-major flattening matches the transmit reshape
    if scheme.kind == "bpsk":
        return (equalized.real < 0.0).view(np.uint8).reshape(-1)
    bits = np.empty(equalized.shape + (2,), dtype=bool)
    np.less(equalized.imag, 0.0, out=bits[..., 0])
    np.less(equalized.real, 0.0, out=bits[..., 1])
    return bits.view(np.uint8).reshape(-1)


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

    def draw(self, rng: Generator) -> np.ndarray:
        """One trial's channels, (draws, M, M), from one call on its stream."""
        if self.moments is None:
            return self.amplitudes * np.eye(self.dimension, dtype=complex)
        return self.amplitudes * sample_channel(
            self.moments, self.dimension, rng, (len(self.amplitudes),)
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


def _run_task(
    plan: _TaskPlan, link: LinkConfig, master_seed: int, point_idx: int, start: int, stop: int
) -> tuple[TrialStats, np.ndarray]:
    """Counters and capacity samples of trials [start, stop) of one SNR point.

    Every trial draws its channels from its own spawned stream, every pair
    of every trial is solved as one stack, the link algebra at the
    measured point (each sender's channel @ composite, taken through the
    repetition vector in diversity mode, the desired node's equalizer and
    the SINR terms behind it) is one stack too, then every trial sends its
    packet from its own stream: the bits of all senders from one draw, in
    sender order, then the noise, which is the stream order of drawing
    them one sender at a time.  The normals and the noise block are one
    buffer each per task.

    A numerical failure in the solve, the normalization or the equalizer
    erases its trials: one lost packet each, NaN capacity.  The failing
    step's SolveError marks them; the stacked steps run again on the rest,
    which gives every other trial the result it would get alone.
    """
    rngs = [
        np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(point_idx, t)))
        for t in range(start, stop)
    ]
    channels = np.stack([plan.draw(rng) for rng in rngs])
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

    scheme, rep, per_stream = link.modulation, plan.repetition, link.symbols_per_stream
    # diversity sends its one stream through channel @ composite @ rep
    sent = effective if rep is None else [e @ rep[:, None] for e in effective]
    # zero forcing passes each stream's own symbol at unit gain; the
    # (trials, K) power the interferers leak into it and its noise gain
    noise_gain = np.sum(np.abs(pinv) ** 2, axis=-1)
    interference = sum((np.sum(np.abs(pinv @ a) ** 2, axis=-1) for a in sent[1:]),
                       np.zeros_like(noise_gain))
    sigma2 = 1.0 / (10.0 ** (link.snr_db[point_idx] / 10.0))
    scale = math.sqrt(sigma2 / 2.0)
    ids = [node_id for node_id, _ in plan.senders]
    shape = (len(ids), link.streams, per_stream)
    # one buffer each for the normals and the noise, refilled by every trial
    normals = np.empty((2, link.dimension, per_stream))
    noise = np.empty(normals.shape[1:], dtype=complex)
    caps = np.full(len(rngs), math.nan)
    bit_errors = symbol_errors = packet_errors = 0
    for row, k in enumerate(alive.tolist()):
        bits = rngs[k].integers(0, 2, size=(len(ids), link.packet_bits))
        symbols = modulate(bits.reshape(-1), scheme).reshape(shape)
        rngs[k].standard_normal(out=normals)
        # written in place, bit for bit (normals[0] + 1j * normals[1]) * scale
        np.multiply(normals[0], scale, out=noise.real)
        np.multiply(normals[1], scale, out=noise.imag)
        h = [stacked[row] for stacked in sent]
        y = received_signal(dict(zip(ids, h)), dict(zip(ids, symbols)), noise)
        caps[k] = capacity(effective_snr(interference[row], noise_gain[row], sigma2))
        # a symbol is wrong exactly when one of its bits is
        wrong = detect(y, pinv[row], scheme) != bits[0]
        wrong_bits = int(np.count_nonzero(wrong))
        bit_errors += wrong_bits
        symbol_errors += int(np.count_nonzero(wrong.reshape(-1, scheme.bits_per_symbol).any(axis=1)))
        packet_errors += wrong_bits > 0
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
