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
for one process or on one process pool.  A task solves the pairs and the
link algebra of all its trials as stacks, then sends one packet per trial:
the slicer reads e = sum_s A_s x_s + W n behind the zero-forcing combiner
W, so a trial draws only the normals of the axes the slicer reads and
colors them with a factor of W n's covariance.  A singular solve,
normalization or equalizer erases the trials its SolveError marks, and the
stacked steps run again on the rest.
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
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError(f"bits must be one-dimensional, got shape {bits.shape}")
    if bits.size % scheme.bits_per_symbol != 0:
        raise ValueError(
            f"{bits.size} bits are not a whole number of {scheme.bits_per_symbol}-bit symbols"
        )
    # one reduction on a packet's uint8 bits; only a signed input can go below 0
    if bits.max(initial=0) > 1 or (bits.dtype.kind not in "ub" and bits.min(initial=0) < 0):
        raise ValueError("bits must be 0 or 1")
    groups = bits.astype(np.uint8, copy=False).reshape(-1, scheme.bits_per_symbol)
    # msb-first integer index into the constellation table
    index = groups[:, 0]
    for b in range(1, scheme.bits_per_symbol):
        index = (index << 1) | groups[:, b]
    return _POINTS[scheme.kind].take(index)


def received_signal(
    symbols: np.ndarray, leaks: Sequence[np.ndarray], factor: np.ndarray, normals: np.ndarray
) -> np.ndarray:
    """One packet's slicer statistic: each slicer axis's known part plus its colored noise.

    symbols is the (senders, K, N) symbols, the desired sender's first,
    and leaks each other sender's (K, K) A_s = W a_s.  The desired stream
    passes W at unit gain, so the known part is x_0 + sum_s A_s x_s, added
    row by row with senders in order.  factor is the (D, D) real F with
    F F^T the axes' noise covariance, normals the (D, N) white normals.
    Returns the (K, D/K, N) axes: Re e_k for BPSK, (Im e_k, Re e_k) for QPSK.
    """
    known = symbols[0].copy() if len(leaks) else symbols[0]
    for a, x in zip(leaks, symbols[1:]):
        for known_k, row in zip(known, a.tolist()):
            for a_kj, x_j in zip(row, x):
                known_k += a_kj * x_j
    streams, per_stream = known.shape
    e = np.empty((streams, len(factor) // streams, per_stream))
    e[:, -1] = known.real
    if e.shape[1] == 2:
        e[:, 0] = known.imag
    # a numpy contraction, not factor @ normals, so no BLAS thread runs
    for axis, row in zip(e.reshape(len(factor), per_stream), factor.tolist()):
        for f, z in zip(row, normals):
            axis += f * z
    return e


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


def _noise_factor(pinv: np.ndarray, sigma2: float, bits_per_symbol: int) -> np.ndarray:
    """(trials, D, D) real factors F, F F^T the covariance of the slicer axes' noise.

    The slicer sees W n ~ CN(0, sigma2 W W^H) (Tse & Viswanath 2005,
    section 8.3.1): Re and Im each have covariance Re(sigma2 W W^H) / 2, and
    E[Im e_k Re e_j] = Im(sigma2 W W^H)[k, j] / 2.  One batched eigh, with
    the negative eigenvalues of a near-singular W W^H clipped to 0, gives F
    where a Cholesky factor would fail.
    """
    half = (sigma2 / 2.0) * (pinv @ pinv.conj().swapaxes(1, 2))
    cov = half.real
    if bits_per_symbol == 2:
        # axes (Im e_k, Re e_k) of every stream k
        trials, streams = half.shape[:2]
        cov = np.empty((trials, streams, 2, streams, 2))
        cov[:, :, 0, :, 0] = cov[:, :, 1, :, 1] = half.real
        cov[:, :, 0, :, 1] = half.imag
        cov[:, :, 1, :, 0] = -half.imag
        cov = cov.reshape(trials, 2 * streams, 2 * streams)
    lam, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.maximum(lam, 0.0))[:, None, :]


def detect(e: np.ndarray) -> np.ndarray:
    """Sign decisions on a slicer statistic, to 0/1 bits in the order sent.

    e is what received_signal returns.  BPSK decides bit = Re e < 0 and
    QPSK the bits (Im e < 0, Re e < 0).  For these Gray-mapped
    constellations that is the minimum-distance decision, and it stays
    exact where |Im e| / |Re e| is so large that the distances to the
    points tie in floating point.
    """
    # rows are streams, each symbol's bits in turn: the transmit order
    return (e < 0.0).swapaxes(1, 2).reshape(-1).view(np.uint8)


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

    Every trial draws its channels from its own spawned stream; every pair
    of every trial is solved as one stack, and so is the link algebra at
    the measured point: each sender's channel @ composite (@ rep in
    diversity mode) a_s, the desired node's equalizer W, each other
    sender's A_s = W a_s, the SINR terms and the noise factor.  Then each
    trial draws its packet from its stream: ceil(packet_bits / 8) bytes
    per sender from one (senders, bytes) draw, then the (D, N) normals of
    its D = K * bits-per-symbol slicer axes, into one buffer per task.

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

    scheme, rep = link.modulation, plan.repetition
    # diversity sends its one stream through channel @ composite @ rep
    sent = effective if rep is None else [e @ rep[:, None] for e in effective]
    # what W makes of each interferer, and each stream's (trials, K) SINR terms
    leaks = [pinv @ a for a in sent[1:]]
    noise_gain = np.sum(np.abs(pinv) ** 2, axis=-1)
    interference = sum((np.sum(np.abs(a) ** 2, axis=-1) for a in leaks), np.zeros_like(noise_gain))
    sigma2 = 1.0 / (10.0 ** (link.snr_db[point_idx] / 10.0))
    factor = _noise_factor(pinv, sigma2, scheme.bits_per_symbol)
    shape = (len(sent), link.streams, link.symbols_per_stream)
    packed_shape = (len(sent), (link.packet_bits + 7) // 8)
    normals = np.empty((link.streams * scheme.bits_per_symbol, link.symbols_per_stream))
    caps = np.full(len(rngs), math.nan)
    bit_errors = symbol_errors = packet_errors = 0
    for row, k in enumerate(alive.tolist()):
        packed = rngs[k].integers(0, 256, size=packed_shape, dtype=np.uint8)
        bits = np.unpackbits(packed, axis=1, count=link.packet_bits)
        symbols = modulate(bits.reshape(-1), scheme).reshape(shape)
        rngs[k].standard_normal(out=normals)
        e = received_signal(symbols, [a[row] for a in leaks], factor[row], normals)
        caps[k] = capacity(effective_snr(interference[row], noise_gain[row], sigma2))
        # a symbol is wrong exactly when one of its bits is
        wrong = detect(e) != bits[0]
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
