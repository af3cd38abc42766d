"""Seeded Monte-Carlo packet trials through the coordinated-beamforming link.

Each trial draws fresh channels for every overlapping pair, solves the
coupled drivers, composes per-node beamformers, sends one packet from the
measured node, and detects it at that node's receive point with every other
covering node contributing interference.  Trials are independent: trial t
of SNR-sweep point p uses the random stream spawned from
(master_seed, spawn_key=(p, t)), so results are bit-identical for any
worker count or execution order.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.random import Generator

from beamlink.beamformer import (
    DegenerateNormalizationError,
    IllConditionedChannelError,
    NoUniqueSolutionError,
    build_rotator,
    compose,
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
from beamlink.metrics import capacity, effective_snr
from beamlink.topology import NetworkScenario, Node, OverlapRegion, path_gain

__all__ = [
    "ModulationScheme",
    "BPSK",
    "QPSK",
    "modulation_by_name",
    "TrialStats",
    "LinkConfig",
    "PointResult",
    "DetectionError",
    "measured_roles",
    "modulate",
    "received_signal",
    "detect",
    "run_trials",
]

_DETECT_RANK_THRESHOLD = 1e-10


class DetectionError(RuntimeError):
    """Effective channel too singular to equalize; the trial is erased."""


# numerical failures that erase a trial instead of ending the run
_ERASURES = (
    IllConditionedChannelError,
    NoUniqueSolutionError,
    DegenerateNormalizationError,
    DetectionError,
)


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
_BIT_TABLES = {
    "bpsk": np.array([[0], [1]], dtype=np.int64),
    "qpsk": np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64),
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
    """Everything a Monte-Carlo run needs besides the node geometry.

    fading=None replaces every channel draw with the identity matrix (AWGN
    calibration).  mode 'multiplexing' sends one independent stream per
    antenna; 'diversity' repeats a single stream over all antennas through
    an alternating-sign unit-norm vector and combines the receive antennas
    before slicing.  include_interference=False keeps the full beamformer
    chain (and its normalization) but drops the other nodes' terms at the
    receiver, the idealized no-interference test condition.
    """

    snr_db: tuple[float, ...]
    dimension: int = 2
    modulation: ModulationScheme = BPSK
    packet_bits: int = 2304
    fading: NakagamiParams | None = NakagamiParams(m=1.0, omega=1.0)
    rotation_angle: float = math.pi
    mode: str = "multiplexing"
    include_interference: bool = True
    measured_pair: tuple[int, int] | None = None
    measured_node: int | None = None

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
    channels: dict[int, np.ndarray],
    composites: dict[int, np.ndarray],
    transmit: dict[int, np.ndarray],
    g: float,
    noise: np.ndarray,
) -> np.ndarray:
    """Sum of (channel @ composite @ symbols) / g over transmitting nodes, plus noise.

    Nodes are summed in ascending id order so the float accumulation is
    reproducible.
    """
    if not g > 0:
        raise DegenerateNormalizationError(f"normalization {g} not positive")
    y = np.array(noise, dtype=complex, copy=True)
    for node_id in sorted(transmit):
        term = channels[node_id] @ composites[node_id] @ transmit[node_id]
        y += term / g
    return y


def detect(y: np.ndarray, h_eff: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Zero-forcing equalization then minimum-distance slicing to bits.

    h_eff is the effective channel (normalization already divided in).  A
    tall single-column h_eff reduces the pseudoinverse to maximum-ratio
    combining.  Raises DetectionError when h_eff is singular to working
    precision.
    """
    h = np.atleast_2d(np.asarray(h_eff, dtype=complex))
    sv = np.linalg.svd(h, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] <= _DETECT_RANK_THRESHOLD:
        raise DetectionError("effective channel singular; cannot equalize")
    equalized = np.linalg.pinv(h) @ np.atleast_2d(y)
    points = _POINTS[scheme.kind]
    sliced = np.argmin(np.abs(equalized[..., None] - points), axis=-1)
    # rows are streams; row-major flattening matches the transmit reshape
    return _BIT_TABLES[scheme.kind][sliced.reshape(-1)].reshape(-1)


def _alternating_unit_vector(dimension: int) -> np.ndarray:
    # repetition vector for diversity mode; alternating signs cancel the
    # common channel mean so the combined branches actually fade
    v = np.ones(dimension, dtype=complex)
    v[1::2] = -1.0
    return v / math.sqrt(dimension)


@dataclass
class _TrialNetwork:
    """One trial's solved network at the measured point."""

    desired: int
    point_channels: dict[int, np.ndarray]  # node id -> M x M channel at the point
    composites: dict[int, np.ndarray]  # node id -> M x M composite beamformer
    g: float


def _channel_draw(
    node: Node,
    point: np.ndarray,
    moments: MomentDecomposition | None,
    dimension: int,
    scenario: NetworkScenario,
    rng: Generator,
) -> np.ndarray:
    dist = float(np.linalg.norm(point - node.position))
    gain = 1.0 if dist == 0.0 else path_gain(dist, scenario)
    amp = math.sqrt(gain * node.tx_power)
    if moments is None:
        return amp * np.eye(dimension, dtype=complex)
    return amp * sample_channel(moments, dimension, rng)


def measured_roles(
    scenario: NetworkScenario, measured_pair: tuple[int, int] | None, measured_node: int | None
) -> tuple[int, OverlapRegion | None]:
    """The measured node and the overlap region it is measured in.

    The pair defaults to the first overlap and the node to the pair's lower
    id.  With no pair given and no overlap at all, the region is None and
    the node defaults to the first node.  Raises ValueError when the pair
    has no overlap region or the node is not in it.
    """
    if measured_pair is None and not scenario.overlaps:
        return (measured_node if measured_node is not None else scenario.nodes[0].id), None
    pair = measured_pair if measured_pair is not None else scenario.overlaps[0].pair
    region = next((o for o in scenario.overlaps if o.pair == tuple(pair)), None)
    if region is None:
        raise ValueError(f"measured pair {pair} has no overlap region")
    desired = measured_node if measured_node is not None else region.pair[0]
    if desired not in region.pair:
        raise ValueError(f"measured node {desired} is not in pair {region.pair}")
    return desired, region


def _solve_network(
    scenario: NetworkScenario, link: LinkConfig, rng: Generator
) -> _TrialNetwork:
    """Draw all pair channels in a fixed order, solve every pair's drivers,
    compose per-node beamformers, and collect the channels seen at the
    measured receive point."""
    dim = link.dimension
    moments = derive_moments(link.fading) if link.fading is not None else None
    corr = moments if moments is not None else MomentDecomposition(0.0, 1.0)
    rotator = build_rotator(corr, dim, link.rotation_angle)
    desired, region = measured_roles(scenario, link.measured_pair, link.measured_node)

    if region is None:
        # single-link calibration: no neighbors to drive, unit normalization
        node = scenario.node_by_id(desired)
        point = node.position + np.array([scenario.reference_distance, 0.0])
        channel = _channel_draw(node, point, moments, dim, scenario, rng)
        return _TrialNetwork(
            desired=desired,
            point_channels={desired: channel},
            composites={desired: np.eye(dim, dtype=complex)},
            g=1.0,
        )
    point = region.point_for(desired)

    # the overlaps come sorted by id pair, so each node's drivers are
    # appended in ascending order of their target, the order compose needs
    drivers: dict[int, list[np.ndarray]] = {}
    point_channels: dict[int, np.ndarray] = {}
    for overlap in scenario.overlaps:
        i, j = overlap.pair
        node_i, node_j = scenario.node_by_id(i), scenario.node_by_id(j)
        p_i, p_j = overlap.point_a, overlap.point_b
        # stack order: channel to the neighbor's point on top, own point below
        i_to_pj = _channel_draw(node_i, p_j, moments, dim, scenario, rng)
        i_to_pi = _channel_draw(node_i, p_i, moments, dim, scenario, rng)
        j_to_pi = _channel_draw(node_j, p_i, moments, dim, scenario, rng)
        j_to_pj = _channel_draw(node_j, p_j, moments, dim, scenario, rng)
        stack_i = stack(i_to_pj, i_to_pi)
        stack_j = stack(j_to_pi, j_to_pj)
        d_ij, d_ji = solve_coupled_drivers(stack_i, stack_j, rotator)
        drivers.setdefault(i, []).append(d_ij)
        drivers.setdefault(j, []).append(d_ji)
        if overlap.pair == region.pair:
            # keep the realizations the solver saw at the measured point
            if desired == i:
                point_channels[i] = i_to_pi
                point_channels[j] = j_to_pi
            else:
                point_channels[j] = j_to_pj
                point_channels[i] = i_to_pj

    composites = {node_id: compose(drivers[node_id]) for node_id in sorted(drivers)}
    g = normalization(list(composites.values()))

    # other nodes whose disks cover the measured point also interfere there;
    # their channels to this point were not part of any solve, draw them now
    for node in sorted(scenario.nodes, key=lambda n: n.id):
        if node.id in point_channels or node.id not in drivers:
            continue
        dist = float(np.linalg.norm(point - node.position))
        if dist < node.range_radius:
            point_channels[node.id] = _channel_draw(
                node, point, moments, dim, scenario, rng
            )

    return _TrialNetwork(
        desired=desired, point_channels=point_channels, composites=composites, g=g
    )


def _simulate_trial(
    scenario: NetworkScenario, link: LinkConfig, snr_db: float, rng: Generator
) -> tuple[TrialStats, float]:
    """One packet through one channel realization; returns counters and the
    trial's capacity sample.  A numerical failure in the solve, the
    normalization or detection erases the trial: one lost packet, NaN capacity."""
    try:
        return _send_packet(_solve_network(scenario, link, rng), link, snr_db, rng)
    except _ERASURES:
        return TrialStats(packets_sent=1, packet_errors=1, erasures=1), math.nan


def _send_packet(
    net: _TrialNetwork, link: LinkConfig, snr_db: float, rng: Generator
) -> tuple[TrialStats, float]:
    """Send, receive and detect one packet over a solved network."""
    scheme = link.modulation
    per_stream = link.symbols_per_stream
    sigma2 = 1.0 / (10.0 ** (snr_db / 10.0))
    rep = _alternating_unit_vector(link.dimension) if link.mode == "diversity" else None

    bits = rng.integers(0, 2, size=link.packet_bits)
    symbols = modulate(bits, scheme).reshape(link.streams, per_stream)
    x_desired = rep[:, None] * symbols if rep is not None else symbols

    transmit = {net.desired: x_desired}
    if link.include_interference:
        for node_id in sorted(net.point_channels):
            if node_id == net.desired:
                continue
            other_bits = rng.integers(0, 2, size=link.packet_bits)
            other_sym = modulate(other_bits, scheme).reshape(link.streams, per_stream)
            transmit[node_id] = rep[:, None] * other_sym if rep is not None else other_sym

    noise = (
        rng.standard_normal((link.dimension, per_stream))
        + 1j * rng.standard_normal((link.dimension, per_stream))
    ) * math.sqrt(sigma2 / 2.0)

    y = received_signal(net.point_channels, net.composites, transmit, net.g, noise)

    effective = net.point_channels[net.desired] @ net.composites[net.desired]
    h_eff = effective / net.g
    if rep is not None:
        h_eff = h_eff @ rep[:, None]

    cap = capacity(effective_snr(1.0, effective, sigma2, net.g))
    detected = detect(y, h_eff, scheme)

    bit_errors = int(np.count_nonzero(detected != bits))
    sent_symbols = symbols.reshape(-1)
    sliced_symbols = modulate(detected, scheme)
    symbol_errors = int(np.count_nonzero(sliced_symbols != sent_symbols))
    stats = TrialStats(
        bits_sent=link.packet_bits,
        bit_errors=bit_errors,
        symbols_sent=sent_symbols.size,
        symbol_errors=symbol_errors,
        packets_sent=1,
        packet_errors=1 if bit_errors else 0,
    )
    return stats, cap


def _run_chunk(
    scenario: NetworkScenario,
    link: LinkConfig,
    master_seed: int,
    point_idx: int,
    start: int,
    stop: int,
) -> tuple[TrialStats, np.ndarray]:
    """Trials [start, stop) of one SNR point, each on its own spawned stream."""
    snr_db = link.snr_db[point_idx]
    stats = TrialStats()
    caps = np.empty(stop - start, dtype=float)
    for t in range(start, stop):
        seq = np.random.SeedSequence(master_seed, spawn_key=(point_idx, t))
        rng = np.random.default_rng(seq)
        trial_stats, cap = _simulate_trial(scenario, link, snr_db, rng)
        stats = stats + trial_stats
        caps[t - start] = cap
    return stats, caps


def run_trials(
    scenario: NetworkScenario,
    link: LinkConfig,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> list[PointResult]:
    """Monte-Carlo sweep: one PointResult per entry of link.snr_db.

    The work is split into (SNR point, trial span) tasks, one span per
    worker, run in this process for one worker and on one process pool
    otherwise.  Per-trial streams are derived from (master_seed, point
    index, trial index), counters merge by integer addition in task order,
    and capacity samples land positionally, so the result is identical for
    every worker count.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    bounds = np.linspace(0, n_trials, workers + 1, dtype=int)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    tasks = [(p, a, b) for p in range(len(link.snr_db)) for a, b in spans]
    run = partial(_run_chunk, scenario, link, master_seed)
    if workers == 1:
        chunks = [run(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            chunks = list(pool.map(run, *zip(*tasks)))

    results = [
        PointResult(snr_db=snr_db, stats=TrialStats(), capacity_samples=np.empty(n_trials))
        for snr_db in link.snr_db
    ]
    for (p, a, b), (chunk_stats, chunk_caps) in zip(tasks, chunks):
        results[p].stats = results[p].stats + chunk_stats
        results[p].capacity_samples[a:b] = chunk_caps
    return results
