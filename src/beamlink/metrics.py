"""Capacity, analytic packet-error models, and Monte-Carlo rate estimates.

The analytic packet error rate takes a symbol error rate and each stream's
exponent, its count of independent error opportunities (for an uncoded
packet, its symbol count: uncoded_stream_params).  Of its two modes,
`literal` evaluates the source forms exactly as printed, which degenerate at
the error-free limit (stream error tends to 1 as the symbol error rate
tends to 0, and the packet error rate tends to 1 when all stream errors
vanish); outputs are clamped to [0, 1] and the mode exists for fidelity
only.  `conventional`, the default, is the independent-error composition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from beamlink.linksim import TrialStats

__all__ = [
    "Z95",
    "Estimate",
    "MetricPoint",
    "MetricSeries",
    "capacity",
    "effective_snr",
    "packet_error_rate",
    "uncoded_stream_params",
    "wilson_interval",
    "estimate_rates",
    "mean_confidence",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a bracketing 95% confidence interval."""

    value: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (self.ci_low <= self.value <= self.ci_high):
            raise ValueError(
                f"interval ({self.ci_low}, {self.ci_high}) does not bracket {self.value}"
            )


@dataclass
class MetricPoint:
    """All estimates for one SNR point.

    per is the directly counted packet error rate; per_model is the
    analytic rate recomputed from the measured symbol error rate.
    """

    snr_db: float
    capacity: Estimate
    ber: Estimate
    ser: Estimate
    per: Estimate
    per_model: Estimate


@dataclass
class MetricSeries:
    """One swept-parameter value: its SNR sweep plus run provenance."""

    param_name: str
    param_value: float
    points: list[MetricPoint]
    seed: int
    trials: int
    scenario_hash: str = ""


def capacity(sinr: np.ndarray) -> float | np.ndarray:
    """Sum capacity over the streams, sum_k log2(1 + sinr[..., k]), in
    bits/s/Hz: a float for one (K,) row, one sum per row for a
    (trials, K) stack."""
    sinr = np.asarray(sinr, dtype=float)
    if (sinr < 0).any():
        raise ValueError(f"sinr must be >= 0, got {sinr}")
    total = np.log2(1.0 + sinr).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def effective_snr(
    interference: np.ndarray, noise_gain: np.ndarray, noise_variance: float
) -> np.ndarray:
    """Each stream's output SINR behind a zero-forcing combiner W.

    W inverts the desired sender's effective channel, so stream k's own
    unit-energy symbol reaches the slicer at unit gain.  interference[k]
    is sum_s ||(W a_s)[k, :]||^2 over the other senders' effective
    channels a_s, and noise_gain[k] is ||w_k||^2, row k of W, so
    SINR_k = 1 / (interference[k] + noise_variance * noise_gain[k])
    (Tse & Viswanath 2005, section 8.3).
    """
    if not noise_variance > 0:
        raise ValueError(f"noise_variance must be > 0, got {noise_variance}")
    return 1.0 / (np.asarray(interference) + noise_variance * np.asarray(noise_gain))


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def packet_error_rate(
    symbol_error_rate: float,
    exponents: list[int],
    mode: str = "conventional",
    min_distance: float = 2.0,
) -> float:
    """Analytic packet error rate composed over streams.

    Each stream fails independently with per-stream error p_e and counts
    exponents[k] error opportunities (its symbol count when uncoded).
    conventional: p_e is the symbol error rate and PER = 1 - prod
    (1 - p_e)^exponent, the independent-error form.  literal: p_e =
    1 - SER / min_distance (degenerate: 1 at SER = 0) and PER =
    1 - prod {1 - (1 - p_e)^exponent} (degenerate: 1 at p_e = 0), both as
    printed.  p_e and the PER are clamped to [0, 1].
    """
    if not exponents or not min(exponents) > 0:
        raise ValueError(f"need at least one stream, each of exponent > 0, got {exponents}")
    if not 0.0 <= symbol_error_rate <= 1.0:
        raise ValueError(f"symbol_error_rate must be in [0, 1], got {symbol_error_rate}")
    if not min_distance > 0:
        raise ValueError(f"min_distance must be > 0, got {min_distance}")
    if mode == "literal":
        p_e = _clamp01(1.0 - symbol_error_rate / min_distance)
    elif mode == "conventional":
        p_e = symbol_error_rate
    else:
        raise ValueError(f"mode must be 'literal' or 'conventional', got {mode!r}")
    prod = 1.0
    for e in exponents:
        survive = (1.0 - p_e) ** e
        prod *= (1.0 - survive) if mode == "literal" else survive
    return _clamp01(1.0 - prod)


def uncoded_stream_params(packet_bits: int, bits_per_symbol: int = 1, streams: int = 1) -> list[int]:
    """Each stream's exponent for an uncoded packet split evenly over streams:
    its symbol count (packet_bits / streams) / bits_per_symbol."""
    if packet_bits % (streams * bits_per_symbol) != 0:
        raise ValueError(
            f"{packet_bits} bits do not split over {streams} streams of "
            f"{bits_per_symbol}-bit symbols"
        )
    return [packet_bits // (streams * bits_per_symbol)] * streams


def wilson_interval(errors: int, total: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ValueError(f"total must be > 0, got {total}")
    if not 0 <= errors <= total:
        raise ValueError(f"errors must be in [0, {total}], got {errors}")
    z2 = z * z
    denom = total + z2
    center = (errors + z2 / 2.0) / denom
    half = z * math.sqrt(errors * (total - errors) / total + z2 / 4.0) / denom
    # the exact endpoints at k=0 and k=n are 0 and 1; don't let float
    # cancellation pull them inside the estimate
    low = 0.0 if errors == 0 else max(center - half, 0.0)
    high = 1.0 if errors == total else min(center + half, 1.0)
    return low, high


def estimate_rates(stats: "TrialStats") -> dict[str, Estimate]:
    """BER/SER/PER point estimates with Wilson 95% intervals from raw counts."""
    out = {}
    for name, errors, total in [
        ("ber", stats.bit_errors, stats.bits_sent),
        ("ser", stats.symbol_errors, stats.symbols_sent),
        ("per", stats.packet_errors, stats.packets_sent),
    ]:
        if total <= 0:
            raise ValueError(f"cannot estimate {name}: zero denominator")
        low, high = wilson_interval(errors, total)
        value = errors / total
        out[name] = Estimate(value=value, ci_low=min(low, value), ci_high=max(high, value))
    return out


def mean_confidence(samples: np.ndarray, z: float = Z95) -> Estimate:
    """Mean of the finite samples with a normal-theory 95% interval.

    NaN entries (erased trials) are excluded; with fewer than two finite
    samples the interval collapses to the point.
    """
    samples = np.asarray(samples, dtype=float)
    finite = samples[np.isfinite(samples)]
    if finite.size == 0:
        raise ValueError("no finite samples to summarize")
    value = float(np.mean(finite))
    if finite.size < 2:
        return Estimate(value=value, ci_low=value, ci_high=value)
    half = z * float(np.std(finite, ddof=1)) / math.sqrt(finite.size)
    return Estimate(value=value, ci_low=value - half, ci_high=value + half)
