"""Capacity, analytic packet-error models, and Monte-Carlo rate estimates.

The analytic per-stream error and packet-error formulas exist in two modes.
`literal` evaluates the source forms exactly as printed, which degenerate at
the error-free limit (stream error tends to 1 as the symbol error rate
tends to 0, and the packet error rate tends to 1 when all stream errors
vanish); outputs are clamped to [0, 1] and the mode exists for fidelity
only.  `conventional` is the standard independent-error composition used by
all experiments and checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from beamlink.linksim import TrialStats

__all__ = [
    "Z95",
    "Estimate",
    "StreamErrorParams",
    "MetricPoint",
    "MetricSeries",
    "capacity",
    "effective_snr",
    "stream_error",
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


@dataclass(frozen=True)
class StreamErrorParams:
    """Per-stream inputs of the analytic packet-error model.

    exponent = bits * code_rate / length is the number of independent error
    opportunities the stream contributes; for an uncoded stream it reduces
    to the per-stream symbol count (length = bits per symbol, code_rate 1).
    """

    min_distance: float
    bits: int
    code_rate: float
    length: int
    symbol_error_rate: float

    def __post_init__(self):
        if not self.min_distance > 0:
            raise ValueError(f"min_distance must be > 0, got {self.min_distance}")
        if not (isinstance(self.bits, int) and self.bits > 0):
            raise ValueError(f"bits must be a positive integer, got {self.bits}")
        if not (isinstance(self.length, int) and self.length > 0):
            raise ValueError(f"length must be a positive integer, got {self.length}")
        if not (0.0 < self.code_rate <= 1.0):
            raise ValueError(f"code_rate must be in (0, 1], got {self.code_rate}")
        if not (0.0 <= self.symbol_error_rate <= 1.0):
            raise ValueError(
                f"symbol_error_rate must be in [0, 1], got {self.symbol_error_rate}"
            )

    @property
    def exponent(self) -> float:
        return self.bits * self.code_rate / self.length


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
    per_model: Estimate | None = None


@dataclass
class MetricSeries:
    """One swept-parameter value: its SNR sweep plus run provenance."""

    param_name: str
    param_value: float
    points: list[MetricPoint]
    seed: int
    trials: int
    scenario_hash: str = ""


def capacity(snr_linear: float) -> float:
    """System capacity log2(1 + snr) in bits/s/Hz."""
    if snr_linear < 0:
        raise ValueError(f"snr_linear must be >= 0, got {snr_linear}")
    return math.log2(1.0 + snr_linear)


def effective_snr(
    total_power: float,
    effective_channel: np.ndarray,
    noise_variance: float,
    g: float,
) -> float:
    """Post-beamforming SNR: power times channel norm over (normalization * noise).

    effective_channel is the channel-times-composite product before the
    normalization division; the division enters through g.
    """
    if total_power < 0:
        raise ValueError(f"total_power must be >= 0, got {total_power}")
    if not noise_variance > 0:
        raise ValueError(f"noise_variance must be > 0, got {noise_variance}")
    if not g > 0:
        raise ValueError(f"normalization must be > 0, got {g}")
    norm_sq = float(np.sum(np.abs(effective_channel) ** 2))
    return total_power * norm_sq / (g * noise_variance)


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def stream_error(params: StreamErrorParams, mode: str = "conventional") -> float:
    """Per-stream error probability.

    literal: 1 - SER / min_distance exactly as printed (degenerate: gives 1
    at SER = 0), clamped to [0, 1].  conventional: the symbol error rate
    itself.
    """
    if mode == "literal":
        return _clamp01(1.0 - params.symbol_error_rate / params.min_distance)
    if mode == "conventional":
        return params.symbol_error_rate
    raise ValueError(f"mode must be 'literal' or 'conventional', got {mode!r}")


def packet_error_rate(streams: list[StreamErrorParams], mode: str = "conventional") -> float:
    """Analytic packet error rate composed over streams.

    conventional: 1 - prod (1 - p_e)^exponent, the independent-error form.
    literal: 1 - prod {1 - (1 - p_e)^exponent} as printed, degenerate at
    p_e = 0 (evaluates to 1).  Both clamped to [0, 1].
    """
    if not streams:
        raise ValueError("need at least one stream")
    for s in streams:
        if not s.exponent > 0:
            raise ValueError(f"stream exponent must be > 0, got {s.exponent}")
    if mode not in ("literal", "conventional"):
        raise ValueError(f"mode must be 'literal' or 'conventional', got {mode!r}")
    prod = 1.0
    for s in streams:
        p_e = stream_error(s, mode)
        survive = (1.0 - p_e) ** s.exponent
        prod *= (1.0 - survive) if mode == "literal" else survive
    return _clamp01(1.0 - prod)


def uncoded_stream_params(
    symbol_error_rate: float,
    packet_bits: int = 2304,
    bits_per_symbol: int = 1,
    streams: int = 1,
    min_distance: float = 2.0,
) -> list[StreamErrorParams]:
    """StreamErrorParams for an uncoded packet split evenly over streams.

    Each stream's exponent comes out as its symbol count:
    (packet_bits / streams) / bits_per_symbol.
    """
    if packet_bits % (streams * bits_per_symbol) != 0:
        raise ValueError(
            f"{packet_bits} bits do not split over {streams} streams of "
            f"{bits_per_symbol}-bit symbols"
        )
    per_stream = StreamErrorParams(
        min_distance=min_distance,
        bits=packet_bits // streams,
        code_rate=1.0,
        length=bits_per_symbol,
        symbol_error_rate=symbol_error_rate,
    )
    return [per_stream] * streams


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
