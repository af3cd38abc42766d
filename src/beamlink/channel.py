"""Nakagami-m MIMO channel generation with a fixed first/second-moment structure.

The element model is a complex Gaussian scattered about a real mean: each
entry is h = sqrt(squared_mean) + g with g ~ CN(0, variance), where the
(squared_mean, variance) pair is taken from the moments of a Nakagami-m
amplitude.  A plain amplitude-Nakagami draw with uniform phase would have
zero mean and could not reproduce the nonzero cross-correlation that the
stacked-channel Gram matrix is required to carry; the mean-plus-scatter
model is the unique element-wise structure that does.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

__all__ = [
    "NakagamiParams",
    "MomentDecomposition",
    "derive_moments",
    "sample_channel",
    "stack",
    "expected_gram",
]


@dataclass(frozen=True)
class NakagamiParams:
    """Nakagami-m fading parameters: shape m and spread omega = E[|h|^2].

    m = 1 is the Rayleigh special case; m >= 0.5 is required for validity.
    """

    m: float
    omega: float

    def __post_init__(self):
        if not (self.m >= 0.5):
            raise ValueError(f"Nakagami shape m must be >= 0.5, got {self.m}")
        if not (self.omega > 0):
            raise ValueError(f"spread omega must be > 0, got {self.omega}")


@dataclass(frozen=True)
class MomentDecomposition:
    """Split of the channel-element spread into squared mean plus variance.

    squared_mean is the square of the mean element amplitude; variance is
    the remaining scatter power.  They sum to the total spread omega.
    """

    squared_mean: float
    variance: float

    @property
    def total(self) -> float:
        return self.squared_mean + self.variance

    @property
    def correlation(self) -> float:
        """Normalized cross-correlation squared_mean / (variance + squared_mean)."""
        return self.squared_mean / self.total


def derive_moments(params: NakagamiParams) -> MomentDecomposition:
    """Reduce Nakagami-m (m, omega) to the (squared mean, variance) pair.

    The mean amplitude of a Nakagami-m variate is
    Gamma(m + 1/2) / Gamma(m) * sqrt(omega / m); its square is the
    squared_mean and the remainder omega - squared_mean is the variance.
    Uses log-gamma so very large m (the deterministic-channel limit) stays
    finite.
    """
    m, omega = params.m, params.omega
    squared_mean = math.exp(2.0 * (math.lgamma(m + 0.5) - math.lgamma(m))) * omega / m
    return MomentDecomposition(squared_mean=squared_mean, variance=omega - squared_mean)


def sample_channel(
    moments: MomentDecomposition,
    dimension: int,
    rng: Generator | Sequence[Generator],
    draws: tuple[int, ...] = (),
) -> np.ndarray:
    """Draw one M x M channel matrix, or a (*draws, M, M) stack of them,
    with i.i.d. mean-plus-scatter entries.

    Each entry is sqrt(squared_mean) + CN(0, variance).  Each matrix takes
    its real scatter parts and then its imaginary ones from the stream, one
    matrix after the other, so a stack equals that many single draws in a
    row and equal seeds give bit-identical matrices.  Given a sequence of
    generators, member i of the (len(rng), *draws, M, M) result is what
    rng[i] alone would give: each fills its own member's normals, and the
    transform runs once over the whole stack.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    sigma = math.sqrt(moments.variance / 2.0)
    single = isinstance(rng, Generator)
    rngs = [rng] if single else rng
    normals = np.empty((len(rngs), *draws, 2, dimension, dimension))
    for member, member_rng in zip(normals, rngs):
        member_rng.standard_normal(out=member)
    scatter = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    channels = math.sqrt(moments.squared_mean) + sigma * scatter
    return channels[0] if single else channels


def stack(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Stack two equal-size square channel matrices into one 2M x M matrix
    [top; bottom]; (..., M, M) stacks are stacked member by member."""
    top = np.asarray(top)
    bottom = np.asarray(bottom)
    if top.shape != bottom.shape or top.ndim < 2 or top.shape[-1] != top.shape[-2]:
        raise ValueError(
            f"expected two equal square matrices, got {top.shape} and {bottom.shape}"
        )
    return np.concatenate([top, bottom], axis=-2)


def expected_gram(moments: MomentDecomposition, dimension: int) -> np.ndarray:
    """Expected Gram matrix E[S S^H] of a stacked channel with these moments.

    For i.i.d. entries with mean sqrt(squared_mean) and scatter variance
    `variance`, the 2M x 2M Gram expectation has M * (variance +
    squared_mean) on the diagonal and M * squared_mean everywhere else.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    n = 2 * dimension
    gram = np.full((n, n), dimension * moments.squared_mean, dtype=complex)
    np.fill_diagonal(gram, dimension * (moments.variance + moments.squared_mean))
    return gram
