"""Coordinated interference-driving beamformer construction.

Each node builds one driver matrix per overlapping neighbor by forcing its
stacked channel response onto a phase-rotated correlation target; the two
drivers of a pair are coupled through each other's channels and are solved
jointly as one square system [S_a S_c] [M_ac; M_ca] = T.  A node's
per-neighbor drivers multiply into a single composite transmit matrix, and
the squared Frobenius norms of all composites sum into the shared power
normalization.

left_pseudoinverse, solve_coupled_drivers, compose and normalization also
take stacks: arrays with leading axes in front of the matrix axes, solved
member by member (a single matrix is the no-leading-axis case).  Each
member's result is bit-identical to solving that member alone.  A failure
raises one SolveError whose mask marks every failing member.
"""
from __future__ import annotations

import math

import numpy as np

from beamlink.channel import MomentDecomposition

__all__ = [
    "SolveError",
    "IllConditionedChannelError",
    "NoUniqueSolutionError",
    "DegenerateNormalizationError",
    "build_rotator",
    "rank_deficient",
    "left_pseudoinverse",
    "solve_coupled_drivers",
    "compose",
    "normalization",
]

RANK_THRESHOLD = 1e-10  # relative singular-value cutoff for rank decisions


class SolveError(ValueError):
    """A solve step failed for some members of its input.

    mask is a boolean array over the input's leading axes marking the
    members that failed; for a single matrix it is a 0-d True.
    """

    def __init__(self, message: str, mask=True):
        super().__init__(message)
        self.mask = np.asarray(mask)


class IllConditionedChannelError(SolveError):
    """Channel too close to rank deficiency to invert."""

    def __init__(self, condition: float, mask=True):
        self.condition = condition
        super().__init__(f"channel ill conditioned, cond ~ {condition:.3e}", mask)


class NoUniqueSolutionError(SolveError):
    """The coupled driver system is singular or nearly so."""


class DegenerateNormalizationError(SolveError):
    """All composite beamformers are numerically zero; no power scale exists."""


def _herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each member of a stack."""
    return a.conj().swapaxes(-1, -2)


def build_rotator(
    moments: MomentDecomposition, dimension: int, rotation_angle: float = math.pi
) -> np.ndarray:
    """Rotator target, 2M x M: first M columns of the normalized correlation, phased.

    The 2M x 2M normalized element correlation has ones on the diagonal and
    squared_mean / (variance + squared_mean) elsewhere; its leading M
    columns, scaled by e^(j * rotation_angle), form the target the drivers
    must reproduce.  Every entry has magnitude <= 1.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    n = 2 * dimension
    corr = np.full((n, n), moments.correlation, dtype=complex)
    np.fill_diagonal(corr, 1.0)
    phase = complex(math.cos(rotation_angle), math.sin(rotation_angle))
    return corr[:, :dimension] * phase


def rank_deficient(sv: np.ndarray) -> np.ndarray:
    """Mask of the members whose singular values (last axis, descending)
    are all zero or whose smallest-to-largest ratio is <= RANK_THRESHOLD."""
    top = sv[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return (top == 0.0) | (sv[..., -1] / top <= RANK_THRESHOLD)


def left_pseudoinverse(channel: np.ndarray) -> np.ndarray:
    """Moore-Penrose left inverse P of a tall or square channel S, by
    numpy.linalg.pinv's formula, bit for bit: of a 2M x M stacked channel,
    or of an M x K effective channel, the trials' zero-forcing equalizer
    (maximum-ratio combining for one column).  P @ S = I to numerical
    tolerance; IllConditionedChannelError's mask marks rank_deficient members.
    """
    u, sv, vh = np.linalg.svd(channel, full_matrices=False)
    bad = rank_deficient(sv)
    if bad.any():
        cond = max(math.inf if s[-1] == 0.0 else s[0] / s[-1] for s in sv[bad])
        raise IllConditionedChannelError(cond, bad)
    return _herm(vh) @ ((1.0 / sv)[..., :, None] * _herm(u))


def solve_coupled_drivers(
    stack_a: np.ndarray, stack_c: np.ndarray, rotator: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly solve the two coupled driver equations of an overlapping pair.

    Each node's stack is the other's cross term, and both share one rotator
    target T: the drivers are the mean-squared-error fit

        S_a M_ac + S_c M_ca = T

    With B = [S_a S_c] square (2M x 2M) and of full rank the fit is exact,
    so [M_ac; M_ca] = B^-1 T, found by one LU solve; it satisfies both
    M_ac = P_a (T - S_c M_ca) and M_ca = P_c (T - S_a M_ac), with P the left
    pseudoinverse of the owner's stack.  Returns (M_ac, M_ca), each M x M
    (each (..., M, M) for (..., 2M, M) stacks, which share the one 2M x M
    rotator).  Raises NoUniqueSolutionError, its mask over every leading
    axis, where B is rank_deficient.
    """
    pair = np.concatenate([stack_a, stack_c], axis=-1)
    bad = rank_deficient(np.linalg.svd(pair, compute_uv=False))
    if bad.any():
        raise NoUniqueSolutionError(
            "stacked pair [S_a S_c] rank deficient; driver pair not unique", bad
        )
    drivers = np.linalg.solve(pair, rotator)
    if not np.all(np.isfinite(drivers)):
        raise ValueError("driver entries must be finite")
    dim = stack_a.shape[-1]
    return drivers[..., :dim, :], drivers[..., dim:, :]


def compose(drivers: list[np.ndarray]) -> np.ndarray:
    """One node's composite beamformer: its drivers multiplied left to right.

    The caller passes the drivers in ascending order of the neighbor each
    one targets.
    """
    if not drivers:
        raise ValueError("cannot compose an empty driver list")
    product = drivers[0]
    for d in drivers[1:]:
        product = product @ d
    return product


def normalization(composites: list[np.ndarray]) -> float | np.ndarray:
    """Sum of squared Frobenius norms over all participating composites.

    A float for single matrices; for (..., M, M) stacks an array holding
    one sum per member.  Only a sum that is not positive or not finite is
    degenerate: g scales as 1 / tx_power, so any fixed floor would erase
    every trial of a valid high-power scenario.
    """
    if not composites:
        raise ValueError("normalization needs at least one composite")
    with np.errstate(over="ignore"):  # an overflow is inf: degenerate, not a warning
        total = sum(np.sum(np.abs(c) ** 2, axis=(-2, -1)) for c in composites)
    bad = ~((total > 0.0) & np.isfinite(total))
    if bad.any():
        raise DegenerateNormalizationError(
            f"normalization {np.asarray(total)[bad][0]:.3e} not positive and finite; "
            "cannot divide",
            bad,
        )
    return total
